// Fixture: trips `nn-mutable` (and only it) — a reliable kernel that
// builds its weight pack lazily behind a mutable cache.
#pragma once

#include <memory>
#include <vector>

namespace demo {

class CachingKernel {
 public:
  const std::vector<float>& pack() const {
    if (!pack_) pack_ = std::make_shared<std::vector<float>>(16, 0.0f);
    return *pack_;
  }

 private:
  mutable std::shared_ptr<std::vector<float>> pack_;
};

}  // namespace demo
