// Fixture: same content as kernel_mutable_violation.hpp with the finding
// waived — the linter must report nothing.
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
  // contract-lint: allow(nn-mutable) fixture: single-threaded demo kernel, never shared across workers
  mutable std::shared_ptr<std::vector<float>> pack_;
};

}  // namespace demo
