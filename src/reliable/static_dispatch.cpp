#include "reliable/static_dispatch.hpp"

#include <cstdlib>

namespace hybridcnn::reliable::detail {

namespace {

bool read_env_simd_enabled() {
  // Kill-switch semantics: only the literal "0" disables. Unset or any
  // other value leaves the vectorized fast path on.
  const char* v = std::getenv("HYBRIDCNN_RELIABLE_SIMD");
  return !(v != nullptr && v[0] == '0' && v[1] == '\0');
}

bool& simd_flag() noexcept {
  static bool flag = read_env_simd_enabled();
  return flag;
}

}  // namespace

bool reliable_simd_enabled() noexcept { return simd_flag(); }

void set_reliable_simd_enabled(bool enabled) noexcept {
  simd_flag() = enabled;
}

}  // namespace hybridcnn::reliable::detail
