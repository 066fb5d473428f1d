// Shared ISA selection for hand-vectorized kernels.
//
// One compile-time ladder picks the widest float vector the target
// supports — AVX-512 (16 lanes), AVX (8), any other GCC/clang target
// (4, via 128-bit vectors: SSE/NEON), or no vectors at all — using
// GCC/clang vector extensions, which compile to plain SIMD without
// intrinsics. All three explicit-SIMD consumers sit on this header:
//
//   * nn/gemm.cpp — the blocked GEMM micro-kernel sizes its register
//     tile from kFloatLanes (the accumulator block must fill but not
//     spill the vector register file);
//   * reliable/static_dispatch.hpp — the fault-free qualified kernels
//     vectorize across independent output channels or pixels in
//     kFloatLanes-wide blocks (never the reduction axis, so every lane
//     reproduces the scalar operation order bit for bit);
//   * util/rng.cpp — the Bernoulli scan steps kU64Lanes PCG32 stream
//     positions per VecU64 (the same register width as VecF); on the
//     AVX-512 tier it takes PCG32's output rotation from rotr32().
//     Both test lanes with any_sign().
//
// When HYBRIDCNN_ISA_SIMD is not defined (non-GNU compilers), VecF, VecU64
// and the load/store helpers do not exist; consumers must provide a scalar
// fallback path behind the same macro.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) && defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "util/contracts.hpp"

namespace hybridcnn::runtime::isa {

#if defined(__GNUC__) && defined(__AVX512F__)
#define HYBRIDCNN_ISA_SIMD 1
inline constexpr std::size_t kFloatLanes = 16;  // one zmm
typedef float VecF __attribute__((vector_size(64)));
typedef std::uint64_t VecU64 __attribute__((vector_size(64)));
inline constexpr const char* kIsaName = "avx512";
#elif defined(__GNUC__) && defined(__AVX__)
#define HYBRIDCNN_ISA_SIMD 1
inline constexpr std::size_t kFloatLanes = 8;  // one ymm
typedef float VecF __attribute__((vector_size(32)));
typedef std::uint64_t VecU64 __attribute__((vector_size(32)));
inline constexpr const char* kIsaName = "avx";
#elif defined(__GNUC__)
#define HYBRIDCNN_ISA_SIMD 1
inline constexpr std::size_t kFloatLanes = 4;  // one xmm / NEON quad
typedef float VecF __attribute__((vector_size(16)));
typedef std::uint64_t VecU64 __attribute__((vector_size(16)));
inline constexpr const char* kIsaName = "vec128";
#else
inline constexpr std::size_t kFloatLanes = 1;
inline constexpr const char* kIsaName = "scalar";
#endif

// Lane-width contracts every SIMD consumer leans on: the overlapping
// remainder blocks in the reliable kernels and the GEMM register tiles
// assume the vector is exactly kFloatLanes floats and that lane counts
// are powers of two (mask and padding arithmetic uses & / % freely).
HYBRIDCNN_CONTRACT(util::contracts::is_pow2(kFloatLanes),
                   "kFloatLanes must be a power of two: pack paddings and "
                   "tail masks round with power-of-two arithmetic");
#ifdef HYBRIDCNN_ISA_SIMD
HYBRIDCNN_CONTRACT(sizeof(VecF) == kFloatLanes * sizeof(float),
                   "VecF must hold exactly kFloatLanes floats: loadu/storeu "
                   "move sizeof(VecF) bytes and kernels step kFloatLanes");
/// 64-bit integer lanes in one VecF-sized register.
inline constexpr std::size_t kU64Lanes =
    sizeof(VecU64) / sizeof(std::uint64_t);
#endif

#ifdef HYBRIDCNN_ISA_SIMD

/// All lanes set to `x`. The scalar-vector binop broadcasts in one
/// instruction; subtracting the zero vector is an exact IEEE identity
/// for every bit pattern (including -0.0, infinities and NaN payloads),
/// so the compiler folds it away — unlike a per-lane insert loop, which
/// GCC can lower to a chain of masked broadcasts.
inline VecF splat(float x) noexcept { return x - VecF{}; }

/// Unaligned vector load.
inline VecF loadu(const float* p) noexcept {
  VecF v;
  __builtin_memcpy(&v, p, sizeof(VecF));
  return v;
}

/// Unaligned vector store.
inline void storeu(float* p, const VecF& v) noexcept {
  __builtin_memcpy(p, &v, sizeof(VecF));
}

#endif  // HYBRIDCNN_ISA_SIMD

// Integer helpers the vector extensions do not lower well. GCC emits
// neither vprorvd from the shift-or rotate idiom nor a mask test from a
// lane-by-lane OR, so the AVX-512 tier names the instructions.
#if defined(__GNUC__) && defined(__AVX512F__)
#define HYBRIDCNN_ISA_ROTR32 1
/// Every 32-bit half of `x` rotated right by the matching half of `n`
/// (mod 32): one vprorvd. (The all-lanes zero-mask form: GCC 12's
/// unmasked intrinsic reads an undefined vector that
/// -Wmaybe-uninitialized reports.)
inline VecU64 rotr32(VecU64 x, VecU64 n) noexcept {
  return reinterpret_cast<VecU64>(_mm512_maskz_rorv_epi32(
      static_cast<__mmask16>(0xFFFF), reinterpret_cast<__m512i>(x),
      reinterpret_cast<__m512i>(n)));
}

/// True if some lane of `m` has its sign bit set: one vptestmq.
inline bool any_sign(VecU64 m) noexcept {
  return _mm512_test_epi64_mask(reinterpret_cast<__m512i>(m),
                                _mm512_set1_epi64(INT64_MIN)) != 0;
}
#elif defined(HYBRIDCNN_ISA_SIMD)
/// True if some lane of `m` has its sign bit set.
inline bool any_sign(VecU64 m) noexcept {
  std::uint64_t any = 0;
  for (std::size_t l = 0; l < kU64Lanes; ++l) any |= m[l];
  return (any >> 63) != 0;
}
#endif

}  // namespace hybridcnn::runtime::isa
