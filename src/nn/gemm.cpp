#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "nn/gemm_ref.hpp"
#include "runtime/isa.hpp"
#include "runtime/workspace.hpp"

namespace hybridcnn::nn {

namespace {

// Register tile of the micro-kernel, sized from the shared ISA ladder
// (runtime/isa.hpp) so the accumulator block fills (but does not spill)
// the vector register file: 16 zmm accumulators on AVX-512 (8x2 vectors),
// 12 ymm on AVX (6x2), 8 on 128-bit targets (4x2). GCC's
// auto-vectoriser does not handle this loop nest (tested: ~10x slower),
// hence the explicit vectors.
using Vf = runtime::isa::VecF;
constexpr std::size_t kVec = runtime::isa::kFloatLanes;
constexpr std::size_t kMr = kVec == 16 ? 8 : kVec == 8 ? 6 : 4;
constexpr std::size_t kNrVec = 2;
constexpr std::size_t kNr = kVec * kNrVec;
// K-panel depth: one A micro-panel (kMr * kKc floats) plus one B
// micro-panel (kNr * kKc floats) stay cache-resident.
constexpr std::size_t kKc = 256;
// Below this op count the packing + dispatch overhead beats the win;
// fall through to the reference kernels.
constexpr std::size_t kSmallProblem = 48 * 48 * 48;

using runtime::isa::splat;

/// Element accessor for a logical [rows x cols] matrix that may be stored
/// transposed: stored row-major [rows x cols] (ld = cols) or, when
/// `trans`, as [cols x rows] (ld = rows).
inline std::size_t at(std::size_t r, std::size_t c, std::size_t ld,
                      bool trans) noexcept {
  return trans ? c * ld + r : r * ld + c;
}

/// Packs A panel rows [i0, i0+mr) x cols [kb, kb+kc) into p-major
/// micro-panel layout dst[p * kMr + r], zero-padding rows past mr.
void pack_a_panel(const float* a, std::size_t lda, bool trans,
                  std::size_t i0, std::size_t mr, std::size_t kb,
                  std::size_t kc, float* dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t r = 0; r < kMr; ++r) {
      dst[p * kMr + r] =
          r < mr ? a[at(i0 + r, kb + p, lda, trans)] : 0.0f;
    }
  }
}

/// Packs B panel rows [kb, kb+kc) x cols [j0, j0+nr) into p-major
/// micro-panel layout dst[p * kNr + c], zero-padding cols past nr.
void pack_b_panel(const float* b, std::size_t ldb, bool trans,
                  std::size_t j0, std::size_t nr, std::size_t kb,
                  std::size_t kc, float* dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t c = 0; c < kNr; ++c) {
      dst[p * kNr + c] =
          c < nr ? b[at(kb + p, j0 + c, ldb, trans)] : 0.0f;
    }
  }
}

/// acc[kMr x kNr] = Apanel * Bpanel over kc (acc fully overwritten).
void micro_kernel(const float* __restrict ap, const float* __restrict bp,
                  std::size_t kc, float* __restrict acc) {
  Vf a[kMr][kNrVec];
  for (auto& row : a) {
    for (auto& v : row) v = Vf{};
  }
  for (std::size_t p = 0; p < kc; ++p) {
    Vf b[kNrVec];
    for (std::size_t q = 0; q < kNrVec; ++q) {
      b[q] = runtime::isa::loadu(bp + p * kNr + q * kVec);
    }
    for (std::size_t i = 0; i < kMr; ++i) {
      const Vf av = splat(ap[p * kMr + i]);
      for (std::size_t q = 0; q < kNrVec; ++q) a[i][q] += av * b[q];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t q = 0; q < kNrVec; ++q) {
      runtime::isa::storeu(acc + i * kNr + q * kVec, a[i][q]);
    }
  }
}

/// Blocked driver: C[m x n] (+)= op(A) * op(B) with op(A) logically
/// [m x k] and op(B) logically [k x n]. `accumulate` selects += vs =.
///
/// Loop order is kb (serial) -> pack panels -> C tiles (parallel). Each C
/// element is accumulated in fixed k order inside one tile, so the result
/// does not depend on the thread count.
void gemm_blocked(std::size_t m, std::size_t k, std::size_t n,
                  const float* a, std::size_t lda, bool trans_a,
                  const float* b, std::size_t ldb, bool trans_b, float* c,
                  bool accumulate, runtime::ComputeContext& ctx) {
  const std::size_t mblocks = (m + kMr - 1) / kMr;
  const std::size_t nblocks = (n + kNr - 1) / kNr;

  runtime::Workspace& shared = ctx.workspace();
  runtime::Workspace::Scope scope(shared);
  float* apack = shared.alloc(mblocks * kMr * kKc);
  float* bpack = shared.alloc(nblocks * kNr * kKc);

  for (std::size_t kb = 0; kb < k; kb += kKc) {
    const std::size_t kc = std::min(kKc, k - kb);
    const bool acc_tile = accumulate || kb > 0;

    // One dispatch packs both panels: indices [0, mblocks) are A panels,
    // [mblocks, mblocks + nblocks) are B panels — disjoint writes.
    ctx.pool().parallel_for(0, mblocks + nblocks, [&](std::size_t t) {
      if (t < mblocks) {
        const std::size_t ib = t;
        pack_a_panel(a, lda, trans_a, ib * kMr, std::min(kMr, m - ib * kMr),
                     kb, kc, apack + ib * kMr * kKc);
      } else {
        const std::size_t jb = t - mblocks;
        pack_b_panel(b, ldb, trans_b, jb * kNr, std::min(kNr, n - jb * kNr),
                     kb, kc, bpack + jb * kNr * kKc);
      }
    });

    // Row-major tile order: consecutive tiles in a chunk reuse one A
    // micro-panel.
    ctx.pool().parallel_for(0, mblocks * nblocks, [&](std::size_t t) {
      const std::size_t ib = t / nblocks;
      const std::size_t jb = t % nblocks;
      const std::size_t i0 = ib * kMr;
      const std::size_t j0 = jb * kNr;
      const std::size_t mr = std::min(kMr, m - i0);
      const std::size_t nr = std::min(kNr, n - j0);

      float acc[kMr * kNr];  // fully written by the micro-kernel
      micro_kernel(apack + ib * kMr * kKc, bpack + jb * kNr * kKc, kc, acc);

      for (std::size_t i = 0; i < mr; ++i) {
        float* crow = c + (i0 + i) * n + j0;
        const float* arow = acc + i * kNr;
        if (acc_tile) {
          for (std::size_t j = 0; j < nr; ++j) crow[j] += arow[j];
        } else {
          for (std::size_t j = 0; j < nr; ++j) crow[j] = arow[j];
        }
      }
    });
  }
}

inline bool small_problem(std::size_t m, std::size_t k,
                          std::size_t n) noexcept {
  return m * k * n <= kSmallProblem;
}

}  // namespace

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, runtime::ComputeContext& ctx) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    ref::gemm(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, k, false, b, n, false, c, /*accumulate=*/false,
               ctx);
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    ref::gemm(m, k, n, a, b, c);
    return;
  }
  gemm(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c, runtime::ComputeContext& ctx) {
  if (small_problem(m, k, n)) {
    ref::gemm_acc(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, k, false, b, n, false, c, /*accumulate=*/true,
               ctx);
}

void gemm_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c) {
  if (small_problem(m, k, n)) {
    ref::gemm_acc(m, k, n, a, b, c);
    return;
  }
  gemm_acc(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c, runtime::ComputeContext& ctx) {
  if (small_problem(m, k, n)) {
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, m, true, b, n, false, c, /*accumulate=*/true,
               ctx);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c) {
  if (small_problem(m, k, n)) {
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_at_b(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_at_b_assign(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c,
                      runtime::ComputeContext& ctx) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    std::memset(c, 0, m * n * sizeof(float));
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, m, true, b, n, false, c, /*accumulate=*/false,
               ctx);
}

void gemm_at_b_assign(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    std::memset(c, 0, m * n * sizeof(float));
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_at_b_assign(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c, runtime::ComputeContext& ctx) {
  if (small_problem(m, k, n)) {
    ref::gemm_a_bt(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, k, false, b, k, true, c, /*accumulate=*/true,
               ctx);
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c) {
  if (small_problem(m, k, n)) {
    ref::gemm_a_bt(m, k, n, a, b, c);
    return;
  }
  gemm_a_bt(m, k, n, a, b, c, runtime::ComputeContext::global());
}

}  // namespace hybridcnn::nn
