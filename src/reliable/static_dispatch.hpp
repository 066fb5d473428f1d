// Statically dispatched qualified kernels.
//
// The generic reliable kernels (ReliableConv2d::forward_generic, ...) pay
// two virtual Executor calls, a generic retry lambda, and per-tap padding
// branches per scalar MAC — C++ dispatch overhead the paper's Table-1
// numbers should not include. This header provides the devirtualized
// machinery the public forward() entry points select once per call:
//
//   * valid_taps/tap_ranges — per-output-coordinate valid kernel-tap
//     intervals, hoisting the iy/ix boundary branches out of the inner
//     loop. The set and order of executed taps is exactly that of the
//     generic loop's `continue` filtering.
//   * QualifiedOpRunner — Algorithm 3's per-operation retry machinery
//     split into an always-inline success fast path and a cold noinline
//     slow path (rollback / retry / leaky-bucket escalation). Counter
//     updates replicate the generic retry loop step for step.
//   * conv_forward_qualified — the inner kernel templated over the
//     concrete executor type (Simplex/Dmr/Tmr are final), so mul/add
//     fold into the loop with no virtual calls or per-op lambdas
//     surviving to codegen. ReliableLinear runs on it as a 1 x in conv,
//     so there is no separate dense kernel.
//     The public forward() entry points first ask the one execution
//     gate, the counting Executor::take_clean, for the whole forward's
//     ops, which is answered in O(1) when no fault can land. When it
//     grants less, the kernels walk the outputs in the generic loop order
//     from fault to fault: the granted ops are a credit, credited in
//     closed form at grant time. Outputs the credit covers are computed by
//     the raw kernels below; only the op each fault lands on runs the
//     per-op envelope, after which the rest of the forward is asked for
//     again. A forward whose input, weights or bias hold a NaN takes no
//     window at all (holds_nan, params_hold_nan).
//   * conv_raw_compute — raw arithmetic in the identical operation order
//     for granted windows, whose values never depend on the fault
//     stream. Two vector strategies (runtime/isa.hpp) exist, both
//     vectorizing across *independent outputs* — never the (c, ky, kx)
//     reduction — so bit-identity with the per-op loop holds by
//     construction:
//       - pixel lanes (conv_simd_rows): kFloatLanes adjacent interior
//         output pixels of one row per vector on stride-1 convs, weights
//         re-broadcast per tap; border pixels stay scalar.
//       - channel lanes (conv_channel_pixels): kFloatLanes output
//         channels per vector over a [ky][kx][c][o] WeightPack repacked
//         once, when the kernel is built, so every tap is one
//         contiguous weight vector load times a scalar input broadcast.
//         All lanes of a vector share (oy, ox) and therefore the tap
//         ranges, so borders run through the same kernel — no
//         interior/border split; the padded channel tail scatters only
//         its valid lanes.
//     A fixed rule over the conv's shape picks the strategy (see
//     channel_lanes_selected); no setting overrides it. The raw compute
//     additionally fans its disjoint output slices across the global
//     runtime::ThreadPool ((block group x row) or (channel x row-group)
//     units), while the window walk that owns the fault stream stays
//     serial, so outputs and statistics are bit-identical at every thread
//     count.
//
// The qualified kernels are additionally templated on a WithReport flag:
// ReportMode::kStatsOnly instantiations skip every per-op
// ExecutionReport counter update (campaign sweeps that only consume the
// CampaignSummary pay no report-assembly cost) while preserving output
// bits, abort behaviour, report.ok and all executor/injector statistics.
//
// Bit-identity contract: for every (input, executor, injector-seed), a
// specialized kernel must produce the same output bits, the same
// ExecutionReport fields, the same ExecutorStats/InjectorStats, and the
// same injector cursor as the generic path. tests/test_static_dispatch.cpp
// and tests/test_simd_dispatch.cpp enforce this across schemes, fault
// kinds, geometries and report modes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "reliable/checkpoint.hpp"
#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "util/contracts.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/report.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable::detail {

/// Half-open interval of kernel-tap indices that land in-bounds.
struct TapRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive; begin == end when no tap is valid
  [[nodiscard]] std::size_t count() const noexcept { return end - begin; }
};

/// Valid taps for output coordinate `o`: the k in [0, k_size) with
/// 0 <= o*stride + k - pad < n. The interval is contiguous, so the
/// per-tap boundary test of the generic loop reduces to two bounds.
inline TapRange valid_taps(std::size_t o, std::size_t stride,
                           std::size_t pad, std::size_t k_size,
                           std::size_t n) noexcept {
  const auto base =
      static_cast<std::int64_t>(o * stride) - static_cast<std::int64_t>(pad);
  std::int64_t lo = base < 0 ? -base : 0;
  std::int64_t hi = static_cast<std::int64_t>(n) - base;
  if (hi > static_cast<std::int64_t>(k_size)) {
    hi = static_cast<std::int64_t>(k_size);
  }
  if (hi < lo) hi = lo;
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

/// Valid-tap intervals for every output coordinate along one axis.
inline std::vector<TapRange> tap_ranges(std::size_t out_n, std::size_t stride,
                                        std::size_t pad, std::size_t k_size,
                                        std::size_t in_n) {
  std::vector<TapRange> ranges(out_n);
  for (std::size_t o = 0; o < out_n; ++o) {
    ranges[o] = valid_taps(o, stride, pad, k_size, in_n);
  }
  return ranges;
}

/// Invokes `fn` with `exec` downcast to its concrete scheme type, so the
/// callee instantiates against the final class and the compiler inlines
/// mul_inline/add_inline. The single place that maps Scheme to a type —
/// every forward() dispatch site routes through here. Precondition:
/// scheme != Scheme::kCustom (the public entry points filter custom
/// executors onto the generic path first).
template <typename Fn>
void with_concrete_executor(Scheme scheme, Executor& exec, Fn&& fn) {
  switch (scheme) {
    case Scheme::kSimplex:
      fn(static_cast<SimplexExecutor&>(exec));
      return;
    case Scheme::kDmr:
      fn(static_cast<DmrExecutor&>(exec));
      return;
    case Scheme::kTmr:
      fn(static_cast<TmrExecutor&>(exec));
      return;
    case Scheme::kCustom:
      break;
  }
  assert(false && "with_concrete_executor: custom scheme has no concrete type");
}

/// Algorithm 3's per-operation envelope for one qualified kernel run, split
/// so the common success case stays on a straight-line inlined path. It
/// owns the run's leaky bucket, the flat op index failed_op_index reports
/// and the credit of the fault-to-fault walk. run() evaluates one op;
/// qualified success commits and returns immediately. The first failure
/// drops to the cold slow path, which replicates the generic retry loop
/// exactly: rollback, leaky-bucket escalation, per-op retry cap,
/// re-execution.
///
/// The credit: the counting gate (Executor::take_clean) grants the ops up
/// to the next faulty one, and grant() credits them in closed form at once
/// (bucket, op index, report), exactly as that many first-attempt
/// successes would be: they all come before the next op run() sees, so the
/// sequence of events is the same. The walk then spends the credit op by
/// op or output by output (spend) and computes those ops as raw
/// arithmetic. The op where the credit runs out goes through run(), and
/// after it commits, run() asks the gate again for every op left.
///
/// WithReport=false (ReportMode::kStatsOnly) compiles out every report
/// counter update; control flow, checkpoint traffic and executor calls
/// are untouched, so outputs and executor/injector statistics stay
/// bit-identical to the full-report instantiation.
template <typename Exec, bool WithReport = true>
struct QualifiedOpRunner {
  Exec& exec;
  ExecutionReport& report;
  LeakyBucket bucket;
  std::uint32_t max_retries_per_op;
  std::int64_t op_index = 0;  ///< flat index past every op credited or run
  std::uint64_t credit = 0;   ///< ops granted and credited, not yet walked
  /// Ops of the forward past the credit that are neither granted nor run;
  /// 0 when the forward takes no windows, so the gate is never asked.
  std::uint64_t ungranted = 0;

  /// `windowed_ops` is the forward's op count when it takes windows, else
  /// 0; `granted` is how many of them the forward's first ask got.
  QualifiedOpRunner(Exec& e, ExecutionReport& r,
                    const ReliabilityPolicy& policy,
                    std::uint64_t windowed_ops, std::uint64_t granted)
      : exec(e),
        report(r),
        bucket(policy.bucket_factor, policy.bucket_ceiling),
        max_retries_per_op(policy.max_retries_per_op),
        ungranted(windowed_ops) {
    grant(granted);
  }

  /// Credits `ops` ops the gate granted and adds them to the credit.
  void grant(std::uint64_t ops) {
    bucket.record_successes(ops);
    op_index += static_cast<std::int64_t>(ops);
    if constexpr (WithReport) {
      report.logical_ops += ops;
      report.commits += ops;
    }
    credit += ops;
    ungranted -= ops;
  }

  /// Walks `ops` granted ops if the credit covers them all.
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE bool spend(std::uint64_t ops = 1) {
    if (credit < ops) return false;
    credit -= ops;
    return true;
  }

  template <typename Op>
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE std::optional<float> run(
      Op op, ScalarCheckpoint& cp) {
    ++op_index;
    if constexpr (WithReport) ++report.logical_ops;
    const Qualified<float> q = op(exec);
    if (q.ok) [[likely]] {
      bucket.record_success();
      cp.commit(q.value);
      if constexpr (WithReport) ++report.commits;
      ask_again();
      return q.value;
    }
    const std::optional<float> value = run_slow(op, cp);
    if (value) ask_again();
    return value;
  }

  /// After a committed run() op: asks the gate for every op left.
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE void ask_again() {
    if (ungranted != 0 && --ungranted != 0) grant(exec.take_clean(ungranted));
  }

  /// Cold path; returns std::nullopt when the error is persistent (bucket
  /// ceiling or retry cap), mirroring the generic run_qualified loop from
  /// its first detected error onwards.
  template <typename Op>
  HYBRIDCNN_RELIABLE_NOINLINE std::optional<float> run_slow(
      Op op, ScalarCheckpoint& cp) {
    for (std::uint32_t attempt = 0;; ++attempt) {
      if constexpr (WithReport) ++report.detected_errors;
      (void)cp.rollback();  // discard the unqualified value
      if constexpr (WithReport) ++report.rollbacks;
      if (bucket.record_error()) {
        return std::nullopt;  // persistent: ceiling reached
      }
      if (attempt + 1 >= max_retries_per_op) {
        return std::nullopt;  // persistent: retry cap
      }
      if constexpr (WithReport) {
        ++report.retries;  // rollback distance: exactly one operation
      }
      const Qualified<float> q = op(exec);
      if (q.ok) {
        bucket.record_success();
        if constexpr (WithReport) {
          ++report.corrected_errors;  // recovered on a retry
        }
        cp.commit(q.value);
        if constexpr (WithReport) ++report.commits;
        return q.value;
      }
    }
  }

  /// Ends the run. On abort (the last run() op failed persistently) the
  /// report is marked failed at that op; either way it records the
  /// bucket's final state. Under kStatsOnly only `ok` is kept.
  void finish(bool aborted) {
    if (aborted) report.ok = false;
    if constexpr (WithReport) {
      if (aborted) report.failed_op_index = op_index - 1;
      report.bucket_peak = bucket.peak();
      report.bucket_exhausted = bucket.exhausted();
    }
  }
};

/// An output the per-op path produced, by flat index; the windowed
/// kernels patch these over the raw-arithmetic outputs.
struct PerOpOutput {
  std::size_t index;
  float value;
};

/// Output assembly of a windowed kernel. Outputs [0, end) hold values —
/// all of them, or up to and including an aborted one — and `per_op`
/// lists those the per-op path produced. The rest were granted clean
/// windows and come from `raw(out)`, which computes every output as raw
/// arithmetic, whose values never depend on the fault stream. Outputs
/// from `end` on stay 0, as the per-op path leaves them after an abort.
template <typename Raw>
void assemble_windowed(float* out, std::size_t count, std::size_t end,
                       const std::vector<PerOpOutput>& per_op, Raw&& raw) {
  if (per_op.size() < end) raw(out);  // some output was granted
  for (const PerOpOutput& o : per_op) out[o.index] = o.value;
  std::fill(out + end, out + count, 0.0f);
}

/// True if any of the `n` values is a NaN. The raw kernels do not pin NaN
/// payloads (detail::pin_nan), so a receptive field holding two different
/// NaNs could leave them with another payload than the per-op path: a
/// forward over such an input, or with such weights or bias, takes no
/// clean window. Branch-free with an int accumulator (a bool one does not
/// vectorize), so the one pass per forward runs at vector width.
inline bool holds_nan(const float* v, std::size_t n) noexcept {
  int nan = 0;
  for (std::size_t i = 0; i < n; ++i) nan |= v[i] != v[i];
  return nan != 0;
}

/// holds_nan over a layer's weights and bias, checked once, when the
/// layer is constructed.
inline bool params_hold_nan(const tensor::Tensor& weights,
                            const tensor::Tensor& bias) noexcept {
  return holds_nan(weights.data().data(), weights.count()) ||
         holds_nan(bias.data().data(), bias.count());
}

/// Flat dimensions of a CHW-in / OIHW-weights convolution, plus the
/// hoisted valid-tap intervals.
struct ConvPlan {
  std::size_t out_c = 0, out_h = 0, out_w = 0;
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t kh = 0, kw = 0;
  std::size_t stride = 0, pad = 0;
  std::vector<TapRange> row_taps;  ///< valid ky per oy
  std::vector<TapRange> col_taps;  ///< valid kx per ox
  /// Interior ox span: the contiguous [interior_x_begin, interior_x_end)
  /// where col_taps[ox] is the full [0, kw) — every kx tap of every lane
  /// lands in-bounds, which is what lets the SIMD fast path run whole
  /// kx rows without per-tap boundary tests. Empty (begin == end == 0)
  /// when no ox has a full tap range. Rows need no such split: lanes
  /// within one vector share oy, so any row tap range works.
  std::size_t interior_x_begin = 0;
  std::size_t interior_x_end = 0;

  ConvPlan(const tensor::Shape& out_shape, const tensor::Shape& in_shape,
           const tensor::Shape& w_shape, std::size_t stride_,
           std::size_t pad_)
      : out_c(out_shape[0]), out_h(out_shape[1]), out_w(out_shape[2]),
        in_c(in_shape[0]), in_h(in_shape[1]), in_w(in_shape[2]),
        kh(w_shape[2]), kw(w_shape[3]), stride(stride_), pad(pad_),
        row_taps(tap_ranges(out_h, stride, pad, kh, in_h)),
        col_taps(tap_ranges(out_w, stride, pad, kw, in_w)) {
    // Full tap ranges form one contiguous run (begin hits 0 once ox*stride
    // >= pad and stays there; end drops below kw only near the right
    // border), so a single scan finds the interior.
    while (interior_x_begin < out_w &&
           !(col_taps[interior_x_begin].begin == 0 &&
             col_taps[interior_x_begin].end == kw)) {
      ++interior_x_begin;
    }
    interior_x_end = interior_x_begin;
    while (interior_x_end < out_w && col_taps[interior_x_end].begin == 0 &&
           col_taps[interior_x_end].end == kw) {
      ++interior_x_end;
    }
    if (interior_x_begin == out_w) interior_x_begin = interior_x_end = 0;
  }

  /// Logical MACs of one forward: separable closed form.
  [[nodiscard]] std::uint64_t macs() const noexcept {
    std::uint64_t row_total = 0;
    for (const TapRange& r : row_taps) row_total += r.count();
    std::uint64_t col_total = 0;
    for (const TapRange& r : col_taps) col_total += r.count();
    return static_cast<std::uint64_t>(out_c) * in_c * row_total * col_total;
  }
};

/// Output-channel extent rounded up to the vector width, the lane
/// padding the channel-lane pack uses.
inline constexpr std::size_t channel_pack_width(std::size_t oc) noexcept {
  constexpr std::size_t lanes = runtime::isa::kFloatLanes;
  return (oc + lanes - 1) / lanes * lanes;
}

// Pack-padding contracts: the channel-lane kernel loads whole vectors at
// block offsets o0 = k * kFloatLanes and relies on the padded extent
// being the *tightest* lane multiple — looser padding would add a
// phantom all-zero block the block-unit slicing fans out as real work.
HYBRIDCNN_CONTRACT(util::contracts::is_padded_to(
                       channel_pack_width(1), 1, channel_pack_width(1)) &&
                       channel_pack_width(1) == runtime::isa::kFloatLanes,
                   "one output channel pads to exactly one vector block");
HYBRIDCNN_CONTRACT(channel_pack_width(runtime::isa::kFloatLanes) ==
                       runtime::isa::kFloatLanes,
                   "a full block must not grow a padding block");
HYBRIDCNN_CONTRACT(channel_pack_width(96) % runtime::isa::kFloatLanes == 0 &&
                       channel_pack_width(96) - 96 <
                           runtime::isa::kFloatLanes,
                   "padding is the tightest lane multiple (AlexNet conv1's "
                   "96 maps are the load-bearing case)");

/// Channel-lane weight layout for the fault-free fast path: the OIHW
/// weights repacked into [ky][kx][c][o] panels with the output-channel
/// axis padded to the vector width, so every (c, ky, kx) tap of a
/// channel block is one contiguous vector load (the pixel-lane kernel
/// instead re-broadcasts each weight scalar per tap). Padding lanes
/// carry zero weights/bias and are never stored back, so they cannot
/// perturb outputs. The pack is input-shape independent — one pack
/// serves every forward geometry — and its owner (ReliableConv2d) builds
/// it once, at construction.
struct WeightPack {
  std::vector<float> weights;  ///< [(ky*kw + kx)*in_c + c][padded_oc]
  std::vector<float> bias;     ///< [padded_oc], zero beyond oc
  std::size_t oc = 0;
  std::size_t padded_oc = 0;
  std::size_t in_c = 0;
  std::size_t kh = 0;
  std::size_t kw = 0;
};

inline WeightPack build_weight_pack(std::size_t oc, std::size_t in_c,
                                    std::size_t kh, std::size_t kw,
                                    const float* weights, const float* bias) {
  WeightPack pack;
  pack.oc = oc;
  pack.padded_oc = channel_pack_width(oc);
  pack.in_c = in_c;
  pack.kh = kh;
  pack.kw = kw;
  pack.weights.assign(kh * kw * in_c * pack.padded_oc, 0.0f);
  pack.bias.assign(pack.padded_oc, 0.0f);
  for (std::size_t o = 0; o < oc; ++o) {
    pack.bias[o] = bias[o];
    for (std::size_t c = 0; c < in_c; ++c) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          pack.weights[((ky * kw + kx) * in_c + c) * pack.padded_oc + o] =
              weights[((o * in_c + c) * kh + ky) * kw + kx];
        }
      }
    }
  }
  return pack;
}

/// One fault-free output pixel: the scalar reduction every path — border
/// pixel, vector lane, generic oracle — must reproduce bit for bit.
HYBRIDCNN_RELIABLE_ALWAYS_INLINE float conv_raw_pixel(
    const ConvPlan& plan, const float* input, const float* weights, float b,
    std::size_t o, std::size_t oy, std::size_t ox,
    const TapRange ry) noexcept {
  const TapRange rx = plan.col_taps[ox];
  float acc = b;
  for (std::size_t c = 0; c < plan.in_c; ++c) {
    for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
      const std::size_t iy = oy * plan.stride + ky - plan.pad;
      const std::size_t in_base = (c * plan.in_h + iy) * plan.in_w;
      const float* w_row =
          weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
      for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
        const std::size_t ix = ox * plan.stride + kx - plan.pad;
        acc = acc + input[in_base + ix] * w_row[kx];
      }
    }
  }
  return acc;
}

/// Output rows with full vertical tap ranges are processed in groups of
/// up to this many rows at once. Each row keeps its own accumulator (its
/// own scalar-order chain — bit-identity is per lane per row), but the
/// chains are independent, so interleaving them hides the vector-add
/// latency a single chain is bound by, and the per-tap weight broadcast
/// is shared across the group.
inline constexpr std::size_t kSimdRowUnroll = 4;

/// One lane-width block of interior output pixels for R adjacent output
/// rows of a stride-1 conv: lane l of acc[r] accumulates output pixel
/// (oy0+r, ox0+l). The lane inputs are adjacent, so one unaligned vector
/// load serves each tap. The reduction runs in the scalar order — per
/// (c, ky, kx) one weight broadcast and one per-lane mul-then-add — so
/// every lane performs exactly the scalar pixel's operation sequence
/// (vector mul/add are lane-wise IEEE ops and the reliable subsystem
/// compiles with -ffp-contract=off, so no fusion can reassociate them).
/// For R > 1 the caller guarantees all R rows share the full vertical tap
/// range `ry`; R == 1 accepts any row's range.
template <std::size_t R>
HYBRIDCNN_RELIABLE_ALWAYS_INLINE void conv_simd_rows(
    const ConvPlan& plan, const float* input, const float* weights, float b,
    std::size_t o, std::size_t oy0, std::size_t ox0, const TapRange ry,
    float* out) noexcept {
  namespace isa = runtime::isa;
  static_assert(R >= 1 && R <= kSimdRowUnroll);
  isa::VecF acc[R];
  for (std::size_t r = 0; r < R; ++r) acc[r] = isa::splat(b);
  // Interior ox: ox >= pad (tap 0 valid), so the unsigned subtraction
  // cannot wrap, and tap kw-1 lands in-bounds for every lane.
  const std::size_t base = ox0 - plan.pad;
  for (std::size_t c = 0; c < plan.in_c; ++c) {
    for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
      const std::size_t iy0 = oy0 + ky - plan.pad;
      const float* in_row = input + (c * plan.in_h + iy0) * plan.in_w + base;
      const float* w_row =
          weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
      for (std::size_t kx = 0; kx < plan.kw; ++kx) {
        const isa::VecF wv = isa::splat(w_row[kx]);
        for (std::size_t r = 0; r < R; ++r) {
          acc[r] = acc[r] + isa::loadu(in_row + r * plan.in_w + kx) * wv;
        }
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    isa::storeu(out + (o * plan.out_h + oy0 + r) * plan.out_w + ox0, acc[r]);
  }
}

/// R adjacent output rows end to end: scalar left border, vector blocks
/// across the interior, scalar right border. The interior tail that does
/// not fill a lane block is finished by one extra block anchored at
/// interior_x_end - lanes: its leading lanes recompute pixels the
/// previous block already produced, but recomputation is deterministic
/// and bit-identical, so the overwrite is invisible — and the whole
/// interior runs vectorized instead of dropping up to lanes-1 pixels per
/// row to the scalar loop. (Fast-path op counters are credited in closed
/// form from the plan's MAC count, so recomputed lanes do not skew
/// reports.) An interior narrower than a lane block runs no vector block:
/// the right-border loop then computes every pixel from interior_x_begin.
template <std::size_t R>
inline void conv_simd_row_group(const ConvPlan& plan, const float* input,
                                const float* weights, float b, std::size_t o,
                                std::size_t oy0, const TapRange ry,
                                float* out) noexcept {
  namespace isa = runtime::isa;
  for (std::size_t r = 0; r < R; ++r) {
    float* out_row = out + (o * plan.out_h + oy0 + r) * plan.out_w;
    for (std::size_t ox = 0; ox < plan.interior_x_begin; ++ox) {
      out_row[ox] = conv_raw_pixel(plan, input, weights, b, o, oy0 + r, ox,
                                   plan.row_taps[oy0 + r]);
    }
  }
  std::size_t ox0 = plan.interior_x_begin;
  for (; ox0 + isa::kFloatLanes <= plan.interior_x_end;
       ox0 += isa::kFloatLanes) {
    conv_simd_rows<R>(plan, input, weights, b, o, oy0, ox0, ry, out);
  }
  if (ox0 < plan.interior_x_end &&
      plan.interior_x_end - plan.interior_x_begin >= isa::kFloatLanes) {
    conv_simd_rows<R>(plan, input, weights, b, o, oy0,
                      plan.interior_x_end - isa::kFloatLanes, ry, out);
    ox0 = plan.interior_x_end;
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* out_row = out + (o * plan.out_h + oy0 + r) * plan.out_w;
    for (std::size_t ox = ox0; ox < plan.out_w; ++ox) {
      out_row[ox] = conv_raw_pixel(plan, input, weights, b, o, oy0 + r, ox,
                                   plan.row_taps[oy0 + r]);
    }
  }
}

/// Deterministic pixel-kernel row grouping: maximal runs of
/// kSimdRowUnroll adjacent rows sharing the full vertical tap range form
/// one group each; every other row (borders, run remainders) is its own
/// group. A pure function of the plan — the pooled (channel x group)
/// fan-out enumerates the same units in the same order at any thread
/// count. Each pair is (oy0, run) with run either kSimdRowUnroll or 1.
inline std::vector<std::pair<std::size_t, std::size_t>> pixel_row_groups(
    const ConvPlan& plan) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  const auto row_is_full = [&](std::size_t oy) noexcept {
    const TapRange t = plan.row_taps[oy];
    return t.begin == 0 && t.end == plan.kh;
  };
  std::size_t oy = 0;
  while (oy < plan.out_h) {
    std::size_t run = 0;
    if (row_is_full(oy)) {
      run = 1;
      while (run < kSimdRowUnroll && oy + run < plan.out_h &&
             row_is_full(oy + run)) {
        ++run;
      }
    }
    if (run == kSimdRowUnroll) {
      groups.emplace_back(oy, kSimdRowUnroll);
      oy += kSimdRowUnroll;
    } else {
      groups.emplace_back(oy, std::size_t{1});
      oy += 1;
    }
  }
  return groups;
}

/// One (output channel, row group) unit of the pixel-lane kernel — the
/// granule the pooled fan-out distributes. Writes only rows
/// [oy0, oy0 + run) of channel o.
inline void conv_pixel_unit(const ConvPlan& plan, const float* input,
                            const float* weights, float b, std::size_t o,
                            std::size_t oy0, std::size_t run,
                            float* out) noexcept {
  if (run == kSimdRowUnroll) {
    conv_simd_row_group<kSimdRowUnroll>(plan, input, weights, b, o, oy0,
                                        TapRange{0, plan.kh}, out);
  } else {
    conv_simd_row_group<1>(plan, input, weights, b, o, oy0,
                           plan.row_taps[oy0], out);
  }
}

/// Channel blocks (of kFloatLanes output channels each) processed
/// together per output-pixel pass. Like the pixel kernel's row groups:
/// each block keeps its own accumulator chain, and grouping amortizes
/// the input broadcast while hiding vector-add latency.
inline constexpr std::size_t kChannelBlockUnroll = 4;

/// Output pixels per channel-lane pass for a group of B blocks: the
/// B x P independent accumulator chains stay near eight, enough to cover
/// the vector-add latency on two ports. A pure function of B, so every
/// pixel's lanes run the same per-lane (c, ky, kx) order at any P.
inline constexpr std::size_t channel_pixel_run(std::size_t b) noexcept {
  return b == 1 ? 8 : b == 2 ? 4 : 2;
}

/// B channel blocks x P output pixels of the channel-lane kernel: lane l
/// of block b accumulates output channel o0 + b*lanes + l at pixel
/// (oy, ox0 + p). The reduction per lane runs the scalar (c, ky, kx)
/// order — one contiguous weight-vector load per (tap, block), one input
/// broadcast per (tap, pixel), lane-wise mul then add with
/// -ffp-contract=off — so every lane is bit-identical to the scalar
/// pixel. All lanes share (oy, ox), hence the tap ranges: border pixels
/// go through this same kernel with narrower ranges instead of a
/// separate scalar path. Caller guarantees all P pixels share `rx` and
/// that padded blocks beyond pack.oc are excluded; the partial tail
/// block scatters only its valid lanes (padding lanes compute on zero
/// weights and are discarded).
template <std::size_t B, std::size_t P>
HYBRIDCNN_RELIABLE_ALWAYS_INLINE void conv_channel_pixels(
    const ConvPlan& plan, const WeightPack& pack, const float* input,
    std::size_t o0, std::size_t oy, std::size_t ox0, const TapRange ry,
    const TapRange rx, float* out) noexcept {
  namespace isa = runtime::isa;
  static_assert(B >= 1 && B <= kChannelBlockUnroll);
  static_assert(P >= 1 && P <= channel_pixel_run(B));
  isa::VecF acc[B * P];
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t b = 0; b < B; ++b) {
      acc[p * B + b] =
          isa::loadu(pack.bias.data() + o0 + b * isa::kFloatLanes);
    }
  }
  for (std::size_t c = 0; c < plan.in_c; ++c) {
    for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
      const std::size_t iy = oy * plan.stride + ky - plan.pad;
      const float* in_row = input + (c * plan.in_h + iy) * plan.in_w;
      for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
        const float* w =
            pack.weights.data() +
            ((ky * plan.kw + kx) * plan.in_c + c) * pack.padded_oc + o0;
        isa::VecF wv[B];
        for (std::size_t b = 0; b < B; ++b) {
          wv[b] = isa::loadu(w + b * isa::kFloatLanes);
        }
        for (std::size_t p = 0; p < P; ++p) {
          const std::size_t ix = (ox0 + p) * plan.stride + kx - plan.pad;
          const isa::VecF xv = isa::splat(in_row[ix]);
          for (std::size_t b = 0; b < B; ++b) {
            acc[p * B + b] = acc[p * B + b] + xv * wv[b];
          }
        }
      }
    }
  }
  // Lane l of block b is output channel o0 + b*lanes + l: scatter into
  // the [o][oy][ox] layout, skipping the zero-padded tail lanes.
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t b = 0; b < B; ++b) {
      const std::size_t ob = o0 + b * isa::kFloatLanes;
      const std::size_t valid = std::min(isa::kFloatLanes, pack.oc - ob);
      for (std::size_t l = 0; l < valid; ++l) {
        out[((ob + l) * plan.out_h + oy) * plan.out_w + ox0 + p] =
            acc[p * B + b][l];
      }
    }
  }
}

/// One output row for one group of B channel blocks — the unit the
/// pooled channel-lane fan-out distributes. Each run of adjacent output
/// columns sharing one tap range goes through the kernel
/// channel_pixel_run(B) pixels at a time, and its tail through passes of
/// 4, 2 and 1 pixels, so each weight-vector load is amortized over
/// several input broadcasts. Any (stride, pad, kw) geometry takes this
/// one code path — border columns simply carry narrower tap ranges.
template <std::size_t B>
inline void conv_channel_group_row(const ConvPlan& plan,
                                   const WeightPack& pack, const float* input,
                                   std::size_t o0, std::size_t oy,
                                   float* out) noexcept {
  constexpr std::size_t P = channel_pixel_run(B);
  const TapRange ry = plan.row_taps[oy];
  std::size_t ox = 0;
  while (ox < plan.out_w) {
    const TapRange rx = plan.col_taps[ox];
    std::size_t end = ox + 1;
    while (end < plan.out_w && plan.col_taps[end].begin == rx.begin &&
           plan.col_taps[end].end == rx.end) {
      ++end;
    }
    for (; ox + P <= end; ox += P) {
      conv_channel_pixels<B, P>(plan, pack, input, o0, oy, ox, ry, rx, out);
    }
    if constexpr (P > 4) {
      if (ox + 4 <= end) {
        conv_channel_pixels<B, 4>(plan, pack, input, o0, oy, ox, ry, rx, out);
        ox += 4;
      }
    }
    if constexpr (P > 2) {
      if (ox + 2 <= end) {
        conv_channel_pixels<B, 2>(plan, pack, input, o0, oy, ox, ry, rx, out);
        ox += 2;
      }
    }
    if (ox < end) {
      conv_channel_pixels<B, 1>(plan, pack, input, o0, oy, ox, ry, rx, out);
      ox += 1;
    }
  }
}

/// Channel-block group count: blocks are grouped into runs of
/// kChannelBlockUnroll (the remainder group is smaller). The grouping is
/// a pure function of the pack, never of the thread count, so every
/// output element sees the same kernel instantiation — and the same
/// per-lane arithmetic order — at any parallelism.
inline std::size_t channel_group_count(const WeightPack& pack) noexcept {
  const std::size_t blocks = pack.padded_oc / runtime::isa::kFloatLanes;
  return (blocks + kChannelBlockUnroll - 1) / kChannelBlockUnroll;
}

/// One (block group, output row) unit of the channel-lane kernel.
inline void conv_channel_unit(const ConvPlan& plan, const WeightPack& pack,
                              const float* input, std::size_t group,
                              std::size_t oy, float* out) noexcept {
  namespace isa = runtime::isa;
  const std::size_t blocks = pack.padded_oc / isa::kFloatLanes;
  const std::size_t blk = group * kChannelBlockUnroll;
  const std::size_t o0 = blk * isa::kFloatLanes;
  switch (std::min(kChannelBlockUnroll, blocks - blk)) {
    case 4:
      conv_channel_group_row<4>(plan, pack, input, o0, oy, out);
      break;
    case 3:
      conv_channel_group_row<3>(plan, pack, input, o0, oy, out);
      break;
    case 2:
      conv_channel_group_row<2>(plan, pack, input, o0, oy, out);
      break;
    default:
      conv_channel_group_row<1>(plan, pack, input, o0, oy, out);
      break;
  }
}

/// The fault-free conv kernel rule picks the kernel from the layer's
/// shape alone, never from a setting: channel lanes when stride > 1 or
/// out_c fills a vector, pixel lanes otherwise. Pixel lanes win only on
/// stride-1 convs with few maps (the qualifier's Sobel); every other
/// shipped conv is faster on channel lanes. The measurements behind the
/// rule are in src/reliable/README.md.
///
/// Whether the rule picks channel lanes. Owners build their WeightPack
/// only when it does, so conv_raw_compute dispatches on whether it got a
/// pack.
inline bool channel_lanes_selected(std::size_t stride,
                                   std::size_t out_c) noexcept {
  return stride > 1 || out_c >= runtime::isa::kFloatLanes;
}

/// Fault-free convolution fast path. Runs channel lanes when the caller
/// supplies a pack (see channel_lanes_selected), else pixel lanes; then
/// fans the disjoint output slices across the global pool: (block group,
/// row) units for the channel kernel, (channel x row-group) units for the
/// pixel kernel. Every output element is computed by exactly one unit in
/// the scalar per-pixel reduction order, and the elided qualified
/// bookkeeping is credited in closed form by the caller after the join,
/// so outputs and statistics are bit-identical at every thread count.
/// Inside an outer parallel region (batched classify, campaign fan-out)
/// the pool serialises the nested fan inline.
inline void conv_raw_compute(const ConvPlan& plan, const WeightPack* pack,
                             const float* input, const float* weights,
                             const float* bias, float* out) {
  runtime::ThreadPool& pool = runtime::ComputeContext::global().pool();
  if (pack != nullptr) {
    // Units are (block group, output row): the block grouping — and with
    // it every kernel instantiation — is fixed by the pack alone, so
    // chunk boundaries only decide which thread runs a unit, and rows
    // give the fan enough units even when the channel extent is a single
    // group.
    const std::size_t groups = channel_group_count(*pack);
    pool.parallel_for_chunks(
        0, groups * plan.out_h, 1,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t u = begin; u < end; ++u) {
            conv_channel_unit(plan, *pack, input, u / plan.out_h,
                              u % plan.out_h, out);
          }
        });
    return;
  }
  // A pack-less conv has stride 1 (channel_lanes_selected). An interior
  // narrower than a lane block runs every pixel through conv_raw_pixel.
  assert(plan.stride == 1);
  const auto groups = pixel_row_groups(plan);
  pool.parallel_for_chunks(
      0, plan.out_c * groups.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t u = begin; u < end; ++u) {
          const std::size_t o = u / groups.size();
          const auto [oy0, run] = groups[u % groups.size()];
          conv_pixel_unit(plan, input, weights, bias[o], o, oy0, run, out);
        }
      });
}

/// Logical ops of one output pixel: a mul and an accumulate per valid tap.
inline std::uint64_t conv_pixel_ops(const ConvPlan& plan, std::size_t oy,
                                    std::size_t ox) noexcept {
  return 2 * static_cast<std::uint64_t>(plan.in_c) *
         plan.row_taps[oy].count() * plan.col_taps[ox].count();
}

/// One tap of a partly granted output: acc += x * w as a qualified mul
/// and accumulate, each spent from the credit or run through the
/// envelope. False on a persistent error.
template <bool WithReport, typename Exec>
HYBRIDCNN_RELIABLE_ALWAYS_INLINE bool qualified_mac(
    float x, float w, QualifiedOpRunner<Exec, WithReport>& runner,
    ScalarCheckpoint& acc) {
  float pv;
  if (runner.spend()) {
    pv = clean_mul(x, w);
  } else {
    ScalarCheckpoint prod(0.0f);
    const auto p =
        runner.run([x, w](Exec& e) { return e.mul_inline(x, w); }, prod);
    if (!p) return false;
    pv = *p;
  }
  const float before = acc.value();
  if (runner.spend()) {
    acc.commit(clean_add(before, pv));
    return true;
  }
  return runner
      .run([before, pv](Exec& e) { return e.add_inline(before, pv); }, acc)
      .has_value();
}

/// One output pixel that the credit does not cover, in the qualified
/// order (c, ky, kx): a mul into a product cell, then an accumulate onto
/// `acc`. Ops the credit still covers are computed as raw arithmetic
/// (clean_mul, clean_add: the committed values); the op where it runs out
/// goes through the per-op envelope, which asks the gate again after it.
/// That op may be a tap's add whose mul was still granted. Returns false
/// on a persistent error, leaving the committed prefix in `acc`.
template <bool WithReport, typename Exec>
bool conv_pixel_qualified(const ConvPlan& plan, const float* input,
                          const float* weights, std::size_t o,
                          std::size_t oy, std::size_t ox,
                          QualifiedOpRunner<Exec, WithReport>& runner,
                          ScalarCheckpoint& acc) {
  const TapRange ry = plan.row_taps[oy];
  const TapRange rx = plan.col_taps[ox];
  for (std::size_t c = 0; c < plan.in_c; ++c) {
    for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
      // iy/ix are non-negative by construction of the tap ranges:
      // ky >= pad - oy*stride, so the unsigned arithmetic is safe.
      const std::size_t iy = oy * plan.stride + ky - plan.pad;
      const std::size_t in_base = (c * plan.in_h + iy) * plan.in_w;
      const float* w_row =
          weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
      for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
        const std::size_t ix = ox * plan.stride + kx - plan.pad;
        if (!qualified_mac(input[in_base + ix], w_row[kx], runner, acc)) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Qualified convolution over a concrete executor type: the fault-to-fault
/// walk over the generic path's pixel order (o, oy, ox). `granted` of the
/// forward's ops were granted by its first ask and form the initial
/// credit. A pixel the credit covers is only counted off it and computed
/// later by the fault-free kernel; a pixel it does not cover runs
/// conv_pixel_qualified. So gate calls scale with the faults, not the
/// pixels. The walk is serial because it owns the fault stream; only the
/// raw compute fans out over the pool. Output bits, the report
/// (failed_op_index and an aborted pixel's committed prefix included) and
/// executor/injector state equal the per-op path's. With `windows` false
/// the gate is never asked and every op runs the envelope.
template <bool WithReport = true, typename Exec>
void conv_forward_qualified(const ConvPlan& plan, const WeightPack* pack,
                            const float* input, const float* weights,
                            const float* bias,
                            const ReliabilityPolicy& policy, bool windows,
                            std::uint64_t granted, Exec& exec,
                            ReliableResult& result) {
  QualifiedOpRunner<Exec, WithReport> runner(
      exec, result.report, policy, windows ? 2 * plan.macs() : 0, granted);
  const std::size_t count = plan.out_c * plan.out_h * plan.out_w;
  std::vector<PerOpOutput> per_op;
  std::size_t end = count;
  bool aborted = false;
  for (std::size_t i = 0; i < count && !aborted; ++i) {
    const std::size_t ox = i % plan.out_w;
    const std::size_t oy = i / plan.out_w % plan.out_h;
    if (runner.spend(conv_pixel_ops(plan, oy, ox))) continue;
    const std::size_t o = i / (plan.out_w * plan.out_h);
    // The accumulator starts from the bias, loaded from (assumed
    // ECC-protected) parameter memory; all arithmetic on it is qualified.
    ScalarCheckpoint acc(bias[o]);
    if (!conv_pixel_qualified(plan, input, weights, o, oy, ox, runner,
                              acc)) {
      // Error propagation stops here: the committed prefix is returned,
      // the failure is reported, nothing downstream consumes unqualified
      // values.
      aborted = true;
      end = i + 1;
    }
    per_op.push_back({i, acc.value()});
  }
  runner.finish(aborted);
  assemble_windowed(result.output.data().data(), count, end, per_op,
                    [&](float* out) {
                      conv_raw_compute(plan, pack, input, weights, bias, out);
                    });
}

}  // namespace hybridcnn::reliable::detail
