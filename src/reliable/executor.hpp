// Overloaded arithmetic executors: Algorithms 1 and 2 of the paper, plus a
// triple-modular-redundancy variant.
//
// The paper overloads multiplication and accumulation so that "multiple
// methods" can be attached to a basic operation: a non-redundant execution
// that always asserts success (Algorithm 1, used for baseline performance
// characteristics), and a redundant execution whose qualifier is true only
// if the two products agree (Algorithm 2). Executors route every physical
// execution through a faultsim::FaultInjector, which models the unreliable
// compute unit; the executor itself is the architecture-independent
// reliability wrapper the paper proposes.
//
// Two dispatch surfaces coexist (see src/reliable/README.md):
//   * the virtual mul()/add() interface — the generic path, kept as the
//     oracle the static-dispatch equivalence tests diff against, and the
//     extension point for executor schemes this library does not know;
//   * the non-virtual mul_inline()/add_inline() methods on the three
//     concrete schemes — identical arithmetic and bookkeeping, defined
//     inline so the statically dispatched qualified kernels
//     (static_dispatch.hpp) fold them into the convolution inner loop
//     with no virtual calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "faultsim/bitflip.hpp"
#include "faultsim/injector.hpp"
#include "reliable/qualified.hpp"
#include "util/contracts.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define HYBRIDCNN_RELIABLE_ALWAYS_INLINE inline __attribute__((always_inline))
#define HYBRIDCNN_RELIABLE_NOINLINE __attribute__((noinline))
#else
#define HYBRIDCNN_RELIABLE_ALWAYS_INLINE inline
#define HYBRIDCNN_RELIABLE_NOINLINE
#endif

namespace hybridcnn::reliable {

/// Statistics an executor accumulates over its lifetime.
struct ExecutorStats {
  std::uint64_t logical_ops = 0;    ///< mul/add requests
  std::uint64_t executions = 0;     ///< physical executions (incl. redundant)
  std::uint64_t disagreements = 0;  ///< redundant executions that disagreed
};

/// Identity of an executor's redundancy scheme, used by the reliable
/// kernels to select a statically dispatched (devirtualized) inner loop
/// once per forward. kCustom means "not one of the library's schemes" and
/// routes to the generic virtual-dispatch path.
enum class Scheme : std::uint8_t { kSimplex, kDmr, kTmr, kCustom };

/// Number of Scheme enumerators. Every table keyed on Scheme (factory
/// switch, name table, redundancy table) asserts agreement against this
/// so adding a scheme without extending the tables fails to compile.
inline constexpr std::size_t kSchemeCount = 4;

HYBRIDCNN_CONTRACT_AGREE(static_cast<std::size_t>(Scheme::kCustom) + 1,
                         kSchemeCount,
                         "Scheme enumerators must stay dense 0..kCustom so "
                         "kSchemeCount-sized tables cover every value");

namespace detail {

/// Bit-identical comparison. Plain `==` would declare two NaNs unequal and
/// +0 == -0 equal; redundancy checking compares what the hardware actually
/// produced, so we compare representations.
inline bool same_bits(float x, float y) noexcept {
  return faultsim::float_bits(x) == faultsim::float_bits(y);
}

/// One physical op's result with the NaN choice pinned. IEEE 754 leaves
/// open which of two NaN operands a result carries, and x86 returns the
/// first *instruction* operand, an order the compiler picks freely for a
/// commutative op: two inlinings of one expression (the generic oracle's
/// and a devirtualized kernel's) could disagree once faults feed NaNs into
/// both operands. A NaN `a` therefore always wins, quieted as the hardware
/// would; otherwise at most one operand is a NaN and `result` is exact.
inline float pin_nan(float a, float result) noexcept {
  return a != a ? faultsim::bits_float(faultsim::float_bits(a) | 0x00400000u)
                : result;
}

/// One physical op's result on a fault-free unit: what raw_mul/raw_add
/// compute before the injector sees it. The fault-to-fault walk computes
/// the granted ops of a partly granted output with these, so their values
/// equal the ones the per-op envelope would commit.
inline float clean_mul(float a, float b) noexcept { return pin_nan(a, a * b); }
inline float clean_add(float a, float b) noexcept { return pin_nan(a, a + b); }

/// Majority vote over three results. Returns the agreed value and whether
/// a majority exists.
inline Qualified<float> vote(float r1, float r2, float r3) noexcept {
  if (same_bits(r1, r2) || same_bits(r1, r3)) return {r1, true};
  if (same_bits(r2, r3)) return {r2, true};
  return {r1, false};
}

}  // namespace detail

/// Interface for qualified scalar arithmetic. Implementations differ in
/// the redundancy scheme; all of them report through Qualified<float>.
class Executor {
 public:
  /// Constructs over a fault injector. A null injector means fault-free
  /// hardware (used for golden runs and micro-benchmarks).
  explicit Executor(std::shared_ptr<faultsim::FaultInjector> injector);
  virtual ~Executor() = default;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Qualified multiplication a*b.
  virtual Qualified<float> mul(float a, float b) = 0;

  /// Qualified addition a+b (the convolution's accumulate step).
  virtual Qualified<float> add(float a, float b) = 0;

  /// Scheme name for reports ("simplex", "dmr", "tmr").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Physical executions per logical operation in the fault-free case.
  [[nodiscard]] virtual int redundancy() const = 0;

  /// Scheme identity for static dispatch. The default (kCustom) keeps
  /// out-of-library executor subclasses on the generic virtual path.
  [[nodiscard]] virtual Scheme scheme_kind() const noexcept {
    return Scheme::kCustom;
  }

  [[nodiscard]] const ExecutorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = ExecutorStats{}; }

  [[nodiscard]] faultsim::FaultInjector* injector() noexcept {
    return injector_.get();
  }

  /// The one execution gate of the qualified kernels: grants the longest
  /// prefix of the next `logical` qualified operations none of whose
  /// physical executions would be corrupted, and returns its length (all
  /// of them without an injector). Credits logical_ops and the scheme's
  /// physical executions for the granted operations here and consumes the
  /// matching filter() calls on the injector, whole operations only
  /// (FaultInjector::take_clean with a unit of redundancy()), leaving
  /// stats() and the injector exactly as that many per-op mul/add calls
  /// would; the caller computes their values as raw arithmetic. Nothing
  /// after the grant is touched: when it is short, the operation that
  /// stopped it holds a faulty execution, and the caller runs it through
  /// mul/add before it asks again.
  [[nodiscard]] std::uint64_t take_clean(std::uint64_t logical) noexcept {
    const auto unit = static_cast<std::uint64_t>(redundancy());
    const std::uint64_t granted =
        injector_ ? injector_->take_clean(logical * unit, unit) / unit
                  : logical;
    stats_.logical_ops += granted;
    stats_.executions += granted * unit;
    return granted;
  }

 protected:
  /// One physical multiply on the (possibly faulty) compute unit.
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE float raw_mul(float a, float b) noexcept {
    ++stats_.executions;
    float av = a;
    float bv = b;
    if (injector_) {
      // Operand-targeted faults corrupt an input latch before the
      // multiply; result-targeted faults corrupt the product.
      switch (injector_->config().target) {
        case faultsim::FaultTarget::kOperandA:
          av = injector_->filter(av);
          break;
        case faultsim::FaultTarget::kOperandB:
          bv = injector_->filter(bv);
          break;
        case faultsim::FaultTarget::kResult:
          return injector_->filter(detail::clean_mul(av, bv));
      }
    }
    return detail::clean_mul(av, bv);
  }

  /// One physical add on the (possibly faulty) compute unit.
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE float raw_add(float a, float b) noexcept {
    ++stats_.executions;
    float av = a;
    float bv = b;
    if (injector_) {
      switch (injector_->config().target) {
        case faultsim::FaultTarget::kOperandA:
          av = injector_->filter(av);
          break;
        case faultsim::FaultTarget::kOperandB:
          bv = injector_->filter(bv);
          break;
        case faultsim::FaultTarget::kResult:
          return injector_->filter(detail::clean_add(av, bv));
      }
    }
    return detail::clean_add(av, bv);
  }

  ExecutorStats stats_;

 private:
  std::shared_ptr<faultsim::FaultInjector> injector_;
};

/// Algorithm 1: non-redundant execution. Returns the product and a
/// predefined qualifier set to true. Baseline performance reference.
class SimplexExecutor final : public Executor {
 public:
  static constexpr Scheme kScheme = Scheme::kSimplex;
  static constexpr int kRedundancy = 1;

  using Executor::Executor;
  Qualified<float> mul(float a, float b) override { return mul_inline(a, b); }
  Qualified<float> add(float a, float b) override { return add_inline(a, b); }
  [[nodiscard]] std::string name() const override { return "simplex"; }
  [[nodiscard]] int redundancy() const override { return kRedundancy; }
  [[nodiscard]] Scheme scheme_kind() const noexcept override {
    return kScheme;
  }

  HYBRIDCNN_RELIABLE_ALWAYS_INLINE Qualified<float> mul_inline(float a,
                                                               float b) {
    ++stats_.logical_ops;
    // Algorithm 1: return the product and a predefined qualifier (true).
    return {raw_mul(a, b), true};
  }
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE Qualified<float> add_inline(float a,
                                                               float b) {
    ++stats_.logical_ops;
    return {raw_add(a, b), true};
  }
};

/// Algorithm 2: dual-modular-redundant execution. The operation is
/// executed twice; the qualifier is true iff both results are
/// bit-identical. Detects (but cannot mask) any single-execution fault.
class DmrExecutor final : public Executor {
 public:
  static constexpr Scheme kScheme = Scheme::kDmr;
  static constexpr int kRedundancy = 2;

  using Executor::Executor;
  Qualified<float> mul(float a, float b) override { return mul_inline(a, b); }
  Qualified<float> add(float a, float b) override { return add_inline(a, b); }
  [[nodiscard]] std::string name() const override { return "dmr"; }
  [[nodiscard]] int redundancy() const override { return kRedundancy; }
  [[nodiscard]] Scheme scheme_kind() const noexcept override {
    return kScheme;
  }

  HYBRIDCNN_RELIABLE_ALWAYS_INLINE Qualified<float> mul_inline(float a,
                                                               float b) {
    ++stats_.logical_ops;
    // Algorithm 2: execute twice; qualifier true iff products agree.
    const float p1 = raw_mul(a, b);
    const float p2 = raw_mul(a, b);
    const bool ok = detail::same_bits(p1, p2);
    if (!ok) ++stats_.disagreements;
    return {p1, ok};
  }
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE Qualified<float> add_inline(float a,
                                                               float b) {
    ++stats_.logical_ops;
    const float s1 = raw_add(a, b);
    const float s2 = raw_add(a, b);
    const bool ok = detail::same_bits(s1, s2);
    if (!ok) ++stats_.disagreements;
    return {s1, ok};
  }
};

/// Triple-modular-redundant execution with majority voting: the value is
/// "agreed upon by execution of the algorithm three times and voting on
/// the result" (Section IV). Masks any single-execution fault; the
/// qualifier is false only when all three results differ.
class TmrExecutor final : public Executor {
 public:
  static constexpr Scheme kScheme = Scheme::kTmr;
  static constexpr int kRedundancy = 3;

  using Executor::Executor;
  Qualified<float> mul(float a, float b) override { return mul_inline(a, b); }
  Qualified<float> add(float a, float b) override { return add_inline(a, b); }
  [[nodiscard]] std::string name() const override { return "tmr"; }
  [[nodiscard]] int redundancy() const override { return kRedundancy; }
  [[nodiscard]] Scheme scheme_kind() const noexcept override {
    return kScheme;
  }

  HYBRIDCNN_RELIABLE_ALWAYS_INLINE Qualified<float> mul_inline(float a,
                                                               float b) {
    ++stats_.logical_ops;
    const float r1 = raw_mul(a, b);
    const float r2 = raw_mul(a, b);
    const float r3 = raw_mul(a, b);
    const Qualified<float> v = detail::vote(r1, r2, r3);
    if (!detail::same_bits(r1, r2) || !detail::same_bits(r2, r3)) {
      ++stats_.disagreements;
    }
    return v;
  }
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE Qualified<float> add_inline(float a,
                                                               float b) {
    ++stats_.logical_ops;
    const float r1 = raw_add(a, b);
    const float r2 = raw_add(a, b);
    const float r3 = raw_add(a, b);
    const Qualified<float> v = detail::vote(r1, r2, r3);
    if (!detail::same_bits(r1, r2) || !detail::same_bits(r2, r3)) {
      ++stats_.disagreements;
    }
    return v;
  }
};

// Executor-layer contracts. The statically dispatched qualified kernels
// (static_dispatch.hpp) fold mul_inline/add_inline straight into the
// convolution inner loop, and take_clean credits granted operations in
// closed form from redundancy() — both are sound only while the concrete
// schemes stay final, their class constants agree with the virtual
// interface's answers, and the stats payloads stay memcpy-able.
HYBRIDCNN_CONTRACT_FINAL(SimplexExecutor);
HYBRIDCNN_CONTRACT_FINAL(DmrExecutor);
HYBRIDCNN_CONTRACT_FINAL(TmrExecutor);
HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(ExecutorStats);
HYBRIDCNN_CONTRACT_AGREE(SimplexExecutor::kScheme, Scheme::kSimplex,
                         "SimplexExecutor must dispatch as kSimplex");
HYBRIDCNN_CONTRACT_AGREE(DmrExecutor::kScheme, Scheme::kDmr,
                         "DmrExecutor must dispatch as kDmr");
HYBRIDCNN_CONTRACT_AGREE(TmrExecutor::kScheme, Scheme::kTmr,
                         "TmrExecutor must dispatch as kTmr");
HYBRIDCNN_CONTRACT_AGREE(SimplexExecutor::kRedundancy, 1,
                         "simplex executes each logical op exactly once");
HYBRIDCNN_CONTRACT_AGREE(DmrExecutor::kRedundancy, 2,
                         "dmr executes each logical op exactly twice");
HYBRIDCNN_CONTRACT_AGREE(TmrExecutor::kRedundancy, 3,
                         "tmr executes each logical op exactly three times");

/// Parses a scheme name ("simplex", "dmr", "tmr"); throws
/// std::invalid_argument on unknown names. Callers that classify per
/// image resolve the name once (e.g. at network construction) and use the
/// Scheme overload of make_executor afterwards.
[[nodiscard]] Scheme parse_scheme(const std::string& scheme);

/// Executor factory over a resolved scheme id; throws
/// std::invalid_argument for Scheme::kCustom.
std::unique_ptr<Executor> make_executor(
    Scheme scheme, std::shared_ptr<faultsim::FaultInjector> injector);

/// Factory for the three schemes by name; throws std::invalid_argument on
/// unknown names. Convenient for bench parameter sweeps.
std::unique_ptr<Executor> make_executor(
    const std::string& scheme,
    std::shared_ptr<faultsim::FaultInjector> injector);

}  // namespace hybridcnn::reliable
