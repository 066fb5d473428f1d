// Fault-injection substrate: bit flips, injector fault models, memory
// faults and campaign outcome classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/fault_model.hpp"
#include "faultsim/injector.hpp"
#include "faultsim/memory_faults.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::bits_float;
using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::classify;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::faultsim::FaultTarget;
using hybridcnn::faultsim::flip_bit;
using hybridcnn::faultsim::float_bits;
using hybridcnn::faultsim::inject_bit_errors;
using hybridcnn::faultsim::inject_exact_flips;
using hybridcnn::faultsim::Outcome;
using hybridcnn::faultsim::outcome_name;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

// ---------------------------------------------------------------- bitflip

TEST(BitFlip, IsInvolution) {
  for (int bit = 0; bit < 32; ++bit) {
    const float v = 123.456f;
    EXPECT_EQ(float_bits(flip_bit(flip_bit(v, bit), bit)), float_bits(v));
  }
}

TEST(BitFlip, ChangesValue) {
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_NE(float_bits(flip_bit(1.0f, bit)), float_bits(1.0f));
  }
}

TEST(BitFlip, SignBit) {
  EXPECT_FLOAT_EQ(flip_bit(2.0f, 31), -2.0f);
}

TEST(BitFlip, BitIndexWrapsModulo32) {
  EXPECT_EQ(float_bits(flip_bit(1.0f, 33)), float_bits(flip_bit(1.0f, 1)));
}

TEST(BitFlip, RoundTripThroughBits) {
  const float v = -0.00321f;
  EXPECT_FLOAT_EQ(bits_float(float_bits(v)), v);
}

// --------------------------------------------------------------- injector

TEST(FaultInjector, NoneNeverFaults) {
  FaultInjector inj(FaultConfig{}, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(inj.filter(1.5f), 1.5f);
  }
  EXPECT_EQ(inj.stats().faults, 0u);
  EXPECT_EQ(inj.stats().executions, 1000u);
}

TEST(FaultInjector, TransientRateMatchesProbability) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 0.1;
  cfg.bit = 0;
  FaultInjector inj(cfg, 2);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) inj.filter(1.0f);
  const double rate =
      static_cast<double>(inj.stats().faults) / static_cast<double>(kN);
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(FaultInjector, DeterministicForSeed) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 0.05;
  cfg.bit = -1;
  FaultInjector a(cfg, 7);
  FaultInjector b(cfg, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(float_bits(a.filter(3.25f)), float_bits(b.filter(3.25f)));
  }
}

TEST(FaultInjector, FixedBitFlipsExactlyThatBit) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1.0;
  cfg.bit = 31;
  FaultInjector inj(cfg, 3);
  EXPECT_FLOAT_EQ(inj.filter(4.0f), -4.0f);
}

TEST(FaultInjector, PermanentFaultyPeFractionApproximatesProbability) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 0.25;
  cfg.num_pes = 4000;
  FaultInjector inj(cfg, 11);
  EXPECT_NEAR(static_cast<double>(inj.permanent_faulty_pes()) / 4000.0, 0.25,
              0.03);
}

TEST(FaultInjector, PermanentFaultsRepeatOnSamePe) {
  // With every PE faulty, every execution is corrupted — and
  // deterministically predictable via next_is_faulty().
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 1.0;
  cfg.num_pes = 4;
  cfg.bit = 1;
  FaultInjector inj(cfg, 5);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(inj.next_is_faulty());
    EXPECT_NE(float_bits(inj.filter(1.0f)), float_bits(1.0f));
  }
}

TEST(FaultInjector, RoundRobinPeSchedule) {
  FaultConfig cfg;
  cfg.num_pes = 3;
  FaultInjector inj(cfg, 1);
  EXPECT_EQ(inj.next_pe(), 0);
  inj.filter(0.0f);
  EXPECT_EQ(inj.next_pe(), 1);
  inj.filter(0.0f);
  inj.filter(0.0f);
  EXPECT_EQ(inj.next_pe(), 0);
}

TEST(FaultInjector, IntermittentBurstsExceedIndependentRate) {
  // With burst_continue close to 1 the same ignition probability yields
  // far more faults than the independent (transient) model.
  FaultConfig transient;
  transient.kind = FaultKind::kTransient;
  transient.probability = 0.01;
  transient.num_pes = 1;
  FaultInjector ti(transient, 21);

  FaultConfig burst = transient;
  burst.kind = FaultKind::kIntermittent;
  burst.burst_continue = 0.95;
  FaultInjector bi(burst, 21);

  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    ti.filter(1.0f);
    bi.filter(1.0f);
  }
  EXPECT_GT(bi.stats().faults, 5 * ti.stats().faults);
}

TEST(FaultInjector, ResetStatsClears) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1.0;
  FaultInjector inj(cfg, 1);
  inj.filter(1.0f);
  inj.reset_stats();
  EXPECT_EQ(inj.stats().executions, 0u);
  EXPECT_EQ(inj.stats().faults, 0u);
}

// ------------------------------------------------- clean-window grants

/// Same observable injector state: stats, PE cursor and the next 64
/// filter() results.
void expect_same_injector(const FaultInjector& a, const FaultInjector& b) {
  EXPECT_EQ(a.stats().executions, b.stats().executions);
  EXPECT_EQ(a.stats().faults, b.stats().faults);
  EXPECT_EQ(a.next_pe(), b.next_pe());
  FaultInjector fa = a;
  FaultInjector fb = b;
  int filter_mismatches = 0;
  for (int i = 0; i < 64; ++i) {
    const float v = 1.0f + static_cast<float>(i);
    filter_mismatches +=
        float_bits(fa.filter(v)) != float_bits(fb.filter(v)) ? 1 : 0;
  }
  EXPECT_EQ(filter_mismatches, 0);
}

TEST(FaultInjector, TakeCleanMatchesPerCallFilter) {
  // A grant of g calls must leave exactly the state of g per-call
  // filter()s, with g the clean prefix of the ask in whole units; the
  // call that stopped it is left untouched. The walk starts each ask
  // where the per-call oracle ended, faults, bursts and all, so grants
  // are tried from every kind of state.
  std::uint64_t full = 0;
  std::uint64_t short_grants = 0;
  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
        FaultKind::kPermanent}) {
    for (const double p : {0.0, 1e-6, 1e-4, 2e-3, 0.3, 1.0}) {
      for (const int pes : {1, 7, 128}) {
        for (const std::uint64_t unit : {1ULL, 2ULL, 3ULL}) {
          const int bit = unit == 2 ? 9 : -1;
          SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                       " p " + std::to_string(p) + " pes " +
                       std::to_string(pes) + " unit " + std::to_string(unit));
          FaultConfig cfg;
          cfg.kind = kind;
          cfg.probability = p;
          cfg.num_pes = pes;
          cfg.bit = bit;
          cfg.burst_continue = 0.9;
          FaultInjector inj(cfg, 4242);
          for (const std::uint64_t n :
               {0ULL, 1ULL, 2ULL, 6ULL, 147ULL, 588ULL, 1ULL, 3000ULL, 5ULL,
                129ULL, 40ULL, 1200ULL}) {
            // The clean prefix, call by call.
            FaultInjector oracle = inj;
            std::uint64_t clean = 0;
            while (clean < n) {
              FaultInjector next = oracle;
              (void)next.filter(0.5f);
              if (next.stats().faults != oracle.stats().faults) break;
              oracle = next;
              ++clean;
            }
            const std::uint64_t want = clean - clean % unit;
            FaultInjector granted = inj;
            ASSERT_EQ(granted.take_clean(n, unit), want) << "n " << n;
            oracle = inj;
            for (std::uint64_t i = 0; i < want; ++i) (void)oracle.filter(0.5f);
            expect_same_injector(granted, oracle);
            (want == n ? full : short_grants) += 1;
            // Carry on from past the ask, through any fault it stopped at.
            for (std::uint64_t i = want; i < n; ++i) (void)oracle.filter(0.5f);
            inj = oracle;
          }
        }
      }
    }
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(short_grants, 0u);
}

/// A per-call model of FaultInjector that shares none of its code: it is
/// built only from Rng::bernoulli/uniform_int, the PE round robin and the
/// burst flags, and grants a window by running it call by call.
class ReferenceInjector {
 public:
  ReferenceInjector(const FaultConfig& config, std::uint64_t seed)
      : config_(config), rng_(seed, 0xFA17) {
    const auto pes = static_cast<std::size_t>(std::max(1, config.num_pes));
    permanent_.assign(pes, false);
    burst_.assign(pes, false);
    if (config.kind == FaultKind::kPermanent) {
      for (std::size_t pe = 0; pe < pes; ++pe) {
        permanent_[pe] = rng_.bernoulli(config.probability);
      }
    }
  }

  float filter(float clean) {
    ++executions_;
    const std::size_t pe = pe_;
    pe_ = (pe_ + 1) % permanent_.size();
    bool fault = false;
    switch (config_.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kTransient:
        fault = rng_.bernoulli(config_.probability);
        break;
      case FaultKind::kIntermittent:
        if (burst_[pe]) {
          fault = true;
          burst_[pe] = rng_.bernoulli(config_.burst_continue);
        } else if (rng_.bernoulli(config_.probability)) {
          fault = true;
          burst_[pe] = rng_.bernoulli(config_.burst_continue);
        }
        break;
      case FaultKind::kPermanent:
        fault = permanent_[pe];
        break;
    }
    if (!fault) return clean;
    ++faults_;
    const int bit = config_.bit >= 0
                        ? config_.bit
                        : static_cast<int>(rng_.uniform_int(0, 31));
    return flip_bit(clean, bit);
  }

  /// Index of the first faulty call among the next `n`, `n` if none is,
  /// found by running a copy call by call.
  std::uint64_t first_fault(std::uint64_t n) const {
    ReferenceInjector run = *this;
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)run.filter(0.5f);
      if (run.faults_ != faults_) return i;
    }
    return n;
  }

  /// Runs `calls` calls of a grant.
  void take(std::uint64_t calls) {
    for (std::uint64_t i = 0; i < calls; ++i) (void)filter(0.5f);
  }

  std::uint64_t executions() const { return executions_; }
  std::uint64_t faults() const { return faults_; }
  int next_pe() const { return static_cast<int>(pe_); }

 private:
  FaultConfig config_;
  Rng rng_;
  std::vector<bool> permanent_;
  std::vector<bool> burst_;
  std::size_t pe_ = 0;
  std::uint64_t executions_ = 0;
  std::uint64_t faults_ = 0;
};

/// Stats, PE cursor and the next 64 filter() results of both, on copies.
void expect_matches_reference(const FaultInjector& inj,
                              const ReferenceInjector& ref) {
  ASSERT_EQ(inj.stats().executions, ref.executions());
  ASSERT_EQ(inj.stats().faults, ref.faults());
  ASSERT_EQ(inj.next_pe(), ref.next_pe());
  FaultInjector a = inj;
  ReferenceInjector b = ref;
  for (int i = 0; i < 64; ++i) {
    const float v = 1.0f + static_cast<float>(i);
    ASSERT_EQ(float_bits(a.filter(v)), float_bits(b.filter(v))) << "call " << i;
  }
}

TEST(FaultInjector, MatchesIndependentPerCallReference) {
  // Long random mixes of filter() runs and take_clean(n, unit) asks,
  // compared call by call with the reference: every ask must return the
  // reference's first faulty call index (capped at n) rounded down to the
  // unit, and leave the injector where the reference is after running the
  // granted calls. Copies taken mid-stream (the clean-run cache filled by
  // the last ask) must carry on exactly like the reference copy.
  const std::vector<std::uint64_t> windows = {0,   1,   2,    5,   31,
                                              147, 588, 1200, 5000};
  std::uint64_t full = 0;
  std::uint64_t short_grants = 0;
  std::uint64_t faults = 0;
  for (const FaultKind kind : {FaultKind::kTransient, FaultKind::kIntermittent,
                               FaultKind::kPermanent}) {
    for (const double p : {1e-6, 1e-4, 2e-3, 0.3, 1.0}) {
      for (const int pes : {1, 7, 128}) {
        for (const std::uint64_t unit : {1ULL, 2ULL, 3ULL}) {
          for (const int bit : {-1, 9}) {
            SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                         " p " + std::to_string(p) + " pes " +
                         std::to_string(pes) + " unit " +
                         std::to_string(unit) + " bit " +
                         std::to_string(bit));
            FaultConfig cfg;
            cfg.kind = kind;
            cfg.probability = p;
            cfg.num_pes = pes;
            cfg.bit = bit;
            cfg.burst_continue = 0.9;
            const std::uint64_t seed = 17 + static_cast<std::uint64_t>(pes);
            FaultInjector inj(cfg, seed);
            ReferenceInjector ref(cfg, seed);
            Rng mix(seed + unit, 0x313);
            for (int step = 0; step < 250; ++step) {
              SCOPED_TRACE("step " + std::to_string(step));
              if (mix.bernoulli(0.5)) {
                const auto calls = mix.uniform_int(1, 40);
                for (std::int64_t c = 0; c < calls; ++c) {
                  const float v = 0.25f + static_cast<float>(c);
                  ASSERT_EQ(float_bits(inj.filter(v)),
                            float_bits(ref.filter(v)));
                }
                ASSERT_EQ(inj.stats().executions, ref.executions());
                ASSERT_EQ(inj.stats().faults, ref.faults());
                ASSERT_EQ(inj.next_pe(), ref.next_pe());
              } else {
                const std::uint64_t n = windows[static_cast<std::size_t>(
                    mix.uniform_int(
                        0, static_cast<std::int64_t>(windows.size()) - 1))];
                const std::uint64_t clean = ref.first_fault(n);
                const std::uint64_t granted = clean - clean % unit;
                ASSERT_EQ(inj.take_clean(n, unit), granted) << "n " << n;
                ref.take(granted);
                (granted == n ? full : short_grants) += 1;
                expect_matches_reference(inj, ref);
              }
            }
            expect_matches_reference(inj, ref);
            faults += ref.faults();
          }
        }
      }
    }
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(short_grants, 0u);
  EXPECT_GT(faults, 0u);
}

// ----------------------------------------------------------- memory SEUs

TEST(MemoryFaults, BitErrorRateZeroTouchesNothing) {
  Tensor t(Shape{64}, 1.0f);
  Rng rng(1);
  const auto report = inject_bit_errors(t, 0.0, rng);
  EXPECT_EQ(report.bits_flipped, 0u);
  for (std::size_t i = 0; i < t.count(); ++i) EXPECT_EQ(t[i], 1.0f);
}

TEST(MemoryFaults, BitErrorRateApproximatesExpectation) {
  Tensor t(Shape{4, 16, 16, 4});  // 4096 words = 131072 bits
  Rng rng(2);
  const auto report = inject_bit_errors(t, 0.01, rng);
  EXPECT_EQ(report.words_visited, t.count());
  EXPECT_NEAR(static_cast<double>(report.bits_flipped), 1310.72, 150.0);
}

TEST(MemoryFaults, ExactFlipsCount) {
  Tensor t(Shape{32}, 2.0f);
  Rng rng(3);
  const auto report = inject_exact_flips(t, 10, rng);
  EXPECT_EQ(report.bits_flipped, 10u);
  int changed = 0;
  for (std::size_t i = 0; i < t.count(); ++i) {
    if (t[i] != 2.0f) ++changed;
  }
  EXPECT_GT(changed, 0);
  EXPECT_LE(changed, 10);
}

TEST(MemoryFaults, ExactFlipsOnEmptyTensorIsNoop) {
  Tensor t;
  Rng rng(4);
  const auto report = inject_exact_flips(t, 5, rng);
  EXPECT_EQ(report.bits_flipped, 0u);
}

// Counts bits differing between two equal-shape tensors.
std::uint64_t hamming_distance(const Tensor& a, const Tensor& b) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < a.count(); ++i) {
    bits += static_cast<std::uint64_t>(
        __builtin_popcount(float_bits(a[i]) ^ float_bits(b[i])));
  }
  return bits;
}

TEST(MemoryFaults, BitErrorsDeterministicForSeed) {
  // Geometric skip sampling must stay a pure function of the Rng state:
  // same seed, same flip sites, same draw count.
  Tensor a(Shape{512}, 1.5f);
  Tensor b(Shape{512}, 1.5f);
  Rng ra(42);
  Rng rb(42);
  const auto rep_a = inject_bit_errors(a, 0.003, ra);
  const auto rep_b = inject_bit_errors(b, 0.003, rb);
  EXPECT_EQ(rep_a.bits_flipped, rep_b.bits_flipped);
  EXPECT_EQ(rep_a.rng_draws, rep_b.rng_draws);
  EXPECT_EQ(a, b);
  EXPECT_GT(rep_a.bits_flipped, 0u);
}

TEST(MemoryFaults, BitErrorFlipSitesAreSpatiallyUniform) {
  // The skip-sampled sites must be i.i.d. Bernoulli per bit, so upsets
  // spread evenly: compare the flip mass in the two tensor halves over
  // many independent passes.
  constexpr std::size_t kWords = 2048;
  std::uint64_t low_half = 0;
  std::uint64_t high_half = 0;
  for (int pass = 0; pass < 50; ++pass) {
    Tensor t(Shape{kWords}, 0.0f);
    const Tensor zero = t;
    Rng rng(100 + pass);
    inject_bit_errors(t, 0.005, rng);
    for (std::size_t i = 0; i < kWords; ++i) {
      const auto bits = static_cast<std::uint64_t>(
          __builtin_popcount(float_bits(t[i]) ^ float_bits(zero[i])));
      (i < kWords / 2 ? low_half : high_half) += bits;
    }
  }
  const auto total = static_cast<double>(low_half + high_half);
  EXPECT_GT(total, 10000.0);  // ~16384 expected
  EXPECT_NEAR(static_cast<double>(low_half) / total, 0.5, 0.02);
}

TEST(MemoryFaults, BitErrorDrawsScaleWithFlipsNotBits) {
  // The regression this locks: the old sampler drew one variate per bit
  // (32 per word). Geometric skips draw one per flip — at least 10x
  // fewer at realistic bit-error rates (here ~460x).
  Tensor t(Shape{4, 16, 16, 4});  // 131072 bits
  Rng rng(7);
  const auto report = inject_bit_errors(t, 0.001, rng);
  const std::uint64_t old_draws = 32ull * t.count();
  EXPECT_GT(report.bits_flipped, 50u);
  EXPECT_LE(report.rng_draws, report.bits_flipped + 1)
      << "one uniform per flip (plus the terminating overshoot)";
  EXPECT_LE(report.rng_draws * 10, old_draws)
      << "must consume >=10x fewer variates than per-bit Bernoulli";
}

TEST(MemoryFaults, BitErrorRateOneFlipsEveryBitWithoutDrawing) {
  Tensor t(Shape{16}, 1.0f);
  const Tensor original = t;
  Rng rng(8);
  const auto report = inject_bit_errors(t, 1.0, rng);
  EXPECT_EQ(report.bits_flipped, 32u * 16u);
  EXPECT_EQ(report.rng_draws, 0u);
  EXPECT_EQ(hamming_distance(t, original), 32u * 16u);
}

TEST(MemoryFaults, ExactFlipsAreWithoutReplacement) {
  // The regression this locks: sampling WITH replacement let duplicate
  // sites un-flip each other, so "exactly N flips" silently delivered
  // fewer corrupted bits. Floyd's algorithm guarantees N distinct sites:
  // the Hamming distance to the original equals the request exactly.
  for (const std::uint64_t count : {1ull, 17ull, 50ull, 100ull, 127ull}) {
    Tensor t(Shape{4}, 3.0f);  // 128-bit site space — collisions likely
    const Tensor original = t;
    Rng rng(1000 + count);
    const auto report = inject_exact_flips(t, count, rng);
    EXPECT_EQ(report.bits_flipped, count);
    EXPECT_EQ(hamming_distance(t, original), count) << "count " << count;
  }
}

TEST(MemoryFaults, ExactFlipsAtCapacityFlipEveryBit) {
  Tensor t(Shape{2}, -1.0f);
  const Tensor original = t;
  Rng rng(9);
  const auto report = inject_exact_flips(t, 64, rng);
  EXPECT_EQ(report.bits_flipped, 64u);
  EXPECT_EQ(hamming_distance(t, original), 64u);

  Tensor u(Shape{2}, -1.0f);
  const auto over = inject_exact_flips(u, 10000, rng);
  EXPECT_EQ(over.bits_flipped, 64u);
  EXPECT_EQ(hamming_distance(u, original), 64u);
}

TEST(MemoryFaults, ExactFlipsDeterministicForSeed) {
  Tensor a(Shape{64}, 0.5f);
  Tensor b(Shape{64}, 0.5f);
  Rng ra(77);
  Rng rb(77);
  inject_exact_flips(a, 33, ra);
  inject_exact_flips(b, 33, rb);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------- memory campaign types

TEST(MemoryCampaign, OutcomeNames) {
  using hybridcnn::faultsim::memory_outcome_name;
  using hybridcnn::faultsim::MemoryOutcome;
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kIntact), "intact");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kCorrected), "corrected");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kUncorrectable),
            "uncorrectable");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kQualifierCaught),
            "qualifier_caught");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kSilentCorruption),
            "silent_corruption");
}

TEST(MemoryCampaign, SummaryRates) {
  using hybridcnn::faultsim::MemoryCampaignSummary;
  using hybridcnn::faultsim::MemoryOutcome;
  MemoryCampaignSummary s;
  s.add(MemoryOutcome::kIntact);
  s.add(MemoryOutcome::kIntact);
  s.add(MemoryOutcome::kCorrected);
  s.add(MemoryOutcome::kUncorrectable);
  s.add(MemoryOutcome::kQualifierCaught);
  s.add(MemoryOutcome::kSilentCorruption);
  EXPECT_EQ(s.runs, 6u);
  EXPECT_DOUBLE_EQ(s.availability(), 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(s.safety(), 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(s.sdc_rate(), 1.0 / 6.0);
  EXPECT_EQ(s, s);
}

// ------------------------------------------------------------- campaign

TEST(Campaign, ClassificationTable) {
  EXPECT_EQ(classify(false, false, true), Outcome::kCorrect);
  EXPECT_EQ(classify(true, false, true), Outcome::kCorrected);
  EXPECT_EQ(classify(true, true, true), Outcome::kDetectedAbort);
  EXPECT_EQ(classify(true, true, false), Outcome::kDetectedAbort);
  EXPECT_EQ(classify(true, false, false), Outcome::kSilentCorruption);
  EXPECT_EQ(classify(false, false, false), Outcome::kSilentCorruption);
}

TEST(Campaign, OutcomeNames) {
  EXPECT_EQ(outcome_name(Outcome::kCorrect), "correct");
  EXPECT_EQ(outcome_name(Outcome::kCorrected), "corrected");
  EXPECT_EQ(outcome_name(Outcome::kDetectedAbort), "detected_abort");
  EXPECT_EQ(outcome_name(Outcome::kSilentCorruption), "silent_corruption");
}

TEST(Campaign, SummaryRates) {
  CampaignSummary s;
  s.add(Outcome::kCorrect);
  s.add(Outcome::kCorrect);
  s.add(Outcome::kCorrected);
  s.add(Outcome::kDetectedAbort);
  s.add(Outcome::kSilentCorruption);
  EXPECT_EQ(s.runs, 5u);
  EXPECT_DOUBLE_EQ(s.availability(), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.safety(), 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.sdc_rate(), 1.0 / 5.0);
}

TEST(Campaign, EmptySummaryRatesAreZero) {
  const CampaignSummary s;
  EXPECT_DOUBLE_EQ(s.availability(), 0.0);
  EXPECT_DOUBLE_EQ(s.safety(), 0.0);
  EXPECT_DOUBLE_EQ(s.sdc_rate(), 0.0);
}

// Parameterised: operand-targeted faults corrupt results too.
class OperandTargets : public ::testing::TestWithParam<FaultTarget> {};

TEST_P(OperandTargets, TargetIsConfigured) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1.0;
  cfg.target = GetParam();
  FaultInjector inj(cfg, 9);
  EXPECT_EQ(inj.config().target, GetParam());
  EXPECT_NE(float_bits(inj.filter(5.0f)), float_bits(5.0f));
}

INSTANTIATE_TEST_SUITE_P(Targets, OperandTargets,
                         ::testing::Values(FaultTarget::kResult,
                                           FaultTarget::kOperandA,
                                           FaultTarget::kOperandB));

}  // namespace
