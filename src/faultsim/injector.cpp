#include "faultsim/injector.hpp"

#include <algorithm>
#include <limits>

#include "faultsim/bitflip.hpp"

namespace hybridcnn::faultsim {

FaultInjector::FaultInjector(const FaultConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed, /*stream=*/0xFA17),
      draws_trials_((config.kind == FaultKind::kTransient ||
                     config.kind == FaultKind::kIntermittent) &&
                    !(config.probability <= 0.0)) {
  const int pes = std::max(1, config_.num_pes);
  pe_permanently_faulty_.assign(static_cast<std::size_t>(pes), 0);
  pe_burst_active_.assign(static_cast<std::size_t>(pes), 0);
  if (config_.kind == FaultKind::kPermanent) {
    for (auto& flag : pe_permanently_faulty_) {
      flag = rng_.bernoulli(config_.probability) ? 1 : 0;
    }
  }
}

bool FaultInjector::next_is_faulty() const noexcept {
  if (config_.kind == FaultKind::kPermanent) {
    return pe_permanently_faulty_[static_cast<std::size_t>(next_pe_)] != 0;
  }
  return false;  // stochastic kinds are not predictable
}

std::uint64_t FaultInjector::calls_before_flag(
    const std::vector<std::uint8_t>& pe_flags) const noexcept {
  const std::size_t pes = pe_flags.size();
  auto pe = static_cast<std::size_t>(next_pe_);
  for (std::uint64_t k = 0; k < pes; ++k) {
    if (pe_flags[pe] != 0) return k;
    if (++pe == pes) pe = 0;
  }
  return std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t FaultInjector::take_clean(std::uint64_t n,
                                        std::uint64_t unit) noexcept {
  std::uint64_t clean = n;
  switch (config_.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kIntermittent:
      // Burst flags change only on faulty calls, so every call before the
      // first burst PE makes the same Bernoulli(p) trial as a transient one.
      clean = std::min(clean, calls_before_flag(pe_burst_active_));
      [[fallthrough]];
    case FaultKind::kTransient:
      if (!draws_trials_) break;  // p <= 0: bernoulli() never draws
      if (clean > clean_ahead_ && !fault_after_) {
        scan_ahead(clean - clean_ahead_);
      }
      clean = std::min(clean, clean_ahead_);
      break;
    case FaultKind::kPermanent:
      clean = std::min(clean, calls_before_flag(pe_permanently_faulty_));
      break;
  }
  const std::uint64_t granted = clean - clean % unit;
  if (draws_trials_) clean_ahead_ -= granted;  // rng_ catches up when read
  stats_.executions += granted;
  const auto pes = static_cast<std::uint64_t>(pe_permanently_faulty_.size());
  next_pe_ = static_cast<int>(
      (static_cast<std::uint64_t>(next_pe_) + granted % pes) % pes);
  return granted;
}

void FaultInjector::scan_ahead(std::uint64_t want) noexcept {
  // The cached run ends clean_run_ trials past rng_.
  const std::uint64_t misses =
      rng_.bernoulli_misses(config_.probability, want, clean_run_);
  clean_ahead_ += misses;
  clean_run_ += misses;
  fault_after_ = misses < want;
}

int FaultInjector::permanent_faulty_pes() const noexcept {
  int n = 0;
  for (const auto flag : pe_permanently_faulty_) n += flag;
  return n;
}

float FaultInjector::filter_drawn(float clean) noexcept {
  const auto pe = static_cast<std::size_t>(next_pe_);
  // A Bernoulli(p) trial with nothing known about the stream ahead: scan a
  // chunk, so that this call and the clean ones after it take the inline
  // branch.
  if (draws_trials_ && clean_ahead_ == 0 && !fault_after_ &&
      pe_burst_active_[pe] == 0) {
    scan_ahead(kScanChunk);
    if (clean_ahead_ != 0) return filter(clean);
  }
  // Every draw below shifts the stream: bring rng_ up to it in one jump
  // and drop the cache.
  rng_.skip_uniforms(clean_run_ - clean_ahead_);
  clean_ahead_ = 0;
  clean_run_ = 0;
  fault_after_ = false;
  ++stats_.executions;
  next_pe_ = (next_pe_ + 1) % static_cast<int>(pe_permanently_faulty_.size());

  bool fault = false;
  switch (config_.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kTransient:
      fault = rng_.bernoulli(config_.probability);
      break;
    case FaultKind::kIntermittent:
      if (pe_burst_active_[pe] != 0) {
        fault = true;
        if (!rng_.bernoulli(config_.burst_continue)) {
          pe_burst_active_[pe] = 0;
        }
      } else if (rng_.bernoulli(config_.probability)) {
        fault = true;
        pe_burst_active_[pe] = rng_.bernoulli(config_.burst_continue) ? 1 : 0;
      }
      break;
    case FaultKind::kPermanent:
      fault = pe_permanently_faulty_[pe] != 0;
      break;
  }

  if (!fault) return clean;
  ++stats_.faults;
  const int bit = config_.bit >= 0
                      ? config_.bit
                      : static_cast<int>(rng_.uniform_int(0, 31));
  return flip_bit(clean, bit);
}

}  // namespace hybridcnn::faultsim
