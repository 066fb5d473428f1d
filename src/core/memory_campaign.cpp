#include "core/memory_campaign.hpp"

#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "faultsim/campaign.hpp"
#include "faultsim/ecc.hpp"
#include "nn/conv2d.hpp"
#include "util/rng.hpp"

namespace hybridcnn::core {

namespace {

/// Rng stream for memory-fault sites — distinct from the compute-fault
/// injector stream (0xFA17) so the two fault sources are decorrelated
/// even though both derive from the same per-run seed.
constexpr std::uint64_t kMemoryStream = 0x5E0;

/// One exposure epoch of the configured model against `t`.
faultsim::MemoryFaultReport apply_model(tensor::Tensor& t,
                                        const faultsim::MemoryFaultModel& m,
                                        util::Rng& rng) {
  if (m.exact_flips > 0) {
    return faultsim::inject_exact_flips(t, m.exact_flips, rng);
  }
  return faultsim::inject_bit_errors(t, m.bit_error_rate, rng);
}

bool targets_weights(faultsim::MemoryTarget t) noexcept {
  return t == faultsim::MemoryTarget::kWeights ||
         t == faultsim::MemoryTarget::kWeightsAndInput;
}

bool targets_input(faultsim::MemoryTarget t) noexcept {
  return t == faultsim::MemoryTarget::kInput ||
         t == faultsim::MemoryTarget::kWeightsAndInput;
}

/// The hybrid evidence chain flagged the run at runtime: the decision
/// demoted or fail-stopped the prediction, or the dependable qualifier
/// asserts the critical shape while the classifier disagrees — an
/// inconsistency a supervisor observes without any golden reference.
bool evidence_flags(const HybridClassification& r) noexcept {
  return r.decision == Decision::kDemotedUnqualified ||
         r.decision == Decision::kReliableExecutionFailed ||
         (r.qualifier.qualifies() && !r.safety_critical);
}

const nn::Conv2d& conv1_of(const HybridNetwork& net) {
  return net.cnn().layer_as<nn::Conv2d>(net.conv1_index());
}

bool same_result(const HybridClassification& a,
                 const HybridClassification& b) noexcept {
  return a.predicted_class == b.predicted_class && a.decision == b.decision;
}

}  // namespace

MemoryFaultCampaign::MemoryFaultCampaign(const HybridNetwork& net,
                                         MemoryCampaignConfig config)
    : net_(&net),
      config_(std::move(config)),
      weights_(conv1_of(net).weights()),
      bias_(conv1_of(net).bias()),
      spec_{conv1_of(net).stride(), conv1_of(net).pad()} {
  if (config_.scrub_interval == 0) {
    throw std::invalid_argument(
        "MemoryFaultCampaign: scrub_interval must be >= 1");
  }
}

faultsim::MemoryCampaignSummary MemoryFaultCampaign::run_range(
    const tensor::Tensor& image, std::size_t run_begin, std::size_t run_end,
    std::uint64_t seed_base) const {
  if (image.shape().rank() != 3 ||
      image.shape()[0] != weights_.data().shape()[1]) {
    throw std::invalid_argument(
        "MemoryFaultCampaign::run_range: expected CHW with conv1's channels");
  }
  const reliable::ReliabilityPolicy& policy = net_->config().policy;
  const BatchOptions opts{RemainderMode::kFanned, config_.report};

  // Golden reference. With no compute faults armed the fault-free hybrid
  // path is seed-independent, so one golden serves every run (any seed
  // produces the same bits — shards computing it with their own base
  // still agree); with compute faults armed each run needs the same-seed
  // pristine-weights classification so the comparison isolates the
  // memory effect. The pristine kernel and the shared golden are built
  // once, by the first run that classifies, and not at all when no run
  // in the range does.
  const bool compute_faults_armed =
      net_->config().fault_config.kind != faultsim::FaultKind::kNone;
  std::once_flag pristine_once;
  std::optional<reliable::ReliableConv2d> pristine_rconv;
  HybridClassification shared_golden;
  const auto pristine = [&]() -> const reliable::ReliableConv2d& {
    std::call_once(pristine_once, [&] {
      pristine_rconv.emplace(weights_.data(), bias_, spec_, policy);
      if (!compute_faults_armed) {
        shared_golden =
            net_->classify_with_conv1(*pristine_rconv, image, seed_base, opts);
      }
    });
    return *pristine_rconv;
  };

  // Run i's outcome; its injected bits and ECC repairs go into `rec`.
  // i is the global run index: seeds AND the scrub cadence key on it, so
  // a shard reproduces exactly the runs the whole campaign executes at
  // these indices.
  const auto outcome_of =
      [&](std::size_t i,
          faultsim::MemoryCampaignSummary& rec) -> faultsim::MemoryOutcome {
    const std::uint64_t seed = seed_base + i;
    util::Rng rng(seed, kMemoryStream);
    // Scrub cadence: run i has accumulated this many exposure epochs of
    // upsets since its memory was last scrubbed — a pure function of the
    // run index, so runs stay location-independent.
    const std::size_t epochs = (i % config_.scrub_interval) + 1;

    // ---- Corrupt the stored weights (optionally behind SEC-DED). ----
    // The pristine words' check bits were encoded once, at construction;
    // the scrub decodes only the words the faults changed.
    tensor::Tensor weights = weights_.data();
    bool ecc_uncorrectable = false;
    if (targets_weights(config_.model.target)) {
      for (std::size_t e = 0; e < epochs; ++e) {
        rec.bits_flipped +=
            apply_model(weights, config_.model, rng).bits_flipped;
      }
      if (config_.ecc) {
        const faultsim::ScrubReport sr = weights_.scrub_copy(weights);
        rec.ecc_corrected_data = sr.corrected_data;
        rec.ecc_corrected_check = sr.corrected_check;
        rec.ecc_uncorrectable_words = sr.uncorrectable;
        ecc_uncorrectable = sr.uncorrectable != 0;
      }
    }

    // ---- Corrupt the input buffer (never ECC-protected). ----
    const tensor::Tensor* input = &image;
    tensor::Tensor corrupted_input;
    if (targets_input(config_.model.target)) {
      corrupted_input = image;
      for (std::size_t e = 0; e < epochs; ++e) {
        rec.bits_flipped +=
            apply_model(corrupted_input, config_.model, rng).bits_flipped;
      }
      input = &corrupted_input;
    }

    // An uncorrectable ECC word is data loss the platform must fail-stop
    // on; the inference does not run.
    if (ecc_uncorrectable) return faultsim::MemoryOutcome::kUncorrectable;

    // A masked run — weights and input bit-identical to the pristine ones
    // after corruption and scrub — computes exactly what its golden
    // computes: the classification is a pure function of (weight bits,
    // input bits, seed). It matches without being classified. Bits, not
    // float ==: a +0/-0 swap or a NaN-payload change is a difference.
    const bool masked =
        tensor::bit_identical(weights, weights_.data()) &&
        (input == &image || tensor::bit_identical(*input, image));
    if (!masked) {
      const reliable::ReliableConv2d rconv(std::move(weights), bias_, spec_,
                                           policy);
      const HybridClassification result =
          net_->classify_with_conv1(rconv, *input, seed, opts);
      // Builds the shared golden too, on the first classifying run.
      const reliable::ReliableConv2d& pristine_conv = pristine();
      const HybridClassification golden =
          compute_faults_armed
              ? net_->classify_with_conv1(pristine_conv, image, seed, opts)
              : shared_golden;
      if (!same_result(result, golden)) {
        return evidence_flags(result)
                   ? faultsim::MemoryOutcome::kQualifierCaught
                   : faultsim::MemoryOutcome::kSilentCorruption;
      }
    }
    const bool ecc_repaired =
        rec.ecc_corrected_data + rec.ecc_corrected_check != 0;
    return (rec.bits_flipped != 0 && ecc_repaired)
               ? faultsim::MemoryOutcome::kCorrected
               : faultsim::MemoryOutcome::kIntact;
  };

  return faultsim::run_campaign<faultsim::MemoryCampaignSummary>(
      run_begin, run_end, [&](std::size_t i) {
        faultsim::MemoryCampaignSummary rec;
        rec.add(outcome_of(i, rec));
        return rec;
      });
}

}  // namespace hybridcnn::core
