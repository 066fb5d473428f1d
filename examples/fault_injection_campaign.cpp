// Fault-injection campaign over the full hybrid pipeline.
//
// Sweeps the SEU rate of the simulated compute unit and reports, per
// rate, the dependability outcome distribution of hybrid classification:
// corrected runs (rollback absorbed the faults), fail-stops (leaky bucket
// latched a persistent condition) and silent corruptions (none expected
// with DMR). This is the library-level version of the paper's reliability
// argument, runnable as a demo.
#include <cstdio>

#include <vector>

#include "core/hybrid_network.hpp"
#include "data/renderer.hpp"
#include "faultsim/campaign.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

std::unique_ptr<nn::Sequential> make_net() {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 22 * 22, 5);
  nn::init_network(*net, 5);
  return net;
}

}  // namespace

int main() {
  const tensor::Tensor image = data::render_stop_sign(96, 4.0);

  // Golden (fault-free) reference decision.
  core::HybridNetwork golden(make_net(), 0, core::HybridConfig{});
  core::FaultSeedStream golden_seeds = golden.seed_stream();
  const auto g = golden.classify(image, golden_seeds);
  std::printf("golden run: class=%d confidence=%.4f qualifier=%s\n",
              g.predicted_class, g.confidence,
              g.qualifier.match ? "octagon" : "-");

  util::Table table("hybrid classify under SEU injection (DMR, 12 runs/rate)",
                    {"rate/op", "correct", "corrected", "fail-stop", "SDC",
                     "avg detected errors"});

  for (const double rate : {1e-7, 1e-6, 1e-5, 1e-4}) {
    constexpr std::size_t kRuns = 12;
    // One hybrid network serves the whole campaign:
    // classify_campaign_range gives run i the fault seed fault_seed + i
    // (the same per-run streams the old build-a-network-per-run pattern
    // used), fans the reliable stage across the pool, and reduces
    // outcomes in run order — the summary stays bit-identical at every
    // thread count while the network/kernel construction is amortised.
    core::HybridConfig cfg;
    cfg.fault_config.kind = faultsim::FaultKind::kTransient;
    cfg.fault_config.probability = rate;
    cfg.fault_config.bit = -1;
    cfg.fault_seed = 1;
    core::HybridNetwork hybrid(make_net(), 0, cfg);

    std::vector<std::uint64_t> detected_per_run(kRuns, 0);
    const faultsim::CampaignSummary summary = hybrid.classify_campaign_range(
        image, 0, kRuns, hybrid.seed_stream().peek(),
        [&](std::size_t run, const core::HybridClassification& r) {
          const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
          const bool faults = aborted || r.conv1_report.detected_errors > 0 ||
                              r.qualifier.report.detected_errors > 0;
          const bool matches = r.predicted_class == g.predicted_class &&
                               r.qualifier.match == g.qualifier.match &&
                               r.confidence == g.confidence;
          detected_per_run[run] = r.conv1_report.detected_errors +
                                  r.qualifier.report.detected_errors;
          return faultsim::classify(faults, aborted, matches);
        });
    double detected = 0.0;
    for (const std::uint64_t d : detected_per_run) {
      detected += static_cast<double>(d);
    }
    table.row({util::Table::fixed(rate, 7),
               std::to_string(summary.correct),
               std::to_string(summary.corrected),
               std::to_string(summary.detected_abort),
               std::to_string(summary.silent_corruption),
               util::Table::fixed(detected / 12.0, 1)});
  }
  table.print();
  std::printf("\nwith DMR + operation rollback, the SDC column stays 0: "
              "every run either reproduces the golden decision exactly or "
              "fail-stops with a report.\n");
  return 0;
}
