// Campaign-fabric scaling bench: throughput of the sharded coordinator
// across shard size x worker count, with and without the durable
// checkpoint, against the monolithic single-coordinator campaign.
//
// Every fabric cell is also a correctness assertion: its merged summary
// must be bit-identical to the monolithic run, and the process exit
// code reports any violation — the bench doubles as the fabric's
// perf-regression and contract gate in CI.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "campaign_fabric/campaigns.hpp"
#include "core/hybrid_network.hpp"
#include "data/renderer.hpp"
#include "faultsim/campaign.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "runtime/compute_context.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

std::unique_ptr<nn::Sequential> make_net() {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 128 -> 61
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);  // 61 -> 30
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 30 * 30, 5);
  nn::init_network(*net, 3);
  return net;
}

faultsim::Outcome judge(std::size_t, const core::HybridClassification& r) {
  const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
  const bool faults = aborted || r.conv1_report.detected_errors > 0;
  return faultsim::classify(faults, aborted, !aborted);
}

}  // namespace

int main() {
  bench::banner("FABRIC", "campaign-fabric scaling (sharded coordinator "
                          "vs monolithic campaign)");
  const std::size_t runs = bench::quick_mode() ? 24 : 96;

  core::HybridConfig hcfg;
  hcfg.fault_config.kind = faultsim::FaultKind::kTransient;
  hcfg.fault_config.probability = 1e-4;
  hcfg.fault_config.bit = -1;
  hcfg.fault_seed = 1;
  const core::HybridNetwork net(make_net(), 0, hcfg);
  const tensor::Tensor image = data::render_stop_sign(128, 6.0);
  const std::uint64_t seed_base = net.seed_stream().peek();

  // Monolithic baseline: one coordinator, the pool's thread fan-out.
  util::Stopwatch mono_watch;
  const faultsim::CampaignSummary mono =
      net.classify_campaign_range(image, 0, runs, seed_base, judge);
  const double mono_seconds = mono_watch.seconds();
  std::printf("monolithic: %zu runs in %.3fs (%.1f runs/s)\n\n", runs,
              mono_seconds, static_cast<double>(runs) / mono_seconds);

  util::Table table("campaign fabric throughput",
                    {"shard size", "workers", "durable", "seconds",
                     "runs/s", "bit-identical"});
  bool all_identical = true;

  const std::string ckpt =
      util::results_path(bench::results_dir(), "fabric_bench.ckpt");
  for (const bool durable : {false, true}) {
    for (const std::uint64_t shard_size :
         {std::uint64_t{4}, std::uint64_t{16},
          static_cast<std::uint64_t>(runs)}) {
      for (const std::size_t workers : {1u, 2u, 4u}) {
        fabric::FabricConfig cfg;
        cfg.shard_size = shard_size;
        cfg.workers = workers;
        if (durable) {
          std::remove(ckpt.c_str());
          cfg.checkpoint_path = ckpt;
        }
        util::Stopwatch watch;
        const fabric::FabricResult<faultsim::CampaignSummary> result =
            fabric::run_classify_campaign(net, image, runs, seed_base, judge,
                                          cfg);
        const double seconds = watch.seconds();
        const bool bit_identical = result.complete && result.summary == mono;
        all_identical = all_identical && bit_identical;
        table.row({std::to_string(shard_size), std::to_string(workers),
                   durable ? "yes" : "no", util::Table::fixed(seconds),
                   util::Table::fixed(static_cast<double>(runs) / seconds, 1),
                   bit_identical ? "yes" : "NO"});
      }
    }
  }
  std::remove(ckpt.c_str());
  table.print();

  if (!all_identical) {
    std::printf("FABRIC BIT-IDENTITY VIOLATION: see table above\n");
    return 1;
  }
  std::printf("every fabric cell merged bit-identical to the monolithic "
              "campaign\n");
  return 0;
}
