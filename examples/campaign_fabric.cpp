// Crash-tolerant sharded campaign driver — the fabric demo and the
// binary tools/fabric_crash_test.sh kills.
//
// Runs a compute-fault classify campaign through the campaign fabric
// (sharded dispatch, durable checkpoint, resume), prints how many
// shards were recovered from the checkpoint, and with --verify replays
// the identical campaign monolithically and exits nonzero unless the
// two summaries are bit-identical. The CI crash test SIGKILLs this
// binary mid-campaign, truncates and corrupts the checkpoint tail, and
// reruns with --resume: the exit code then proves kill-resume
// bit-identity end to end.
//
// Flags:
//   --runs N         campaign size (default 48)
//   --shard-size S   runs per shard (default 4)
//   --workers W      fabric worker threads (default 2)
//   --checkpoint P   durable checkpoint file (default: none)
//   --resume         keep an existing checkpoint (default: start fresh)
//   --verify         compare against the monolithic run; exit 1 on diff
//   --shard-ms M     artificial per-shard latency, ms (crash window)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

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

void print_summary(const char* label, const faultsim::CampaignSummary& s) {
  std::printf("%s: runs=%llu correct=%llu corrected=%llu fail-stop=%llu "
              "sdc=%llu\n",
              label, static_cast<unsigned long long>(s.runs),
              static_cast<unsigned long long>(s.correct),
              static_cast<unsigned long long>(s.corrected),
              static_cast<unsigned long long>(s.detected_abort),
              static_cast<unsigned long long>(s.silent_corruption));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t runs = 48;
  std::uint64_t shard_size = 4;
  std::size_t workers = 2;
  std::string checkpoint;
  bool resume = false;
  bool verify = false;
  long shard_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--runs") {
      runs = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--shard-size") {
      shard_size = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--workers") {
      workers = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--checkpoint") {
      checkpoint = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--shard-ms") {
      shard_ms = std::strtol(value(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  if (!checkpoint.empty() && !resume) std::remove(checkpoint.c_str());

  core::HybridConfig hcfg;
  hcfg.fault_config.kind = faultsim::FaultKind::kTransient;
  hcfg.fault_config.probability = 1e-4;
  hcfg.fault_config.bit = -1;
  hcfg.fault_seed = 1;
  const core::HybridNetwork net(make_net(), 0, hcfg);
  const tensor::Tensor image = data::render_stop_sign(128, 6.0);
  const std::uint64_t seed_base = net.seed_stream().peek();

  fabric::FabricConfig cfg;
  cfg.shard_size = shard_size;
  cfg.workers = workers;
  cfg.checkpoint_path = checkpoint;
  if (shard_ms > 0) {
    cfg.attempt_hook = [shard_ms](const fabric::ShardDescriptor&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(shard_ms));
    };
  }

  std::printf("campaign fabric: %zu runs, shard size %llu, %zu workers%s\n",
              runs, static_cast<unsigned long long>(shard_size), workers,
              checkpoint.empty() ? "" : ", durable checkpoint");
  const fabric::FabricResult<faultsim::CampaignSummary> result =
      fabric::run_classify_campaign(net, image, runs, seed_base, judge, cfg);

  std::printf("resumed shards: %zu\n", result.stats.shards_resumed);
  std::printf("executed shards: %zu (of %zu), attempts=%zu\n",
              result.stats.shards_executed, result.stats.shards_total,
              result.stats.attempts);
  print_summary("fabric summary", result.summary);
  if (!result.complete) {
    std::fprintf(stderr, "fabric run incomplete\n");
    return 1;
  }

  if (verify) {
    core::FaultSeedStream seeds = net.seed_stream();
    const faultsim::CampaignSummary mono =
        net.classify_campaign(image, runs, judge, seeds);
    print_summary("monolithic summary", mono);
    if (!(result.summary == mono)) {
      std::fprintf(stderr,
                   "BIT-IDENTITY VIOLATION: fabric != monolithic summary\n");
      return 1;
    }
    std::printf("verify: fabric summary is bit-identical to the monolithic "
                "single-coordinator run\n");
  }
  return 0;
}
