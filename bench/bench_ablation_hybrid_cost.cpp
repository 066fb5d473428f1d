// ABL-HYBRID — the conclusion's footprint claim: "we can reduce the
// necessary reliable execution to limits that a dependable model
// determines rather than just reliably executing an entire CNN or
// maintaining two parallel yet independent execution paths. We conserve
// both footprint and computational power."
//
// Four execution strategies over AlexNet are compared in logical MACs
// (architecture-independent) and measured time on a reduced workload:
//   plain          — no reliability at all
//   hybrid (paper) — conv1 reliable (DMR) + qualifier, rest plain
//   full-reliable  — every conv/fc op through DMR operators
//   duplicated     — two parallel independent executions + compare
// Every measured row is one untimed warm-up call, then the best of
// kTimedReps timed calls, so first-call costs (pool start-up, arena
// growth) and the row order decide no row.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/hybrid_network.hpp"
#include "data/renderer.hpp"
#include "nn/alexnet.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "runtime/workspace.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

constexpr int kTimedReps = 5;

/// Best wall time of kTimedReps calls of `fn` after one warm-up call.
template <typename Fn>
double best_of(Fn&& fn) {
  fn();
  double best = 0.0;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    util::Stopwatch sw;
    fn();
    const double t = sw.seconds();
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("ABL-HYBRID", "hybrid vs full-reliable vs duplicated cost");

  // --- MAC accounting at the paper's scale (AlexNet, 227x227). --------
  core::HybridNetwork hybrid(
      nn::make_alexnet({.num_classes = 43, .seed = 1, .with_dropout = false}),
      nn::kAlexNetConv1, core::HybridConfig{});
  const auto split = hybrid.cost_split(tensor::Shape{3, 227, 227});

  // DMR doubles every reliable execution; the qualifier is already inside
  // reliable_macs.
  const std::uint64_t plain = split.total_macs - // qualifier not in plain
                              2ull * 9ull * 227ull * 227ull;
  const std::uint64_t hybrid_cost =
      (split.total_macs - split.reliable_macs) + 2 * split.reliable_macs;
  const std::uint64_t full_reliable = 2 * split.total_macs;
  const std::uint64_t duplicated = 2 * plain;

  util::Table table("execution strategies, AlexNet 227x227 (logical MACs)",
                    {"strategy", "MACs (1e6)", "vs plain", "reliable share"});
  const auto row = [&](const char* name, std::uint64_t macs,
                       const char* share) {
    table.row({name, util::Table::fixed(static_cast<double>(macs) / 1e6, 1),
               util::Table::fixed(static_cast<double>(macs) /
                                      static_cast<double>(plain), 3),
               share});
  };
  row("plain CNN (no reliability)", plain, "0%");
  row("hybrid (paper): conv1 DMR + qualifier", hybrid_cost,
      util::Table::fixed(100.0 * static_cast<double>(split.reliable_macs) /
                             static_cast<double>(split.total_macs), 1)
          .append("%")
          .c_str());
  row("fully reliable CNN (every op DMR)", full_reliable, "100%");
  row("duplicated independent CNNs", duplicated, "100%");
  table.print();

  // --- Measured wall time on a reduced network (conv1-heavy nets make
  // the instrumented executor the dominant cost, so a smaller geometry
  // keeps the bench under a minute while preserving the ordering). ------
  std::printf("\nmeasured wall time (reduced 96x96 network):\n");
  auto make_small = [] {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 96 -> 45
    net->emplace<nn::ReLU>();
    net->emplace<nn::MaxPool>(3, 2);  // 45 -> 22
    net->emplace<nn::Conv2d>(8, 16, 3, 1, 1);
    net->emplace<nn::ReLU>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Linear>(16 * 22 * 22, 5);
    nn::init_network(*net, 3);
    return net;
  };
  const tensor::Tensor img = data::render_stop_sign(96, 5.0);

  // plain — through the const re-entrant inference path with the calling
  // thread's scratch arena (the deprecated mutating forward() is gone
  // from every bench).
  runtime::Workspace& ws = runtime::thread_scratch();
  auto plain_net = make_small();
  tensor::Tensor batched = img;
  batched.reshape(tensor::Shape{1, 3, 96, 96});
  const double t_plain =
      best_of([&] { static_cast<void>(plain_net->infer(batched, ws)); });

  // hybrid
  core::HybridNetwork small_hybrid(make_small(), 0, core::HybridConfig{});
  core::FaultSeedStream seeds = small_hybrid.seed_stream();
  const double t_hybrid =
      best_of([&] { static_cast<void>(small_hybrid.classify(img, seeds)); });

  // hybrid, amortised: classify_batch builds the reliable kernel once and
  // fans the whole per-image pipeline across the pool — the per-inference
  // cost a batched deployment pays. The batch's image copies are made
  // before the clock starts.
  constexpr std::size_t kAmortisedRuns = 4;
  const std::vector<tensor::Tensor> batch(kAmortisedRuns, img);
  const double t_hybrid_batch =
      best_of([&] {
        static_cast<void>(small_hybrid.classify_batch(batch, seeds));
      }) /
      static_cast<double>(kAmortisedRuns);

  // fully reliable: both convolutions through DMR operators; the (tiny)
  // dense head stays plain — it is <1% of the MACs, noted in the output.
  auto full_net = make_small();
  const auto exec = reliable::make_executor("dmr", nullptr);
  const double t_full = best_of([&] {
    auto& c1 = full_net->layer_as<nn::Conv2d>(0);
    const reliable::ReliableConv2d r1(c1.weights(), c1.bias(),
                                      reliable::ConvSpec{2, 0});
    tensor::Tensor m1 = r1.forward(img, *exec).output;
    m1.reshape(tensor::Shape{1, m1.shape()[0], m1.shape()[1],
                             m1.shape()[2]});
    tensor::Tensor pooled = full_net->layer(1).infer(m1, ws);   // relu
    pooled = full_net->layer(2).infer(pooled, ws);              // maxpool
    tensor::Tensor chw = pooled;
    chw.reshape(tensor::Shape{pooled.shape()[1], pooled.shape()[2],
                              pooled.shape()[3]});
    auto& c2 = full_net->layer_as<nn::Conv2d>(3);
    const reliable::ReliableConv2d r2(c2.weights(), c2.bias(),
                                      reliable::ConvSpec{1, 1});
    tensor::Tensor m2 = r2.forward(chw, *exec).output;
    m2.reshape(tensor::Shape{1, m2.shape()[0], m2.shape()[1],
                             m2.shape()[2]});
    (void)full_net->infer_from(4, m2, ws);  // relu, flatten, dense head
  });

  // duplicated: two plain runs + output compare.
  const double t_dup = best_of([&] {
    auto out_a = plain_net->infer(batched, ws);
    auto out_b = plain_net->infer(batched, ws);
    volatile bool same = out_a == out_b;
    (void)same;
  });

  util::Table timing("measured strategies (96x96 network)",
                     {"strategy", "seconds", "vs plain"});
  timing.row({"plain", util::Table::fixed(t_plain, 4), "1.00"});
  timing.row({"hybrid (conv1 DMR + qualifier)",
              util::Table::fixed(t_hybrid, 4),
              util::Table::fixed(t_hybrid / t_plain, 2)});
  timing.row({"hybrid, batched (classify_batch x4, per img)",
              util::Table::fixed(t_hybrid_batch, 4),
              util::Table::fixed(t_hybrid_batch / t_plain, 2)});
  timing.row({"fully reliable (all convs DMR)",
              util::Table::fixed(t_full, 4),
              util::Table::fixed(t_full / t_plain, 2)});
  timing.row({"duplicated plain CNNs", util::Table::fixed(t_dup, 4),
              util::Table::fixed(t_dup / t_plain, 2)});
  timing.print();

  util::CsvWriter csv(
      util::results_path(bench::results_dir(), "hybrid_cost.csv"),
      {"strategy", "alexnet_macs", "measured_seconds_96px"});
  csv.row({"plain", std::to_string(plain), util::CsvWriter::num(t_plain)});
  csv.row({"hybrid", std::to_string(hybrid_cost),
           util::CsvWriter::num(t_hybrid)});
  csv.row({"hybrid_batched", std::to_string(hybrid_cost),
           util::CsvWriter::num(t_hybrid_batch)});
  csv.row({"full_reliable", std::to_string(full_reliable),
           util::CsvWriter::num(t_full)});
  csv.row({"duplicated", std::to_string(duplicated),
           util::CsvWriter::num(t_dup)});

  std::printf("\nexpected shape: hybrid adds only the reliable share "
              "(conv1 ~9%% of AlexNet MACs) once, while full reliability "
              "and duplication double everything. Note the measured table "
              "uses a reduced network whose conv1 is ~80%% of all MACs, so "
              "hybrid and fully-reliable nearly coincide there; the MAC "
              "table at the paper's AlexNet scale shows the real split "
              "(1.10x vs 2.00x). The instrumented executor's virtual "
              "dispatch also inflates reliable time vs the GEMM engine — "
              "the same software-vs-hardware gap the paper notes for its "
              "Python prototype.\n");
  std::printf("CSV written to %s\n", csv.path().c_str());
  return 0;
}
