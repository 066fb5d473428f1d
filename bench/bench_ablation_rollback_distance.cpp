// ABL-ROLLBACK — rollback-distance ablation (Section II.E): "In a
// convolution layer [...] the rollback-distance can be reduced to one
// operation." This bench compares the paper's operation-granular
// checkpoint/rollback against layer-granular DMR (re-execute the whole
// layer on mismatch) in wall time and recovery behaviour across fault
// rates: op-level recovery cost stays flat while layer-level recovery
// cost multiplies with every retry — the paper's deadline argument.
//
// One pass of the layer is about 1.2M ops. At 1e-7 and 1e-6 per op a
// layer attempt (two passes) meets about 0.25 and 2.5 faults, so layer
// DMR still completes its runs and its rollbacks grow with the rate (0.15
// and 6.8 a run in full mode; not every fault changes the layer output).
// From 1e-5 up nearly every attempt faults and the layer row reads the
// 64-retry cap.
//
// Deterministic claims, checked on every run; the bench exits 1 if one
// fails:
//   * every completed run of either strategy is bit-identical to the
//     fault-free reference output (no silent corruption);
//   * at rate 0 neither strategy rolls back or fails.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/reliable_conv.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

/// Layer-granular DMR: each attempt runs the whole layer twice through
/// the faulty unit and compares the outputs bit for bit; a mismatch rolls
/// back and re-executes the entire layer. A forward through `simplex` is
/// one unqualified pass: Algorithm 1's qualifier is always true, so no
/// single op is ever retried. The conv's policy bounds the retries the
/// same way it bounds Algorithm 3's: the leaky bucket's ceiling and the
/// per-op retry cap, here applied per layer attempt.
reliable::ReliableResult layer_dmr_forward(
    const reliable::ReliableConv2d& conv, const tensor::Tensor& input,
    reliable::Executor& simplex) {
  const reliable::ReliabilityPolicy& policy = conv.policy();
  reliable::LeakyBucket bucket(policy.bucket_factor, policy.bucket_ceiling);
  reliable::ReliableResult result;
  reliable::ExecutionReport& report = result.report;
  report.stage = "layer_dmr_conv2d";
  report.scheme = "layer-dmr(" + simplex.name() + ")";
  for (std::uint32_t attempt = 0;; ++attempt) {
    reliable::ReliableResult first = conv.forward(input, simplex);
    const reliable::ReliableResult second = conv.forward(input, simplex);
    report.logical_ops += first.report.logical_ops + second.report.logical_ops;
    result.output = std::move(first.output);
    if (tensor::bit_identical(result.output, second.output)) {
      bucket.record_success();
      if (attempt > 0) ++report.corrected_errors;
      ++report.commits;
      report.bucket_peak = bucket.peak();
      return result;
    }
    ++report.detected_errors;
    ++report.rollbacks;  // rollback distance: the entire layer
    if (bucket.record_error() || attempt + 1 >= policy.max_retries_per_op) {
      report.ok = false;  // the first pass is kept as a best effort
      report.bucket_peak = bucket.peak();
      report.bucket_exhausted = bucket.exhausted();
      report.failed_op_index = 0;
      return result;
    }
    ++report.retries;
  }
}

}  // namespace

int main() {
  bench::banner("ABL-ROLLBACK", "rollback distance: one op vs whole layer");

  util::Rng rng(7);
  tensor::Tensor weights(tensor::Shape{8, 3, 5, 5});
  weights.fill_normal(rng, 0.0f, 0.2f);
  tensor::Tensor bias(tensor::Shape{8});
  tensor::Tensor input(tensor::Shape{3, 32, 32});
  input.fill_normal(rng, 0.0f, 1.0f);

  reliable::ReliabilityPolicy policy;
  policy.bucket_factor = 1;  // generous bucket: isolate the cost effect
  policy.bucket_ceiling = 64;
  policy.max_retries_per_op = 64;

  const reliable::ReliableConv2d op_level(weights, bias,
                                          reliable::ConvSpec{1, 2}, policy);
  const tensor::Tensor golden = op_level.reference_forward(input);

  const std::size_t runs = bench::quick_mode() ? 5 : 20;

  util::Table table("rollback distance comparison (DMR detection)",
                    {"rate/op", "strategy", "avg time [ms]", "completed",
                     "avg rollbacks", "worst-case ratio"});
  util::CsvWriter csv(
      util::results_path(bench::results_dir(), "rollback_distance.csv"),
      {"rate", "strategy", "avg_ms", "completed", "avg_rollbacks"});

  std::size_t corrupted = 0;     // completed runs that differ from golden
  std::size_t clean_misses = 0;  // rate-0 runs that rolled back or failed
  const auto check = [&](double rate, const reliable::ReliableResult& r) {
    if (r.report.ok && !tensor::bit_identical(r.output, golden)) ++corrupted;
    if (rate == 0.0 && (!r.report.ok || r.report.rollbacks != 0)) {
      ++clean_misses;
    }
  };

  for (const double rate : {0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}) {
    double op_ms = 0.0;
    double layer_ms = 0.0;
    std::size_t op_done = 0;
    std::size_t layer_done = 0;
    double op_rb = 0.0;
    double layer_rb = 0.0;

    for (std::size_t run = 0; run < runs; ++run) {
      faultsim::FaultConfig cfg;
      cfg.kind = faultsim::FaultKind::kTransient;
      cfg.probability = rate;
      cfg.bit = -1;

      {
        auto inj =
            std::make_shared<faultsim::FaultInjector>(cfg, 3000 + run);
        const auto exec = reliable::make_executor("dmr", inj);
        util::Stopwatch sw;
        const auto r = op_level.forward(input, *exec);
        op_ms += sw.millis();
        if (r.report.ok) ++op_done;
        op_rb += static_cast<double>(r.report.rollbacks);
        check(rate, r);
      }
      {
        auto inj =
            std::make_shared<faultsim::FaultInjector>(cfg, 3000 + run);
        reliable::SimplexExecutor exec(inj);
        util::Stopwatch sw;
        const auto r = layer_dmr_forward(op_level, input, exec);
        layer_ms += sw.millis();
        if (r.report.ok) ++layer_done;
        layer_rb += static_cast<double>(r.report.rollbacks);
        check(rate, r);
      }
    }
    const double n = static_cast<double>(runs);
    table.row({util::CsvWriter::num(rate), "op-level (Algorithm 3)",
               util::Table::fixed(op_ms / n, 2), std::to_string(op_done),
               util::Table::fixed(op_rb / n, 2), "1.00"});
    table.row({util::CsvWriter::num(rate), "layer-level DMR",
               util::Table::fixed(layer_ms / n, 2),
               std::to_string(layer_done),
               util::Table::fixed(layer_rb / n, 2),
               util::Table::fixed(layer_ms / std::max(op_ms, 1e-9), 2)});
    csv.row({util::CsvWriter::num(rate), "op_level",
             util::CsvWriter::num(op_ms / n), std::to_string(op_done),
             util::CsvWriter::num(op_rb / n)});
    csv.row({util::CsvWriter::num(rate), "layer_level",
             util::CsvWriter::num(layer_ms / n), std::to_string(layer_done),
             util::CsvWriter::num(layer_rb / n)});
  }
  table.print();

  std::printf("\nexpected shape: fault-free, op-level runs the raw kernel "
              "once and layer-level runs the layer twice; with faults, "
              "op-level re-executes single operations (cost flat), "
              "layer-level re-executes the entire layer per detected "
              "mismatch (cost and deadline risk grow with rate).\n");
  std::printf("CSV written to %s\n", csv.path().c_str());
  if (corrupted != 0 || clean_misses != 0) {
    std::printf("ABL-ROLLBACK CLAIM FAILED: %zu completed runs differ from "
                "the reference, %zu fault-free runs rolled back or failed\n",
                corrupted, clean_misses);
    return 1;
  }
  std::printf("claim holds: every completed run is bit-identical to the "
              "reference, and no fault-free run rolled back\n");
  return 0;
}
