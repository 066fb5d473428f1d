// TAB1 — Table 1 of the paper: execution time of the reliable convolution
// algorithm (Algorithm 3) for the first AlexNet convolution layer (96
// feature maps from 96 11x11x3 filters over 227x227x3), with
// non-redundant (Algorithm 1) vs redundant (Algorithm 2) operators, plus
// the paper's two reference rows: native execution and the naive SAX
// qualifier.
//
// The paper measured Python on an i9-9900: native TF 0.05 s, Algorithm 3
// with Algorithm 1 ops 301.91 s, with Algorithm 2 ops 648.87 s, SAX
// 1.942 s. Absolute numbers here differ (compiled C++); the reproduced
// quantities are the ratios: redundant ~2.1x non-redundant, both orders
// of magnitude above native, SAX far cheaper than reliable execution.
// The paper rows are measured on the retained generic (virtual-dispatch,
// per-op qualified) path — that is the execution style the paper timed.
//
// On top of that, the bench tracks the statically dispatched engine the
// public forward() selects: per scheme it times the generic oracle and
// the SIMD fast path (the kernel the conv's shape picks: channel lanes
// for this strided conv) at 1/2/8 pool threads, checks bit-identity of
// outputs and reports across every cell, and prints the 1-thread columns
// (with the gap to the unqualified im2col/GEMM conv on the same geometry)
// and the thread sweep as tables next to
// bench_results/table1_reliable_conv.csv.
// Exit code 1 on any bit-identity failure.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/renderer.hpp"
#include "nn/alexnet.hpp"
#include "nn/conv2d.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "runtime/workspace.hpp"
#include "sax/shape_match.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "vision/edge_map.hpp"
#include "vision/radial.hpp"

namespace {

using namespace hybridcnn;

/// The fast paths finish in tens of milliseconds, where one-shot wall
/// clock is mostly scheduler noise; best-of-N keeps the columns stable.
/// The generic oracle runs seconds per shot and stays single-shot.
constexpr int kFastReps = 5;

double time_generic(const reliable::ReliableConv2d& conv,
                    const tensor::Tensor& input, const char* scheme,
                    reliable::ReliableResult* out) {
  const auto exec = reliable::make_executor(scheme, nullptr);
  util::Stopwatch sw;
  *out = conv.forward_generic(input, *exec);
  return sw.seconds();
}

/// The swept axes of the dispatch study. The thread axis exercises the
/// pooled fault-free fan-out; on fewer hardware cores the extra rows
/// document oversubscription rather than speedup, which is still the
/// honest number for this machine.
constexpr std::size_t kThreadAxis[] = {1, 2, 8};

double time_dispatch(const reliable::ReliableConv2d& conv,
                     const tensor::Tensor& input, const char* scheme,
                     std::size_t threads, reliable::ReliableResult* out) {
  const std::size_t prior_threads =
      runtime::ComputeContext::global().slot_count();
  runtime::ComputeContext::set_global_threads(threads);
  const auto exec = reliable::make_executor(scheme, nullptr);
  double best = 0.0;
  for (int rep = 0; rep < kFastReps; ++rep) {
    util::Stopwatch sw;
    *out = conv.forward(input, *exec);
    const double t = sw.seconds();
    if (rep == 0 || t < best) best = t;
  }
  runtime::ComputeContext::set_global_threads(prior_threads);
  return best;
}

/// One pool-width cell of the per-scheme sweep.
struct ThreadCell {
  std::size_t threads = 1;
  double seconds = 0.0;
  [[nodiscard]] double ips() const { return 1.0 / seconds; }
};

struct SchemeRow {
  const char* scheme = nullptr;
  double generic_s = 0.0;
  /// The SIMD fast path at 1 thread — the default single-threaded
  /// configuration.
  double simd_s = 0.0;
  /// Unqualified im2col/GEMM conv on the same geometry; the gap the
  /// qualified fast path still pays for reliability bookkeeping.
  double unqualified_s = 0.0;
  std::vector<ThreadCell> cells;  ///< one cell per kThreadAxis entry
  [[nodiscard]] double simd_ips() const { return 1.0 / simd_s; }
  [[nodiscard]] double gap_vs_unqualified() const {
    return simd_s / unqualified_s;
  }
};

}  // namespace

int main() {
  bench::banner("TAB1", "Table 1 (reliable conv execution time)");

  // AlexNet conv1 weights (the deterministic init; timing is
  // weight-independent) and a rendered GTSRB-style stop-sign input.
  // Quick mode shrinks the input so the three generic-path rows stay
  // CI-friendly; the geometry (11x11 stride-4) is unchanged.
  const std::size_t image_size = bench::quick_mode() ? 131 : 227;
  util::Rng rng(42);
  tensor::Tensor weights(tensor::Shape{96, 3, 11, 11});
  weights.fill_normal(rng, 0.0f, 0.05f);
  tensor::Tensor bias(tensor::Shape{96});
  const reliable::ReliableConv2d rconv(weights, bias,
                                       reliable::ConvSpec{4, 0});

  const tensor::Tensor image =
      data::render_stop_sign(image_size, 5.0);
  const std::uint64_t macs = rconv.mac_count(image.shape());
  const tensor::Shape out_shape = rconv.output_shape(image.shape());
  std::printf("workload: 96 feature maps, 96 11x11x3 filters, input "
              "%zux%zux3 -> 96x%zux%zu (%llu MACs)\n",
              image_size, image_size, out_shape[1], out_shape[2],
              static_cast<unsigned long long>(macs));

  // Native reference: the im2col/GEMM engine (TensorFlow stand-in).
  nn::Conv2d native(3, 96, 11, 4, 0);
  native.weights() = weights;
  native.bias() = bias;
  tensor::Tensor batched = image;
  batched.reshape(tensor::Shape{1, 3, image_size, image_size});
  double t_native = 0.0;
  tensor::Tensor native_out;
  for (int rep = 0; rep < kFastReps; ++rep) {
    util::Stopwatch rep_sw;
    native_out = native.infer(batched, runtime::thread_scratch());
    const double t = rep_sw.seconds();
    if (rep == 0 || t < t_native) t_native = t;
  }
  util::Stopwatch sw;

  // Per scheme: the generic oracle (virtual per-op dispatch — the
  // paper's execution style) vs the statically dispatched fault-free
  // fast path forward() selects, swept over pool threads, with the
  // bit-identity contract checked on every cell.
  std::vector<SchemeRow> rows;
  std::vector<reliable::ExecutionReport> reports;
  bool bit_identical = true;
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SchemeRow row;
    row.scheme = scheme;
    row.unqualified_s = t_native;
    reliable::ReliableResult generic_result;
    row.generic_s = time_generic(rconv, image, scheme, &generic_result);
    reliable::ReliableResult simd_result;
    for (const std::size_t threads : kThreadAxis) {
      ThreadCell cell;
      cell.threads = threads;
      cell.seconds =
          time_dispatch(rconv, image, scheme, threads, &simd_result);
      bit_identical =
          bit_identical &&
          tensor::bit_identical(generic_result.output, simd_result.output) &&
          generic_result.report == simd_result.report;
      row.cells.push_back(cell);
      if (threads == 1) row.simd_s = cell.seconds;
    }
    rows.push_back(row);
    reports.push_back(simd_result.report);
  }
  const double t_simplex = rows[0].generic_s;
  const double t_dmr = rows[1].generic_s;
  const double t_tmr = rows[2].generic_s;

  // Naive SAX qualifier on the same input (the paper's 1.942 s row).
  sw.reset();
  const auto mask = vision::dominant_shape(image);
  const auto series = vision::shape_signature(mask, 360);
  const auto match = sax::match_shape(series, 8);
  const double t_sax = sw.seconds();

  util::Table table(
      "Table 1: execution time, reliable conv (Algorithm 3, generic "
      "per-op engine), AlexNet conv1",
      {"configuration", "this impl [s]", "paper (Python) [s]",
       "ratio vs simplex"});
  table.row({"native conv (reference)", util::Table::fixed(t_native, 4),
             "0.05", util::Table::fixed(t_native / t_simplex, 3)});
  table.row({"Algorithm 3 + multiplication (Algorithm 1)",
             util::Table::fixed(t_simplex, 3), "301.91", "1.000"});
  table.row({"Algorithm 3 + redundant multiplication (Algorithm 2)",
             util::Table::fixed(t_dmr, 3), "648.87",
             util::Table::fixed(t_dmr / t_simplex, 3)});
  table.row({"Algorithm 3 + TMR voting (extension)",
             util::Table::fixed(t_tmr, 3), "-",
             util::Table::fixed(t_tmr / t_simplex, 3)});
  table.row({"naive SAX shape qualifier", util::Table::fixed(t_sax, 3),
             "1.942", util::Table::fixed(t_sax / t_simplex, 3)});
  table.print();

  util::Table dispatch_table(
      std::string("static dispatch: fault-free qualified conv, generic vs "
                  "simd (1 thread, isa ") +
          runtime::isa::kIsaName + ")",
      {"scheme", "generic [s]", "simd [s]", "simd img/s", "gap vs unqual"});
  for (const SchemeRow& r : rows) {
    dispatch_table.row({r.scheme, util::Table::fixed(r.generic_s, 3),
                        util::Table::fixed(r.simd_s, 4),
                        util::Table::fixed(r.simd_ips(), 2),
                        util::Table::fixed(r.gap_vs_unqualified(), 2)});
  }
  dispatch_table.row({"unqualified conv", "-",
                      util::Table::fixed(t_native, 4),
                      util::Table::fixed(1.0 / t_native, 2), "1.00"});
  dispatch_table.print();

  util::Table thread_table("fault-free fast path: img/s by pool threads",
                           {"scheme", "t=1", "t=2", "t=8"});
  for (const SchemeRow& r : rows) {
    std::vector<std::string> cols{r.scheme};
    for (const ThreadCell& c : r.cells) {
      cols.push_back(util::Table::fixed(c.ips(), 2));
    }
    thread_table.row(cols);
  }
  thread_table.print();

  std::printf("\npaper ratio redundant/non-redundant = %.3f, "
              "this implementation (generic engine) = %.3f\n",
              648.87 / 301.91, t_dmr / t_simplex);
  std::printf("qualifier verdict on the bench input: match=%d dist=%.3f "
              "corners=%d\n",
              match.match ? 1 : 0, match.distance, match.corners);
  std::printf("dispatched outputs/reports bit-identical to generic: %s\n",
              bit_identical ? "yes" : "NO — BUG");
  std::printf("  %s\n  %s\n  %s\n", reports[0].summary().c_str(),
              reports[1].summary().c_str(), reports[2].summary().c_str());

  util::CsvWriter csv(
      util::results_path(bench::results_dir(), "table1_reliable_conv.csv"),
      {"configuration", "seconds", "paper_seconds", "ratio_vs_simplex"});
  csv.row({"native", util::CsvWriter::num(t_native), "0.05",
           util::CsvWriter::num(t_native / t_simplex)});
  csv.row({"algorithm3_simplex", util::CsvWriter::num(t_simplex), "301.91",
           "1"});
  csv.row({"algorithm3_dmr", util::CsvWriter::num(t_dmr), "648.87",
           util::CsvWriter::num(t_dmr / t_simplex)});
  csv.row({"algorithm3_tmr", util::CsvWriter::num(t_tmr), "",
           util::CsvWriter::num(t_tmr / t_simplex)});
  csv.row({"sax_qualifier", util::CsvWriter::num(t_sax), "1.942",
           util::CsvWriter::num(t_sax / t_simplex)});
  std::printf("\nCSV written to %s\n", csv.path().c_str());

  // Keep the native output alive so the compiler cannot elide it.
  const bool native_ok =
      native_out.count() == 96u * out_shape[1] * out_shape[2];
  return (native_ok && bit_identical) ? 0 : 1;
}
