// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--data-dir perfbench/expected]
//                    [--work-dir .bench_build/perfbench-work]
//   perfbench_driver --pin [--data-dir <dir>]   (re-pin expected outputs)
//
// Human-readable lines come first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. Errors go to stderr with exit code 1 and
// no result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W "
               "--seed N --seconds S --trace 0|1 [--data-dir D] "
               "[--work-dir D] | --pin [--data-dir D]\n",
               msg);
  std::exit(2);
}

void print_result(const Report& report) {
  const bool correct = report.checks_ok && report.failed == 0;
  std::printf("attempted=%llu failed=%llu error_rate=%.6g correct=%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              correct ? "yes" : "no");
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool pin = false;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (arg == "--data-dir") {
      opt.data_dir = value();
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--pin") {
      pin = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    if (pin) return perfbench::write_pins(opt);
    if (!have_workload || !have_trace) usage("--workload and --trace needed");
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    std::printf("host reference (nn::ref::gemm 192^3): start %.4f ms\n",
                perfbench::host_reference_ms());
    const Report report = perfbench::run_workload(opt);
    std::printf("host reference (nn::ref::gemm 192^3): end %.4f ms\n",
                perfbench::host_reference_ms());
    print_result(report);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
