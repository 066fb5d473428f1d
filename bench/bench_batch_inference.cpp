// BENCH-BATCH — batched + served hybrid inference throughput.
//
// Measures end-to-end hybrid classification (reliable DCNN + qualifier +
// CNN remainder) as images/sec at 1/2/8 threads for three execution
// shapes:
//   loop         — single-image classify() per image (the baseline)
//   batch-fanned — classify_batch: the whole per-image pipeline,
//                  remainder included, fans across the pool as const
//                  inference over one shared model
//   service      — serve::InferenceService: 4 submitter OS threads with
//                  one Session each push their slice through the bounded
//                  queue; the dispatcher coalesces micro-batches onto
//                  the same fanned path
// All three are bit-identical (verified here before timing): submitter t
// opens its session at seed base 1 + first-slice-index, so every image
// consumes exactly the seed the classify() loop gives it. Alongside the
// stdout table the bench emits BENCH_batch_inference.json so the perf
// trajectory can be tracked across PRs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/hybrid_network.hpp"
#include "data/renderer.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "runtime/compute_context.hpp"
#include "serve/inference_service.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

std::unique_ptr<nn::Sequential> make_net(std::size_t image) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);
  net->emplace<nn::Flatten>();
  const std::size_t conv = (image - 7) / 2 + 1;
  const std::size_t pooled = (conv - 3) / 2 + 1;
  net->emplace<nn::Linear>(8 * pooled * pooled, 5);
  nn::init_network(*net, 7);
  return net;
}

std::vector<tensor::Tensor> make_batch(std::size_t count, std::size_t size) {
  std::vector<tensor::Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data::RenderParams p;
    p.cls = static_cast<data::SignClass>(i % data::kNumClasses);
    p.size = size;
    p.rotation = 0.04 * static_cast<double>(i % 7) - 0.12;
    p.scale = 0.7 + 0.03 * static_cast<double>(i % 4);
    p.noise_seed = 900 + i;
    images.push_back(data::render_sign(p));
  }
  return images;
}

bool identical(const core::HybridClassification& a,
               const core::HybridClassification& b) {
  return a.predicted_class == b.predicted_class &&
         a.confidence == b.confidence && a.decision == b.decision &&
         a.qualifier.match == b.qualifier.match &&
         a.qualifier.shape.distance == b.qualifier.shape.distance &&
         a.conv1_report.ok == b.conv1_report.ok;
}

/// Pushes `images` through an InferenceService from `submitters` OS
/// threads. Submitter t owns the contiguous slice starting at `t * per`
/// and a session whose seed base is `fault_seed + slice start`, so image
/// i consumes seed `fault_seed + i` — the classify() loop's stream.
/// `*elapsed_s` covers submit-to-completion only: service construction
/// (dispatcher spawn) and shutdown are one-time costs a deployment
/// amortises, and including them would understate the queueing-path
/// throughput this column tracks across PRs.
std::vector<core::HybridClassification> run_service(
    const std::shared_ptr<const core::HybridNetwork>& net,
    const std::vector<tensor::Tensor>& images, std::size_t submitters,
    double* elapsed_s) {
  serve::ServiceConfig cfg;
  cfg.queue_capacity = images.size() + 1;
  cfg.max_batch = 8;
  serve::InferenceService service(net, cfg);

  const std::size_t count = images.size();
  const std::size_t per = (count + submitters - 1) / submitters;
  std::vector<std::future<core::HybridClassification>> futures(count);
  std::vector<std::thread> threads;
  util::Stopwatch sw;
  for (std::size_t t = 0; t < submitters; ++t) {
    const std::size_t begin = std::min(t * per, count);
    const std::size_t end = std::min(begin + per, count);
    if (begin == end) break;
    threads.emplace_back([&, begin, end] {
      auto session = service.open_session(
          net->seed_stream().peek() + begin);
      for (std::size_t i = begin; i < end; ++i) {
        futures[i] = session.submit(images[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<core::HybridClassification> results;
  results.reserve(count);
  for (auto& f : futures) results.push_back(f.get());
  *elapsed_s = sw.seconds();
  service.shutdown();
  return results;
}

struct Row {
  std::size_t threads = 0;
  double loop_ips = 0.0;
  double fanned_ips = 0.0;
  double service_ips = 0.0;
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                std::size_t count, std::size_t size, bool all_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"batch_inference\",\n");
  std::fprintf(f, "  \"workload\": {\"images\": %zu, \"size\": %zu, "
              "\"pipeline\": \"dmr_conv1+full_resolution_qualifier\"},\n",
              count, size);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::fprintf(f, "  \"bit_identical\": %s,\n",
              all_identical ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"threads\": %zu, \"loop_images_per_sec\": %.6g, "
        "\"batch_fanned_remainder_images_per_sec\": %.6g, "
        "\"service_images_per_sec\": %.6g, "
        "\"fanned_speedup_vs_loop\": %.6g, "
        "\"service_speedup_vs_loop\": %.6g, "
        "\"service_speedup_vs_fanned\": %.6g}%s\n",
        r.threads, r.loop_ips, r.fanned_ips, r.service_ips,
        r.fanned_ips / r.loop_ips, r.service_ips / r.loop_ips, r.service_ips / r.fanned_ips,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  bench::banner("BENCH-BATCH",
                "batched + served hybrid inference (images/sec, 1/2/8 thr)");

  const std::size_t size = 96;
  const std::size_t count = bench::quick_mode() ? 8 : 24;
  const std::vector<tensor::Tensor> images = make_batch(count, size);
  std::printf("workload: %zu renders at %zux%zu through the full hybrid "
              "dataflow (DMR conv1 + full-resolution qualifier)\n",
              count, size, size);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: %u hardware thread(s) — thread counts beyond that "
              "time-slice one core and cannot speed up\n", cores);

  util::Table table(
      "hybrid inference throughput: loop vs fanned vs service",
      {"threads", "loop img/s", "fanned-rem img/s", "service img/s",
       "fanned/loop", "service/fanned"});
  util::CsvWriter csv(
      util::results_path(bench::results_dir(), "batch_inference.csv"),
      {"threads", "loop_images_per_sec", "batch_fanned_images_per_sec", "service_images_per_sec",
       "fanned_speedup_vs_loop"});

  std::vector<Row> rows;
  bool all_identical = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    runtime::ComputeContext::set_global_threads(threads);

    const core::HybridNetwork looped(make_net(size), 0, core::HybridConfig{});
    core::FaultSeedStream loop_seeds = looped.seed_stream();
    util::Stopwatch sw;
    std::vector<core::HybridClassification> loop_results;
    loop_results.reserve(count);
    for (const auto& img : images) {
      loop_results.push_back(looped.classify(img, loop_seeds));
    }
    const double loop_s = sw.seconds();

    const core::HybridNetwork batched(make_net(size), 0, core::HybridConfig{});
    core::FaultSeedStream fanned_seeds = batched.seed_stream();
    sw.reset();
    const std::vector<core::HybridClassification> fanned_results =
        batched.classify_batch(images, fanned_seeds);
    const double fanned_s = sw.seconds();

    const auto shared_net = std::make_shared<const core::HybridNetwork>(
        make_net(size), 0, core::HybridConfig{});
    double service_s = 0.0;
    const std::vector<core::HybridClassification> service_results =
        run_service(shared_net, images, /*submitters=*/4, &service_s);

    for (std::size_t i = 0; i < count; ++i) {
      all_identical = all_identical &&
                      identical(loop_results[i], fanned_results[i]) &&
                      identical(loop_results[i], service_results[i]);
    }

    Row row;
    row.threads = threads;
    row.loop_ips = static_cast<double>(count) / loop_s;
    row.fanned_ips = static_cast<double>(count) / fanned_s;
    row.service_ips = static_cast<double>(count) / service_s;
    rows.push_back(row);
    table.row({std::to_string(threads), util::Table::fixed(row.loop_ips, 2),
               util::Table::fixed(row.fanned_ips, 2),
               util::Table::fixed(row.service_ips, 2),
               util::Table::fixed(row.fanned_ips / row.loop_ips, 2),
               util::Table::fixed(row.service_ips / row.fanned_ips, 2)});
    csv.row({std::to_string(threads), util::CsvWriter::num(row.loop_ips),
             util::CsvWriter::num(row.fanned_ips),
             util::CsvWriter::num(row.service_ips),
             util::CsvWriter::num(row.fanned_ips / row.loop_ips)});
  }
  table.print();

  std::printf("\nall results bit-identical to the classify() loop: "
              "%s\n", all_identical ? "yes" : "NO — BUG");
  std::printf("expected shape: the whole per-image pipeline is "
              "embarrassingly parallel once the remainder is re-entrant, "
              "so the fanned path approaches linear scaling and the "
              "service path matches it (same compute, plus queueing) "
              "while absorbing 4 concurrent submitters.\n");
  const std::string json_path =
      util::results_path(bench::results_dir(), "BENCH_batch_inference.json");
  write_json(json_path, rows, count, size, all_identical);
  std::printf("CSV written to %s\nJSON written to %s\n", csv.path().c_str(),
              json_path.c_str());
  return all_identical ? 0 : 1;
}
