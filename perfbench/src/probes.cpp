// The traced run's layer probes. Every span wraps a call into a layer's
// public API from here; the library itself is not instrumented.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_fabric/campaigns.hpp"
#include "closed_loop.hpp"
#include "core/shape_qualifier.hpp"
#include "faultsim/ecc.hpp"
#include "faultsim/injector.hpp"
#include "nn/conv2d.hpp"
#include "perfbench.hpp"
#include "reliable/reliable_conv.hpp"
#include "runtime/compute_context.hpp"
#include "serve/inference_service.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

/// Request ids of the probes, kept apart in the trace file.
constexpr std::uint64_t kServeRequests = 1'000'000;
constexpr std::uint64_t kCampaignRequests = 2'000'000;

bool same_classification(const core::HybridClassification& a,
                         const core::HybridClassification& b) {
  const sax::ShapeMatchResult& sa = a.qualifier.shape;
  const sax::ShapeMatchResult& sb = b.qualifier.shape;
  return a.predicted_class == b.predicted_class &&
         a.confidence == b.confidence &&
         a.safety_critical == b.safety_critical && a.decision == b.decision &&
         a.qualifier.match == b.qualifier.match &&
         a.qualifier.reliable == b.qualifier.reliable &&
         sa.match == sb.match && sa.distance == sb.distance &&
         sa.corners == sb.corners && sa.word == sb.word &&
         sa.template_word == sb.template_word &&
         sa.rotation == sb.rotation &&
         a.qualifier.report == b.qualifier.report &&
         a.conv1_report == b.conv1_report;
}

const char* layer_group(const std::string& layer) {
  if (layer == "conv2d") return "nn.conv";
  if (layer == "linear") return "nn.fc";
  return "nn.pointwise";  // relu, lrn, maxpool, flatten, dropout, softmax
}

/// classify() re-derived from the public calls it is made of, each under
/// its own span. Span names take `armed` into account so the clean and
/// armed stages stay apart.
struct Decomposed {
  core::HybridClassification result;
  tensor::Tensor conv1_out;  ///< [1, C, H, W] remainder input
  tensor::Tensor logits;
  reliable::ExecutorStats exec;
  faultsim::InjectorStats injector;
};

Decomposed decomposed_classify(const core::HybridNetwork& net,
                               const core::ShapeQualifier& qualifier,
                               const tensor::Tensor& image,
                               std::uint64_t seed, bool armed, Tracer& tr,
                               std::uint64_t request) {
  if (net.config().qualifier.source !=
      core::QualifierSource::kFullResolution) {
    throw std::logic_error("decomposition covers the full-resolution "
                           "qualifier only");
  }
  Decomposed d;
  Tracer::Scope root(tr, armed ? "classify.armed" : "classify.decomposed",
                     request);
  runtime::Workspace& ws = runtime::ComputeContext::global().workspace();

  // Kernel build: classify() constructs the reliable conv1 per call and
  // its fault-free forward builds the channel-lane pack.
  std::optional<reliable::ReliableConv2d> rconv;
  {
    Tracer::Scope span(tr, armed ? "reliable.kernel_build_armed"
                                 : "reliable.kernel_build",
                       request);
    const auto& conv1 = net.cnn().layer_as<nn::Conv2d>(net.conv1_index());
    rconv.emplace(conv1.weights(), conv1.bias(),
                  reliable::ConvSpec{conv1.stride(), conv1.pad()},
                  net.config().policy);
    if (!armed) rconv->prepare_fast_path();
  }
  std::shared_ptr<faultsim::FaultInjector> injector;
  std::unique_ptr<reliable::Executor> exec;
  {
    Tracer::Scope span(tr, "reliable.executor_build", request);
    injector = std::make_shared<faultsim::FaultInjector>(
        net.config().fault_config, seed);
    exec = reliable::make_executor(reliable::parse_scheme(net.config().scheme),
                                   injector);
  }
  reliable::ReliableResult rel;
  {
    Tracer::Scope span(
        tr, armed ? "reliable.conv1_armed" : "reliable.conv1_fast", request);
    rel = rconv->forward(image, *exec);
  }
  core::QualifierVerdict verdict;
  {
    Tracer::Scope span(
        tr, armed ? "core.qualifier_armed" : "core.qualifier", request);
    verdict = qualifier.qualify(image, *exec, ws);
  }
  d.exec = exec->stats();
  d.injector = injector->stats();

  tensor::Tensor x;
  {
    Tracer::Scope span(tr, "core.bifurcate", request);
    x = rel.report.ok ? std::move(rel.output) : rconv->reference_forward(image);
    const tensor::Shape s = x.shape();
    x.reshape(tensor::Shape{1, s[0], s[1], s[2]});
    d.conv1_out = x;
  }
  for (std::size_t i = net.conv1_index() + 1; i < net.cnn().size(); ++i) {
    const nn::Layer& layer = net.cnn().layer(i);
    Tracer::Scope span(tr, layer_group(layer.name()), request);
    x = layer.infer(std::move(x), ws);
  }
  d.logits = x;

  {
    Tracer::Scope span(tr, "core.finalize", request);
    core::HybridClassification& r = d.result;
    r.conv1_report = rel.report;
    r.qualifier = verdict;
    const std::size_t classes = x.shape()[1];
    std::size_t best = 0;
    for (std::size_t j = 1; j < classes; ++j) {
      if (x[j] > x[best]) best = j;
    }
    double denom = 0.0;
    for (std::size_t j = 0; j < classes; ++j) {
      denom += std::exp(static_cast<double>(x[j]) -
                        static_cast<double>(x[best]));
    }
    r.predicted_class = static_cast<int>(best);
    r.confidence = 1.0 / denom;
    const bool reliable_ok = rel.report.ok && verdict.report.ok;
    r.safety_critical = net.policy().is_critical(r.predicted_class);
    r.decision = net.policy().decide(r.predicted_class, verdict.qualifies(),
                                     reliable_ok);
  }
  return d;
}

/// Stage spans of one decomposed classification (the root's children).
constexpr const char* kCleanStages[] = {
    "reliable.kernel_build", "reliable.executor_build", "reliable.conv1_fast",
    "core.qualifier",        "core.bifurcate",          "nn.conv",
    "nn.fc",                 "nn.pointwise",            "core.finalize"};

double stage_sum_ms(const Tracer& tr, std::uint64_t request) {
  double sum = 0.0;
  for (const char* name : kCleanStages) {
    for (const Tracer::Span& s : tr.spans()) {
      if (s.request == request && s.name == name) {
        sum += (s.end_us - s.start_us) / 1e3;
      }
    }
  }
  return sum;
}

}  // namespace

// ------------------------------------------------------------- stages

void probe_stages(const ProbeInputs& in, double budget_s, Tracer& tracer,
                  Report& report) {
  const core::HybridNetwork& net = *in.net;
  // The network builds its qualifier once at construction; so does this.
  const core::ShapeQualifier qualifier(net.config().qualifier);
  runtime::Workspace& ws = runtime::ComputeContext::global().workspace();
  std::vector<double> coverage;
  std::vector<double> overhead;
  const auto t0 = clock_type::now();
  for (std::uint64_t k = 0; k < 3 || ms_since(t0) < budget_s * 1e3; ++k) {
    const std::size_t i = in.order[k % in.order.size()];
    const tensor::Tensor& image = (*in.images)[i];
    const std::uint64_t seed = in.fault_seed_base + k;
    ++report.attempted;

    // Alternate which path runs first so neither always finds warm caches.
    core::HybridClassification ref;
    double ref_ms = 0.0;
    const auto reference = [&] {
      core::FaultSeedStream seeds(seed);
      const double start = tracer.now_us();
      ref = net.classify(image, seeds);
      const double end = tracer.now_us();
      tracer.record("classify.reference", k, start, end);
      ref_ms = (end - start) / 1e3;
    };
    if (k % 2 == 0) reference();
    const double dec_start = tracer.now_us();
    Decomposed d = decomposed_classify(net, qualifier, image, seed,
                                       /*armed=*/false, tracer, k);
    const double dec_ms = (tracer.now_us() - dec_start) / 1e3;
    if (k % 2 == 1) reference();

    tensor::Tensor logits;
    {
      Tracer::Scope span(tracer, "nn.remainder", k);
      logits = net.cnn().infer_from(net.conv1_index() + 1, d.conv1_out, ws);
    }
    const bool ok = same_classification(ref, d.result) &&
                    tensor::bit_identical(logits, d.logits) &&
                    matches_pin(ref, (*in.pins)[i]);
    if (!ok) {
      ++report.failed;
      report.checks_ok = false;
      std::printf("stage probe: decomposed classify differs from classify() "
                  "on input u=%zu\n", (*in.pins)[i].u);
    }
    coverage.push_back(stage_sum_ms(tracer, k) / ref_ms);
    overhead.push_back(dec_ms / ref_ms - 1.0);
  }
  std::printf("stage probe: %zu classifications decomposed, bit-identical "
              "to classify(): %s\n",
              coverage.size(), report.checks_ok ? "yes" : "NO");
  report.add("reliable.conv1_fast_ms", "ms",
             tracer.median_ms("reliable.conv1_fast"));
  report.add("reliable.kernel_build_ms", "ms",
             tracer.median_ms("reliable.kernel_build"));
  report.add("core.qualifier_ms", "ms", tracer.median_ms("core.qualifier"));
  report.add("nn.conv_ms", "ms", tracer.median_ms("nn.conv"));
  report.add("nn.fc_ms", "ms", tracer.median_ms("nn.fc"));
  report.add("nn.pointwise_ms", "ms", tracer.median_ms("nn.pointwise"));
  report.add("nn.remainder_ms", "ms", tracer.median_ms("nn.remainder"));
  report.add("core.stage_coverage", "ratio", median(coverage));
  report.add("trace.overhead_frac", "ratio", median(overhead));
}

// ------------------------------------------------------------- fan-out

void probe_fanout(const ProbeInputs& in, std::size_t batch, Report& report) {
  const core::HybridNetwork& net = *in.net;
  std::vector<tensor::Tensor> images;
  for (std::size_t j = 0; j < batch; ++j) {
    images.push_back((*in.images)[in.order[j % in.order.size()]]);
  }
  // Serial: each image through classify() on a one-thread pool.
  runtime::ComputeContext::set_global_threads(1);
  std::vector<core::HybridClassification> serial;
  double serial_ms = 0.0;
  {
    core::FaultSeedStream warm(in.fault_seed_base);
    (void)net.classify(images[0], warm);
    core::FaultSeedStream seeds(in.fault_seed_base);
    for (const tensor::Tensor& image : images) {
      const auto t0 = clock_type::now();
      serial.push_back(net.classify(image, seeds));
      serial_ms += ms_since(t0);
    }
  }
  // Fanned: classify_batch on the workload's pool, median of three.
  runtime::ComputeContext::set_global_threads(in.pool);
  std::vector<double> batch_ms;
  for (int rep = 0; rep < 4; ++rep) {
    core::FaultSeedStream seeds(in.fault_seed_base);
    const auto t0 = clock_type::now();
    const std::vector<core::HybridClassification> fanned =
        net.classify_batch(images, seeds);
    if (rep > 0) batch_ms.push_back(ms_since(t0));  // rep 0 warms the slots
    ++report.attempted;
    bool same = fanned.size() == serial.size();
    for (std::size_t j = 0; same && j < fanned.size(); ++j) {
      same = same_classification(fanned[j], serial[j]);
    }
    if (!same) {
      ++report.failed;
      report.checks_ok = false;
    }
  }
  const double eff = serial_ms / (static_cast<double>(in.pool) *
                                  median(batch_ms));
  std::printf("fan-out probe: %zu images, serial %.3f ms, classify_batch "
              "%.3f ms on %zu thread(s)\n",
              batch, serial_ms, median(batch_ms), in.pool);
  report.add("runtime.fanout_efficiency", "ratio", eff);
}

// --------------------------------------------------------------- serve

namespace {

constexpr std::size_t kServeWindow = 8;    ///< requests in flight
constexpr std::size_t kServeSessions = 4;  ///< sessions they span

/// A started sign96 service with its sessions, warmed up.
struct ServeRig {
  std::shared_ptr<const core::HybridNetwork> net;
  std::unique_ptr<serve::InferenceService> service;
  std::vector<serve::InferenceService::Session> sessions;
};

ServeRig start_service(const InputPool& in, std::uint64_t seed) {
  ServeRig rig;
  rig.net = std::make_shared<const core::HybridNetwork>(
      make_cnn(NetKind::kSign96), 0, clean_config());
  serve::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = kServeWindow;
  rig.service = std::make_unique<serve::InferenceService>(rig.net, cfg);
  for (std::size_t s = 0; s < kServeSessions; ++s) {
    rig.sessions.push_back(rig.service->open_session(
        fault_seed_base(seed) + (static_cast<std::uint64_t>(s) << 32)));
  }
  // Warm-up: a few windows grow every slot's arenas. One window at a
  // time, so the queue never holds more than the measured loop puts in.
  for (std::size_t round = 0; round < 4; ++round) {
    std::vector<std::future<core::HybridClassification>> warm;
    for (std::size_t k = 0; k < kServeWindow; ++k) {
      warm.push_back(rig.sessions[k % kServeSessions].submit(
          in.images[(round * kServeWindow + k) % in.images.size()]));
    }
    for (auto& f : warm) (void)f.get();
  }
  return rig;
}

}  // namespace

void probe_serve(const Options& opt, double budget_s, Tracer& tracer,
                 Report& report) {
  const InputPool in = make_inputs(opt, NetKind::kSign96);
  ServeRig rig = start_service(in, opt.seed);
  const serve::ServiceStats before = rig.service->stats();
  const std::size_t first_span = tracer.size();
  // Closed loop: kServeWindow requests in flight over the sessions; every
  // Session::submit call is a "serve.submit" span.
  const ClosedLoopResult loop = run_closed_loop(
      budget_s, kServeWindow,
      [&](std::uint64_t k) {
        const std::size_t i = in.order[k % in.order.size()];
        auto& session = rig.sessions[k % rig.sessions.size()];
        Tracer::Scope span(tracer, "serve.submit", kServeRequests + k);
        return session.submit(in.images[i]);
      },
      [&](std::uint64_t k, const core::HybridClassification& r) {
        return matches_pin(r, in.pins[in.order[k % in.order.size()]]);
      });
  const serve::ServiceStats after = rig.service->stats();
  rig.service->shutdown();
  report.attempted += loop.attempted;
  report.failed += loop.failed;

  std::vector<double> submit_us;
  for (std::size_t s = first_span; s < tracer.size(); ++s) {
    const Tracer::Span& span = tracer.spans()[s];
    if (span.name == "serve.submit") {
      submit_us.push_back(span.end_us - span.start_us);
    }
  }
  double batches = 0.0;
  double requests = 0.0;
  for (std::size_t size = 1; size < after.batch_size_histogram.size();
       ++size) {
    const double n = static_cast<double>(after.batch_size_histogram[size] -
                                         before.batch_size_histogram[size]);
    batches += n;
    requests += n * static_cast<double>(size);
  }
  std::printf("serve probe: %llu requests in %.3f s, %.0f batches\n",
              static_cast<unsigned long long>(loop.attempted),
              loop.elapsed_s, batches);
  report.add("serve.submit_us", "us", median(submit_us));
  report.add("serve.batch_size_mean", "count",
             batches > 0 ? requests / batches : 0.0);
  report.add("serve.queue_peak", "count",
             static_cast<double>(after.peak_queue_depth));
}

// ------------------------------------------------------------ campaign

void probe_campaign(const Options& opt, double budget_s, Tracer& tracer,
                    Report& report) {
  const std::vector<CampaignPin> pins =
      load_campaign_pins(opt.data_dir + "/sign96_campaign.pins");
  const CampaignRig rig(opt, campaign_images());
  const core::ShapeQualifier qualifier(rig.armed.config().qualifier);
  const std::vector<std::size_t> order =
      seeded_order(kCampaignVariants, opt.seed);

  // Armed classify, decomposed, against armed classify().
  std::vector<double> exec_per_op;
  std::vector<double> retries;
  std::vector<double> faults;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t v = order[k % order.size()];
    const std::uint64_t seed = campaign_seed_base(v) + k;
    const std::uint64_t request = kCampaignRequests + k;
    ++report.attempted;
    core::FaultSeedStream seeds(seed);
    const core::HybridClassification ref =
        rig.armed.classify(rig.images[v], seeds);
    const Decomposed d = decomposed_classify(rig.armed, qualifier,
                                             rig.images[v], seed,
                                             /*armed=*/true, tracer, request);
    if (!same_classification(ref, d.result)) {
      ++report.failed;
      report.checks_ok = false;
      std::printf("campaign probe: decomposed armed classify differs\n");
    }
    exec_per_op.push_back(static_cast<double>(d.exec.executions) /
                          static_cast<double>(d.exec.logical_ops));
    retries.push_back(static_cast<double>(d.result.conv1_report.retries +
                                          d.result.qualifier.report.retries));
    faults.push_back(static_cast<double>(d.injector.faults));
  }

  // Fabric campaigns against the direct range calls over the same shards.
  std::vector<double> compute_run_ms;
  std::vector<double> memory_run_ms;
  std::vector<double> overhead;
  double attempts = 0.0;
  double shards = 0.0;
  const auto t0 = clock_type::now();
  for (std::size_t k = 0; k == 0 || ms_since(t0) < budget_s * 1e3; ++k) {
    const std::size_t v = order[k % order.size()];
    const std::uint64_t request = kCampaignRequests + 1000 + k;
    ++report.attempted;
    CampaignRun<faultsim::CampaignSummary> fabric_compute;
    {
      Tracer::Scope span(tracer, "fabric.compute_campaign", request);
      fabric_compute = rig.run_compute(v, kComputeRuns, "trace");
    }
    CampaignRun<faultsim::MemoryCampaignSummary> fabric_memory;
    {
      Tracer::Scope span(tracer, "fabric.memory_campaign", request);
      fabric_memory = rig.run_memory(v, kMemoryRuns, "trace");
    }

    faultsim::CampaignSummary direct_compute;
    double direct_compute_ms = 0.0;
    {
      Tracer::Scope span(tracer, "core.compute_range", request);
      const auto judge = rig.judge(v);
      const auto c0 = clock_type::now();
      for (std::size_t b = 0; b < kComputeRuns; b += kComputeShard) {
        direct_compute += rig.armed.classify_campaign_range(
            rig.images[v], b, std::min(b + kComputeShard, kComputeRuns),
            campaign_seed_base(v), judge, kCampaignOptions);
      }
      direct_compute_ms = ms_since(c0);
    }
    faultsim::MemoryCampaignSummary direct_memory;
    double direct_memory_ms = 0.0;
    {
      Tracer::Scope span(tracer, "core.memory_range", request);
      const auto m0 = clock_type::now();
      for (std::size_t b = 0; b < kMemoryRuns; b += kMemoryShard) {
        direct_memory += rig.memory.run_range(
            rig.images[v], b, std::min(b + kMemoryShard, kMemoryRuns),
            campaign_seed_base(v));
      }
      direct_memory_ms = ms_since(m0);
    }
    const bool ok = fabric_compute.complete && fabric_memory.complete &&
                    fabric_compute.summary == pins[v].compute &&
                    fabric_memory.summary == pins[v].memory &&
                    direct_compute == fabric_compute.summary &&
                    direct_memory == fabric_memory.summary;
    if (!ok) {
      ++report.failed;
      report.checks_ok = false;
      std::printf("campaign probe: summary mismatch on variant %zu\n", v);
    }
    compute_run_ms.push_back(direct_compute_ms /
                             static_cast<double>(kComputeRuns));
    memory_run_ms.push_back(direct_memory_ms /
                            static_cast<double>(kMemoryRuns));
    overhead.push_back(
        1.0 - (direct_compute_ms + direct_memory_ms) /
                  ((fabric_compute.seconds + fabric_memory.seconds) * 1e3));
    attempts += static_cast<double>(fabric_compute.stats.attempts +
                                    fabric_memory.stats.attempts);
    shards += static_cast<double>(fabric_compute.stats.shards_total +
                                  fabric_memory.stats.shards_total);
  }
  const double ops = static_cast<double>(compute_run_ms.size());

  // Memory-fault primitives on conv1's stored weights.
  const tensor::Tensor& weights =
      rig.clean.cnn().layer_as<nn::Conv2d>(rig.clean.conv1_index()).weights();
  const core::MemoryCampaignConfig mcfg = memory_campaign_config();
  std::vector<double> inject_us;
  std::vector<double> ecc_us;
  util::Rng rng(opt.seed, 0x5E0);
  for (int rep = 0; rep < 64; ++rep) {
    tensor::Tensor copy = weights;
    const auto a = clock_type::now();
    (void)faultsim::inject_bit_errors(copy, mcfg.model.bit_error_rate, rng);
    inject_us.push_back(ms_since(a) * 1e3);
    const auto b = clock_type::now();
    faultsim::ProtectedTensor prot(std::move(copy));
    const faultsim::ScrubReport sr = prot.scrub();
    ecc_us.push_back(ms_since(b) * 1e3);
    if (sr.words != weights.count()) report.checks_ok = false;
  }

  std::printf("campaign probe: %.0f fabric op(s), %zu armed decompositions\n",
              ops, exec_per_op.size());
  report.add("reliable.conv1_armed_ms", "ms",
             tracer.median_ms("reliable.conv1_armed"));
  report.add("core.qualifier_armed_ms", "ms",
             tracer.median_ms("core.qualifier_armed"));
  report.add("reliable.exec_per_op", "ratio", median(exec_per_op));
  report.add("reliable.retries_per_run", "count", median(retries));
  report.add("faultsim.faults_per_run", "count", median(faults));
  report.add("faultsim.inject_us", "us", median(inject_us));
  report.add("faultsim.ecc_us", "us", median(ecc_us));
  report.add("core.compute_run_ms", "ms", median(compute_run_ms));
  report.add("core.memory_run_ms", "ms", median(memory_run_ms));
  report.add("fabric.overhead_frac", "ratio", median(overhead));
  // 1 when no shard was retried or reassigned; every retry adds to it.
  report.add("fabric.attempts_per_shard", "ratio", attempts / shards);
}

}  // namespace perfbench
