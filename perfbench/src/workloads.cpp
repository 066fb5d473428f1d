// The two workloads, their inputs, pinned outputs and set-up, and the
// serve and campaign rigs the traced probes share.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_fabric/campaigns.hpp"
#include "core/memory_campaign.hpp"
#include "data/renderer.hpp"
#include "nn/alexnet.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/gemm_ref.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "perfbench.hpp"
#include "runtime/compute_context.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

// ------------------------------------------------------------ networks

const char* net_name(NetKind kind) {
  return kind == NetKind::kAlexNet227 ? "alexnet227" : "sign96";
}

std::size_t image_side(NetKind kind) {
  return kind == NetKind::kAlexNet227 ? nn::kAlexNetInput : 96;
}

std::unique_ptr<nn::Sequential> make_cnn(NetKind kind) {
  if (kind == NetKind::kAlexNet227) return nn::make_alexnet({});
  // The small sign net: 8 conv1 maps (fewer than one AVX-512 vector, so
  // the reliable fast path takes pixel lanes) and a small conv2, so every
  // remainder layer group exists at this size too.
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 96 -> 45
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);           // 45 -> 22
  net->emplace<nn::Conv2d>(8, 16, 3, 1, 1);  // 22 -> 22
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(2, 2);           // 22 -> 11
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(16 * 11 * 11, data::kNumClasses);
  nn::init_network(*net, 7);
  return net;
}

core::HybridConfig clean_config() { return core::HybridConfig{}; }

core::HybridConfig armed_config() {
  core::HybridConfig cfg;
  cfg.fault_config.kind = faultsim::FaultKind::kTransient;
  cfg.fault_config.probability = 1e-4;
  cfg.fault_config.bit = -1;
  return cfg;
}

// -------------------------------------------------------------- inputs

data::RenderParams universe_params(NetKind kind, std::size_t u) {
  data::RenderParams p;
  p.cls = static_cast<data::SignClass>(u % data::kNumClasses);
  p.size = image_side(kind);
  p.rotation = 0.035 * static_cast<double>(static_cast<int>((u * 7) % 13) - 6);
  p.scale = 0.6 + 0.05 * static_cast<double>((u * 3) % 7);
  p.offset_x = 0.5 * static_cast<double>(static_cast<int>((u * 5) % 9) - 4);
  p.offset_y = 0.5 * static_cast<double>(static_cast<int>((u * 11) % 9) - 4);
  p.brightness = 0.85 + 0.05 * static_cast<double>(u % 5);
  p.noise_sigma = 0.01 + 0.01 * static_cast<double>(u % 4);
  p.noise_seed = 7000 + u;
  return p;
}

std::vector<Pin> load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins " + path);
  std::vector<Pin> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Pin p;
    int decision = 0;
    if (!(row >> p.u >> p.predicted_class >> decision >> p.confidence)) {
      throw std::runtime_error("bad pin line in " + path + ": " + line);
    }
    p.decision = static_cast<core::Decision>(decision);
    pins.push_back(p);
  }
  if (pins.empty()) throw std::runtime_error("no pins in " + path);
  return pins;
}

bool matches_pin(const core::HybridClassification& r, const Pin& pin) {
  return r.predicted_class == pin.predicted_class &&
         r.decision == pin.decision &&
         std::abs(r.confidence - pin.confidence) <= kConfidenceTolerance;
}

std::vector<tensor::Tensor> campaign_images() {
  std::vector<tensor::Tensor> images;
  for (std::size_t variant = 0; variant < kCampaignVariants; ++variant) {
    data::RenderParams p;
    p.cls = data::SignClass::kStop;
    p.size = image_side(NetKind::kSign96);
    p.rotation = 0.05 * static_cast<double>(variant) - 0.2;
    p.scale = 0.75 + 0.03 * static_cast<double>(variant % 3);
    p.noise_sigma = 0.02;
    p.noise_seed = 500 + variant;
    images.push_back(data::render_sign(p));
  }
  return images;
}

std::uint64_t campaign_seed_base(std::size_t variant) {
  return 1 + 100003ULL * variant;
}

core::MemoryCampaignConfig memory_campaign_config() {
  core::MemoryCampaignConfig cfg;
  cfg.model.target = faultsim::MemoryTarget::kWeights;
  cfg.model.bit_error_rate = 4e-5;
  cfg.ecc = true;
  cfg.scrub_interval = 4;
  return cfg;
}

std::vector<CampaignPin> load_campaign_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins " + path);
  std::vector<CampaignPin> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    CampaignPin p;
    faultsim::CampaignSummary& c = p.compute;
    faultsim::MemoryCampaignSummary& m = p.memory;
    if (!(row >> p.variant >> c.runs >> c.correct >> c.corrected >>
          c.detected_abort >> c.silent_corruption >> m.runs >> m.intact >>
          m.corrected >> m.uncorrectable >> m.qualifier_caught >>
          m.silent_corruption >> m.bits_flipped >> m.ecc_corrected_data >>
          m.ecc_corrected_check >> m.ecc_uncorrectable_words)) {
      throw std::runtime_error("bad campaign pin line in " + path);
    }
    pins.push_back(p);
  }
  if (pins.size() != kCampaignVariants) {
    throw std::runtime_error("expected one campaign pin per variant in " +
                             path);
  }
  return pins;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

faultsim::Outcome judge_against(const core::HybridClassification& golden,
                                const core::HybridClassification& r) {
  const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
  const bool faults = aborted || r.conv1_report.detected_errors > 0 ||
                      r.qualifier.report.detected_errors > 0;
  const bool same = r.predicted_class == golden.predicted_class &&
                    r.decision == golden.decision;
  return faultsim::classify(faults, aborted, same);
}

double host_reference_ms() {
  constexpr std::size_t n = 192;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 17) * 0.25f;
    b[i] = static_cast<float>(i % 13) * 0.5f;
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = clock_type::now();
    nn::ref::gemm(n, n, n, a.data(), b.data(), c.data());
    ms.push_back(seconds_since(t0) * 1e3);
  }
  if (!std::isfinite(c[0])) throw std::logic_error("host reference gemm");
  return median(ms);
}

// ----------------------------------------------------------- workloads

namespace {

enum class CampaignKind { kCompute, kMemory };

struct WorkloadSpec {
  const char* name;
  CampaignKind kind;      ///< the fabric campaign one op runs
  NetKind stage_net;      ///< network the traced run decomposes
  const char* rate_name;  ///< what throughput_per_s counts per second
};

/// Global pool size of every workload (threads incl. the caller); the
/// fabric adds its one worker thread.
constexpr std::size_t kPool = 2;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 31;
constexpr std::size_t kBatch = 8;  ///< images per fan-out probe batch

std::string pin_path(const Options& opt, NetKind kind) {
  return opt.data_dir + "/" + net_name(kind) + ".pins";
}

std::string campaign_pin_path(const Options& opt) {
  return opt.data_dir + "/sign96_campaign.pins";
}

}  // namespace

InputPool make_inputs(const Options& opt, NetKind kind) {
  InputPool pool;
  pool.pins = load_pins(pin_path(opt, kind));
  for (const Pin& p : pool.pins) {
    pool.images.push_back(data::render_sign(universe_params(kind, p.u)));
  }
  pool.order = seeded_order(pool.pins.size(), opt.seed);
  return pool;
}

std::uint64_t fault_seed_base(std::uint64_t seed) { return 1 + (seed << 20); }

double logit_margin(const core::HybridNetwork& net,
                    const tensor::Tensor& image) {
  tensor::Tensor x = image;
  const tensor::Shape s = x.shape();
  x.reshape(tensor::Shape{1, s[0], s[1], s[2]});
  const tensor::Tensor logits =
      net.cnn().infer(x, runtime::ComputeContext::global().workspace());
  std::vector<float> v(logits.data().begin(), logits.data().end());
  std::partial_sort(v.begin(), v.begin() + 2, v.end(), std::greater<>());
  return static_cast<double>(v[0]) - static_cast<double>(v[1]);
}

namespace {

struct Samples {
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  std::vector<double> items;

  void add(double ms, double done, double n) {
    latency_ms.push_back(ms);
    done_s.push_back(done);
    items.push_back(n);
  }
};

/// The end-to-end metrics, the same four on every workload. The tail
/// latency is printed, not reported: the percentile rule picks the
/// highest percentile the run's sample count supports, and that choice
/// differs between workloads and between runs of one workload.
void add_end_to_end(const WorkloadSpec& w, const Samples& s,
                    const std::vector<double>& setup_s, Report& report) {
  if (s.latency_ms.empty()) {
    throw std::runtime_error("no op completed within the run");
  }
  const std::size_t n = s.latency_ms.size();
  const double p50 = median(s.latency_ms);
  const double tail = tail_percentile_for(n);
  if (tail > 50.0) {
    std::printf("latency: n=%zu p50=%.4f ms p%g=%.4f ms (highest percentile "
                "with >= %zu samples beyond it)\n",
                n, p50, tail, percentile(s.latency_ms, tail), kMinBeyond);
  } else {
    std::printf("latency: n=%zu p50=%.4f ms (too few samples for a tail "
                "percentile)\n",
                n, p50);
  }
  // One group is one pass over every campaign variant, so each group holds
  // the same work whatever order the seed picks.
  const double rate = grouped_rate(s.done_s, s.items, kCampaignVariants);
  std::printf("throughput_per_s: %.4f %s/s\n", rate, w.rate_name);
  report.add("setup_s", "s", median(setup_s));
  report.add("throughput_per_s", "1/s", rate);
  report.add("latency_p50_ms", "ms", p50);
  report.add("peak_rss_mb", "MB", peak_rss_mb());
}

}  // namespace

// --- the campaign workloads and the campaign probes ------------------------

CampaignRig::CampaignRig(const Options& opt, std::vector<tensor::Tensor> imgs)
    : armed(make_cnn(NetKind::kSign96), 0, armed_config()),
      clean(make_cnn(NetKind::kSign96), 0, clean_config()),
      memory(clean, memory_campaign_config()),
      work_dir(opt.work_dir),
      images(std::move(imgs)) {
  std::filesystem::create_directories(work_dir);
  for (const tensor::Tensor& image : images) {
    core::FaultSeedStream seeds(1);
    goldens.push_back(clean.classify(image, seeds));
  }
}

fabric::FabricConfig CampaignRig::fabric_config(std::uint64_t shard_size,
                                                const std::string& tag) const {
  fabric::FabricConfig cfg;
  cfg.shard_size = shard_size;
  cfg.workers = 1;
  cfg.checkpoint_path = work_dir + "/" + tag + ".ckpt";
  std::filesystem::remove(cfg.checkpoint_path);  // never resume a stale run
  return cfg;
}

std::function<faultsim::Outcome(std::size_t,
                                const core::HybridClassification&)>
CampaignRig::judge(std::size_t variant) const {
  const core::HybridClassification* golden = &goldens[variant];
  return [golden](std::size_t, const core::HybridClassification& r) {
    return judge_against(*golden, r);
  };
}

CampaignRun<faultsim::CampaignSummary> CampaignRig::run_compute(
    std::size_t variant, std::size_t runs, const std::string& tag) const {
  const fabric::FabricConfig cfg = fabric_config(kComputeShard, tag + "-c");
  const auto t0 = clock_type::now();
  const auto result = fabric::run_classify_campaign(
      armed, images[variant], runs, campaign_seed_base(variant),
      judge(variant), cfg, kCampaignOptions);
  const double seconds = seconds_since(t0);
  std::filesystem::remove(cfg.checkpoint_path);
  return {result.summary, result.stats, seconds, result.complete};
}

CampaignRun<faultsim::MemoryCampaignSummary> CampaignRig::run_memory(
    std::size_t variant, std::size_t runs, const std::string& tag) const {
  const fabric::FabricConfig cfg = fabric_config(kMemoryShard, tag + "-m");
  const auto t0 = clock_type::now();
  const auto result = fabric::run_memory_campaign(
      memory, images[variant], runs, campaign_seed_base(variant), cfg);
  const double seconds = seconds_since(t0);
  std::filesystem::remove(cfg.checkpoint_path);
  return {result.summary, result.stats, seconds, result.complete};
}

namespace {

/// One fabric campaign of `runs` runs on `variant`: true when the fabric
/// completed and, given a pin, the summary matches it exactly.
bool campaign_op(const CampaignRig& rig, CampaignKind kind,
                 std::size_t variant, std::size_t runs,
                 const CampaignPin* pin) {
  if (kind == CampaignKind::kCompute) {
    const auto run = rig.run_compute(variant, runs, "op");
    return run.complete && (pin == nullptr || run.summary == pin->compute);
  }
  const auto run = rig.run_memory(variant, runs, "op");
  return run.complete && (pin == nullptr || run.summary == pin->memory);
}

/// Builds the campaign rig kSetupReps times, each followed by one warm
/// single-shard campaign of the workload's kind, and runs the measured
/// loop: one op is one full campaign (kComputeRuns or kMemoryRuns runs) on
/// the next variant in the seeded order, failed unless the fabric completed
/// and the summary matches the pin.
void run_campaign(const WorkloadSpec& w, const Options& opt, Report& report) {
  const bool compute = w.kind == CampaignKind::kCompute;
  const std::size_t runs = compute ? kComputeRuns : kMemoryRuns;
  const std::size_t shard = compute ? kComputeShard : kMemoryShard;
  const std::vector<CampaignPin> pins =
      load_campaign_pins(campaign_pin_path(opt));
  const std::vector<tensor::Tensor> images = campaign_images();
  std::vector<double> setup_s;
  std::unique_ptr<CampaignRig> rig;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const auto t0 = clock_type::now();
    rig = std::make_unique<CampaignRig>(opt, images);
    (void)campaign_op(*rig, w.kind, rep % kCampaignVariants, shard, nullptr);
    setup_s.push_back(seconds_since(t0));
  }

  const std::vector<std::size_t> order =
      seeded_order(kCampaignVariants, opt.seed);
  Samples s;
  const auto t0 = clock_type::now();
  for (std::size_t k = 0; seconds_since(t0) < opt.seconds; ++k) {
    const std::size_t v = order[k % order.size()];
    ++report.attempted;
    const auto a = clock_type::now();
    const bool ok = campaign_op(*rig, w.kind, v, runs, &pins[v]);
    const double ms = seconds_since(a) * 1e3;
    if (!ok) {
      ++report.failed;
      continue;
    }
    s.add(ms, seconds_since(t0), static_cast<double>(runs));
  }
  add_end_to_end(w, s, setup_s, report);
}

// --- traced run -------------------------------------------------------------

void run_traced(const WorkloadSpec& w, const Options& opt, Report& report) {
  Tracer tracer;
  const double S = opt.seconds;
  {
    const InputPool in = make_inputs(opt, w.stage_net);
    const auto net = std::make_unique<core::HybridNetwork>(
        make_cnn(w.stage_net), 0, clean_config());
    ProbeInputs probe;
    probe.net = net.get();
    probe.images = &in.images;
    probe.pins = &in.pins;
    probe.order = in.order;
    probe.fault_seed_base = fault_seed_base(opt.seed);
    probe.pool = kPool;
    probe_stages(probe, 0.3 * S, tracer, report);
    probe_fanout(probe, kBatch, report);
  }
  // No end-to-end workload drives the service, so every traced run does.
  probe_serve(opt, 0.2 * S, tracer, report);
  probe_campaign(opt, 0.4 * S, tracer, report);

  std::filesystem::create_directories(opt.work_dir);
  const std::string path = opt.work_dir + "/trace-" + w.name + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (tracer.write_json(path)) {
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                path.c_str());
  }
}

// No end-to-end workload runs AlexNet (README.md, "Workloads left out"),
// so the compute campaign's traced run decomposes it: the 227px stages
// stay measured and checked bit-identical to classify().
constexpr WorkloadSpec kWorkloads[] = {
    {"sign96_compute_campaign", CampaignKind::kCompute, NetKind::kAlexNet227,
     "compute runs (compute_runs_per_s)"},
    {"sign96_memory_campaign", CampaignKind::kMemory, NetKind::kSign96,
     "memory runs (memory_runs_per_s)"},
};

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

Report run_workload(const Options& opt) {
  const WorkloadSpec& w = find_workload(opt.workload);
  runtime::ComputeContext::set_global_threads(kPool);
  std::printf("workload %s: pool %zu thread(s), seed %llu, %g s%s\n", w.name,
              kPool, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? ", traced" : "");
  Report report;
  if (opt.trace) {
    run_traced(w, opt, report);
  } else {
    run_campaign(w, opt, report);
  }
  return report;
}

// --------------------------------------------------------------- pins

int write_pins(const Options& opt) {
  runtime::ComputeContext::set_global_threads(1);
  std::filesystem::create_directories(opt.data_dir);
  for (const NetKind kind : {NetKind::kAlexNet227, NetKind::kSign96}) {
    const core::HybridNetwork net(make_cnn(kind), 0, clean_config());
    const std::string path = pin_path(opt, kind);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return 1;
    std::fprintf(f, "# classify() of universe input u on %s (clean DMR "
                 "envelope): u class decision confidence logit_margin\n"
                 "# inputs whose top-2 logit margin is under %g are left "
                 "out, so a legal rounding change cannot flip the class\n",
                 net_name(kind), kMinLogitMargin);
    std::size_t kept = 0;
    for (std::size_t u = 0; u < kUniverseSize; ++u) {
      const tensor::Tensor image =
          data::render_sign(universe_params(kind, u));
      core::FaultSeedStream seeds(1);
      const core::HybridClassification r = net.classify(image, seeds);
      const double margin = logit_margin(net, image);
      if (margin < kMinLogitMargin) continue;
      std::fprintf(f, "%zu %d %d %.17g %.6g\n", u, r.predicted_class,
                   static_cast<int>(r.decision), r.confidence, margin);
      ++kept;
    }
    std::fclose(f);
    std::printf("%s: %zu of %zu inputs pinned\n", path.c_str(), kept,
                kUniverseSize);
  }

  runtime::ComputeContext::set_global_threads(2);
  const CampaignRig rig(opt, campaign_images());
  const std::string path = campaign_pin_path(opt);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "# sign96 campaigns per variant: variant | compute %zu runs:"
               " runs correct corrected aborted sdc | memory %zu runs: runs "
               "intact corrected uncorrectable caught sdc bits ecc_data "
               "ecc_check ecc_uncorrectable\n",
               kComputeRuns, kMemoryRuns);
  for (std::size_t v = 0; v < kCampaignVariants; ++v) {
    const auto c = rig.run_compute(v, kComputeRuns, "pin").summary;
    const auto m = rig.run_memory(v, kMemoryRuns, "pin").summary;
    std::fprintf(
        f, "%zu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
           "%llu %llu %llu\n",
        v, static_cast<unsigned long long>(c.runs),
        static_cast<unsigned long long>(c.correct),
        static_cast<unsigned long long>(c.corrected),
        static_cast<unsigned long long>(c.detected_abort),
        static_cast<unsigned long long>(c.silent_corruption),
        static_cast<unsigned long long>(m.runs),
        static_cast<unsigned long long>(m.intact),
        static_cast<unsigned long long>(m.corrected),
        static_cast<unsigned long long>(m.uncorrectable),
        static_cast<unsigned long long>(m.qualifier_caught),
        static_cast<unsigned long long>(m.silent_corruption),
        static_cast<unsigned long long>(m.bits_flipped),
        static_cast<unsigned long long>(m.ecc_corrected_data),
        static_cast<unsigned long long>(m.ecc_corrected_check),
        static_cast<unsigned long long>(m.ecc_uncorrectable_words));
  }
  std::fclose(f);
  std::printf("%s: %zu variants pinned\n", path.c_str(), kCampaignVariants);
  return 0;
}

}  // namespace perfbench
