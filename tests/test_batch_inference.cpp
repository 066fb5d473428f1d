// classify_batch: bit-identical to looped single-image classify at every
// thread count, empty/single edges, the caller-owned FaultSeedStream
// contract, and the campaign/repeat conveniences built on it.
#include <gtest/gtest.h>

#include <memory>
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
#include "runtime/compute_context.hpp"

namespace {

using namespace hybridcnn;
using core::BatchOptions;
using core::FaultSeedStream;
using core::HybridClassification;
using core::HybridConfig;
using core::HybridNetwork;
using core::QualifierSource;
using runtime::ComputeContext;
using tensor::Tensor;

/// Small CNN over 96x96 images: fast enough to classify batches through
/// reliable execution at several thread counts.
std::unique_ptr<nn::Sequential> make_testnet(std::uint64_t seed = 3) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 96 -> 45
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);  // 45 -> 22
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 22 * 22, 5);
  nn::init_network(*net, seed);
  return net;
}

std::vector<Tensor> make_images(std::size_t n) {
  std::vector<Tensor> images;
  images.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data::RenderParams p;
    p.cls = static_cast<data::SignClass>(i % data::kNumClasses);
    p.size = 96;
    p.rotation = 0.05 * static_cast<double>(i) - 0.1;
    p.scale = 0.72 + 0.03 * static_cast<double>(i % 3);
    p.noise_seed = 40 + i;
    images.push_back(data::render_sign(p));
  }
  return images;
}

/// Every observable field of the paper's "Reliable Result" must agree —
/// floating-point fields bit-for-bit.
void expect_identical(const HybridClassification& a,
                      const HybridClassification& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.predicted_class, b.predicted_class);
  EXPECT_EQ(a.confidence, b.confidence);  // bit-identical double
  EXPECT_EQ(a.safety_critical, b.safety_critical);
  EXPECT_EQ(a.decision, b.decision);

  EXPECT_EQ(a.qualifier.match, b.qualifier.match);
  EXPECT_EQ(a.qualifier.reliable, b.qualifier.reliable);
  EXPECT_EQ(a.qualifier.shape.match, b.qualifier.shape.match);
  EXPECT_EQ(a.qualifier.shape.distance, b.qualifier.shape.distance);
  EXPECT_EQ(a.qualifier.shape.corners, b.qualifier.shape.corners);
  EXPECT_EQ(a.qualifier.shape.word, b.qualifier.shape.word);
  EXPECT_EQ(a.qualifier.shape.template_word, b.qualifier.shape.template_word);
  EXPECT_EQ(a.qualifier.shape.rotation, b.qualifier.shape.rotation);

  EXPECT_EQ(a.qualifier.report.ok, b.qualifier.report.ok);
  EXPECT_EQ(a.qualifier.report.detected_errors,
            b.qualifier.report.detected_errors);
  EXPECT_EQ(a.qualifier.report.retries, b.qualifier.report.retries);

  EXPECT_EQ(a.conv1_report.ok, b.conv1_report.ok);
  EXPECT_EQ(a.conv1_report.logical_ops, b.conv1_report.logical_ops);
  EXPECT_EQ(a.conv1_report.detected_errors, b.conv1_report.detected_errors);
  EXPECT_EQ(a.conv1_report.corrected_errors, b.conv1_report.corrected_errors);
  EXPECT_EQ(a.conv1_report.retries, b.conv1_report.retries);
  EXPECT_EQ(a.conv1_report.bucket_exhausted, b.conv1_report.bucket_exhausted);
  EXPECT_EQ(a.conv1_report.failed_op_index, b.conv1_report.failed_op_index);
}

HybridConfig faulty_config(QualifierSource source,
                           double rate = 5e-6) {
  HybridConfig cfg;
  cfg.qualifier.source = source;
  cfg.fault_config.kind = faultsim::FaultKind::kTransient;
  cfg.fault_config.probability = rate;
  cfg.fault_config.bit = -1;
  return cfg;
}

class BatchInferenceThreads : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { ComputeContext::set_global_threads(GetParam()); }
  void TearDown() override { ComputeContext::set_global_threads(1); }
};

TEST_P(BatchInferenceThreads, BatchMatchesLoopedClassifyBitExactly) {
  const std::vector<Tensor> images = make_images(6);

  // Two networks constructed identically (same init seed, same config)
  // consume the same fault-seed stream; one loops, one batches.
  HybridNetwork looped(make_testnet(11),  0,
                       faulty_config(QualifierSource::kFullResolution));
  HybridNetwork batched(make_testnet(11), 0,
                        faulty_config(QualifierSource::kFullResolution));

  FaultSeedStream loop_seeds = looped.seed_stream();
  std::vector<HybridClassification> expect;
  expect.reserve(images.size());
  for (const Tensor& img : images) {
    expect.push_back(looped.classify(img, loop_seeds));
  }

  FaultSeedStream batch_seeds = batched.seed_stream();
  const std::vector<HybridClassification> got =
      batched.classify_batch(images, batch_seeds);
  EXPECT_EQ(batch_seeds, loop_seeds) << "batch must consume the loop's seeds";
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], expect[i], "full-resolution qualifier");
  }
}

TEST_P(BatchInferenceThreads, BatchMatchesLoopForFeatureMapSources) {
  const std::vector<Tensor> images = make_images(4);
  for (const QualifierSource source :
       {QualifierSource::kDependableFeatureMap,
        QualifierSource::kDependableFeatureMapPair}) {
    HybridNetwork looped(make_testnet(13), 0, faulty_config(source));
    HybridNetwork batched(make_testnet(13), 0, faulty_config(source));

    FaultSeedStream loop_seeds = looped.seed_stream();
    std::vector<HybridClassification> expect;
    for (const Tensor& img : images) {
      expect.push_back(looped.classify(img, loop_seeds));
    }
    FaultSeedStream batch_seeds = batched.seed_stream();
    const std::vector<HybridClassification> got =
        batched.classify_batch(images, batch_seeds);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(got[i], expect[i], "feature-map qualifier");
    }
  }
}

TEST_P(BatchInferenceThreads, RepeatMatchesLoopedClassifyOnOneImage) {
  const Tensor image = data::render_stop_sign(96, 4.0);
  HybridNetwork looped(make_testnet(17), 0,
                       faulty_config(QualifierSource::kFullResolution, 2e-5));
  HybridNetwork batched(make_testnet(17), 0,
                        faulty_config(QualifierSource::kFullResolution, 2e-5));

  constexpr std::size_t kRuns = 5;
  FaultSeedStream loop_seeds = looped.seed_stream();
  std::vector<HybridClassification> expect;
  for (std::size_t r = 0; r < kRuns; ++r) {
    expect.push_back(looped.classify(image, loop_seeds));
  }
  FaultSeedStream batch_seeds = batched.seed_stream();
  const std::vector<HybridClassification> got =
      batched.classify_repeat(image, kRuns, batch_seeds);
  ASSERT_EQ(got.size(), kRuns);
  for (std::size_t r = 0; r < kRuns; ++r) {
    expect_identical(got[r], expect[r], "classify_repeat");
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchInferenceThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

TEST(BatchInference, StatsOnlyReportModeKeepsDecisionsAndSummaries) {
  // BatchOptions::report = kStatsOnly skips conv1 per-op report assembly;
  // predictions, decisions, qualifier verdicts and conv1_report.ok must
  // be unaffected while the conv1_report counters stay at their defaults.
  const Tensor image = data::render_stop_sign(96, 4.0);
  HybridNetwork net(make_testnet(43), 0,
                    faulty_config(QualifierSource::kFullResolution, 2e-5));
  constexpr std::size_t kRuns = 4;

  BatchOptions lean_opts;
  lean_opts.report = reliable::ReportMode::kStatsOnly;
  FaultSeedStream full_seeds = net.seed_stream();
  const std::vector<HybridClassification> full =
      net.classify_repeat(image, kRuns, full_seeds);
  FaultSeedStream lean_seeds = net.seed_stream();
  const std::vector<HybridClassification> lean =
      net.classify_repeat(image, kRuns, lean_seeds, lean_opts);

  ASSERT_EQ(full.size(), lean.size());
  for (std::size_t r = 0; r < kRuns; ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(full[r].predicted_class, lean[r].predicted_class);
    EXPECT_EQ(full[r].confidence, lean[r].confidence);
    EXPECT_EQ(full[r].decision, lean[r].decision);
    EXPECT_EQ(full[r].qualifier.match, lean[r].qualifier.match);
    EXPECT_EQ(full[r].conv1_report.ok, lean[r].conv1_report.ok);
    EXPECT_EQ(lean[r].conv1_report.logical_ops, 0u);
    EXPECT_EQ(lean[r].conv1_report.commits, 0u);
    EXPECT_EQ(lean[r].conv1_report.detected_errors, 0u);
    EXPECT_EQ(lean[r].conv1_report.failed_op_index, -1);
  }

  // A campaign judged only on report-free fields reduces identically.
  const auto judge = [](std::size_t, const HybridClassification& r) {
    const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
    return faultsim::classify(aborted, aborted, !aborted);
  };
  FaultSeedStream a = net.seed_stream();
  FaultSeedStream b = net.seed_stream();
  const faultsim::CampaignSummary sa =
      net.classify_campaign(image, kRuns, judge, a);
  const faultsim::CampaignSummary sb =
      net.classify_campaign(image, kRuns, judge, b, lean_opts);
  EXPECT_EQ(sa.runs, sb.runs);
  EXPECT_EQ(sa.correct, sb.correct);
  EXPECT_EQ(sa.corrected, sb.corrected);
  EXPECT_EQ(sa.detected_abort, sb.detected_abort);
  EXPECT_EQ(sa.silent_corruption, sb.silent_corruption);
}

TEST(BatchInference, EmptyBatchReturnsNothingAndPreservesSeedStream) {
  const Tensor image = data::render_stop_sign(96, 4.0);
  HybridNetwork a(make_testnet(19), 0,
                  faulty_config(QualifierSource::kFullResolution, 2e-5));
  HybridNetwork b(make_testnet(19), 0,
                  faulty_config(QualifierSource::kFullResolution, 2e-5));

  FaultSeedStream a_seeds = a.seed_stream();
  EXPECT_TRUE(a.classify_batch({}, a_seeds).empty());
  // The empty batch must not consume fault seeds: the next classify on
  // the stream sees the same injector seed as a fresh stream's first.
  EXPECT_EQ(a_seeds, a.seed_stream());
  FaultSeedStream b_seeds = b.seed_stream();
  expect_identical(a.classify(image, a_seeds), b.classify(image, b_seeds),
                   "post-empty-batch");
}

TEST(BatchInference, SingleImageBatchEqualsClassify) {
  const Tensor image = data::render_stop_sign(96, 4.0);
  HybridNetwork a(make_testnet(23), 0,
                  faulty_config(QualifierSource::kFullResolution));
  HybridNetwork b(make_testnet(23), 0,
                  faulty_config(QualifierSource::kFullResolution));

  FaultSeedStream a_seeds = a.seed_stream();
  const std::vector<HybridClassification> batch =
      a.classify_batch({image}, a_seeds);
  ASSERT_EQ(batch.size(), 1u);
  FaultSeedStream b_seeds = b.seed_stream();
  expect_identical(batch[0], b.classify(image, b_seeds),
                   "single-image batch");
}

TEST(BatchInference, InterleavedClassifyAndBatchShareOneSeedStream) {
  const std::vector<Tensor> images = make_images(3);
  HybridNetwork mixed(make_testnet(29), 0,
                      faulty_config(QualifierSource::kFullResolution, 2e-5));
  HybridNetwork looped(make_testnet(29), 0,
                       faulty_config(QualifierSource::kFullResolution, 2e-5));

  FaultSeedStream mixed_seeds = mixed.seed_stream();
  const HybridClassification first = mixed.classify(images[0], mixed_seeds);
  const std::vector<HybridClassification> rest =
      mixed.classify_batch({images[1], images[2]}, mixed_seeds);

  FaultSeedStream loop_seeds = looped.seed_stream();
  expect_identical(first, looped.classify(images[0], loop_seeds),
                   "interleaved[0]");
  expect_identical(rest[0], looped.classify(images[1], loop_seeds),
                   "interleaved[1]");
  expect_identical(rest[1], looped.classify(images[2], loop_seeds),
                   "interleaved[2]");
}

TEST(BatchInference, ClassifySeededMatchesPerSeedClassify) {
  // The serving entry point: explicit, non-consecutive seeds. Image i
  // with seeds[i] must reproduce a single classify drawing that seed.
  const std::vector<Tensor> images = make_images(4);
  HybridNetwork net(make_testnet(43), 0,
                    faulty_config(QualifierSource::kFullResolution, 2e-5));

  const std::vector<std::uint64_t> seeds{17, 3, 9001, 3};  // dup on purpose
  std::vector<const Tensor*> ptrs;
  for (const Tensor& img : images) ptrs.push_back(&img);
  const std::vector<HybridClassification> got =
      net.classify_seeded(ptrs.size(), ptrs.data(), seeds.data());

  ASSERT_EQ(got.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    FaultSeedStream one(seeds[i]);
    expect_identical(got[i], net.classify(images[i], one),
                     "classify_seeded element");
  }
}

TEST(BatchInference, RejectsBatchedTensorInputWithoutConsumingSeeds) {
  HybridNetwork hybrid(make_testnet(31), 0, HybridConfig{});
  const std::vector<Tensor> bad{data::render_stop_sign(96, 4.0),
                                Tensor(tensor::Shape{1, 3, 96, 96})};
  FaultSeedStream seeds = hybrid.seed_stream();
  EXPECT_THROW(static_cast<void>(hybrid.classify_batch(bad, seeds)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(hybrid.classify_repeat(bad[1], 3, seeds)),
               std::invalid_argument);
  // A refused batch must leave the caller's stream untouched, so a
  // corrected retry still replays the original seed contract.
  EXPECT_EQ(seeds, hybrid.seed_stream());
}

TEST(BatchInference, CampaignSummaryMatchesPerRunConstructionAtAnyThreads) {
  // The amortised classify_campaign must reproduce the legacy pattern —
  // a fresh network per run with fault_seed = base + run — summary for
  // summary, and be thread-count independent.
  const Tensor image = data::render_stop_sign(96, 4.0);
  constexpr std::size_t kRuns = 6;
  const auto cfg = faulty_config(QualifierSource::kFullResolution, 5e-5);

  HybridNetwork golden_net(make_testnet(37), 0, HybridConfig{});
  FaultSeedStream golden_seeds = golden_net.seed_stream();
  const HybridClassification golden = golden_net.classify(image, golden_seeds);

  const auto judge = [&](const HybridClassification& r) {
    const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
    const bool faults = aborted || r.conv1_report.detected_errors > 0 ||
                        r.qualifier.report.detected_errors > 0;
    const bool matches = r.predicted_class == golden.predicted_class &&
                         r.qualifier.match == golden.qualifier.match &&
                         r.confidence == golden.confidence;
    return faultsim::classify(faults, aborted, matches);
  };

  // Legacy: one network per run.
  faultsim::CampaignSummary legacy;
  for (std::size_t run = 0; run < kRuns; ++run) {
    auto run_cfg = cfg;
    run_cfg.fault_seed = 1 + run;
    HybridNetwork per_run(make_testnet(37), 0, run_cfg);
    FaultSeedStream run_seeds = per_run.seed_stream();
    legacy.add(judge(per_run.classify(image, run_seeds)));
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    auto batch_cfg = cfg;
    batch_cfg.fault_seed = 1;
    HybridNetwork amortised(make_testnet(37), 0, batch_cfg);
    FaultSeedStream campaign_seeds = amortised.seed_stream();
    const faultsim::CampaignSummary summary = amortised.classify_campaign(
        image, kRuns,
        [&](std::size_t, const HybridClassification& r) { return judge(r); },
        campaign_seeds);
    EXPECT_EQ(summary.runs, legacy.runs) << threads;
    EXPECT_EQ(summary.correct, legacy.correct) << threads;
    EXPECT_EQ(summary.corrected, legacy.corrected) << threads;
    EXPECT_EQ(summary.detected_abort, legacy.detected_abort) << threads;
    EXPECT_EQ(summary.silent_corruption, legacy.silent_corruption) << threads;
  }
  ComputeContext::set_global_threads(1);
}

}  // namespace
