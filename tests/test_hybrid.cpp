// HybridNetwork: bifurcated dataflow, qualification policy, fail-stop
// behaviour and the footprint (cost split) argument.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "core/hybrid_network.hpp"
#include "core/shape_qualifier.hpp"
#include "data/renderer.hpp"
#include "nn/conv2d.hpp"
#include "nn/filters.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/alexnet.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "reliable/executor.hpp"

namespace {

using namespace hybridcnn;
using core::Decision;
using core::FaultSeedStream;
using core::HybridClassification;
using core::HybridConfig;
using core::HybridNetwork;
using core::QualifierSource;
using core::ShapeQualifier;
using tensor::Shape;
using tensor::Tensor;

/// Small CNN over 128x128 images: fast enough for per-test reliable
/// execution while leaving the qualifier usable resolution.
std::unique_ptr<nn::Sequential> make_testnet(std::uint64_t seed = 3) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 128 -> 61
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);  // 61 -> 30
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 30 * 30, 5);
  nn::init_network(*net, seed);
  return net;
}

Tensor stop_image() { return data::render_stop_sign(128, 6.0); }

/// One classification over a fresh caller-owned stream at the network's
/// configured base — the serial idiom of the const classify API.
HybridClassification classify_once(const HybridNetwork& net,
                                   const Tensor& img) {
  FaultSeedStream seeds = net.seed_stream();
  return net.classify(img, seeds);
}

TEST(HybridNetwork, ConstructionInstallsAndFreezesSobelFilter) {
  HybridConfig cfg;
  cfg.dependable_filter = 2;
  HybridNetwork hybrid(make_testnet(), 0, cfg);
  auto& conv1 = hybrid.cnn().layer_as<nn::Conv2d>(0);
  EXPECT_TRUE(conv1.filter_frozen(2));
  EXPECT_EQ(conv1.filter(2), nn::sobel_filter(3, 7));
}

TEST(HybridNetwork, ConstructionValidation) {
  HybridConfig cfg;
  cfg.dependable_filter = 99;
  EXPECT_THROW(HybridNetwork(make_testnet(), 0, cfg),
               std::invalid_argument);
  EXPECT_THROW(HybridNetwork(nullptr, 0, HybridConfig{}),
               std::invalid_argument);
  // Layer 1 is a ReLU, not a Conv2d.
  EXPECT_THROW(HybridNetwork(make_testnet(), 1, HybridConfig{}),
               std::bad_cast);
}

TEST(HybridNetwork, FaultFreeClassifyProducesQualifiedEvidence) {
  HybridNetwork hybrid(make_testnet(), 0, HybridConfig{});
  const HybridClassification r = classify_once(hybrid, stop_image());

  EXPECT_TRUE(r.conv1_report.ok);
  EXPECT_EQ(r.conv1_report.detected_errors, 0u);
  EXPECT_GE(r.predicted_class, 0);
  EXPECT_LT(r.predicted_class, 5);
  EXPECT_GT(r.confidence, 0.0);
  EXPECT_LE(r.confidence, 1.0);
  // The image is an octagonal stop sign: the full-resolution qualifier
  // must confirm the shape regardless of CNN weights.
  EXPECT_TRUE(r.qualifier.match)
      << "dist=" << r.qualifier.shape.distance
      << " corners=" << r.qualifier.shape.corners;
  EXPECT_TRUE(r.qualifier.reliable);
}

TEST(HybridNetwork, DecisionFollowsPolicyForCriticalAndNonCritical) {
  // Observe the (deterministic) prediction once, then wrap the same
  // network topology in two policies: one where that class is critical
  // and one where it is not.
  const Tensor img = stop_image();
  HybridConfig probe_cfg;
  probe_cfg.critical_classes = {};
  HybridNetwork probe(make_testnet(7), 0, probe_cfg);
  const int predicted = classify_once(probe, img).predicted_class;

  HybridConfig critical_cfg;
  critical_cfg.critical_classes = {predicted};
  HybridNetwork critical(make_testnet(7), 0, critical_cfg);
  const HybridClassification rc = classify_once(critical, img);
  EXPECT_EQ(rc.predicted_class, predicted);
  EXPECT_TRUE(rc.safety_critical);
  EXPECT_EQ(rc.decision, Decision::kQualifiedReliable);
  EXPECT_TRUE(rc.reliable_positive());

  HybridConfig other_cfg;
  other_cfg.critical_classes = {predicted + 1};
  HybridNetwork other(make_testnet(7), 0, other_cfg);
  const HybridClassification ro = classify_once(other, img);
  EXPECT_FALSE(ro.safety_critical);
  EXPECT_EQ(ro.decision, Decision::kNonCriticalPass);
  EXPECT_FALSE(ro.reliable_positive());
}

TEST(HybridNetwork, NonOctagonImageIsDemotedForCriticalClass) {
  // A square sign: whatever the CNN says, if the predicted class is
  // critical the qualifier must refuse it (no octagon present).
  data::RenderParams p;
  p.cls = data::SignClass::kParking;
  p.size = 128;
  p.scale = 0.8;
  const Tensor img = data::render_sign(p);

  HybridConfig probe_cfg;
  probe_cfg.critical_classes = {};
  HybridNetwork probe(make_testnet(11), 0, probe_cfg);
  const int predicted = classify_once(probe, img).predicted_class;

  HybridConfig cfg;
  cfg.critical_classes = {predicted};
  HybridNetwork hybrid(make_testnet(11), 0, cfg);
  const HybridClassification r = classify_once(hybrid, img);
  EXPECT_FALSE(r.qualifier.match);
  EXPECT_EQ(r.decision, Decision::kDemotedUnqualified);
  EXPECT_FALSE(r.reliable_positive());
}

TEST(HybridNetwork, DmrCorrectsTransientFaultsDuringClassify) {
  HybridConfig cfg;
  cfg.fault_config.kind = faultsim::FaultKind::kTransient;
  cfg.fault_config.probability = 5e-6;
  cfg.fault_config.bit = -1;
  cfg.fault_seed = 5;
  HybridNetwork faulty(make_testnet(13), 0, cfg);
  HybridNetwork golden(make_testnet(13), 0, HybridConfig{});

  const Tensor img = stop_image();
  const HybridClassification rf = classify_once(faulty, img);
  const HybridClassification rg = classify_once(golden, img);

  ASSERT_TRUE(rf.conv1_report.ok) << rf.conv1_report.summary();
  EXPECT_GT(rf.conv1_report.detected_errors, 0u) << "test vacuous";
  EXPECT_EQ(rf.predicted_class, rg.predicted_class);
  EXPECT_NEAR(rf.confidence, rg.confidence, 1e-9);
}

TEST(HybridNetwork, PermanentFaultsYieldFailStopDecision) {
  const Tensor img = stop_image();
  HybridConfig probe_cfg;
  HybridNetwork probe(make_testnet(17), 0, probe_cfg);
  const int predicted = classify_once(probe, img).predicted_class;

  HybridConfig cfg;
  cfg.critical_classes = {predicted};
  cfg.fault_config.kind = faultsim::FaultKind::kPermanent;
  cfg.fault_config.probability = 1.0;
  cfg.fault_config.num_pes = 16;
  cfg.fault_config.bit = -1;
  HybridNetwork hybrid(make_testnet(17), 0, cfg);
  const HybridClassification r = classify_once(hybrid, img);

  EXPECT_FALSE(r.conv1_report.ok);
  EXPECT_TRUE(r.conv1_report.bucket_exhausted);
  if (r.predicted_class == predicted) {
    EXPECT_EQ(r.decision, Decision::kReliableExecutionFailed);
  }
  EXPECT_FALSE(r.reliable_positive());
}

TEST(HybridNetwork, FeatureMapQualifierSourceRuns) {
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMap;
  HybridNetwork hybrid(make_testnet(19), 0, cfg);
  const HybridClassification r = classify_once(hybrid, stop_image());
  // The bifurcated 61x61 feature map is coarse; the decision machinery
  // must still run and report reliable execution.
  EXPECT_TRUE(r.qualifier.reliable);
  EXPECT_TRUE(r.conv1_report.ok);
}

TEST(HybridNetwork, CostSplitShowsHybridSavings) {
  // The footprint argument holds for deep networks where conv1 is a small
  // share of the total; use the paper's own network geometry. cost_split
  // only propagates shapes, so full AlexNet is cheap here.
  HybridNetwork hybrid(
      nn::make_alexnet({.num_classes = 43, .seed = 1, .with_dropout = false}),
      nn::kAlexNetConv1, HybridConfig{});
  const auto split = hybrid.cost_split(Shape{3, 227, 227});
  EXPECT_GT(split.reliable_macs, 0u);
  EXPECT_GT(split.total_macs, split.reliable_macs)
      << "the reliable portion must be a strict subset of the total work";
  // The headline claim: reliable execution is confined to a small part
  // (conv1 + qualifier is ~10% of AlexNet's MACs).
  EXPECT_LT(static_cast<double>(split.reliable_macs),
            0.15 * static_cast<double>(split.total_macs));
}

TEST(HybridNetwork, ClassifyRejectsBatchedInput) {
  HybridNetwork hybrid(make_testnet(), 0, HybridConfig{});
  FaultSeedStream seeds = hybrid.seed_stream();
  EXPECT_THROW(
      static_cast<void>(hybrid.classify(Tensor(Shape{1, 3, 128, 128}), seeds)),
      std::invalid_argument);
  // A rejected classification must not consume a seed.
  EXPECT_EQ(seeds, hybrid.seed_stream());
}

TEST(ShapeQualifier, FailedReportNeverQualifies) {
  ShapeQualifier q;
  reliable::ExecutionReport failed;
  failed.ok = false;
  const Tensor fm(Shape{64, 64}, 1.0f);
  const auto verdict = q.qualify_feature_map(fm, failed);
  EXPECT_FALSE(verdict.reliable);
  EXPECT_FALSE(verdict.match);
  EXPECT_FALSE(verdict.qualifies());
}

TEST(ShapeQualifier, QualifiesStopSignImageThroughReliableSobel) {
  ShapeQualifier q;
  const auto exec = reliable::make_executor("dmr", nullptr);
  const auto verdict = q.qualify(data::render_stop_sign(160, 4.0), *exec);
  EXPECT_TRUE(verdict.reliable);
  EXPECT_TRUE(verdict.match)
      << "dist=" << verdict.shape.distance
      << " corners=" << verdict.shape.corners;
  EXPECT_TRUE(verdict.qualifies());
  EXPECT_GT(verdict.report.logical_ops, 0u);
}

TEST(HybridNetwork, NonFinitePixelsClassifyAsRecorded) {
  // A 96px stop sign with one pixel set to NaN or +-Inf in every channel.
  // DMR compares bit patterns, so the non-finite Sobel responses pass the
  // reliable conv as agreed and reach the qualifier's Otsu threshold. The
  // verdicts and decisions were recorded from the serial-histogram Otsu.
  auto cnn = std::make_unique<nn::Sequential>();
  cnn->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 96 -> 45
  cnn->emplace<nn::ReLU>();
  cnn->emplace<nn::MaxPool>(3, 2);  // 45 -> 22
  cnn->emplace<nn::Flatten>();
  cnn->emplace<nn::Linear>(8 * 22 * 22, 5);
  nn::init_network(*cnn, 3);
  const HybridNetwork hybrid(std::move(cnn), 0, HybridConfig{});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::string clean_word = "bdhdbchebdhdbchebdhdbchebdhdbche";

  struct Case {
    std::size_t y;
    std::size_t x;
    float value;
    Decision decision;
    bool match;
  };
  for (const Case c : {
           // NaN in the first magnitude pixel: the threshold is NaN, no
           // pixel is an edge and no shape is found.
           Case{0, 0, nan, Decision::kDemotedUnqualified, false},
           // NaN inside the image: skipped by the min/max, binned at 0.
           Case{40, 30, nan, Decision::kQualifiedReliable, true},
           // An infinity makes the threshold NaN.
           Case{40, 30, inf, Decision::kDemotedUnqualified, false},
           Case{40, 30, -inf, Decision::kDemotedUnqualified, false},
       }) {
    SCOPED_TRACE(::testing::Message()
                 << "pixel (" << c.y << ", " << c.x << ") = " << c.value);
    Tensor img = data::render_stop_sign(96, 6.0);
    for (std::size_t ch = 0; ch < 3; ++ch) img.at3(ch, c.y, c.x) = c.value;
    const HybridClassification r = classify_once(hybrid, img);
    EXPECT_EQ(r.predicted_class, 0);
    EXPECT_EQ(r.decision, c.decision);
    EXPECT_TRUE(r.conv1_report.ok);
    EXPECT_TRUE(r.qualifier.reliable);
    EXPECT_EQ(r.qualifier.match, c.match);
    EXPECT_EQ(r.qualifier.shape.word, c.match ? clean_word : "");
    EXPECT_EQ(r.qualifier.shape.corners, c.match ? 8u : 0u);
  }
}

}  // namespace
