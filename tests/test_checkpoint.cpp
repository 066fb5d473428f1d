// ScalarCheckpoint / ProgressCheckpoint: commit/rollback semantics at
// operation and inference-step granularity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "reliable/checkpoint.hpp"
#include "tensor/tensor.hpp"

namespace {

using hybridcnn::reliable::ProgressCheckpoint;
using hybridcnn::reliable::ScalarCheckpoint;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;

TEST(ScalarCheckpoint, InitialValueIsCommitted) {
  const ScalarCheckpoint cp(3.5f);
  EXPECT_FLOAT_EQ(cp.value(), 3.5f);
}

TEST(ScalarCheckpoint, CommitAdvancesState) {
  ScalarCheckpoint cp(0.0f);
  cp.commit(1.0f);
  EXPECT_FLOAT_EQ(cp.value(), 1.0f);
  cp.commit(2.0f);
  EXPECT_FLOAT_EQ(cp.value(), 2.0f);
}

TEST(ScalarCheckpoint, RollbackReturnsLastCommit) {
  ScalarCheckpoint cp(0.0f);
  cp.commit(7.0f);
  EXPECT_FLOAT_EQ(cp.rollback(), 7.0f);
  EXPECT_FLOAT_EQ(cp.value(), 7.0f) << "rollback must not change state";
}

TEST(ScalarCheckpoint, RollbackBeforeAnyCommitYieldsInitial) {
  ScalarCheckpoint cp(-2.5f);
  EXPECT_FLOAT_EQ(cp.rollback(), -2.5f);
}

TEST(ScalarCheckpoint, InterleavedCommitRollbackSequence) {
  // Simulates Algorithm 3: successful ops commit, failed ops roll back.
  ScalarCheckpoint acc(1.0f);
  acc.commit(1.5f);             // op ok
  float v = acc.rollback();     // op failed; discard
  EXPECT_FLOAT_EQ(v, 1.5f);
  acc.commit(v + 0.5f);         // retry succeeded
  EXPECT_FLOAT_EQ(acc.value(), 2.0f);
}

TEST(ProgressCheckpoint, StartsAtStepZeroWithEmptyState) {
  const ProgressCheckpoint cp;
  EXPECT_EQ(cp.step(), 0u);
  EXPECT_EQ(cp.state().count(), 0u);
  EXPECT_EQ(cp.commits(), 0u);
  EXPECT_EQ(cp.rollbacks(), 0u);
}

TEST(ProgressCheckpoint, CommitAdvancesStepAndState) {
  ProgressCheckpoint cp;
  cp.commit(1, Tensor(Shape{4}, 1.0f));
  EXPECT_EQ(cp.step(), 1u);
  EXPECT_EQ(cp.state(), Tensor(Shape{4}, 1.0f));
  cp.commit(2, Tensor(Shape{2}, 5.0f));
  EXPECT_EQ(cp.step(), 2u);
  EXPECT_EQ(cp.state(), Tensor(Shape{2}, 5.0f));
  EXPECT_EQ(cp.commits(), 2u);
}

TEST(ProgressCheckpoint, RollbackPreservesCommittedProgress) {
  ProgressCheckpoint cp;
  cp.commit(3, Tensor(Shape{8}, 2.0f));
  // A power cut mid-step discards in-flight work; the committed pair
  // survives untouched.
  EXPECT_EQ(cp.rollback(), 3u);
  EXPECT_EQ(cp.step(), 3u);
  EXPECT_EQ(cp.state(), Tensor(Shape{8}, 2.0f));
  EXPECT_EQ(cp.rollbacks(), 1u);
}

TEST(ProgressCheckpoint, RollbackBeforeAnyCommitRestartsFromZero) {
  ProgressCheckpoint cp;
  EXPECT_EQ(cp.rollback(), 0u);
  EXPECT_EQ(cp.rollback(), 0u);
  EXPECT_EQ(cp.rollbacks(), 2u);
}

// ------------------------------------------- ECC-protected checkpoint

/// Flips one bit of one committed float through the raw-storage handle —
/// the model of an SEU landing in the checkpoint slot at rest.
void flip_state_bit(ProgressCheckpoint& cp, std::size_t word,
                    std::uint32_t bit) {
  float& f = cp.mutable_state().data()[word];
  std::uint32_t w;
  std::memcpy(&w, &f, sizeof(w));
  w ^= (1u << bit);
  std::memcpy(&f, &w, sizeof(w));
}

TEST(ProgressCheckpoint, EccOffScrubIsEmpty) {
  ProgressCheckpoint cp(false);
  cp.commit(1, Tensor(Shape{8}, 1.0f));
  EXPECT_FALSE(cp.ecc());
  EXPECT_TRUE(cp.scrub().clean());
  EXPECT_EQ(cp.scrub().words, 0u);
}

TEST(ProgressCheckpoint, EccScrubCorrectsASingleBitFlip) {
  ProgressCheckpoint cp(true);
  const Tensor committed(Shape{16}, 0.75f);
  cp.commit(2, Tensor(committed));
  flip_state_bit(cp, 5, 17);
  ASSERT_NE(cp.state(), committed) << "the upset must be visible at rest";

  const auto report = cp.scrub();
  EXPECT_EQ(report.corrected(), 1u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_EQ(cp.state(), committed)
      << "a scrubbed slot must be bit-identical to the committed state";
  EXPECT_EQ(cp.step(), 2u);
}

TEST(ProgressCheckpoint, EccScrubCorrectsOneFlipPerWord) {
  ProgressCheckpoint cp(true);
  const Tensor committed(Shape{8}, -1.25f);
  cp.commit(1, Tensor(committed));
  for (std::size_t w = 0; w < 8; ++w) {
    flip_state_bit(cp, w, static_cast<std::uint32_t>((w * 7) % 32));
  }
  const auto report = cp.scrub();
  EXPECT_EQ(report.corrected(), 8u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_EQ(cp.state(), committed);
}

TEST(ProgressCheckpoint, EccRecommitRefreshesCheckBits) {
  // Commit, corrupt, scrub, then commit fresh state: the new commit must
  // recompute check bits so a later scrub sees a clean slot.
  ProgressCheckpoint cp(true);
  cp.commit(1, Tensor(Shape{4}, 1.0f));
  flip_state_bit(cp, 0, 3);
  (void)cp.scrub();
  cp.commit(2, Tensor(Shape{4}, 2.0f));
  EXPECT_TRUE(cp.scrub().clean());
  EXPECT_EQ(cp.state(), Tensor(Shape{4}, 2.0f));
}

}  // namespace
