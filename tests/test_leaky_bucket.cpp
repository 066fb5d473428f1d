// Leaky-bucket semantics, including the paper's exact claim: "a stream of
// correctly executed operations will cancel one, but not two successive
// errors."
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "reliable/leaky_bucket.hpp"

namespace {

using hybridcnn::reliable::LeakyBucket;

TEST(LeakyBucket, StartsEmpty) {
  LeakyBucket b;
  EXPECT_EQ(b.level(), 0u);
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.errors(), 0u);
  EXPECT_EQ(b.successes(), 0u);
}

TEST(LeakyBucket, DefaultParameters) {
  LeakyBucket b;
  EXPECT_EQ(b.factor(), 2u);
  EXPECT_EQ(b.ceiling(), 4u);
}

TEST(LeakyBucket, RejectsZeroFactor) {
  EXPECT_THROW(LeakyBucket(0, 4), std::invalid_argument);
}

TEST(LeakyBucket, RejectsZeroCeiling) {
  EXPECT_THROW(LeakyBucket(2, 0), std::invalid_argument);
}

TEST(LeakyBucket, ErrorRaisesLevelByFactor) {
  LeakyBucket b(2, 10);
  b.record_error();
  EXPECT_EQ(b.level(), 2u);
  b.record_error();
  EXPECT_EQ(b.level(), 4u);
}

TEST(LeakyBucket, SuccessDecrementsByOneFlooredAtZero) {
  LeakyBucket b(2, 10);
  b.record_error();
  b.record_success();
  EXPECT_EQ(b.level(), 1u);
  b.record_success();
  EXPECT_EQ(b.level(), 0u);
  b.record_success();
  EXPECT_EQ(b.level(), 0u);  // floor zero
}

TEST(LeakyBucket, PaperClaim_SuccessStreamCancelsOneError) {
  LeakyBucket b;  // factor 2, ceiling 4
  EXPECT_FALSE(b.record_error());
  for (int i = 0; i < 10; ++i) b.record_success();
  EXPECT_EQ(b.level(), 0u);
  EXPECT_FALSE(b.exhausted());
  // A later single error is again tolerated.
  EXPECT_FALSE(b.record_error());
  EXPECT_FALSE(b.exhausted());
}

TEST(LeakyBucket, PaperClaim_TwoSuccessiveErrorsAreNotCancelled) {
  LeakyBucket b;  // factor 2, ceiling 4
  EXPECT_FALSE(b.record_error());
  EXPECT_TRUE(b.record_error());  // 2 + 2 == ceiling -> persistent
  EXPECT_TRUE(b.exhausted());
}

TEST(LeakyBucket, OneInterveningSuccessDoesNotPreventTrip) {
  // error (2), success (1), error (3) < 4: survives; another error trips.
  LeakyBucket b;
  b.record_error();
  b.record_success();
  EXPECT_FALSE(b.record_error());
  EXPECT_EQ(b.level(), 3u);
  EXPECT_TRUE(b.record_error());
}

TEST(LeakyBucket, ExhaustionLatchesUntilReset) {
  LeakyBucket b;
  b.record_error();
  b.record_error();
  ASSERT_TRUE(b.exhausted());
  for (int i = 0; i < 100; ++i) b.record_success();
  EXPECT_TRUE(b.exhausted()) << "exhaustion must latch";
  b.reset();
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.level(), 0u);
}

TEST(LeakyBucket, PeakTracksHighWaterMark) {
  LeakyBucket b(1, 10);
  b.record_error();
  b.record_error();
  b.record_error();
  b.record_success();
  b.record_success();
  EXPECT_EQ(b.level(), 1u);
  EXPECT_EQ(b.peak(), 3u);
}

TEST(LeakyBucket, CountsErrorsAndSuccesses) {
  LeakyBucket b(1, 100);
  for (int i = 0; i < 7; ++i) b.record_error();
  for (int i = 0; i < 11; ++i) b.record_success();
  EXPECT_EQ(b.errors(), 7u);
  EXPECT_EQ(b.successes(), 11u);
}

TEST(LeakyBucket, LevelSaturatesAtCeiling) {
  LeakyBucket b(3, 4);
  b.record_error();
  b.record_error();
  EXPECT_EQ(b.level(), 4u);  // 6 would overshoot; clamped to ceiling
  EXPECT_TRUE(b.exhausted());
}

TEST(LeakyBucket, FactorLargerThanCeilingTripsImmediately) {
  LeakyBucket b(10, 4);
  EXPECT_TRUE(b.record_error());
  EXPECT_TRUE(b.exhausted());
}

TEST(LeakyBucket, RecordSuccessesMatchesSingleSuccesses) {
  // Reaches every level 0..ceiling with factor-1 errors (ceiling latches
  // exhaustion), plus latched buckets drained back below the ceiling.
  constexpr std::uint32_t kCeiling = 6;
  struct Start {
    std::uint32_t errors;
    std::uint32_t drained;
  };
  std::vector<Start> starts;
  for (std::uint32_t level = 0; level <= kCeiling; ++level) {
    starts.push_back({level, 0});
  }
  for (std::uint32_t drained = 1; drained <= kCeiling; ++drained) {
    starts.push_back({kCeiling, drained});
  }
  for (const Start& start : starts) {
    for (const std::uint64_t n :
         {0ULL, 1ULL, 2ULL, 3ULL, 5ULL, 6ULL, 7ULL, 100ULL}) {
      SCOPED_TRACE("errors " + std::to_string(start.errors) + " drained " +
                   std::to_string(start.drained) + " n " + std::to_string(n));
      LeakyBucket bulk(1, kCeiling);
      for (std::uint32_t i = 0; i < start.errors; ++i) bulk.record_error();
      for (std::uint32_t i = 0; i < start.drained; ++i) bulk.record_success();
      LeakyBucket single = bulk;
      bulk.record_successes(n);
      for (std::uint64_t i = 0; i < n; ++i) single.record_success();
      EXPECT_EQ(bulk.level(), single.level());
      EXPECT_EQ(bulk.peak(), single.peak());
      EXPECT_EQ(bulk.exhausted(), single.exhausted());
      EXPECT_EQ(bulk.errors(), single.errors());
      EXPECT_EQ(bulk.successes(), single.successes());
      EXPECT_EQ(bulk.exhausted(), start.errors >= kCeiling);
    }
  }
  // A window wider than 32 bits drains to zero instead of wrapping.
  LeakyBucket wide(1, kCeiling);
  for (int i = 0; i < 3; ++i) wide.record_error();
  wide.record_successes((1ULL << 32) + 1);
  EXPECT_EQ(wide.level(), 0u);
  EXPECT_EQ(wide.successes(), (1ULL << 32) + 1);
  EXPECT_EQ(wide.peak(), 3u);
}

// Parameterised: for every (factor, ceiling) with factor < ceiling <=
// 2*factor, the bucket implements exactly the paper's "one error
// recoverable, two successive errors persistent" behaviour.
class BucketPaperSemantics
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(BucketPaperSemantics, OneErrorRecoverableTwoNot) {
  const auto [factor, ceiling] = GetParam();
  ASSERT_LT(factor, ceiling);
  ASSERT_LE(ceiling, 2 * factor);

  LeakyBucket one(factor, ceiling);
  EXPECT_FALSE(one.record_error());
  for (std::uint32_t i = 0; i < factor; ++i) one.record_success();
  EXPECT_EQ(one.level(), 0u);
  EXPECT_FALSE(one.exhausted());

  LeakyBucket two(factor, ceiling);
  two.record_error();
  EXPECT_TRUE(two.record_error());
}

INSTANTIATE_TEST_SUITE_P(
    FactorCeilingGrid, BucketPaperSemantics,
    ::testing::Values(std::make_tuple(2u, 4u), std::make_tuple(2u, 3u),
                      std::make_tuple(3u, 5u), std::make_tuple(3u, 6u),
                      std::make_tuple(4u, 7u), std::make_tuple(4u, 8u),
                      std::make_tuple(5u, 9u), std::make_tuple(8u, 16u)));

// Parameterised: any error burst of ceil(ceiling/factor) successive errors
// trips the bucket regardless of prior success history.
class BucketBurst : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BucketBurst, SuccessHistoryDoesNotMaskBursts) {
  const std::uint32_t factor = GetParam();
  const std::uint32_t ceiling = 3 * factor;
  LeakyBucket b(factor, ceiling);
  for (int i = 0; i < 1000; ++i) b.record_success();
  // ceil(ceiling / factor) == 3 successive errors must trip.
  EXPECT_FALSE(b.record_error());
  EXPECT_FALSE(b.record_error());
  EXPECT_TRUE(b.record_error());
}

INSTANTIATE_TEST_SUITE_P(Factors, BucketBurst,
                         ::testing::Values(1u, 2u, 3u, 5u, 9u));

}  // namespace
