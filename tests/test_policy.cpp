// SafetyPolicy decision table and ExecutionReport merging.
#include <gtest/gtest.h>

#include "core/policy.hpp"
#include "reliable/report.hpp"

namespace {

using hybridcnn::core::Decision;
using hybridcnn::core::decision_name;
using hybridcnn::core::SafetyPolicy;
using hybridcnn::reliable::ExecutionReport;

TEST(SafetyPolicy, DefaultHasNoCriticalClasses) {
  const SafetyPolicy p;
  EXPECT_FALSE(p.is_critical(0));
  EXPECT_EQ(p.decide(0, false, false), Decision::kNonCriticalPass);
}

TEST(SafetyPolicy, CriticalMembership) {
  const SafetyPolicy p({0, 7});
  EXPECT_TRUE(p.is_critical(0));
  EXPECT_TRUE(p.is_critical(7));
  EXPECT_FALSE(p.is_critical(3));
}

TEST(SafetyPolicy, DecisionTableExhaustive) {
  const SafetyPolicy p({0});
  // Non-critical: always passes regardless of evidence.
  EXPECT_EQ(p.decide(1, true, true), Decision::kNonCriticalPass);
  EXPECT_EQ(p.decide(1, false, true), Decision::kNonCriticalPass);
  EXPECT_EQ(p.decide(1, true, false), Decision::kNonCriticalPass);
  EXPECT_EQ(p.decide(1, false, false), Decision::kNonCriticalPass);
  // Critical + reliable execution: qualifier decides.
  EXPECT_EQ(p.decide(0, true, true), Decision::kQualifiedReliable);
  EXPECT_EQ(p.decide(0, false, true), Decision::kDemotedUnqualified);
  // Critical + failed reliable execution: fail-stop wins over qualifier.
  EXPECT_EQ(p.decide(0, true, false), Decision::kReliableExecutionFailed);
  EXPECT_EQ(p.decide(0, false, false), Decision::kReliableExecutionFailed);
}

TEST(SafetyPolicy, DecisionNames) {
  EXPECT_EQ(decision_name(Decision::kQualifiedReliable),
            "qualified_reliable");
  EXPECT_EQ(decision_name(Decision::kDemotedUnqualified),
            "demoted_unqualified");
  EXPECT_EQ(decision_name(Decision::kNonCriticalPass), "non_critical_pass");
  EXPECT_EQ(decision_name(Decision::kReliableExecutionFailed),
            "reliable_execution_failed");
}

TEST(ExecutionReport, SummaryMentionsFailure) {
  ExecutionReport r;
  r.stage = "conv1";
  r.scheme = "dmr";
  r.ok = false;
  r.bucket_exhausted = true;
  r.failed_op_index = 42;
  const std::string s = r.summary();
  EXPECT_NE(s.find("FAILED"), std::string::npos);
  EXPECT_NE(s.find("bucket exhausted"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

}  // namespace
