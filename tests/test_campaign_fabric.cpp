// Campaign fabric: shard planning, durable checkpoint log, coordinator
// run-once and failure semantics, and the headline contract — a sharded,
// crash-recovered campaign merges bit-identical to the monolithic
// single-thread run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign_fabric/campaigns.hpp"
#include "campaign_fabric/checkpoint_log.hpp"
#include "campaign_fabric/coordinator.hpp"
#include "campaign_fabric/shard.hpp"
#include "campaign_fabric/summary_codec.hpp"
#include "core/hybrid_network.hpp"
#include "core/memory_campaign.hpp"
#include "data/renderer.hpp"
#include "faultsim/campaign.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "runtime/compute_context.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace hybridcnn;
using core::FaultSeedStream;
using core::HybridClassification;
using core::HybridConfig;
using core::HybridNetwork;
using core::MemoryCampaignConfig;
using core::MemoryFaultCampaign;
using fabric::CheckpointLoad;
using fabric::FabricConfig;
using fabric::FabricError;
using fabric::FabricResult;
using fabric::ShardDescriptor;
using fabric::ShardPlan;
using fabric::ShardRecord;
using faultsim::CampaignSummary;
using faultsim::MemoryCampaignSummary;
using runtime::ComputeContext;
using tensor::Tensor;

/// A new, empty directory of this process's own under the system temp
/// dir. Test binaries of two builds running at once on one host each get
/// their own, so neither removes the other's checkpoints.
std::string make_temp_dir(const std::string& prefix) {
  std::string dir =
      (std::filesystem::temp_directory_path() / (prefix + ".XXXXXX")).string();
  if (::mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + dir);
  }
  return dir;
}

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

/// Judge shared by the monolithic and fabric classify campaigns: pure,
/// stateless, thread-safe.
faultsim::Outcome judge_result(std::size_t, const HybridClassification& r) {
  const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
  const bool faults = aborted || r.conv1_report.detected_errors > 0;
  return faultsim::classify(faults, aborted, !aborted);
}

// ---------------------------------------------------------- shard plan

TEST(ShardPlan, CoversTheRangeWithoutGapsOrOverlap) {
  const ShardPlan plan = fabric::make_shard_plan(103, 10, 777, 42);
  ASSERT_EQ(plan.shards.size(), 11u);
  std::uint64_t expect_begin = 0;
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    const ShardDescriptor& d = plan.shards[k];
    EXPECT_EQ(d.shard_index, k);
    EXPECT_EQ(d.run_begin, expect_begin);
    EXPECT_EQ(d.seed_base, 777u);
    EXPECT_EQ(d.campaign_fingerprint, 42u);
    EXPECT_GT(d.run_end, d.run_begin);
    expect_begin = d.run_end;
  }
  EXPECT_EQ(expect_begin, 103u);
  EXPECT_EQ(plan.shards.back().runs(), 3u) << "last shard takes the rest";
}

TEST(ShardPlan, ExactDivisionHasNoRemainderShard) {
  const ShardPlan plan = fabric::make_shard_plan(100, 25, 0, 0);
  ASSERT_EQ(plan.shards.size(), 4u);
  for (const ShardDescriptor& d : plan.shards) EXPECT_EQ(d.runs(), 25u);
}

TEST(ShardPlan, ZeroShardSizeThrows) {
  EXPECT_THROW(fabric::make_shard_plan(10, 0, 0, 0), std::invalid_argument);
}

TEST(ShardPlan, EmptyCampaignYieldsEmptyPlan) {
  EXPECT_TRUE(fabric::make_shard_plan(0, 8, 0, 0).shards.empty());
}

TEST(ShardPlan, FingerprintSeparatesCampaignIdentities) {
  const std::uint64_t base = fabric::campaign_fingerprint("tag", 100, 10, 7);
  EXPECT_NE(base, fabric::campaign_fingerprint("other", 100, 10, 7));
  EXPECT_NE(base, fabric::campaign_fingerprint("tag", 101, 10, 7));
  EXPECT_NE(base, fabric::campaign_fingerprint("tag", 100, 11, 7));
  EXPECT_NE(base, fabric::campaign_fingerprint("tag", 100, 10, 8));
  EXPECT_EQ(base, fabric::campaign_fingerprint("tag", 100, 10, 7))
      << "same identity must always fingerprint the same";
}

// -------------------------------------------------------------- codecs

TEST(SummaryCodec, ClassifySummaryRoundTrips) {
  CampaignSummary s;
  s.runs = 11;
  s.correct = 7;
  s.corrected = 2;
  s.detected_abort = 1;
  s.silent_corruption = 1;
  std::vector<std::uint8_t> bytes;
  fabric::SummaryCodec<CampaignSummary>::encode(s, bytes);
  EXPECT_EQ(bytes.size(), 40u);
  CampaignSummary back;
  ASSERT_TRUE(fabric::SummaryCodec<CampaignSummary>::decode(
      bytes.data(), bytes.size(), back));
  EXPECT_EQ(back, s);
  EXPECT_FALSE(fabric::SummaryCodec<CampaignSummary>::decode(
      bytes.data(), bytes.size() - 1, back))
      << "a short payload is a codec-version mismatch, never a merge";
}

TEST(SummaryCodec, MemorySummaryRoundTrips) {
  MemoryCampaignSummary s;
  s.runs = 9;
  s.intact = 3;
  s.corrected = 2;
  s.uncorrectable = 1;
  s.qualifier_caught = 2;
  s.silent_corruption = 1;
  s.bits_flipped = 123;
  s.ecc_corrected_data = 45;
  s.ecc_corrected_check = 6;
  s.ecc_uncorrectable_words = 7;
  std::vector<std::uint8_t> bytes;
  fabric::SummaryCodec<MemoryCampaignSummary>::encode(s, bytes);
  EXPECT_EQ(bytes.size(), 80u);
  MemoryCampaignSummary back;
  ASSERT_TRUE(fabric::SummaryCodec<MemoryCampaignSummary>::decode(
      bytes.data(), bytes.size(), back));
  EXPECT_EQ(back, s);
}

// ------------------------------------------------------ checkpoint log

class CheckpointLog : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir("hybridcnn_fabric_ckpt_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  static std::vector<ShardRecord> sample_records() {
    std::vector<ShardRecord> records(3);
    records[0].shard_index = 0;
    records[0].payload = {1, 2, 3, 4, 5};
    records[1].shard_index = 1;
    records[1].payload = {9};
    records[2].shard_index = 2;
    records[2].payload = {7, 7, 7, 7, 7, 7, 7, 7, 0};
    return records;
  }

  std::string dir_;
};

TEST_F(CheckpointLog, SaveLoadRoundTrips) {
  const auto records = sample_records();
  fabric::save_checkpoint(path("c.bin"), 0xABCDu, 5, records);
  const CheckpointLoad load = fabric::load_checkpoint(path("c.bin"), 0xABCDu, 5);
  ASSERT_TRUE(load.usable);
  ASSERT_EQ(load.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(load.records[i].shard_index, records[i].shard_index);
    EXPECT_EQ(load.records[i].payload, records[i].payload);
  }
  EXPECT_EQ(load.dropped_bytes, 0u);
}

TEST_F(CheckpointLog, EmptyRecordSetRoundTrips) {
  fabric::save_checkpoint(path("c.bin"), 1, 4, {});
  const CheckpointLoad load = fabric::load_checkpoint(path("c.bin"), 1, 4);
  EXPECT_TRUE(load.usable);
  EXPECT_TRUE(load.records.empty());
}

TEST_F(CheckpointLog, MissingFileIsNotUsable) {
  const CheckpointLoad load = fabric::load_checkpoint(path("absent.bin"), 1, 4);
  EXPECT_FALSE(load.usable);
  EXPECT_TRUE(load.records.empty());
}

TEST_F(CheckpointLog, WrongIdentityIsNotUsable) {
  fabric::save_checkpoint(path("c.bin"), 0xABCDu, 5, sample_records());
  EXPECT_FALSE(fabric::load_checkpoint(path("c.bin"), 0xABCEu, 5).usable)
      << "fingerprint mismatch";
  EXPECT_FALSE(fabric::load_checkpoint(path("c.bin"), 0xABCDu, 6).usable)
      << "shard-count mismatch";
}

TEST_F(CheckpointLog, EveryHeaderByteFlipIsRejected) {
  fabric::save_checkpoint(path("c.bin"), 0xABCDu, 5, sample_records());
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(util::read_file(path("c.bin"), bytes));
  constexpr std::size_t kHeaderBytes = 24;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[i] ^= 0x40;
    util::atomic_write_file(path("m.bin"), mutated);
    EXPECT_FALSE(fabric::load_checkpoint(path("m.bin"), 0xABCDu, 5).usable)
        << "header byte " << i;
  }
}

TEST_F(CheckpointLog, TruncationAtEveryByteBoundaryRecoversAPrefix) {
  // The torn-write model: a crash can leave any prefix of the file.
  // Whatever survives must parse to an exact prefix of the records —
  // never garbage, never a partial record.
  const auto records = sample_records();
  fabric::save_checkpoint(path("c.bin"), 0xABCDu, 5, records);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(util::read_file(path("c.bin"), bytes));

  // Record frame end offsets after the 24-byte header (12-byte record
  // header + payload each).
  std::vector<std::size_t> frame_end;
  std::size_t off = 24;
  for (const ShardRecord& r : records) {
    off += 12 + r.payload.size();
    frame_end.push_back(off);
  }
  ASSERT_EQ(off, bytes.size());

  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    util::atomic_write_file(
        path("t.bin"),
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    const CheckpointLoad load =
        fabric::load_checkpoint(path("t.bin"), 0xABCDu, 5);
    if (len < 24) {
      EXPECT_FALSE(load.usable) << "truncated header at " << len;
      continue;
    }
    ASSERT_TRUE(load.usable) << "intact header at " << len;
    std::size_t expect = 0;
    while (expect < frame_end.size() && frame_end[expect] <= len) ++expect;
    ASSERT_EQ(load.records.size(), expect) << "truncated at " << len;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(load.records[i].shard_index, records[i].shard_index);
      EXPECT_EQ(load.records[i].payload, records[i].payload);
    }
  }
}

TEST_F(CheckpointLog, EveryRecordByteFlipDropsTheTailOnly) {
  // Bit rot anywhere in the record region must truncate the recovered
  // set at the damaged record: earlier records survive bit-exact,
  // nothing after the damage is ever trusted.
  const auto records = sample_records();
  fabric::save_checkpoint(path("c.bin"), 0xABCDu, 5, records);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(util::read_file(path("c.bin"), bytes));

  std::vector<std::size_t> frame_end;
  std::size_t off = 24;
  for (const ShardRecord& r : records) {
    off += 12 + r.payload.size();
    frame_end.push_back(off);
  }

  for (std::size_t pos = 24; pos < bytes.size(); ++pos) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0x08;
    util::atomic_write_file(path("m.bin"), mutated);
    const CheckpointLoad load =
        fabric::load_checkpoint(path("m.bin"), 0xABCDu, 5);
    ASSERT_TRUE(load.usable);
    // The record containing the flipped byte.
    std::size_t damaged = 0;
    while (frame_end[damaged] <= pos) ++damaged;
    ASSERT_EQ(load.records.size(), damaged) << "flip at " << pos;
    for (std::size_t i = 0; i < damaged; ++i) {
      EXPECT_EQ(load.records[i].shard_index, records[i].shard_index);
      EXPECT_EQ(load.records[i].payload, records[i].payload);
    }
  }
}

TEST_F(CheckpointLog, DuplicateAndOutOfRangeRecordsStopTheScan) {
  auto records = sample_records();
  records[2].shard_index = 1;  // duplicate of records[1]
  fabric::save_checkpoint(path("dup.bin"), 1, 5, records);
  const CheckpointLoad dup = fabric::load_checkpoint(path("dup.bin"), 1, 5);
  ASSERT_TRUE(dup.usable);
  EXPECT_EQ(dup.records.size(), 2u);

  records = sample_records();
  records[1].shard_index = 9;  // outside the 5-shard plan
  fabric::save_checkpoint(path("oob.bin"), 1, 5, records);
  const CheckpointLoad oob = fabric::load_checkpoint(path("oob.bin"), 1, 5);
  ASSERT_TRUE(oob.usable);
  EXPECT_EQ(oob.records.size(), 1u);
}

TEST_F(CheckpointLog, AppendedFramesTruncatedAtEveryByteRecoverAPrefix) {
  // The coordinator saves once per run, then appends batches of frames
  // in completion order, one frame per call or several in one group
  // commit. A crash mid-append can leave any prefix of the appended
  // frames: the loader must recover exactly the frames that are whole,
  // returned in shard-index order.
  auto records = sample_records();
  records[0].shard_index = 3;  // completion order 3, 1, 4, 0
  records.push_back({4, {6, 6}});
  records.push_back({0, {}});
  for (const bool group : {false, true}) {
    SCOPED_TRACE(group ? "one group append" : "one append per frame");
    fabric::save_checkpoint(path("c.bin"), 0xABCDu, 5, {records[0]});
    if (group) {
      fabric::append_checkpoint_records(
          path("c.bin"), std::vector<ShardRecord>(records.begin() + 1,
                                                  records.end()));
    } else {
      for (std::size_t k = 1; k < records.size(); ++k) {
        fabric::append_checkpoint_records(path("c.bin"), {records[k]});
      }
    }
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(util::read_file(path("c.bin"), bytes));

    std::vector<std::size_t> frame_end;
    std::size_t off = 24;
    for (const ShardRecord& r : records) {
      off += 12 + r.payload.size();
      frame_end.push_back(off);
    }
    ASSERT_EQ(off, bytes.size());

    for (std::size_t len = frame_end[0]; len <= bytes.size(); ++len) {
      util::atomic_write_file(
          path("t.bin"),
          std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
      const CheckpointLoad load =
          fabric::load_checkpoint(path("t.bin"), 0xABCDu, 5);
      ASSERT_TRUE(load.usable) << "truncated at " << len;
      std::size_t whole = 0;
      while (whole < frame_end.size() && frame_end[whole] <= len) ++whole;
      std::vector<ShardRecord> expect(records.begin(),
                                      records.begin() + whole);
      std::ranges::sort(expect, {}, &ShardRecord::shard_index);
      ASSERT_EQ(load.records.size(), expect.size()) << "truncated at " << len;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(load.records[i].shard_index, expect[i].shard_index)
            << "truncated at " << len;
        EXPECT_EQ(load.records[i].payload, expect[i].payload)
            << "truncated at " << len;
      }
      EXPECT_EQ(load.dropped_bytes, len - frame_end[whole - 1]);
    }
  }
}

// --------------------------------------- coordinator (synthetic shards)

/// Pure synthetic workload: the "summary" of a shard is a function of
/// its descriptor alone, so coordinator semantics can be tested without
/// network inference.
CampaignSummary synthetic_shard(const ShardDescriptor& d) {
  CampaignSummary s;
  s.runs = d.runs();
  for (std::uint64_t i = d.run_begin; i < d.run_end; ++i) {
    switch (i % 3) {
      case 0: ++s.correct; break;
      case 1: ++s.corrected; break;
      default: ++s.silent_corruption; break;
    }
  }
  return s;
}

CampaignSummary synthetic_expected(std::uint64_t runs) {
  ShardDescriptor whole;
  whole.run_begin = 0;
  whole.run_end = runs;
  return synthetic_shard(whole);
}

class Coordinator : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir("hybridcnn_fabric_coord_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

TEST_F(Coordinator, MergesShardsInOrderAcrossWorkerCounts) {
  constexpr std::uint64_t kRuns = 103;
  const CampaignSummary expected = synthetic_expected(kRuns);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const std::uint64_t shard_size : {1u, 7u, 103u, 200u}) {
      FabricConfig cfg;
      cfg.shard_size = shard_size;
      cfg.workers = workers;
      const FabricResult<CampaignSummary> r =
          fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.summary, expected)
          << workers << " workers, shard size " << shard_size;
      EXPECT_EQ(r.stats.shards_total, (kRuns + shard_size - 1) / shard_size);
      EXPECT_EQ(r.stats.shards_executed, r.stats.shards_total);
      EXPECT_EQ(r.stats.shards_resumed, 0u);
      EXPECT_FALSE(r.stats.halted);
    }
  }
}

TEST_F(Coordinator, ZeroRunCampaignCompletesEmpty) {
  const FabricResult<CampaignSummary> r =
      fabric::run_fabric<CampaignSummary>(FabricConfig{}, 0, 5,
                                          synthetic_shard);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.summary, CampaignSummary{});
  EXPECT_EQ(r.stats.shards_total, 0u);
}

TEST_F(Coordinator, PermanentFailureThrowsTheLowestFailingShard) {
  FabricConfig cfg;
  cfg.shard_size = 4;
  cfg.workers = 2;
  cfg.checkpoint_path = path("ckpt.bin");
  constexpr std::uint64_t kRuns = 24;  // 6 shards
  std::vector<std::atomic<int>> attempts(6);
  cfg.attempt_hook = [&attempts](const ShardDescriptor& d) {
    attempts[d.shard_index].fetch_add(1);
    if (d.shard_index == 1 || d.shard_index == 3) {
      throw std::runtime_error("dead shard");
    }
  };
  try {
    (void)fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
    FAIL() << "expected FabricError";
  } catch (const FabricError& e) {
    EXPECT_EQ(e.shard_index(), 1u) << "the lowest failing shard surfaces";
  }
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    EXPECT_EQ(attempts[i].load(), 1) << "shard " << i << " runs exactly once";
  }

  // The healthy shards reached the checkpoint before the failure was
  // declared; dropping the crash hook resumes and completes from them.
  cfg.attempt_hook = nullptr;
  const FabricResult<CampaignSummary> r =
      fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.summary, synthetic_expected(kRuns));
  EXPECT_EQ(r.stats.shards_resumed, 4u);
  EXPECT_EQ(r.stats.shards_executed, 2u);
}

TEST_F(Coordinator, CheckpointWriteFailureThrowsInTheCaller) {
  // The checkpoint's parent directory does not exist, so the run's first
  // durable write fails while workers run shards; the error must stop
  // them and surface in the caller's thread instead of terminating the
  // process.
  FabricConfig cfg;
  cfg.shard_size = 4;
  cfg.workers = 2;
  cfg.checkpoint_path = path("missing_dir/ckpt.bin");
  EXPECT_THROW(
      (void)fabric::run_fabric<CampaignSummary>(cfg, 24, 5, synthetic_shard),
      std::runtime_error);

  // One worker and slow shards: the header write fails before any shard
  // completes, so the worker stops claiming instead of finishing the
  // plan, and the caller still rethrows.
  cfg.workers = 1;
  std::atomic<int> attempts{0};
  cfg.attempt_hook = [&attempts](const ShardDescriptor&) {
    attempts.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  EXPECT_THROW(
      (void)fabric::run_fabric<CampaignSummary>(cfg, 24, 5, synthetic_shard),
      std::runtime_error);
  EXPECT_LT(attempts.load(), 6) << "a failed write stops claims";
}

TEST_F(Coordinator, CheckpointFileHoldsEveryShardAfterCompletion) {
  FabricConfig cfg;
  cfg.shard_size = 5;
  cfg.workers = 2;
  cfg.checkpoint_path = path("ckpt.bin");
  constexpr std::uint64_t kRuns = 23;  // 5 shards
  const FabricResult<CampaignSummary> r =
      fabric::run_fabric<CampaignSummary>(cfg, kRuns, 9, synthetic_shard);
  ASSERT_TRUE(r.complete);

  const std::uint64_t fp = fabric::campaign_fingerprint(
      fabric::SummaryCodec<CampaignSummary>::kTag, kRuns, cfg.shard_size, 9);
  const CheckpointLoad load =
      fabric::load_checkpoint(cfg.checkpoint_path, fp, 5);
  ASSERT_TRUE(load.usable);
  ASSERT_EQ(load.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(load.records[i].shard_index, i) << "shard-index order on disk";
  }

  // A second coordinator over the same campaign resumes everything.
  const FabricResult<CampaignSummary> again =
      fabric::run_fabric<CampaignSummary>(cfg, kRuns, 9, synthetic_shard);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.summary, r.summary);
  EXPECT_EQ(again.stats.shards_resumed, 5u);
  EXPECT_EQ(again.stats.shards_executed, 0u);
}

TEST_F(Coordinator, ForeignCheckpointIsIgnoredNotMerged) {
  // A checkpoint from a different campaign (different fingerprint) at
  // the same path must be ignored wholesale — resuming from it would
  // merge wrong results.
  FabricConfig cfg;
  cfg.shard_size = 5;
  cfg.checkpoint_path = path("ckpt.bin");
  constexpr std::uint64_t kRuns = 20;
  std::vector<ShardRecord> foreign(1);
  foreign[0].shard_index = 0;
  foreign[0].payload.assign(40, 0xEE);
  fabric::save_checkpoint(cfg.checkpoint_path, 0xDEADu, 4, foreign);

  const FabricResult<CampaignSummary> r =
      fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.summary, synthetic_expected(kRuns));
  EXPECT_EQ(r.stats.shards_resumed, 0u);
  EXPECT_EQ(r.stats.shards_executed, 4u);
}

TEST_F(Coordinator, UndecodableResumedPayloadIsReRun) {
  // Right fingerprint, CRC-valid record, but a payload the codec
  // rejects (wrong size): the shard must be re-executed, not trusted.
  FabricConfig cfg;
  cfg.shard_size = 5;
  cfg.checkpoint_path = path("ckpt.bin");
  constexpr std::uint64_t kRuns = 20;
  const std::uint64_t fp = fabric::campaign_fingerprint(
      fabric::SummaryCodec<CampaignSummary>::kTag, kRuns, cfg.shard_size, 5);
  std::vector<ShardRecord> bogus(1);
  bogus[0].shard_index = 2;
  bogus[0].payload.assign(7, 0x11);  // not a 40-byte summary
  fabric::save_checkpoint(cfg.checkpoint_path, fp, 4, bogus);

  const FabricResult<CampaignSummary> r =
      fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.summary, synthetic_expected(kRuns));
  EXPECT_EQ(r.stats.shards_resumed, 0u);
  EXPECT_EQ(r.stats.shards_executed, 4u);
}

TEST_F(Coordinator, HaltLeavesExactlyKDurableShards) {
  // halt_after_shards=k models SIGKILL at a shard boundary: the
  // checkpoint must hold exactly the first k durable completions. With
  // 1-run shards completions queue faster than they are written, so a
  // group commit can straddle the halt and must be cut there.
  constexpr std::uint64_t kRuns = 20;
  for (const auto& [shard_size, workers] :
       std::vector<std::pair<std::uint64_t, std::size_t>>{
           {5, 2}, {1, 1}, {1, 4}}) {
    const std::size_t shards = kRuns / shard_size;
    for (std::size_t k = 0; k <= shards; ++k) {
      SCOPED_TRACE("shard size " + std::to_string(shard_size) + ", " +
                   std::to_string(workers) + " workers, halt " +
                   std::to_string(k));
      FabricConfig cfg;
      cfg.shard_size = shard_size;
      cfg.workers = workers;
      cfg.checkpoint_path = path("halt_" + std::to_string(shard_size) + "_" +
                                 std::to_string(workers) + "_" +
                                 std::to_string(k) + ".bin");
      cfg.halt_after_shards = k;
      const FabricResult<CampaignSummary> r =
          fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
      if (k < shards) {
        EXPECT_FALSE(r.complete);
        EXPECT_TRUE(r.stats.halted);
      } else {
        EXPECT_TRUE(r.complete) << "halt at the end completes";
      }
      EXPECT_EQ(r.stats.shards_executed, k);
      const std::uint64_t fp = fabric::campaign_fingerprint(
          fabric::SummaryCodec<CampaignSummary>::kTag, kRuns, cfg.shard_size,
          5);
      const CheckpointLoad load = fabric::load_checkpoint(
          cfg.checkpoint_path, fp, static_cast<std::uint32_t>(shards));
      if (k == 0) {
        EXPECT_FALSE(load.usable) << "no completion, no checkpoint file";
      } else {
        ASSERT_TRUE(load.usable);
        EXPECT_EQ(load.records.size(), k);
        EXPECT_EQ(load.dropped_bytes, 0u);
      }
    }
  }
}

TEST_F(Coordinator, TornResumeIsCompactedBeforeAppending) {
  // A kill mid-append tears the last frame. The resumed run's first
  // write replaces the file with every durable record, so the frames it
  // appends afterwards follow whole records, not the torn bytes.
  constexpr std::uint64_t kRuns = 30;  // 6 shards
  const std::uint64_t fp = fabric::campaign_fingerprint(
      fabric::SummaryCodec<CampaignSummary>::kTag, kRuns, 5, 5);
  for (std::size_t k = 1; k <= 5; ++k) {
    FabricConfig cfg;
    cfg.shard_size = 5;
    cfg.workers = 2;
    cfg.checkpoint_path = path("torn_" + std::to_string(k) + ".bin");
    cfg.halt_after_shards = k;
    (void)fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(util::read_file(cfg.checkpoint_path, bytes));
    bytes.resize(bytes.size() - 3);
    util::atomic_write_file(cfg.checkpoint_path, bytes);

    cfg.halt_after_shards = std::numeric_limits<std::size_t>::max();
    const FabricResult<CampaignSummary> r =
        fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
    EXPECT_TRUE(r.complete) << "halt " << k;
    EXPECT_EQ(r.summary, synthetic_expected(kRuns)) << "halt " << k;
    EXPECT_EQ(r.stats.shards_resumed, k - 1) << "the torn frame is re-run";

    const CheckpointLoad load =
        fabric::load_checkpoint(cfg.checkpoint_path, fp, 6);
    ASSERT_TRUE(load.usable) << "halt " << k;
    ASSERT_EQ(load.records.size(), 6u) << "halt " << k;
    EXPECT_EQ(load.dropped_bytes, 0u) << "torn tail compacted, halt " << k;
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(load.records[i].shard_index, i);
    }
  }
}

TEST_F(Coordinator, ForeignCheckpointIsReplacedNotAppendedTo) {
  FabricConfig cfg;
  cfg.shard_size = 5;
  cfg.workers = 2;
  cfg.checkpoint_path = path("ckpt.bin");
  constexpr std::uint64_t kRuns = 20;  // 4 shards
  std::vector<ShardRecord> foreign(1);
  foreign[0].shard_index = 0;
  foreign[0].payload.assign(40, 0xEE);
  fabric::save_checkpoint(cfg.checkpoint_path, 0xDEADu, 4, foreign);

  const FabricResult<CampaignSummary> r =
      fabric::run_fabric<CampaignSummary>(cfg, kRuns, 5, synthetic_shard);
  ASSERT_TRUE(r.complete);
  const std::uint64_t fp = fabric::campaign_fingerprint(
      fabric::SummaryCodec<CampaignSummary>::kTag, kRuns, cfg.shard_size, 5);
  const CheckpointLoad load =
      fabric::load_checkpoint(cfg.checkpoint_path, fp, 4);
  ASSERT_TRUE(load.usable) << "the campaign's own header replaced the file";
  EXPECT_EQ(load.records.size(), 4u);
  EXPECT_EQ(load.dropped_bytes, 0u) << "no foreign bytes left behind";
  EXPECT_FALSE(fabric::load_checkpoint(cfg.checkpoint_path, 0xDEADu, 4).usable);
}

// --------------------------------------- fabric vs monolithic campaigns

class FabricEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir("hybridcnn_fabric_equiv_test");
  }
  void TearDown() override {
    ComputeContext::set_global_threads(1);
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

TEST_F(FabricEquivalence, ShardedClassifyCampaignMatchesMonolithic) {
  // The headline contract: any (shard size, worker count, pool thread
  // count) produces the bits of the single-thread monolithic campaign.
  HybridConfig hcfg;
  hcfg.fault_config.kind = faultsim::FaultKind::kTransient;
  hcfg.fault_config.probability = 1e-4;
  const HybridNetwork net(make_testnet(), 0, hcfg);
  const Tensor img = stop_image();
  constexpr std::size_t kRuns = 24;

  FaultSeedStream seeds = net.seed_stream();
  const std::uint64_t seed_base = seeds.take_block(kRuns);
  const CampaignSummary mono =
      net.classify_campaign_range(img, 0, kRuns, seed_base, judge_result);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    for (const auto& [shard_size, workers] :
         std::vector<std::pair<std::uint64_t, std::size_t>>{
             {7, 2}, {24, 1}, {64, 3}}) {
      FabricConfig cfg;
      cfg.shard_size = shard_size;
      cfg.workers = workers;
      const FabricResult<CampaignSummary> r = fabric::run_classify_campaign(
          net, img, kRuns, seed_base, judge_result, cfg);
      ASSERT_TRUE(r.complete);
      EXPECT_EQ(r.summary, mono) << threads << " threads, shard "
                                 << shard_size << ", workers " << workers;
    }
  }
}

TEST_F(FabricEquivalence, ShardedMemoryCampaignMatchesMonolithic) {
  // Scrub cadence keys on the GLOBAL run index, so a shard size that is
  // not a multiple of the scrub interval is the adversarial case.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();
  MemoryCampaignConfig mcfg;
  mcfg.model.exact_flips = 2;
  mcfg.scrub_interval = 3;
  mcfg.ecc = true;
  const MemoryFaultCampaign campaign(net, mcfg);
  constexpr std::size_t kRuns = 20;

  FaultSeedStream seeds = net.seed_stream();
  const std::uint64_t seed_base = seeds.peek();
  const MemoryCampaignSummary mono =
      campaign.run_range(img, 0, kRuns, seeds.take_block(kRuns));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    FabricConfig cfg;
    cfg.shard_size = 7;  // not a multiple of scrub_interval 3
    cfg.workers = 2;
    const FabricResult<MemoryCampaignSummary> r =
        fabric::run_memory_campaign(campaign, img, kRuns, seed_base, cfg);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.summary, mono) << threads << " threads";
  }
}

TEST_F(FabricEquivalence, EveryKillPointResumesBitIdentically) {
  // The acceptance criterion: kill the coordinator after every possible
  // number of durable shards, restart with --resume semantics, and the
  // final merged summary must equal the uninterrupted monolithic run —
  // for rate-driven and exact-count memory-fault models, at 1/2/8
  // threads.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();
  constexpr std::size_t kRuns = 10;
  constexpr std::uint64_t kShardSize = 2;  // 5 shards

  MemoryCampaignConfig rate_cfg;
  rate_cfg.model.bit_error_rate = 1e-4;
  rate_cfg.ecc = true;
  rate_cfg.scrub_interval = 3;
  MemoryCampaignConfig exact_cfg;
  exact_cfg.model.exact_flips = 2;
  exact_cfg.scrub_interval = 2;

  int variant = 0;
  for (const MemoryCampaignConfig& mcfg : {rate_cfg, exact_cfg}) {
    SCOPED_TRACE(variant++);
    const MemoryFaultCampaign campaign(net, mcfg);
    FaultSeedStream seeds = net.seed_stream();
    const std::uint64_t seed_base = seeds.peek();
    const MemoryCampaignSummary mono =
        campaign.run_range(img, 0, kRuns, seeds.take_block(kRuns));

    for (const std::size_t threads : {1u, 2u, 8u}) {
      ComputeContext::set_global_threads(threads);
      // 1-run shards let completions queue up behind the checkpoint
      // writer, so the kill points fall inside group commits.
      for (const auto& [shard_size, workers] :
           std::vector<std::pair<std::uint64_t, std::size_t>>{
               {kShardSize, 2}, {1, 1}, {1, 4}}) {
        const std::size_t shards = kRuns / shard_size;
        for (std::size_t kill = 0; kill <= shards; ++kill) {
          FabricConfig cfg;
          cfg.shard_size = shard_size;
          cfg.workers = workers;
          cfg.checkpoint_path = path("kill.bin");
          std::filesystem::remove(cfg.checkpoint_path);

          FabricConfig killed = cfg;
          killed.halt_after_shards = kill;
          const FabricResult<MemoryCampaignSummary> first =
              fabric::run_memory_campaign(campaign, img, kRuns, seed_base,
                                          killed);
          EXPECT_EQ(first.complete, kill >= shards);

          const FabricResult<MemoryCampaignSummary> resumed =
              fabric::run_memory_campaign(campaign, img, kRuns, seed_base,
                                          cfg);
          ASSERT_TRUE(resumed.complete);
          EXPECT_EQ(resumed.summary, mono)
              << "kill after " << kill << " shards at " << threads
              << " threads, shard size " << shard_size << ", " << workers
              << " workers";
          EXPECT_EQ(resumed.stats.shards_resumed, kill);
          EXPECT_EQ(resumed.stats.shards_executed, shards - kill);
        }
      }
    }
  }
}

TEST_F(FabricEquivalence, ClassifyCampaignKillPointsResumeBitIdentically) {
  HybridConfig hcfg;
  hcfg.fault_config.kind = faultsim::FaultKind::kTransient;
  hcfg.fault_config.probability = 1e-4;
  const HybridNetwork net(make_testnet(), 0, hcfg);
  const Tensor img = stop_image();
  constexpr std::size_t kRuns = 12;
  constexpr std::uint64_t kShardSize = 3;  // 4 shards

  FaultSeedStream seeds = net.seed_stream();
  const std::uint64_t seed_base = seeds.take_block(kRuns);
  const CampaignSummary mono =
      net.classify_campaign_range(img, 0, kRuns, seed_base, judge_result);

  ComputeContext::set_global_threads(2);
  for (std::size_t kill = 0; kill <= 4; ++kill) {
    FabricConfig cfg;
    cfg.shard_size = kShardSize;
    cfg.workers = 2;
    cfg.checkpoint_path = path("kill_classify.bin");
    std::filesystem::remove(cfg.checkpoint_path);

    FabricConfig killed = cfg;
    killed.halt_after_shards = kill;
    (void)fabric::run_classify_campaign(net, img, kRuns, seed_base,
                                        judge_result, killed);

    const FabricResult<CampaignSummary> resumed =
        fabric::run_classify_campaign(net, img, kRuns, seed_base,
                                      judge_result, cfg);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.summary, mono) << "kill after " << kill << " shards";
    EXPECT_EQ(resumed.stats.shards_resumed, kill);
  }
}

}  // namespace
