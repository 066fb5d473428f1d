// util substrate: deterministic RNG, CSV/table emitters, image IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/crc32c.hpp"
#include "util/csv.hpp"
#include "util/image_io.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using hybridcnn::util::CsvWriter;
using hybridcnn::util::GrayImage;
using hybridcnn::util::read_pgm;
using hybridcnn::util::RgbImage;
using hybridcnn::util::Rng;
using hybridcnn::util::Table;
using hybridcnn::util::write_pgm;
using hybridcnn::util::write_ppm;

TEST(Rng, DeterministicForSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsDiffer) {
  Rng a(123, 0);
  Rng b(123, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(10);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(12);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRateApproximatesP) {
  Rng rng(14);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, GoldenStreamIsPinned) {
  // Values recorded before the draw methods moved inline into the header.
  // The uniform(lo, hi) span is a power of two, so the product is exact
  // and the pin holds whether or not the build contracts it into an FMA.
  struct Golden {
    std::uint64_t seed, stream;
    std::uint32_t raw[6];
    std::uint64_t uniform[3], uniform_lo_hi[3], normal[3];
  };
  const Golden goldens[] = {
      {42,
       0xFA17,  // the fault injector's stream
       {0x053877A7U, 0xCA692C9DU, 0x20CDFF5CU, 0x5AD62BADU, 0x61656549U,
        0x6590B612U},
       {0x3FBAA52E1667DFB0ULL, 0x3FCA4EB102C83DC8ULL, 0x3FE308C992842B98ULL},
       {0x40000DDEBD4FB8C7ULL, 0x3FF327874A521B92ULL, 0xBFED2F834F1A004CULL},
       {0xBFE3B0FFF38B2838ULL, 0x3FE16EAA43F02AA6ULL,
        0x3FC72352F9E399E1ULL}},
      {0x853C49E6748FEA9BULL,
       7,
       {0xEE74B8C1U, 0xDE552CA3U, 0x470F5A56U, 0xCB74E3D4U, 0x7E6BBF45U,
        0x6A384B6BU},
       {0x3FB0A90FFB064C90ULL, 0x3FE522E1F04BEEDBULL, 0x3FB970EF003DCD50ULL},
       {0x3FBA0932663DDA60ULL, 0xBFE1DC9DA8AADD24ULL, 0xBFE27D8A92AADDE0ULL},
       {0x4000B67700056EF8ULL, 0x3FF17CA372ABF759ULL,
        0x3FEE2508C27A00E4ULL}},
  };
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.stream);
    Rng rng(g.seed, g.stream);
    for (const std::uint32_t want : g.raw) EXPECT_EQ(rng(), want);
    for (const std::uint64_t want : g.uniform) {
      EXPECT_EQ(bits(rng.uniform()), want);
    }
    for (const std::uint64_t want : g.uniform_lo_hi) {
      EXPECT_EQ(bits(rng.uniform(-1.5, 2.5)), want);
    }
    for (const std::uint64_t want : g.normal) {
      EXPECT_EQ(bits(rng.normal()), want);
    }
  }
}

/// Leading misses of the per-call bernoulli(p) loop, on a copy.
std::uint64_t per_call_misses(Rng rng, double p, std::uint64_t cap) {
  std::uint64_t misses = 0;
  while (misses < cap && !rng.bernoulli(p)) ++misses;
  return misses;
}

/// The 53-bit draw of the trial `k` uniform() calls past `rng`.
std::uint64_t trial_bits53(Rng rng, std::uint64_t k) {
  rng.skip_uniforms(k);
  const std::uint64_t hi = rng();
  const std::uint64_t lo = rng();
  return ((hi << 21) ^ lo) & ((1ULL << 53) - 1);
}

TEST(Rng, BernoulliMissesMatchesScalarScanAndPerCallLoop) {
  // The vector scan, its scalar fallback and the per-call loop must agree
  // on every p class bernoulli() distinguishes and on caps around the
  // scan's step width, also from a skipped-ahead origin; no scan may draw.
  constexpr std::uint64_t lanes = hybridcnn::util::detail::kScanLanes;
  const std::vector<std::uint64_t> caps = {
      0, 1, lanes - 1, lanes, lanes + 1, 4 * lanes + 3, 20000};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed, 0xFA17);
    (void)rng();  // odd draw offset: trials straddle the two-draw grid
    std::vector<double> ps = {std::nan(""), -1.0, 0.0, 1e-300, 1e-6,
                              1e-4, 0.3, 1.0 - 0x1p-30, 1.0 - 0x1p-53,
                              1.0, 2.0};
    // Boundary-bucket probabilities: trial k (0 or inside the scan) lands
    // exactly on T (a miss) or T - 1 (a hit), so only its low draw decides.
    for (const std::uint64_t k : {std::uint64_t{0}, seed % (4 * lanes + 3)}) {
      const std::uint64_t bits53 = trial_bits53(rng, k);
      if (bits53 == 0) continue;
      ps.push_back(std::ldexp(static_cast<double>(bits53), -53));
      ps.push_back(std::ldexp(static_cast<double>(bits53 + 1), -53));
    }
    for (const double p : ps) {
      for (const std::uint64_t cap : caps) {
        const std::uint64_t want = per_call_misses(rng, p, cap);
        ASSERT_EQ(rng.bernoulli_misses(p, cap), want)
            << "seed " << seed << " p " << p << " cap " << cap;
        ASSERT_EQ(hybridcnn::util::detail::scalar_bernoulli_misses(rng, p, cap),
                  want)
            << "seed " << seed << " p " << p << " cap " << cap;
        Rng ahead = rng;
        ahead.skip_uniforms(3);
        ASSERT_EQ(rng.bernoulli_misses(p, cap, 3),
                  per_call_misses(ahead, p, cap))
            << "seed " << seed << " p " << p << " cap " << cap << " skip 3";
      }
    }
    Rng untouched(seed, 0xFA17);
    (void)untouched();
    for (int i = 0; i < 4; ++i) ASSERT_EQ(rng(), untouched());
  }
}

TEST(Rng, BernoulliMissesDecidesOnTheLowDraw) {
  // Probabilities placed exactly at the next trial's 53-bit draw, so the
  // high draw alone cannot settle it: T = bits53 misses, T = bits53 + 1
  // hits. Either shortcut on the high draw gets one of them wrong.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const Rng rng(seed, 0xFA17);
    const std::uint64_t bits53 = trial_bits53(rng, 0);
    if (bits53 == 0) continue;
    const double miss_p = std::ldexp(static_cast<double>(bits53), -53);
    const double hit_p = std::ldexp(static_cast<double>(bits53 + 1), -53);
    EXPECT_FALSE(Rng(rng).bernoulli(miss_p));
    EXPECT_TRUE(Rng(rng).bernoulli(hit_p));
    EXPECT_EQ(rng.bernoulli_misses(miss_p, 1), 1u);
    EXPECT_EQ(rng.bernoulli_misses(hit_p, 1), 0u);
    EXPECT_EQ(hybridcnn::util::detail::scalar_bernoulli_misses(rng, miss_p, 1),
              1u);
    EXPECT_EQ(hybridcnn::util::detail::scalar_bernoulli_misses(rng, hit_p, 1),
              0u);
  }
}

TEST(Rng, SkipUniformsEqualsSteppedTrials) {
  // The jump-ahead must land exactly where k uniform() calls do.
  for (const std::uint64_t seed : {3ULL, 0xFA17ULL}) {
    for (const std::uint64_t k : {0ULL, 1ULL, (1ULL << 20) + 3}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " k " + std::to_string(k));
      Rng stepped(seed, 0xFA17);
      Rng jumped = stepped;
      for (std::uint64_t i = 0; i < k; ++i) (void)stepped.uniform();
      jumped.skip_uniforms(k);
      for (int i = 0; i < 8; ++i) ASSERT_EQ(jumped(), stepped());
    }
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  hybridcnn::util::Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(sw.seconds(), 0.0);
  (void)sink;
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/hybridcnn_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "x,y"});
    csv.row({"2", "quo\"te"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"quo\"\"te\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatch) {
  CsvWriter csv("/tmp/hybridcnn_test2.csv", {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::runtime_error);
  std::remove("/tmp/hybridcnn_test2.csv");
}

TEST(CsvWriter, RejectsUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST(ResultsPath, CreatesDirectory) {
  const std::string p =
      hybridcnn::util::results_path("/tmp/hybridcnn_results_test", "f.csv");
  EXPECT_EQ(p, "/tmp/hybridcnn_results_test/f.csv");
  EXPECT_TRUE(std::filesystem::exists("/tmp/hybridcnn_results_test"));
  std::filesystem::remove_all("/tmp/hybridcnn_results_test");
}

TEST(Table, RendersAlignedRows) {
  Table t("demo", {"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "2.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
}

TEST(Table, RejectsWidthMismatch) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.row({"1"}), std::runtime_error);
}

TEST(Table, FixedFormatsPrecision) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fixed(2.0, 3), "2.000");
}

TEST(ImageIo, PgmRoundTrip) {
  GrayImage img;
  img.width = 5;
  img.height = 3;
  img.pixels = {0,  10,  20,  30,  40,  50,  60, 70,
                80, 90,  100, 150, 200, 250, 255};
  const std::string path = "/tmp/hybridcnn_test.pgm";
  write_pgm(path, img);
  const GrayImage back = read_pgm(path);
  EXPECT_EQ(back.width, img.width);
  EXPECT_EQ(back.height, img.height);
  EXPECT_EQ(back.pixels, img.pixels);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmRejectsSizeMismatch) {
  GrayImage img;
  img.width = 4;
  img.height = 4;
  img.pixels.resize(3);  // wrong
  EXPECT_THROW(write_pgm("/tmp/x.pgm", img), std::runtime_error);
}

TEST(ImageIo, PpmWrites) {
  RgbImage img;
  img.width = 2;
  img.height = 2;
  img.pixels.assign(12, 128);
  const std::string path = "/tmp/hybridcnn_test.ppm";
  write_ppm(path, img);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  std::remove(path.c_str());
}

TEST(ImageIo, ReadPgmRejectsMissingFile) {
  EXPECT_THROW(read_pgm("/tmp/definitely_missing_754.pgm"),
               std::runtime_error);
}

// ------------------------------------------------------------- crc32c

TEST(Crc32c, KnownAnswerVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix B / "check"
  // column of the Castagnoli polynomial): crc32c("123456789").
  const char msg[] = "123456789";
  EXPECT_EQ(hybridcnn::util::crc32c(msg, 9), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(hybridcnn::util::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, IncrementalChainingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole =
      hybridcnn::util::crc32c(msg.data(), msg.size());
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    const std::uint32_t head = hybridcnn::util::crc32c(msg.data(), split);
    const std::uint32_t chained = hybridcnn::util::crc32c(
        msg.data() + split, msg.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  std::vector<std::uint8_t> data(32, 0xA5);
  const std::uint32_t clean = hybridcnn::util::crc32c(data.data(),
                                                      data.size());
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(hybridcnn::util::crc32c(data.data(), data.size()), clean)
        << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// -------------------------------------------------------- atomic file

TEST(AtomicFile, WriteThenReadRoundTrips) {
  const std::string path = "/tmp/hybridcnn_atomic_test.bin";
  const std::vector<std::uint8_t> payload = {0, 1, 2, 255, 128, 7};
  hybridcnn::util::atomic_write_file(path, payload);
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_EQ(back, payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must not survive a successful write";
  std::remove(path.c_str());
}

TEST(AtomicFile, OverwriteReplacesWholeContent) {
  const std::string path = "/tmp/hybridcnn_atomic_test2.bin";
  hybridcnn::util::atomic_write_file(
      path, std::vector<std::uint8_t>(100, 0xAA));
  hybridcnn::util::atomic_write_file(path, std::vector<std::uint8_t>{1, 2});
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_EQ(back, (std::vector<std::uint8_t>{1, 2}))
      << "no tail of the longer previous file may leak through";
  std::remove(path.c_str());
}

TEST(AtomicFile, EmptyPayloadRoundTrips) {
  const std::string path = "/tmp/hybridcnn_atomic_test3.bin";
  hybridcnn::util::atomic_write_file(path, nullptr, 0);
  std::vector<std::uint8_t> back{9, 9};
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, ReadMissingFileReturnsFalse) {
  std::vector<std::uint8_t> back{1};
  EXPECT_FALSE(hybridcnn::util::read_file(
      "/tmp/definitely_missing_atomic_991.bin", back));
  EXPECT_TRUE(back.empty()) << "a failed read must clear the buffer";
}

TEST(AtomicFile, WriteIntoMissingDirectoryThrows) {
  EXPECT_THROW(hybridcnn::util::atomic_write_file(
                   "/tmp/definitely_missing_dir_991/f.bin",
                   std::vector<std::uint8_t>{1}),
               std::runtime_error);
}

TEST(AtomicFile, AppendDurableExtendsTheFile) {
  const std::string path = "/tmp/hybridcnn_append_test.bin";
  hybridcnn::util::atomic_write_file(path, std::vector<std::uint8_t>{1, 2});
  hybridcnn::util::append_durable(path, std::vector<std::uint8_t>{3});
  hybridcnn::util::append_durable(path, std::vector<std::uint8_t>{4, 5});
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_EQ(back, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  std::remove(path.c_str());
}

TEST(AtomicFile, AppendDurableNeverCreatesTheFile) {
  const std::string path = "/tmp/definitely_missing_append_991.bin";
  EXPECT_THROW(hybridcnn::util::append_durable(
                   path, std::vector<std::uint8_t>{1}),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
