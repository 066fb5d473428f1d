// SAX substrate: z-normalisation, PAA, breakpoints, words, MINDIST and
// its lower-bounding guarantee (the property the qualifier relies on).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "sax/breakpoints.hpp"
#include "sax/mindist.hpp"
#include "sax/paa.hpp"
#include "sax/sax_word.hpp"
#include "sax/shape_match.hpp"
#include "sax/znorm.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybridcnn::sax;
using hybridcnn::util::Rng;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ----------------------------------------------------------------- znorm

TEST(Znorm, MeanZeroStdOne) {
  const std::vector<double> s{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto z = znormalize(s);
  const auto st = series_stats(z);
  EXPECT_NEAR(st.mean, 0.0, 1e-12);
  EXPECT_NEAR(st.stddev, 1.0, 1e-12);
}

TEST(Znorm, ConstantSeriesBecomesZero) {
  const std::vector<double> s{3.0, 3.0, 3.0};
  const auto z = znormalize(s);
  for (const double v : z) EXPECT_EQ(v, 0.0);
}

TEST(Znorm, EmptySeries) {
  EXPECT_TRUE(znormalize({}).empty());
}

TEST(Znorm, StatsOfKnownSeries) {
  const auto st = series_stats({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(st.mean, 5.0, 1e-12);
  EXPECT_NEAR(st.stddev, 2.0, 1e-12);
}

// ------------------------------------------------------------------- paa

TEST(Paa, ExactDivision) {
  const std::vector<double> s{1.0, 3.0, 5.0, 7.0};
  const auto p = paa(s, 2);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 2.0, 1e-12);
  EXPECT_NEAR(p[1], 6.0, 1e-12);
}

TEST(Paa, IdentityWhenSegmentsEqualLength) {
  const std::vector<double> s{1.0, -2.0, 4.0};
  const auto p = paa(s, 3);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p[i], s[i], 1e-12);
}

TEST(Paa, FractionalBoundariesPreserveMean) {
  // segments that do not divide n: total mass must be preserved.
  const std::vector<double> s{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto p = paa(s, 2);
  ASSERT_EQ(p.size(), 2u);
  const double series_mean = 3.0;
  EXPECT_NEAR((p[0] + p[1]) / 2.0, series_mean, 1e-12);
  EXPECT_LT(p[0], p[1]);
}

TEST(Paa, SingleSegmentIsMean) {
  const std::vector<double> s{2.0, 4.0, 9.0};
  const auto p = paa(s, 1);
  EXPECT_NEAR(p[0], 5.0, 1e-12);
}

TEST(Paa, Validation) {
  EXPECT_THROW(paa({}, 1), std::invalid_argument);
  EXPECT_THROW(paa({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(paa({1.0}, 2), std::invalid_argument);
}

// ----------------------------------------------------------- breakpoints

TEST(Breakpoints, MatchesPublishedTable) {
  // Lin et al. 2003, Table 3.
  const auto b3 = gaussian_breakpoints(3);
  ASSERT_EQ(b3.size(), 2u);
  EXPECT_NEAR(b3[0], -0.43, 0.005);
  EXPECT_NEAR(b3[1], 0.43, 0.005);

  const auto b4 = gaussian_breakpoints(4);
  EXPECT_NEAR(b4[0], -0.67, 0.005);
  EXPECT_NEAR(b4[1], 0.0, 1e-9);
  EXPECT_NEAR(b4[2], 0.67, 0.005);

  const auto b8 = gaussian_breakpoints(8);
  EXPECT_NEAR(b8[0], -1.15, 0.005);
  EXPECT_NEAR(b8[3], 0.0, 1e-9);
  EXPECT_NEAR(b8[6], 1.15, 0.005);
}

TEST(Breakpoints, Ascending) {
  for (std::size_t a = 2; a <= 26; ++a) {
    const auto bp = gaussian_breakpoints(a);
    for (std::size_t i = 1; i < bp.size(); ++i) {
      EXPECT_LT(bp[i - 1], bp[i]);
    }
  }
}

TEST(Breakpoints, Validation) {
  EXPECT_THROW(gaussian_breakpoints(1), std::invalid_argument);
  EXPECT_THROW(gaussian_breakpoints(27), std::invalid_argument);
}

TEST(InverseNormalCdf, KnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.841344746), 1.0, 1e-5);
  EXPECT_THROW(inverse_normal_cdf(0.0), std::invalid_argument);
  EXPECT_THROW(inverse_normal_cdf(1.0), std::invalid_argument);
}

TEST(InverseNormalCdf, RoundTripsThroughCdf) {
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double x = inverse_normal_cdf(p);
    const double back = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(back, p, 1e-8);
  }
}

// ------------------------------------------------------------------ word

TEST(SaxWord, Symbolize) {
  const auto bp = gaussian_breakpoints(4);  // {-0.67, 0, 0.67}
  EXPECT_EQ(symbolize(-2.0, bp), 'a');
  EXPECT_EQ(symbolize(-0.3, bp), 'b');
  EXPECT_EQ(symbolize(0.3, bp), 'c');
  EXPECT_EQ(symbolize(2.0, bp), 'd');
}

TEST(SaxWord, RampProducesSortedWord) {
  std::vector<double> ramp(64);
  for (std::size_t i = 0; i < 64; ++i) ramp[i] = static_cast<double>(i);
  const std::string w = sax_word(ramp, {8, 4});
  EXPECT_EQ(w.size(), 8u);
  EXPECT_TRUE(std::is_sorted(w.begin(), w.end()));
  EXPECT_EQ(w.front(), 'a');
  EXPECT_EQ(w.back(), 'd');
}

TEST(SaxWord, ConstantSeriesIsMidLetter) {
  const std::vector<double> flat(32, 5.0);
  const std::string w = sax_word(flat, {4, 4});
  // znorm of constant -> all zeros -> letter 'c' (first letter >= 0).
  EXPECT_EQ(w, "cccc");
}

TEST(SaxWord, ShiftAndScaleInvariance) {
  Rng rng(3);
  std::vector<double> s(128);
  for (auto& v : s) v = rng.normal(0.0, 1.0);
  std::vector<double> t(128);
  for (std::size_t i = 0; i < 128; ++i) t[i] = 100.0 + 7.5 * s[i];
  const SaxConfig cfg{16, 8};
  EXPECT_EQ(sax_word(s, cfg), sax_word(t, cfg))
      << "z-normalisation must make SAX shift/scale invariant";
}

// --------------------------------------------------------------- mindist

TEST(Mindist, AdjacentSymbolsAreZeroDistance) {
  const SymbolDistanceTable t(8);
  EXPECT_EQ(t.dist('a', 'a'), 0.0);
  EXPECT_EQ(t.dist('a', 'b'), 0.0);
  EXPECT_EQ(t.dist('d', 'c'), 0.0);
  EXPECT_GT(t.dist('a', 'c'), 0.0);
}

TEST(Mindist, SymmetricTable) {
  const SymbolDistanceTable t(6);
  for (char a = 'a'; a < 'a' + 6; ++a) {
    for (char b = 'a'; b < 'a' + 6; ++b) {
      EXPECT_EQ(t.dist(a, b), t.dist(b, a));
    }
  }
}

TEST(Mindist, RejectsOutOfAlphabetSymbols) {
  const SymbolDistanceTable t(4);
  EXPECT_THROW(static_cast<void>(t.dist('a', 'z')), std::invalid_argument);
}

TEST(Mindist, IdenticalWordsZero) {
  const SymbolDistanceTable t(8);
  EXPECT_EQ(mindist("abcd", "abcd", 64, t), 0.0);
}

TEST(Mindist, Validation) {
  const SymbolDistanceTable t(8);
  EXPECT_THROW(mindist("ab", "abc", 64, t), std::invalid_argument);
  EXPECT_THROW(mindist("", "", 64, t), std::invalid_argument);
}

TEST(Mindist, KnownValue) {
  const SymbolDistanceTable t(4);  // breakpoints {-0.67, 0, 0.67}
  // dist(a, c) = 0 - (-0.6745) = 0.6745 ; word length 4, n = 16.
  const double d = mindist("aaaa", "cccc", 16, t);
  const double cell = 0.674489;
  EXPECT_NEAR(d, std::sqrt(16.0 / 4.0) * std::sqrt(4.0 * cell * cell), 1e-3);
}

// The SAX guarantee: MINDIST lower-bounds the Euclidean distance between
// the z-normalised series. Property-tested over random series.
class MindistLowerBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MindistLowerBound, HoldsForRandomSeries) {
  Rng rng(GetParam());
  constexpr std::size_t n = 128;
  const SaxConfig cfg{16, 8};
  const SymbolDistanceTable table(cfg.alphabet);

  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.normal(0.0, 1.0);
  // Mix of related and unrelated series exercises small and large dists.
  const double mix = rng.uniform();
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = mix * a[i] + (1.0 - mix) * rng.normal(0.0, 1.0);
  }

  const auto za = znormalize(a);
  const auto zb = znormalize(b);
  double euclid = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    euclid += (za[i] - zb[i]) * (za[i] - zb[i]);
  }
  euclid = std::sqrt(euclid);

  const double lower = mindist(sax_word(a, cfg), sax_word(b, cfg), n, table);
  EXPECT_LE(lower, euclid + 1e-9)
      << "MINDIST must never exceed the true Euclidean distance";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MindistLowerBound,
                         ::testing::Range<std::uint64_t>(0, 50));

TEST(MindistRotationInvariant, FindsBestRotation) {
  const SymbolDistanceTable t(8);
  const std::string a = "aaccaacc";
  std::string b = "ccaaccaa";  // a rotated by 2
  std::size_t rot = 0;
  const double d = mindist_rotation_invariant(a, b, 64, t, &rot);
  EXPECT_EQ(d, 0.0);
  EXPECT_EQ(rot % 4, 2u);
}

TEST(MindistRotationInvariant, UpperBoundedByPlainMindist) {
  Rng rng(9);
  const SaxConfig cfg{16, 8};
  const SymbolDistanceTable t(cfg.alphabet);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(64);
    std::vector<double> b(64);
    for (auto& v : a) v = rng.normal(0.0, 1.0);
    for (auto& v : b) v = rng.normal(0.0, 1.0);
    const std::string wa = sax_word(a, cfg);
    const std::string wb = sax_word(b, cfg);
    EXPECT_LE(mindist_rotation_invariant(wa, wb, 64, t),
              mindist(wa, wb, 64, t) + 1e-12);
  }
}

// ------------------------------------- modulo-indexed reference loops

// The straight modulo-indexed forms the rotation scan and the corner
// counter replaced: one serial sum per rotation through the range-checked
// dist(), and a `% n` on every smoothing tap and peak probe.
namespace reference {

// The term as an optimised build compiles `sum += d * d` (sax/ keeps the
// compiler's default FP contraction): one fused multiply-add where the
// target has FMA. Spelled out so the reference means the same unoptimised.
double add_square(double sum, double d) {
#ifdef __FMA__
  return std::fma(d, d, sum);
#else
  return sum + d * d;
#endif
}

double mindist_rotated(std::string_view a, std::string_view b,
                       std::size_t rot, std::size_t original_length,
                       const SymbolDistanceTable& table) {
  const std::size_t n = a.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum = add_square(sum, table.dist(a[i], b[(i + rot) % n]));
  }
  const double scale = std::sqrt(static_cast<double>(original_length) /
                                 static_cast<double>(n));
  return scale * std::sqrt(sum);
}

double rotation_invariant(std::string_view a, std::string_view b,
                          std::size_t original_length,
                          const SymbolDistanceTable& table,
                          std::size_t* best_rotation) {
  double best = -1.0;
  for (std::size_t rot = 0; rot < b.size(); ++rot) {
    const double d = mindist_rotated(a, b, rot, original_length, table);
    if (best < 0.0 || d < best) {
      best = d;
      *best_rotation = rot;
    }
  }
  return best;
}

int count_corners(const std::vector<double>& series, double prominence_frac) {
  const std::size_t n = series.size();
  if (n < 8) return 0;
  const std::size_t smooth_w = std::max<std::size_t>(1, n / 64);
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= 2 * smooth_w; ++k) {
      acc += series[(i + n - smooth_w + k) % n];
    }
    s[i] = acc / static_cast<double>(2 * smooth_w + 1);
  }
  double mean = 0.0;
  for (const double v : s) mean += v;
  mean /= static_cast<double>(n);
  if (mean <= 0.0) return 0;
  const double prominence = prominence_frac * mean;
  const std::size_t w = std::max<std::size_t>(2, n / 16);
  int corners = 0;
  std::size_t i = 0;
  while (i < n) {
    bool is_peak = true;
    double local_min = s[i];
    for (std::size_t k = 1; k <= w && is_peak; ++k) {
      const double left = s[(i + n - k) % n];
      const double right = s[(i + k) % n];
      if (left > s[i] || right > s[i]) is_peak = false;
      local_min = std::min(local_min, std::min(left, right));
    }
    if (is_peak && (s[i] - local_min) >= prominence) {
      ++corners;
      i += w;
    } else {
      ++i;
    }
  }
  return corners;
}

}  // namespace reference

std::string random_word(Rng& rng, std::size_t n, std::size_t alphabet) {
  std::string w(n, 'a');
  for (char& c : w) {
    c = static_cast<char>(
        'a' + rng.uniform_int(0, static_cast<std::int64_t>(alphabet) - 1));
  }
  return w;
}

TEST(MindistRotationInvariant, MatchesModuloReference) {
  Rng rng(29);
  for (std::size_t alphabet = 3; alphabet <= 10; ++alphabet) {
    const SymbolDistanceTable table(alphabet);
    std::vector<double> rows;
    std::vector<std::uint8_t> b_twice;
    for (std::size_t n = 1; n <= 40; ++n) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE("alphabet " + std::to_string(alphabet) + " n " +
                     std::to_string(n) + " trial " + std::to_string(trial));
        std::string a = random_word(rng, n, alphabet);
        std::string b = random_word(rng, n, alphabet);
        if (trial >= 2) {
          // Planted ties: a has a period p dividing n and b is a rotated
          // by k, so rotations k, k + p, ... all match exactly.
          std::vector<std::size_t> divisors;
          for (std::size_t d = 1; d <= n; ++d) {
            if (n % d == 0) divisors.push_back(d);
          }
          const std::size_t p = divisors[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(divisors.size()) -
                                     1))];
          const std::string unit = random_word(rng, p, alphabet);
          for (std::size_t i = 0; i < n; ++i) a[i] = unit[i % p];
          const auto k = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
          for (std::size_t i = 0; i < n; ++i) b[(i + k) % n] = a[i];
          std::size_t tied = 0;
          std::size_t first = n;
          for (std::size_t rot = 0; rot < n; ++rot) {
            if (reference::mindist_rotated(a, b, rot, 7 * n, table) == 0.0) {
              ++tied;
              first = std::min(first, rot);
            }
          }
          ASSERT_GE(tied, n / p);
          std::size_t rot = n;
          EXPECT_EQ(mindist_rotation_invariant(a, b, 7 * n, table, &rot), 0.0);
          EXPECT_EQ(rot, first);
        }
        std::size_t ref_rot = n;
        const double ref =
            reference::rotation_invariant(a, b, 7 * n, table, &ref_rot);
        std::size_t rot = n;
        EXPECT_EQ(bits_of(mindist_rotation_invariant(a, b, 7 * n, table, &rot)),
                  bits_of(ref));
        EXPECT_EQ(rot, ref_rot);
        // The precomputed-operand form, as ShapeMatcher drives it.
        rows.assign(n * alphabet, 0.0);
        b_twice.assign(2 * n, 0);
        distance_rows(a, table, rows);
        symbols_twice(b, alphabet, b_twice);
        rot = n;
        EXPECT_EQ(bits_of(mindist_rotation_invariant(rows, b_twice, 7 * n,
                                                     table, &rot)),
                  bits_of(ref));
        EXPECT_EQ(rot, ref_rot);
        EXPECT_EQ(bits_of(mindist(a, b, 7 * n, table)),
                  bits_of(reference::mindist_rotated(a, b, 0, 7 * n, table)));
      }
    }
  }
}

TEST(MindistRotationInvariant, RejectsOutOfAlphabetSymbols) {
  const SymbolDistanceTable table(4);
  std::vector<double> rows(3 * 4);
  std::vector<std::uint8_t> b_twice(2 * 3);
  for (const char bad : {'e', 'z', static_cast<char>('a' - 1)}) {
    std::string w = "abc";
    w[1] = bad;
    EXPECT_THROW(mindist_rotation_invariant(w, "abc", 12, table),
                 std::invalid_argument);
    EXPECT_THROW(mindist_rotation_invariant("abc", w, 12, table),
                 std::invalid_argument);
    EXPECT_THROW(mindist(w, "abc", 12, table), std::invalid_argument);
    EXPECT_THROW(distance_rows(w, table, rows), std::invalid_argument);
    EXPECT_THROW(symbols_twice(w, table.alphabet(), b_twice),
                 std::invalid_argument);
  }
  // Operand sizes must agree with the word length and the alphabet.
  EXPECT_THROW(distance_rows("abcd", table, rows), std::invalid_argument);
  EXPECT_THROW(symbols_twice("ab", table.alphabet(), b_twice),
               std::invalid_argument);
  EXPECT_THROW(mindist_rotation_invariant(
                   rows, std::span<const std::uint8_t>(b_twice).first(4), 12,
                   table),
               std::invalid_argument);
  b_twice.assign(2 * 3, 0);
  b_twice[4] = 4;  // one past the alphabet
  EXPECT_THROW(mindist_rotation_invariant(rows, b_twice, 12, table),
               std::invalid_argument);
}

TEST(ShapeMatcherScan, MatchesModuloReference) {
  // match() scans every template through the precomputed operands; the
  // reference rebuilds the same templates and scans them modulo-indexed.
  Rng rng(31);
  for (const SaxConfig cfg : {SaxConfig{32, 8}, SaxConfig{13, 3},
                              SaxConfig{40, 10}, SaxConfig{1, 5}}) {
    constexpr std::size_t kSides = 8;
    constexpr std::size_t kSamples = 360;
    const ShapeMatcher matcher(kSides, kSamples, ShapeMatchConfig{cfg});
    const SymbolDistanceTable table(cfg.alphabet);
    std::vector<std::string> templates;
    for (std::size_t r = 0; r < kShapeSubRotations; ++r) {
      const double sector = 2.0 * std::numbers::pi / kSides;
      templates.push_back(sax_word(
          polygon_signature(kSides, kSamples,
                            sector * static_cast<double>(r) /
                                static_cast<double>(kShapeSubRotations)),
          cfg));
    }
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE("word " + std::to_string(cfg.word_length) + " trial " +
                   std::to_string(trial));
      std::vector<double> series =
          polygon_signature(trial % 2 == 0 ? kSides : 3 + trial % 5,
                            kSamples, rng.uniform(0.0, 1.0));
      for (double& v : series) v += rng.normal(0.0, 0.02 * (trial % 4));
      const ShapeMatchResult got =
          matcher.match(series, hybridcnn::runtime::thread_scratch());
      double best = -1.0;
      std::size_t best_rot = 0;
      std::string best_template;
      for (const std::string& t : templates) {
        std::size_t rot = 0;
        const double d =
            reference::rotation_invariant(got.word, t, kSamples, table, &rot);
        if (best < 0.0 || d < best) {
          best = d;
          best_rot = rot;
          best_template = t;
        }
      }
      EXPECT_EQ(bits_of(got.distance), bits_of(best));
      EXPECT_EQ(got.rotation, best_rot);
      EXPECT_EQ(got.template_word, best_template);
      EXPECT_EQ(got.corners, reference::count_corners(series, 0.04));
    }
  }
}

TEST(CountCorners, MatchesModuloReference) {
  Rng rng(37);
  for (std::size_t n = 1; n <= 400; n += (n < 40 ? 1 : 17)) {
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                   std::to_string(trial));
      std::vector<double> series(n);
      if (trial == 0) {
        for (double& v : series) v = rng.uniform(0.0, 2.0);
      } else {
        const std::size_t sides = 3 + static_cast<std::size_t>(trial) * 2;
        if (sides > n) continue;
        series = polygon_signature(sides, n, rng.uniform(0.0, 1.0));
        for (double& v : series) v += rng.normal(0.0, 0.01);
      }
      for (const double frac : {0.0, 0.04, 0.2}) {
        EXPECT_EQ(count_corners(series, frac),
                  reference::count_corners(series, frac));
        EXPECT_EQ(count_corners(series, hybridcnn::runtime::thread_scratch(),
                                frac),
                  reference::count_corners(series, frac));
      }
    }
  }
}

}  // namespace
