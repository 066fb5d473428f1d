// SEC-DED protected tensor storage: codec properties (exhaustive single-
// and sampled double-bit errors) and scrub semantics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/ecc.hpp"
#include "faultsim/memory_faults.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybridcnn;
using faultsim::ProtectedTensor;
using faultsim::ScrubReport;
using faultsim::SecDed;
using faultsim::bits_float;
using faultsim::float_bits;
using tensor::Shape;
using tensor::Tensor;
using util::Rng;

TEST(SecDed, CleanWordDecodesClean) {
  for (const std::uint32_t word :
       {0u, 0xFFFFFFFFu, 0xDEADBEEFu, 0x3F800000u, 1u}) {
    std::uint32_t data = word;
    std::uint8_t check = SecDed::encode(word);
    EXPECT_EQ(SecDed::decode(data, check), SecDed::Outcome::kClean);
    EXPECT_EQ(data, word);
  }
}

TEST(SecDed, CorrectsEverySingleDataBitFlip) {
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const auto word = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(rng()) << 32 | rng()) & 0xFFFFFFFF);
    const std::uint8_t clean_check = SecDed::encode(word);
    for (int bit = 0; bit < 32; ++bit) {
      std::uint32_t data = word ^ (1u << bit);
      std::uint8_t check = clean_check;
      EXPECT_EQ(SecDed::decode(data, check),
                SecDed::Outcome::kCorrectedData)
          << "bit " << bit;
      EXPECT_EQ(data, word) << "bit " << bit;
    }
  }
}

TEST(SecDed, CorrectsEverySingleCheckBitFlip) {
  const std::uint32_t word = 0xCAFEBABE;
  const std::uint8_t clean_check = SecDed::encode(word);
  for (int bit = 0; bit < 7; ++bit) {
    std::uint32_t data = word;
    std::uint8_t check = clean_check ^ static_cast<std::uint8_t>(1u << bit);
    EXPECT_EQ(SecDed::decode(data, check),
              SecDed::Outcome::kCorrectedCheck)
        << "check bit " << bit;
    EXPECT_EQ(data, word);
    EXPECT_EQ(check, clean_check);
  }
}

TEST(SecDed, DetectsDoubleDataBitFlips) {
  const std::uint32_t word = 0x12345678;
  const std::uint8_t clean_check = SecDed::encode(word);
  int detected = 0;
  int total = 0;
  for (int b1 = 0; b1 < 32; ++b1) {
    for (int b2 = b1 + 1; b2 < 32; ++b2) {
      std::uint32_t data = word ^ (1u << b1) ^ (1u << b2);
      std::uint8_t check = clean_check;
      ++total;
      if (SecDed::decode(data, check) == SecDed::Outcome::kDoubleError) {
        ++detected;
      }
    }
  }
  EXPECT_EQ(detected, total) << "SEC-DED must flag every double error";
}

TEST(SecDed, DetectsDataPlusCheckDoubleFlip) {
  const std::uint32_t word = 0x0F0F0F0F;
  const std::uint8_t clean_check = SecDed::encode(word);
  int misdecoded = 0;
  for (int db = 0; db < 32; ++db) {
    for (int cb = 0; cb < 6; ++cb) {
      std::uint32_t data = word ^ (1u << db);
      std::uint8_t check =
          clean_check ^ static_cast<std::uint8_t>(1u << cb);
      const auto outcome = SecDed::decode(data, check);
      // Parity is even (two flips), so these must never be "corrected".
      if (outcome != SecDed::Outcome::kDoubleError) ++misdecoded;
    }
  }
  EXPECT_EQ(misdecoded, 0);
}

// --------------------------------------------------------------------------
// Exhaustive codeword-space properties. The stored codeword has 39 bits:
// 32 data + 6 Hamming check + 1 overall parity. Position p < 32 is data
// bit p; p >= 32 is check bit (p - 32), with p == 38 the parity bit.

void flip_codeword_bit(std::uint32_t& data, std::uint8_t& check, int p) {
  if (p < 32) {
    data ^= (1u << p);
  } else {
    check ^= static_cast<std::uint8_t>(1u << (p - 32));
  }
}

TEST(SecDed, ExhaustiveSingleBitFlipAlwaysRestoresOriginal) {
  // SEC property, exhaustively: for EVERY single-bit flip of the stored
  // codeword, decode corrects back to the exact original data AND check.
  Rng rng(11);
  for (int trial = 0; trial < 16; ++trial) {
    const auto word = static_cast<std::uint32_t>(rng());
    const std::uint8_t clean_check = SecDed::encode(word);
    for (int p = 0; p < 39; ++p) {
      std::uint32_t data = word;
      std::uint8_t check = clean_check;
      flip_codeword_bit(data, check, p);
      const auto outcome = SecDed::decode(data, check);
      EXPECT_EQ(outcome, p < 32 ? SecDed::Outcome::kCorrectedData
                                : SecDed::Outcome::kCorrectedCheck)
          << "word " << word << " position " << p;
      EXPECT_EQ(data, word) << "position " << p;
      EXPECT_EQ(check, clean_check) << "position " << p;
    }
  }
}

TEST(SecDed, ExhaustiveDoubleBitFlipAlwaysDetectedNeverMiscorrected) {
  // DED property, exhaustively: all C(39,2) = 741 two-bit flips of the
  // codeword — data+data, data+check, check+check, and every pairing
  // with the overall parity bit — must yield kDoubleError. A silent
  // miscorrection here is exactly the SDC class the ECC layer exists to
  // eliminate.
  Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const auto word = static_cast<std::uint32_t>(rng());
    const std::uint8_t clean_check = SecDed::encode(word);
    int pairs = 0;
    for (int p1 = 0; p1 < 39; ++p1) {
      for (int p2 = p1 + 1; p2 < 39; ++p2) {
        std::uint32_t data = word;
        std::uint8_t check = clean_check;
        flip_codeword_bit(data, check, p1);
        flip_codeword_bit(data, check, p2);
        ++pairs;
        ASSERT_EQ(SecDed::decode(data, check), SecDed::Outcome::kDoubleError)
            << "word " << word << " positions (" << p1 << ", " << p2 << ")";
      }
    }
    EXPECT_EQ(pairs, 741);
  }
}

// --------------------------------------------------------------------------
// Reference codec: the bit-serial Hamming encoder the mask-parity one
// replaced, with decode's syndrome logic on top of it.

namespace reference {

constexpr std::uint8_t data_position(int d) {
  int n = 0;
  for (int p = 1;; ++p) {
    if ((p & (p - 1)) != 0 && n++ == d) return static_cast<std::uint8_t>(p);
  }
}

std::uint8_t hamming_bits(std::uint32_t data) {
  std::uint8_t check = 0;
  for (int j = 0; j < 6; ++j) {
    std::uint32_t parity = 0;
    for (int d = 0; d < 32; ++d) {
      if ((data_position(d) >> j) & 1u) parity ^= (data >> d) & 1u;
    }
    check = static_cast<std::uint8_t>(check | (parity << j));
  }
  return check;
}

std::uint32_t ones(std::uint32_t v) {
  std::uint32_t n = 0;
  for (; v != 0; v &= v - 1) ++n;
  return n;
}

std::uint8_t encode(std::uint32_t data) {
  const std::uint8_t hamming = hamming_bits(data);
  const std::uint32_t parity = (ones(data) + ones(hamming)) & 1u;
  return static_cast<std::uint8_t>(hamming | (parity << 6));
}

SecDed::Outcome decode(std::uint32_t& data, std::uint8_t& check) {
  const std::uint8_t stored_hamming = check & 0x3F;
  const std::uint8_t syndrome = stored_hamming ^ hamming_bits(data);
  const bool parity_ok =
      ((ones(data) + ones(stored_hamming) + ((check >> 6) & 1u)) & 1u) == 0;
  if (syndrome == 0 && parity_ok) return SecDed::Outcome::kClean;
  if (parity_ok) return SecDed::Outcome::kDoubleError;
  if (syndrome == 0) {
    check = static_cast<std::uint8_t>(check ^ 0x40);
    return SecDed::Outcome::kCorrectedCheck;
  }
  if ((syndrome & (syndrome - 1)) == 0) {
    check = static_cast<std::uint8_t>(check ^ syndrome);
    return SecDed::Outcome::kCorrectedCheck;
  }
  for (int d = 0; d < 32; ++d) {
    if (data_position(d) == syndrome) {
      data ^= 1u << d;
      return SecDed::Outcome::kCorrectedData;
    }
  }
  return SecDed::Outcome::kDoubleError;
}

}  // namespace reference

/// Decodes a corrupted codeword with both codecs and compares the outcome
/// and the repaired data and check bits.
void expect_decode_matches_reference(std::uint32_t data, std::uint8_t check,
                                     const char* what) {
  std::uint32_t ref_data = data;
  std::uint8_t ref_check = check;
  const SecDed::Outcome ref = reference::decode(ref_data, ref_check);
  const SecDed::Outcome got = SecDed::decode(data, check);
  ASSERT_EQ(got, ref) << what;
  ASSERT_EQ(data, ref_data) << what;
  ASSERT_EQ(check, ref_check) << what;
}

TEST(SecDed, MatchesBitSerialReference) {
  Rng rng(19);
  // Every single data-bit and check-bit flip of a few words.
  for (const std::uint32_t word :
       {0u, 0xFFFFFFFFu, 0x3F800000u, 0x80000001u, 0xDEADBEEFu}) {
    const std::uint8_t check = SecDed::encode(word);
    ASSERT_EQ(check, reference::encode(word)) << "word " << word;
    for (int p = 0; p < 39; ++p) {
      std::uint32_t d = word;
      std::uint8_t c = check;
      flip_codeword_bit(d, c, p);
      expect_decode_matches_reference(d, c, "single flip");
    }
  }
  // Random words: identical check bytes, and identical decodes after a
  // random double flip (two distinct codeword bits).
  for (int trial = 0; trial < 10000; ++trial) {
    const auto word = static_cast<std::uint32_t>(rng());
    const std::uint8_t check = SecDed::encode(word);
    ASSERT_EQ(check, reference::encode(word)) << "word " << word;
    const auto p1 = static_cast<int>(rng.uniform_int(0, 38));
    auto p2 = static_cast<int>(rng.uniform_int(0, 37));
    if (p2 >= p1) ++p2;
    std::uint32_t d = word;
    std::uint8_t c = check;
    flip_codeword_bit(d, c, p1);
    flip_codeword_bit(d, c, p2);
    expect_decode_matches_reference(d, c, "double flip");
  }
}

TEST(ProtectedTensor, CleanScrubIsNoop) {
  Rng rng(2);
  Tensor t(Shape{64});
  t.fill_normal(rng, 0.0f, 1.0f);
  ProtectedTensor p(t);
  const auto report = p.scrub();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(p.data(), t);
}

TEST(ProtectedTensor, ScrubRepairsSparseUpsets) {
  Rng rng(3);
  Tensor t(Shape{256});
  t.fill_normal(rng, 0.0f, 1.0f);
  const Tensor original = t;
  ProtectedTensor p(t);

  // One flip per affected word (sparse SEU accumulation).
  for (const std::size_t idx : {3u, 77u, 130u, 255u}) {
    p.data()[idx] = faultsim::flip_bit(p.data()[idx], static_cast<int>(idx % 32));
  }
  const auto verify = p.verify();
  EXPECT_EQ(verify.corrected(), 4u);

  const auto report = p.scrub();
  // All four flips hit payload bits, and the report attributes them to
  // the data words — not the check words.
  EXPECT_EQ(report.corrected_data, 4u);
  EXPECT_EQ(report.corrected_check, 0u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_EQ(p.data(), original) << "scrub must restore the exact payload";
  EXPECT_TRUE(p.scrub().clean()) << "second scrub finds nothing";
}

TEST(ProtectedTensor, DoubleUpsetInOneWordIsReportedNotHidden) {
  Tensor t(Shape{8}, 1.0f);
  ProtectedTensor p(t);
  p.data()[2] = faultsim::flip_bit(faultsim::flip_bit(p.data()[2], 3), 19);
  const auto report = p.scrub();
  EXPECT_EQ(report.uncorrectable, 1u);
}

TEST(ProtectedTensor, StoreRefreshesProtection) {
  Tensor t(Shape{4}, 0.0f);
  ProtectedTensor p(t);
  p.store(1, 42.5f);
  EXPECT_TRUE(p.scrub().clean());
  EXPECT_FLOAT_EQ(p.data()[1], 42.5f);
}

TEST(ProtectedTensor, ScrubbedWeightsRestoreGoldenConvolution) {
  // End to end: ECC on parameter memory + reliable execution closes the
  // weight-corruption gap the execution-level scheme cannot cover.
  Rng rng(5);
  Tensor weights(Shape{4, 3, 3, 3});
  weights.fill_normal(rng, 0.0f, 0.3f);
  Tensor bias(Shape{4});
  Tensor input(Shape{3, 10, 10});
  input.fill_normal(rng, 0.0f, 1.0f);

  const reliable::ReliableConv2d golden_conv(weights, bias,
                                             reliable::ConvSpec{1, 1});
  const Tensor golden = golden_conv.reference_forward(input);

  ProtectedTensor protected_weights(weights);
  // Sparse upsets in stored weights.
  Rng fault_rng(6);
  for (int i = 0; i < 5; ++i) {
    const auto idx = static_cast<std::size_t>(fault_rng.uniform_int(
        0, static_cast<std::int64_t>(protected_weights.data().count()) - 1));
    protected_weights.data()[idx] =
        faultsim::flip_bit(protected_weights.data()[idx],
                           static_cast<int>(fault_rng.uniform_int(0, 31)));
  }

  const auto report = protected_weights.scrub();
  EXPECT_GT(report.corrected_data, 0u);
  EXPECT_EQ(report.corrected_check, 0u);
  EXPECT_EQ(report.uncorrectable, 0u);

  const reliable::ReliableConv2d scrubbed_conv(protected_weights.data(),
                                               bias,
                                               reliable::ConvSpec{1, 1});
  EXPECT_EQ(scrubbed_conv.reference_forward(input), golden);
}

// --------------------------------------------------------------------------
// scrub_copy: the delta scrub against a pristine tensor's check words must
// report and repair exactly what a full scrub of the same faulted payload
// under the same check words does.

/// A delta scrub's repaired payload and report.
struct DeltaScrub {
  Tensor payload;
  ScrubReport report;
};

/// Scrubs `faulted` both ways against the check words of `pristine` and
/// compares every report field and every payload bit.
DeltaScrub expect_scrub_copy_matches_full(const Tensor& pristine,
                                          const Tensor& faulted,
                                          const char* what) {
  DeltaScrub delta{faulted, {}};
  delta.report = ProtectedTensor(pristine).scrub_copy(delta.payload);

  ProtectedTensor full(pristine);
  full.data() = faulted;
  const ScrubReport want = full.scrub();

  EXPECT_EQ(delta.report.words, want.words) << what;
  EXPECT_EQ(delta.report.corrected_data, want.corrected_data) << what;
  EXPECT_EQ(delta.report.corrected_check, want.corrected_check) << what;
  EXPECT_EQ(delta.report.uncorrectable, want.uncorrectable) << what;
  for (std::size_t i = 0; i < faulted.count(); ++i) {
    EXPECT_EQ(float_bits(delta.payload[i]), float_bits(full.data()[i]))
        << what << ", word " << i;
  }
  return delta;
}

/// Words a float tensor can hold whose float == and bit equality
/// disagree: signed zeros and NaNs with distinct payloads.
const std::vector<std::uint32_t> kEdgeWords = {
    0x00000000u,  // +0
    0x80000000u,  // -0
    0x7FC00000u,  // quiet NaN
    0x7FC00001u,  // quiet NaN, payload 1
    0xFFC12345u,  // negative quiet NaN with payload
    0x7F800001u,  // signalling NaN
    0x7F800000u,  // +inf
};

Tensor random_words(Rng& rng, std::size_t n) {
  Tensor t(Shape{n});
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = bits_float(static_cast<std::uint32_t>(rng()));
  }
  for (std::size_t i = 0; i < kEdgeWords.size() && i < n; ++i) {
    t[i * 3 % n] = bits_float(kEdgeWords[i]);
  }
  return t;
}

TEST(ProtectedTensor, ScrubCopyMatchesFullScrubForOneToFourFlipsInAWord) {
  Rng rng(23);
  constexpr std::size_t kWords = 48;
  std::size_t miscorrected = 0;  // odd flips decoded as a wrong single error
  std::size_t check_aliases = 0;  // data flips "corrected" as check flips
  for (int trial = 0; trial < 400; ++trial) {
    const Tensor pristine = random_words(rng, kWords);
    for (int flips = 1; flips <= 4; ++flips) {
      const auto w = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kWords) - 1));
      std::uint32_t mask = 0;
      while (std::popcount(mask) < flips) {
        mask |= 1u << rng.uniform_int(0, 31);
      }
      Tensor faulted = pristine;
      faulted[w] = bits_float(float_bits(faulted[w]) ^ mask);
      const DeltaScrub d =
          expect_scrub_copy_matches_full(pristine, faulted, "one word");
      const bool restored =
          float_bits(d.payload[w]) == float_bits(pristine[w]);
      if (flips == 1) {
        EXPECT_TRUE(restored) << "trial " << trial;
      }
      if (flips > 1 && d.report.corrected() == 1) {
        if (!restored) ++miscorrected;
        if (d.report.corrected_check == 1) ++check_aliases;
      }
    }
  }
  // Three flips have odd parity and decode as a single error: the sweep
  // must reach both the data-bit and the check-bit miscorrections.
  EXPECT_GT(miscorrected, 0u);
  EXPECT_GT(check_aliases, 0u);
}

TEST(ProtectedTensor, ScrubCopyMatchesFullScrubOnSignedZerosAndNaNs) {
  Tensor pristine(Shape{kEdgeWords.size()});
  for (std::size_t i = 0; i < kEdgeWords.size(); ++i) {
    pristine[i] = bits_float(kEdgeWords[i]);
  }
  for (std::size_t w = 0; w < kEdgeWords.size(); ++w) {
    for (int bit = 0; bit < 32; ++bit) {
      Tensor faulted = pristine;
      faulted[w] = faultsim::flip_bit(faulted[w], bit);
      const DeltaScrub d =
          expect_scrub_copy_matches_full(pristine, faulted, "edge word");
      EXPECT_TRUE(tensor::bit_identical(d.payload, pristine))
          << "single flip " << bit << " of edge word " << w;
    }
  }
}

TEST(ProtectedTensor, ScrubCopyMatchesFullScrubForFlipsOverManyWords) {
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const Tensor pristine = random_words(rng, 1176);
    Tensor faulted = pristine;
    if (trial % 2 == 0) {
      (void)faultsim::inject_bit_errors(faulted, 2e-3, rng);
    } else {
      (void)faultsim::inject_exact_flips(faulted, 200, rng);
    }
    (void)expect_scrub_copy_matches_full(pristine, faulted, "many words");
  }
}

TEST(ProtectedTensor, ScrubCopyOfUnchangedPayloadIsClean) {
  Rng rng(31);
  const Tensor pristine = random_words(rng, 64);
  Tensor copy = pristine;
  const ScrubReport r = ProtectedTensor(pristine).scrub_copy(copy);
  EXPECT_EQ(r.words, 64u);
  EXPECT_TRUE(r.clean());
  EXPECT_TRUE(tensor::bit_identical(copy, pristine));
}

TEST(ProtectedTensor, ScrubCopyRejectsAnotherSize) {
  const ProtectedTensor prot(Tensor(Shape{8}, 1.0f));
  Tensor other(Shape{9}, 1.0f);
  EXPECT_THROW((void)prot.scrub_copy(other), std::invalid_argument);
}

}  // namespace
