#include "faultsim/ecc.hpp"

#include <array>

#include "faultsim/bitflip.hpp"

namespace hybridcnn::faultsim {

namespace {

/// Codeword positions (1-based, Hamming convention) of the 32 data bits:
/// every position in [1, 38] that is not a power of two.
constexpr std::array<std::uint8_t, 32> data_positions() {
  std::array<std::uint8_t, 32> pos{};
  std::size_t n = 0;
  for (std::uint8_t p = 1; n < 32; ++p) {
    if ((p & (p - 1)) != 0) pos[n++] = p;  // skip powers of two
  }
  return pos;
}

constexpr std::array<std::uint8_t, 32> kDataPos = data_positions();

std::uint32_t popcount32(std::uint32_t v) noexcept {
  return static_cast<std::uint32_t>(__builtin_popcount(v));
}

/// Data bits covered by each Hamming check bit j: the data bits whose
/// codeword position has bit j set.
constexpr std::array<std::uint32_t, 6> check_masks() {
  std::array<std::uint32_t, 6> masks{};
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t d = 0; d < 32; ++d) {
      if ((kDataPos[d] >> j) & 1u) masks[j] |= 1u << d;
    }
  }
  return masks;
}

constexpr std::array<std::uint32_t, 6> kCheckMask = check_masks();

/// Six Hamming check bits over the data word: check bit j is the parity
/// of the data bits kCheckMask[j] selects.
std::uint8_t hamming_bits(std::uint32_t data) noexcept {
  std::uint32_t check = 0;
  for (std::size_t j = 0; j < 6; ++j) {
    check |= (popcount32(data & kCheckMask[j]) & 1u) << j;
  }
  return static_cast<std::uint8_t>(check);
}

}  // namespace

std::uint8_t SecDed::encode(std::uint32_t data) noexcept {
  const std::uint8_t hamming = hamming_bits(data);
  // Overall parity over data and the six Hamming bits (even parity).
  const std::uint32_t ones =
      popcount32(data) + popcount32(hamming);
  return static_cast<std::uint8_t>(hamming | ((ones & 1u) << 6));
}

SecDed::Outcome SecDed::decode(std::uint32_t& data,
                               std::uint8_t& check) noexcept {
  const std::uint8_t stored_hamming = check & 0x3F;
  const std::uint8_t stored_parity = (check >> 6) & 1;

  const std::uint8_t computed_hamming = hamming_bits(data);
  const std::uint8_t syndrome = stored_hamming ^ computed_hamming;
  const std::uint32_t ones = popcount32(data) +
                             popcount32(stored_hamming) + stored_parity;
  const bool parity_ok = (ones & 1u) == 0;

  if (syndrome == 0 && parity_ok) return Outcome::kClean;

  if (!parity_ok) {
    // Odd number of flipped bits: with a single-error assumption the
    // syndrome locates it.
    if (syndrome == 0) {
      // The overall parity bit itself flipped.
      check = static_cast<std::uint8_t>(check ^ 0x40);
      return Outcome::kCorrectedCheck;
    }
    if ((syndrome & (syndrome - 1)) == 0) {
      // Syndrome is a power of two: a Hamming check bit flipped.
      check = static_cast<std::uint8_t>(
          check ^ (syndrome & 0x3F));
      return Outcome::kCorrectedCheck;
    }
    // Locate the data bit whose codeword position equals the syndrome.
    for (int d = 0; d < 32; ++d) {
      if (kDataPos[static_cast<std::size_t>(d)] == syndrome) {
        data ^= (1u << d);
        return Outcome::kCorrectedData;
      }
    }
    // Syndrome points outside the codeword: multi-bit corruption.
    return Outcome::kDoubleError;
  }

  // Parity even but syndrome non-zero: an even number of flips.
  return Outcome::kDoubleError;
}

ProtectedTensor::ProtectedTensor(tensor::Tensor values)
    : data_(std::move(values)), checks_(data_.count(), 0) {
  for (std::size_t i = 0; i < data_.count(); ++i) {
    checks_[i] = SecDed::encode(float_bits(data_[i]));
  }
}

void ProtectedTensor::store(std::size_t i, float value) {
  data_.at(i) = value;
  checks_[i] = SecDed::encode(float_bits(value));
}

ScrubReport ProtectedTensor::scrub() {
  ScrubReport report;
  report.words = data_.count();
  for (std::size_t i = 0; i < data_.count(); ++i) {
    std::uint32_t word = float_bits(data_[i]);
    const SecDed::Outcome outcome = SecDed::decode(word, checks_[i]);
    switch (outcome) {
      case SecDed::Outcome::kClean:
        break;
      case SecDed::Outcome::kCorrectedData:
        data_[i] = bits_float(word);
        ++report.corrected_data;
        break;
      case SecDed::Outcome::kCorrectedCheck:
        ++report.corrected_check;
        break;
      case SecDed::Outcome::kDoubleError:
        ++report.uncorrectable;
        break;
    }
  }
  return report;
}

ScrubReport ProtectedTensor::verify() const {
  ScrubReport report;
  report.words = data_.count();
  for (std::size_t i = 0; i < data_.count(); ++i) {
    std::uint32_t word = float_bits(data_[i]);
    std::uint8_t check = checks_[i];
    switch (SecDed::decode(word, check)) {
      case SecDed::Outcome::kClean:
        break;
      case SecDed::Outcome::kCorrectedData:
        ++report.corrected_data;
        break;
      case SecDed::Outcome::kCorrectedCheck:
        ++report.corrected_check;
        break;
      case SecDed::Outcome::kDoubleError:
        ++report.uncorrectable;
        break;
    }
  }
  return report;
}

}  // namespace hybridcnn::faultsim
