#include "faultsim/ecc.hpp"

#include <array>
#include <bit>
#include <stdexcept>

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

/// Bit-serial encode, used only to fill the byte tables: Hamming check
/// bit j is the parity of the data bits whose codeword position has bit j
/// set (so the six bits are the XOR of the set bits' positions), and bit
/// 6 is even parity over the data and the six Hamming bits.
constexpr std::uint8_t encode_serial(std::uint32_t data) noexcept {
  std::uint32_t hamming = 0;
  for (std::size_t d = 0; d < 32; ++d) {
    if ((data >> d) & 1u) hamming ^= kDataPos[d];
  }
  const auto ones =
      static_cast<std::uint32_t>(std::popcount(data) + std::popcount(hamming));
  return static_cast<std::uint8_t>(hamming | ((ones & 1u) << 6));
}

/// kEncode[k][b] = encode(b << 8k): by linearity, the check bits of a
/// word are the XOR of its four bytes' entries.
constexpr std::array<std::array<std::uint8_t, 256>, 4> encode_tables() {
  std::array<std::array<std::uint8_t, 256>, 4> t{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = encode_serial(b << (8 * k));
    }
  }
  return t;
}

constexpr auto kEncode = encode_tables();

/// Decodes one stored word, repairing `word` and `check` in place, and
/// counts the outcome in `report` — the accounting shared by every scrub.
void scrub_word(std::uint32_t& word, std::uint8_t& check,
                ScrubReport& report) noexcept {
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

}  // namespace

std::uint8_t SecDed::encode(std::uint32_t data) noexcept {
  return static_cast<std::uint8_t>(
      kEncode[0][data & 0xFF] ^ kEncode[1][(data >> 8) & 0xFF] ^
      kEncode[2][(data >> 16) & 0xFF] ^ kEncode[3][data >> 24]);
}

SecDed::Outcome SecDed::decode(std::uint32_t& data,
                               std::uint8_t& check) noexcept {
  // Linearity: the syndrome is the check bits of the error pattern. Its
  // low six bits locate a single error; its weight's parity is the
  // parity of the number of flipped codeword bits.
  const auto syndrome = static_cast<std::uint8_t>(check ^ encode(data));
  if (syndrome == 0) return Outcome::kClean;
  // Even number of flips: detected, not correctable.
  if ((std::popcount(syndrome) & 1) == 0) return Outcome::kDoubleError;

  const std::uint8_t hamming = syndrome & 0x3F;
  if ((hamming & (hamming - 1)) == 0) {
    // The overall parity bit (zero Hamming syndrome) or the Hamming
    // check bit at a power-of-two position flipped.
    check = static_cast<std::uint8_t>(check ^ (hamming == 0 ? 0x40 : hamming));
    return Outcome::kCorrectedCheck;
  }
  // Locate the data bit whose codeword position equals the syndrome.
  for (std::size_t d = 0; d < 32; ++d) {
    if (kDataPos[d] == hamming) {
      data ^= 1u << d;
      return Outcome::kCorrectedData;
    }
  }
  // Syndrome points outside the codeword: multi-bit corruption.
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
    scrub_word(word, checks_[i], report);
    data_[i] = bits_float(word);
  }
  return report;
}

ScrubReport ProtectedTensor::verify() const {
  ScrubReport report;
  report.words = data_.count();
  for (std::size_t i = 0; i < data_.count(); ++i) {
    std::uint32_t word = float_bits(data_[i]);
    std::uint8_t check = checks_[i];
    scrub_word(word, check, report);
  }
  return report;
}

ScrubReport ProtectedTensor::scrub_copy(tensor::Tensor& copy) const {
  if (copy.count() != data_.count()) {
    throw std::invalid_argument(
        "ProtectedTensor::scrub_copy: element count mismatch");
  }
  ScrubReport report;
  report.words = data_.count();
  for (std::size_t i = 0; i < data_.count(); ++i) {
    std::uint32_t word = float_bits(copy[i]);
    if (word == float_bits(data_[i])) continue;  // decodes clean
    std::uint8_t check = checks_[i];
    scrub_word(word, check, report);
    copy[i] = bits_float(word);
  }
  return report;
}

}  // namespace hybridcnn::faultsim
