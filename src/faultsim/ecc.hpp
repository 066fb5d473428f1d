// SEC-DED protected tensor storage.
//
// The paper's failure model includes "data corruption of the weights and
// input data" and notes that GPU vendors address it with error-correcting
// codes in RAM and data paths (Section II.C). This module provides that
// substrate in simulation: tensors whose words carry a Hamming(38,32)
// SEC-DED code — single-bit errors are corrected on scrub, double-bit
// errors are detected and reported — so campaigns can combine
// execution-level redundancy (src/reliable) with memory-level protection
// and measure the residual.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/contracts.hpp"

namespace hybridcnn::faultsim {

/// Result of one scrub pass over a protected tensor. Corrected-data and
/// corrected-check outcomes are counted separately: only the former means
/// the stored payload was actually at risk, and campaign reports that
/// conflate them cannot attribute upsets to the data vs the check words.
struct ScrubReport {
  std::uint64_t words = 0;              ///< words checked
  std::uint64_t corrected_data = 0;     ///< single-bit payload errors corrected
  std::uint64_t corrected_check = 0;    ///< single-bit check-word errors corrected
  std::uint64_t uncorrectable = 0;      ///< double-bit errors detected
  /// Total single-bit corrections (data + check).
  [[nodiscard]] std::uint64_t corrected() const noexcept {
    return corrected_data + corrected_check;
  }
  [[nodiscard]] bool clean() const noexcept {
    return corrected() == 0 && uncorrectable == 0;
  }
};

// Scrub reports are accumulated across campaign runs by plain field
// addition and compared in the thread-count bit-identity sweeps.
HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(ScrubReport);

/// Hamming SEC-DED codec for one 32-bit word: 6 Hamming check bits plus
/// an overall parity bit. The code is linear over GF(2) —
/// `encode(a ^ b) == encode(a) ^ encode(b)` — so encode is four byte-table
/// lookups and decode's syndrome is `check ^ encode(data)`.
struct SecDed {
  /// Computes the 7 check bits for a data word.
  static std::uint8_t encode(std::uint32_t data) noexcept;

  /// Decode outcome for one word.
  enum class Outcome : std::uint8_t {
    kClean,          ///< no error
    kCorrectedData,  ///< single-bit error in the data word, corrected
    kCorrectedCheck, ///< single-bit error in the check bits, corrected
    kDoubleError,    ///< two-bit error: detected, not correctable
  };

  /// Checks `data` against `check`; corrects single-bit errors in place.
  static Outcome decode(std::uint32_t& data, std::uint8_t& check) noexcept;
};

/// A float tensor whose storage is covered by per-word SEC-DED codes.
/// Writes go through store(); reads are plain (memory faults are injected
/// on the raw storage between scrubs, as in DRAM).
class ProtectedTensor {
 public:
  /// Protects a copy of `values`, computing all check bits.
  explicit ProtectedTensor(tensor::Tensor values);

  /// The protected payload (mutable so campaigns can inject faults into
  /// "memory"; a real system would fault the DRAM cells underneath).
  [[nodiscard]] tensor::Tensor& data() noexcept { return data_; }
  [[nodiscard]] const tensor::Tensor& data() const noexcept { return data_; }

  /// Rewrites element `i` and refreshes its check bits.
  void store(std::size_t i, float value);

  /// Scrubs the whole tensor: corrects every single-bit upset, counts
  /// double-bit detections (which a system must treat as data loss).
  ScrubReport scrub();

  /// Verifies without correcting (read-only integrity check).
  [[nodiscard]] ScrubReport verify() const;

  /// Scrubs `copy`, a copy of data() that has been faulted since, against
  /// this tensor's check words, correcting `copy` in place. Only words
  /// whose bits differ from data() are decoded: an unchanged word is
  /// `(w, encode(w))` and decodes clean, so the report and the repaired
  /// payload equal those of a full scrub() of data() replaced by `copy`.
  /// Precondition: this tensor's own words decode clean (as after
  /// construction or store()). Throws std::invalid_argument when `copy`
  /// has a different element count.
  ScrubReport scrub_copy(tensor::Tensor& copy) const;

 private:
  tensor::Tensor data_;
  std::vector<std::uint8_t> checks_;
};

}  // namespace hybridcnn::faultsim
