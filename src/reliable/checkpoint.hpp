// Operation-granular checkpoint/rollback.
//
// The paper reduces the rollback distance inside a convolution to a single
// operation: "a redundantly executed multiplication with result comparison
// (checkpoint) and a re-multiplication (rollback) should the first have
// failed" (Section II.E). ScalarCheckpoint makes that explicit: the
// convolution accumulator is committed after every qualified operation and
// restored before a retry, so an erroneous execution can never propagate
// into committed state.
//
// ProgressCheckpoint lifts the same commit/rollback discipline from one
// scalar accumulator to whole-inference progress: the committed state is
// (step index, activation tensor), the granularity the intermittent
// execution mode (HybridNetwork::classify_intermittent) checkpoints at —
// one CNN layer per commit, Stateful-CNN style. A power failure rolls
// back to the committed step; because every step is a pure function of
// the committed state, re-execution is bit-identical.
#pragma once

#include <cstdint>
#include <optional>

#include "faultsim/ecc.hpp"
#include "tensor/tensor.hpp"
#include "util/contracts.hpp"

namespace hybridcnn::reliable {

/// Committed-state cell for a scalar accumulator.
class ScalarCheckpoint {
 public:
  /// Initialises committed state to `initial`.
  explicit ScalarCheckpoint(float initial = 0.0f) noexcept
      : committed_(initial) {}

  /// Commits a qualified value as the new safe state.
  void commit(float value) noexcept { committed_ = value; }

  /// Rolls back: returns the last committed value, discarding whatever the
  /// failed execution produced.
  float rollback() const noexcept { return committed_; }

  /// Last committed value (the checkpoint).
  [[nodiscard]] float value() const noexcept { return committed_; }

 private:
  float committed_;
};

// The scalar checkpoint models a committed NVM cell: commit/rollback are
// atomic raw-byte writes, which is only an honest model for a
// memcpy-able type. (ProgressCheckpoint owns a Tensor and is excluded by
// design — its commit is modelled as a double-buffered slot swap, not a
// byte copy; see the class comment.)
HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(ScalarCheckpoint);

/// Committed-progress cell for checkpointed (intermittent) inference:
/// the non-volatile (step, activation) pair execution resumes from after
/// a power failure. Commits are modelled as atomic — a real system
/// double-buffers the NVM slot so a cut mid-write preserves the previous
/// checkpoint.
///
/// The slot sits in (simulated) memory across power cycles, so it is
/// itself exposed to SEUs. Constructed with `ecc = true`, the committed
/// activation is routed through faultsim::ProtectedTensor: every commit
/// recomputes per-word SEC-DED check bits, campaigns inject upsets into
/// mutable_state() (the raw "NVM cells"), and scrub() corrects every
/// single-bit upset before the resumed step reads the activation — a
/// corrected checkpoint resumes bit-identically to an uncorrupted one
/// (tests/test_checkpoint.cpp + test_intermittent.cpp lock this).
class ProgressCheckpoint {
 public:
  /// Initial state: no progress, empty activation, resume at step 0.
  /// `ecc` opts the committed activation into SEC-DED protected storage.
  explicit ProgressCheckpoint(bool ecc = false) noexcept : ecc_(ecc) {}

  /// Commits `state` as the activation produced by all steps < `next_step`;
  /// execution resumes at `next_step`. With ECC on, check bits for every
  /// word of `state` are (re)computed here — commit is the write path of
  /// the protected slot.
  void commit(std::size_t next_step, tensor::Tensor state) {
    if (ecc_) {
      protected_.emplace(std::move(state));
    } else {
      state_ = std::move(state);
    }
    step_ = next_step;
    ++commits_;
  }

  /// Rolls back after a power failure: whatever the in-flight step
  /// produced is discarded, and the committed step index to resume from
  /// is returned.
  std::size_t rollback() noexcept {
    ++rollbacks_;
    return step_;
  }

  /// The committed activation (input of step `step()`).
  [[nodiscard]] const tensor::Tensor& state() const noexcept {
    return ecc_ && protected_.has_value() ? protected_->data() : state_;
  }

  /// The raw committed storage — the simulated memory cells campaigns
  /// inject upsets into between scrub passes. Mutations through this
  /// handle model DRAM/NVM corruption at rest; they do NOT refresh the
  /// ECC check bits (that is the point).
  [[nodiscard]] tensor::Tensor& mutable_state() noexcept {
    return ecc_ && protected_.has_value() ? protected_->data() : state_;
  }

  /// Scrubs the protected slot: corrects every single-bit upset in the
  /// committed activation (and its check words), reports double-bit
  /// detections. Returns an empty report when ECC is off or nothing has
  /// been committed. Call on the reboot path, before the resumed step
  /// reads state().
  faultsim::ScrubReport scrub() {
    if (!ecc_ || !protected_.has_value()) return {};
    return protected_->scrub();
  }

  [[nodiscard]] bool ecc() const noexcept { return ecc_; }

  /// The step execution resumes at (number of committed steps).
  [[nodiscard]] std::size_t step() const noexcept { return step_; }

  [[nodiscard]] std::uint64_t commits() const noexcept { return commits_; }
  [[nodiscard]] std::uint64_t rollbacks() const noexcept {
    return rollbacks_;
  }

 private:
  tensor::Tensor state_;
  std::optional<faultsim::ProtectedTensor> protected_;
  bool ecc_ = false;
  std::size_t step_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t rollbacks_ = 0;
};

}  // namespace hybridcnn::reliable
