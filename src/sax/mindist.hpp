// MINDIST: the SAX lower-bounding distance between two words.
//
// MINDIST(Q^, C^) = sqrt(n / w) * sqrt(sum_i dist(q_i, c_i)^2), where
// dist(a, b) is the breakpoint gap between non-adjacent symbols and 0 for
// adjacent or equal symbols. Lin et al. prove MINDIST lower-bounds the
// Euclidean distance of the original z-normalised series — the property
// that makes SAX thresholds sound, which the qualifier relies on and the
// test suite verifies.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace hybridcnn::sax {

/// Pairwise symbol distance lookup table for an alphabet size.
class SymbolDistanceTable {
 public:
  /// Builds the table from the Gaussian breakpoints of `alphabet`.
  explicit SymbolDistanceTable(std::size_t alphabet);

  /// dist(a, b): 0 if |a-b| <= 1, else breakpoint gap.
  [[nodiscard]] double dist(char a, char b) const;

  [[nodiscard]] std::size_t alphabet() const noexcept { return alphabet_; }

 private:
  std::size_t alphabet_;
  std::vector<double> table_;  // alphabet x alphabet
};

/// MINDIST between two equal-length SAX words of `original_length`-point
/// series. Throws std::invalid_argument on length mismatch or symbols
/// outside the table's alphabet. Allocation-free; string_view accepts
/// std::string, literals, and workspace-backed character scratch alike.
double mindist(std::string_view a, std::string_view b,
               std::size_t original_length, const SymbolDistanceTable& table);

/// Minimum MINDIST over all circular rotations of `b` — the
/// rotation-invariant comparison used for shape words, since a rotated
/// sign yields a circularly shifted radial signature. Returns the best
/// distance (the lowest rotation on ties) and writes the best rotation to
/// `*best_rotation` if non-null. Draws its operands (below) from the
/// calling thread's scratch arena.
double mindist_rotation_invariant(std::string_view a, std::string_view b,
                                  std::size_t original_length,
                                  const SymbolDistanceTable& table,
                                  std::size_t* best_rotation = nullptr);

/// Precomputed-operand form of the rotation scan, for one word compared
/// against many. `rows` holds the left word's distance rows
/// (distance_rows) and `b_twice` the right word's symbol indices written
/// twice over (symbols_twice), so rotation r reads b_twice[r, r + n).
/// Bit-identical to the string form. Throws std::invalid_argument on
/// mismatched sizes or an index outside the table's alphabet.
double mindist_rotation_invariant(std::span<const double> rows,
                                  std::span<const std::uint8_t> b_twice,
                                  std::size_t original_length,
                                  const SymbolDistanceTable& table,
                                  std::size_t* best_rotation = nullptr);

/// rows[i * alphabet + s] = dist(a[i], 'a' + s): the left word's terms of
/// every MINDIST against it. Throws std::invalid_argument on a symbol
/// outside the table's alphabet or rows.size() != a.size() * alphabet.
void distance_rows(std::string_view a, const SymbolDistanceTable& table,
                   std::span<double> rows);

/// out[j] = b[j % n] - 'a' for j < 2n, n = b.size(). Throws
/// std::invalid_argument on a symbol outside `alphabet` or
/// out.size() != 2 * b.size().
void symbols_twice(std::string_view b, std::size_t alphabet,
                   std::span<std::uint8_t> out);

}  // namespace hybridcnn::sax
