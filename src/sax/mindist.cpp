#include "sax/mindist.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/workspace.hpp"
#include "sax/breakpoints.hpp"

namespace hybridcnn::sax {

SymbolDistanceTable::SymbolDistanceTable(std::size_t alphabet)
    : alphabet_(alphabet), table_(alphabet * alphabet, 0.0) {
  const std::vector<double> bp = gaussian_breakpoints(alphabet);
  for (std::size_t r = 0; r < alphabet; ++r) {
    for (std::size_t c = 0; c < alphabet; ++c) {
      if (r + 1 >= c + 0 && c + 1 >= r) continue;  // |r - c| <= 1
      const std::size_t hi = std::max(r, c);
      const std::size_t lo = std::min(r, c);
      table_[r * alphabet + c] = bp[hi - 1] - bp[lo];
    }
  }
}

namespace {

std::size_t symbol_index(char s, std::size_t alphabet) {
  const auto i = static_cast<std::size_t>(s - 'a');
  if (i >= alphabet) {
    throw std::invalid_argument("SymbolDistanceTable: symbol out of range");
  }
  return i;
}

/// One MINDIST term, `sum + d * d`, as one fused multiply-add where the
/// target has FMA: what an optimised build made of the plain serial
/// expression (sax/ keeps the compiler's default FP contraction). Spelled
/// out, because the compiler may vectorise the interleaved rotations and
/// then keep the product separate.
inline double add_square(double sum, double d) noexcept {
#ifdef __FMA__
  return std::fma(d, d, sum);
#else
  return sum + d * d;
#endif
}

/// Rotations rot0 .. rot0 + R - 1 at once: R independent add chains
/// instead of one. Each rotation still sums its terms in ascending i, the
/// straight-line MINDIST order.
template <std::size_t R>
void rotation_sums(const double* rows, const std::uint8_t* b_twice,
                   std::size_t n, std::size_t alphabet, std::size_t rot0,
                   double* sums) noexcept {
  double acc[R] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = rows + i * alphabet;
    const std::uint8_t* sym = b_twice + i + rot0;
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = add_square(acc[r], row[sym[r]]);
    }
  }
  for (std::size_t r = 0; r < R; ++r) sums[r] = acc[r];
}

constexpr std::size_t kRotationChains = 8;

}  // namespace

double SymbolDistanceTable::dist(char a, char b) const {
  return table_[symbol_index(a, alphabet_) * alphabet_ +
                symbol_index(b, alphabet_)];
}

void distance_rows(std::string_view a, const SymbolDistanceTable& table,
                   std::span<double> rows) {
  const std::size_t alphabet = table.alphabet();
  if (rows.size() != a.size() * alphabet) {
    throw std::invalid_argument("distance_rows: rows size != |a| * alphabet");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t s = 0; s < alphabet; ++s) {
      rows[i * alphabet + s] = table.dist(a[i], static_cast<char>('a' + s));
    }
  }
}

void symbols_twice(std::string_view b, std::size_t alphabet,
                   std::span<std::uint8_t> out) {
  const std::size_t n = b.size();
  if (out.size() != 2 * n) {
    throw std::invalid_argument("symbols_twice: out size != 2 * |b|");
  }
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = out[j + n] =
        static_cast<std::uint8_t>(symbol_index(b[j], alphabet));
  }
}

double mindist(std::string_view a, std::string_view b,
               std::size_t original_length,
               const SymbolDistanceTable& table) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("mindist: words must be equal non-zero length");
  }
  const std::size_t n = a.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum = add_square(sum, table.dist(a[i], b[i]));
  }
  const double scale = std::sqrt(static_cast<double>(original_length) /
                                 static_cast<double>(n));
  return scale * std::sqrt(sum);
}

double mindist_rotation_invariant(std::span<const double> rows,
                                  std::span<const std::uint8_t> b_twice,
                                  std::size_t original_length,
                                  const SymbolDistanceTable& table,
                                  std::size_t* best_rotation) {
  const std::size_t n = b_twice.size() / 2;
  const std::size_t alphabet = table.alphabet();
  if (n == 0 || b_twice.size() != 2 * n || rows.size() != n * alphabet) {
    throw std::invalid_argument(
        "mindist_rotation_invariant: operand sizes do not match");
  }
  for (const std::uint8_t s : b_twice) {
    if (s >= alphabet) {
      throw std::invalid_argument("SymbolDistanceTable: symbol out of range");
    }
  }
  const double scale = std::sqrt(static_cast<double>(original_length) /
                                 static_cast<double>(n));
  double best = 0.0;
  std::size_t best_rot = 0;
  double sums[kRotationChains];
  for (std::size_t rot0 = 0; rot0 < n; rot0 += kRotationChains) {
    const std::size_t m = std::min(kRotationChains, n - rot0);
    if (m == kRotationChains) {
      rotation_sums<kRotationChains>(rows.data(), b_twice.data(), n,
                                     alphabet, rot0, sums);
    } else {
      for (std::size_t r = 0; r < m; ++r) {
        rotation_sums<1>(rows.data(), b_twice.data(), n, alphabet, rot0 + r,
                         sums + r);
      }
    }
    // Strict `<` in rotation order: the lowest rotation wins a tie.
    for (std::size_t r = 0; r < m; ++r) {
      const double d = scale * std::sqrt(sums[r]);
      if (rot0 + r == 0 || d < best) {
        best = d;
        best_rot = rot0 + r;
      }
    }
  }
  if (best_rotation != nullptr) *best_rotation = best_rot;
  return best;
}

double mindist_rotation_invariant(std::string_view a, std::string_view b,
                                  std::size_t original_length,
                                  const SymbolDistanceTable& table,
                                  std::size_t* best_rotation) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument(
        "mindist_rotation_invariant: words must be equal non-zero length");
  }
  runtime::Workspace& ws = runtime::thread_scratch();
  const runtime::Workspace::Scope scope(ws);
  const std::span<double> rows =
      ws.alloc_span_as<double>(a.size() * table.alphabet());
  const std::span<std::uint8_t> b_twice =
      ws.alloc_span_as<std::uint8_t>(2 * b.size());
  distance_rows(a, table, rows);
  symbols_twice(b, table.alphabet(), b_twice);
  return mindist_rotation_invariant(rows, b_twice, original_length, table,
                                    best_rotation);
}

}  // namespace hybridcnn::sax
