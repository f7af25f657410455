// Count-Min Sketch (Cormode & Muthukrishnan, 2005).
//
// d rows of w counters; Update adds the packet count to one counter per
// row, Query returns the minimum over rows.  Guarantees
// f̂_x ∈ [f_x, f_x + εL1] with probability 1-δ for w = e/ε, d = ln(1/δ).
// This is the paper's εL1 workhorse (Figure 1) and the light part of
// ElasticSketch.
#pragma once

#include <cstdint>

#include "sketch/counter_matrix.hpp"

namespace nitro::sketch {

class CountMinSketch {
 public:
  CountMinSketch(std::uint32_t depth, std::uint32_t width, std::uint64_t seed)
      : matrix_(depth, width, seed, /*signed_updates=*/false) {}

  void update(const FlowKey& key, std::int64_t count = 1) noexcept {
    const std::uint64_t digest = flow_digest(key);
    for (std::uint32_t r = 0; r < matrix_.depth(); ++r) {
      matrix_.update_row_digest(r, digest, count);
    }
  }

  /// Point query: min over rows.  Never underestimates when all updates
  /// are non-negative.
  std::int64_t query(const FlowKey& key) const noexcept {
    const std::uint64_t digest = flow_digest(key);
    std::int64_t best = matrix_.row_estimate_digest(0, digest);
    for (std::uint32_t r = 1; r < matrix_.depth(); ++r) {
      best = std::min(best, matrix_.row_estimate_digest(r, digest));
    }
    return best;
  }

  /// Total stream count (exact for unsigned unit updates).
  std::int64_t total() const noexcept { return matrix_.row_sum(0); }

  void clear() noexcept { matrix_.clear(); }
  void merge(const CountMinSketch& other) { matrix_.merge(other.matrix_); }

  std::uint32_t depth() const noexcept { return matrix_.depth(); }
  std::uint32_t width() const noexcept { return matrix_.width(); }
  std::size_t memory_bytes() const noexcept { return matrix_.memory_bytes(); }

  CounterMatrix& matrix() noexcept { return matrix_; }
  const CounterMatrix& matrix() const noexcept { return matrix_; }

 private:
  CounterMatrix matrix_;
};

}  // namespace nitro::sketch
