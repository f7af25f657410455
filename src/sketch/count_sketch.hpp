// Count Sketch (Charikar, Chen & Farach-Colton, 2002).
//
// d rows of w counters with ±1 sign hashes; Query returns the median of
// the per-row signed estimates.  Unbiased, with |f̂_x - f_x| ≤ εL2 w.h.p.
// for w = O(ε⁻²), d = O(log 1/δ).  The row structure doubles as an L2-norm
// estimator (median of per-row Σ C² — used by AlwaysCorrect convergence).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "sketch/counter_matrix.hpp"

namespace nitro::sketch {

class CountSketch {
 public:
  CountSketch(std::uint32_t depth, std::uint32_t width, std::uint64_t seed)
      : matrix_(depth, width, seed, /*signed_updates=*/true) {}

  void update(const FlowKey& key, std::int64_t count = 1) noexcept {
    update_digest(flow_digest(key), count);
  }

  /// update() for a key already digested with flow_digest().
  void update_digest(std::uint64_t digest, std::int64_t count = 1) noexcept {
    for (std::uint32_t r = 0; r < matrix_.depth(); ++r) {
      matrix_.update_row_digest(r, digest, count);
    }
  }

  /// Point query: median over the per-row signed estimates.  Only local
  /// scratch — concurrent const queries on a shared immutable sketch are
  /// thread-safe (the collector's query plane renders /flow and /change
  /// from one shared generation across handler threads).
  std::int64_t query(const FlowKey& key) const noexcept {
    return query_digest(flow_digest(key));
  }

  /// query() for a key already digested with flow_digest() — the burst
  /// paths digest a whole chunk with the batched kernel, then query each
  /// sampled key's heap estimate from its digest.
  std::int64_t query_digest(std::uint64_t digest) const noexcept {
    constexpr std::uint32_t kStackRows = 16;
    const std::uint32_t d = matrix_.depth();
    std::int64_t stack_buf[kStackRows];
    std::vector<std::int64_t> heap_buf;
    std::int64_t* est = stack_buf;
    if (d > kStackRows) {
      heap_buf.resize(d);
      est = heap_buf.data();
    }
    for (std::uint32_t r = 0; r < d; ++r) est[r] = matrix_.row_estimate_digest(r, digest);
    return median_in_place(std::span<std::int64_t>(est, d));
  }

  /// A sampled update followed by its heap estimate: add delta·g_r(x) to
  /// the `n` listed rows, then return query_digest(digest).  Each row's
  /// column and sign are hashed once and serve both the writes and the
  /// estimate.
  std::int64_t update_rows_and_query(std::uint64_t digest, const std::uint32_t* rows,
                                     std::uint32_t n, std::int64_t delta) noexcept {
    constexpr std::uint32_t kStackRows = 16;
    const std::uint32_t d = matrix_.depth();
    if (d > kStackRows) {
      for (std::uint32_t i = 0; i < n; ++i) matrix_.update_row_digest(rows[i], digest, delta);
      return query_digest(digest);
    }
    std::uint32_t cols[kStackRows];
    std::int32_t signs[kStackRows];
    for (std::uint32_t r = 0; r < d; ++r) {
      cols[r] = matrix_.column_of_digest(r, digest);
      signs[r] = matrix_.sign_of_digest(r, digest);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      matrix_.add_at(rows[i], cols[rows[i]], delta * signs[rows[i]]);
    }
    std::int64_t est[kStackRows];
    for (std::uint32_t r = 0; r < d; ++r) est[r] = *matrix_.counter_addr(r, cols[r]) * signs[r];
    return median_in_place(std::span<std::int64_t>(est, d));
  }

  /// (1+ε)-approximate L2² of the processed stream: median over rows of
  /// the row's sum of squared counters (AMS-style; paper §4.3 and Lemma 6).
  double l2_squared_estimate() const noexcept {
    std::vector<double> sums;
    sums.reserve(matrix_.depth());
    for (std::uint32_t r = 0; r < matrix_.depth(); ++r) {
      sums.push_back(matrix_.row_sum_squares(r));
    }
    return median(sums);
  }

  double l2_estimate() const noexcept { return std::sqrt(l2_squared_estimate()); }

  void clear() noexcept { matrix_.clear(); }
  void merge(const CountSketch& other) { matrix_.merge(other.matrix_); }

  std::uint32_t depth() const noexcept { return matrix_.depth(); }
  std::uint32_t width() const noexcept { return matrix_.width(); }
  std::size_t memory_bytes() const noexcept { return matrix_.memory_bytes(); }

  CounterMatrix& matrix() noexcept { return matrix_; }
  const CounterMatrix& matrix() const noexcept { return matrix_; }

 private:
  CounterMatrix matrix_;
};

}  // namespace nitro::sketch
