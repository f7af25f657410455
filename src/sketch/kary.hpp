// K-ary Sketch (Krishnamurthy, Sen, Zhang & Chen, IMC 2003).
//
// Count-Min-shaped structure with an unbiased per-row estimator
//   est_r(x) = (C[r][h_r(x)] - S/w) / (1 - 1/w)
// (S = total count), combined by the row median.  Built for sketch-based
// change detection: subtract two epochs' sketches and query the
// difference.  One of the four sketches the paper integrates (§6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "sketch/counter_matrix.hpp"

namespace nitro::sketch {

class KArySketch {
 public:
  KArySketch(std::uint32_t depth, std::uint32_t width, std::uint64_t seed)
      : matrix_(depth, width, seed, /*signed_updates=*/false) {}

  void update(const FlowKey& key, std::int64_t count = 1) noexcept {
    total_ += count;
    const std::uint64_t digest = flow_digest(key);
    for (std::uint32_t r = 0; r < matrix_.depth(); ++r) {
      matrix_.update_row_digest(r, digest, count);
    }
  }

  /// Unbiased point estimate (may be negative for absent keys).  Only
  /// local scratch, so concurrent const queries are thread-safe (same
  /// contract as CountSketch::query).
  double query(const FlowKey& key) const noexcept {
    constexpr std::uint32_t kStackRows = 16;
    const double w = matrix_.width();
    const std::uint32_t d = matrix_.depth();
    double stack_buf[kStackRows];
    std::vector<double> heap_buf;
    double* est = stack_buf;
    if (d > kStackRows) {
      heap_buf.resize(d);
      est = heap_buf.data();
    }
    const std::uint64_t digest = flow_digest(key);
    for (std::uint32_t r = 0; r < d; ++r) {
      const double raw = static_cast<double>(matrix_.row_estimate_digest(r, digest));
      est[r] = (raw - static_cast<double>(total_) / w) / (1.0 - 1.0 / w);
    }
    return median_in_place(std::span<double>(est, d));
  }

  /// Forecast-difference sketch for change detection: this - prev,
  /// element-wise.  Both sketches must share shape and seed.
  KArySketch difference(const KArySketch& prev) const {
    KArySketch out = *this;
    for (std::uint32_t r = 0; r < out.matrix_.depth(); ++r) {
      auto dst = out.matrix_.row(r);
      auto src = prev.matrix_.row(r);
      // Rows are only exposed const; mutate through update-free access.
      auto* raw = const_cast<std::int64_t*>(dst.data());
      for (std::uint32_t c = 0; c < out.matrix_.width(); ++c) raw[c] -= src[c];
    }
    out.total_ -= prev.total_;
    return out;
  }

  std::int64_t total() const noexcept { return total_; }

  /// Shard/epoch merge: counters element-wise (checked for identical shape
  /// and seed) plus the stream totals, so the merged unbiased estimator
  /// sees the union stream's S.
  void merge(const KArySketch& other) {
    matrix_.merge(other.matrix_);
    total_ += other.total_;
  }

  /// Adds `count` to the running total without touching counters — used by
  /// the Nitro wrapper, which performs row updates itself but must keep
  /// the unbiased estimator's S term consistent.
  void add_total(std::int64_t count) noexcept { total_ += count; }

  void clear() noexcept {
    matrix_.clear();
    total_ = 0;
  }

  std::uint32_t depth() const noexcept { return matrix_.depth(); }
  std::uint32_t width() const noexcept { return matrix_.width(); }
  std::size_t memory_bytes() const noexcept { return matrix_.memory_bytes(); }

  CounterMatrix& matrix() noexcept { return matrix_; }
  const CounterMatrix& matrix() const noexcept { return matrix_; }

 private:
  CounterMatrix matrix_;
  std::int64_t total_ = 0;
};

}  // namespace nitro::sketch
