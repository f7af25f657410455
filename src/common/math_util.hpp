// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace nitro {

/// Median of a mutable span, which it may reorder in place (no copy —
/// for callers holding their own scratch, e.g. per-query stack buffers).
/// For even sizes the lower-middle element is returned, matching the
/// sketch literature's convention for row medians.
template <typename T>
T median_in_place(std::span<T> values) {
  if constexpr (std::is_integral_v<T>) {
    // Depth 5 (every sketch in the monitor) takes a branch-free sorting
    // network: same value as nth_element (integers have no -0 or NaN),
    // without its data-dependent branches on every point query.
    if (values.size() == 5) {
      T a = values[0], b = values[1], c = values[2], d = values[3], e = values[4];
      const auto order = [](T& x, T& y) {
        const T lo = x < y ? x : y;
        y = x < y ? y : x;
        x = lo;
      };
      order(a, b);
      order(d, e);
      order(c, e);
      order(c, d);
      order(a, d);
      order(a, c);
      order(b, e);
      order(b, d);
      order(b, c);
      return c;
    }
  }
  if (values.empty()) throw std::invalid_argument("median of empty range");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

/// Median of a span (copies; inputs stay untouched).
template <typename T>
T median(std::span<const T> values) {
  std::vector<T> tmp(values.begin(), values.end());
  return median_in_place(std::span<T>(tmp));
}

template <typename T>
T median(const std::vector<T>& values) {
  return median(std::span<const T>(values));
}

inline double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

inline double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double s = 0.0;
  for (double v : values) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values.size() - 1));
}

/// Round up to the next power of two (minimum 1).
constexpr std::uint64_t next_pow2(std::uint64_t v) noexcept {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  v |= v >> 32;
  return v + 1;
}

/// Snap a probability into {1, 2^-1, ..., 2^-maxShift} (paper §4.3:
/// AlwaysLineRate chooses p from eight power-of-two rates).
inline double snap_probability_pow2(double p, int max_shift = 7) {
  // A hair of tolerance so measured rates that land exactly on a
  // power-of-two boundary (e.g. 625Kpps/10Mpps = 1/16) snap to it instead
  // of the next smaller rate.
  constexpr double kTol = 1.0 + 1e-4;
  if (p * kTol >= 1.0) return 1.0;
  double snapped = 1.0;
  for (int s = 1; s <= max_shift; ++s) {
    snapped = std::ldexp(1.0, -s);
    if (p * kTol >= snapped) return snapped;
  }
  return snapped;  // 2^-max_shift floor
}

/// x * log2(x) with the streaming convention 0 log 0 = 0.
inline double xlog2x(double x) {
  return x > 0.0 ? x * std::log2(x) : 0.0;
}

}  // namespace nitro
