#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace nitro {
namespace {

TEST(Median, OddCount) {
  std::vector<int> v{5, 1, 3};
  EXPECT_EQ(median(v), 3);
}

TEST(Median, EvenCountReturnsUpperMiddleOfSorted) {
  std::vector<int> v{4, 1, 3, 2};
  EXPECT_EQ(median(v), 3);  // nth_element at index size/2 = 2 -> value 3
}

TEST(Median, SingleElement) {
  std::vector<double> v{7.5};
  EXPECT_DOUBLE_EQ(median(v), 7.5);
}

TEST(Median, DoesNotMutateInput) {
  std::vector<int> v{9, 1, 5};
  (void)median(v);
  EXPECT_EQ(v, (std::vector<int>{9, 1, 5}));
}

TEST(Median, FiveIntegersMatchNthElement) {
  // Depth-5 integer medians take a sorting network; every 5-tuple over a
  // small alphabet (ties included) must give nth_element's value.
  std::vector<std::int64_t> v(5);
  for (int code = 0; code < 6 * 6 * 6 * 6 * 6; ++code) {
    int c = code;
    for (auto& x : v) {
      x = c % 6 - 2;
      c /= 6;
    }
    std::vector<std::int64_t> sorted = v;
    std::nth_element(sorted.begin(), sorted.begin() + 2, sorted.end());
    std::vector<std::int64_t> scratch = v;
    ASSERT_EQ(median_in_place(std::span<std::int64_t>(scratch)), sorted[2]) << code;
  }
}

TEST(Median, ThrowsOnEmpty) {
  std::vector<int> v;
  EXPECT_THROW((void)median(v), std::invalid_argument);
}

TEST(MeanStddev, BasicValues) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), 1.29099, 1e-4);
}

TEST(MeanStddev, DegenerateInputs) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(SnapProbabilityPow2, SnapsDownToPowersOfTwo) {
  EXPECT_DOUBLE_EQ(snap_probability_pow2(1.5), 1.0);
  EXPECT_DOUBLE_EQ(snap_probability_pow2(1.0), 1.0);
  EXPECT_DOUBLE_EQ(snap_probability_pow2(0.7), 0.5);
  EXPECT_DOUBLE_EQ(snap_probability_pow2(0.5), 0.5);
  EXPECT_DOUBLE_EQ(snap_probability_pow2(0.3), 0.25);
  EXPECT_DOUBLE_EQ(snap_probability_pow2(0.1), 0.0625);
}

TEST(SnapProbabilityPow2, FloorsAtMaxShift) {
  EXPECT_DOUBLE_EQ(snap_probability_pow2(0.0001, 7), 1.0 / 128.0);
  EXPECT_DOUBLE_EQ(snap_probability_pow2(0.0001, 4), 1.0 / 16.0);
}

TEST(XLog2X, ZeroConvention) {
  EXPECT_DOUBLE_EQ(xlog2x(0.0), 0.0);
  EXPECT_DOUBLE_EQ(xlog2x(1.0), 0.0);
  EXPECT_DOUBLE_EQ(xlog2x(2.0), 2.0);
  EXPECT_DOUBLE_EQ(xlog2x(4.0), 8.0);
}

}  // namespace
}  // namespace nitro
