#include "sketch/counter_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "trace/workloads.hpp"

namespace nitro::sketch {
namespace {

using trace::flow_key_for_rank;

TEST(CounterMatrix, StartsZeroed) {
  CounterMatrix m(3, 16, 1, false);
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (auto c : m.row(r)) EXPECT_EQ(c, 0);
  }
}

TEST(CounterMatrix, UnsignedUpdateAddsDelta) {
  CounterMatrix m(3, 16, 1, false);
  const FlowKey k = flow_key_for_rank(1, 0);
  m.update_row_digest(0, flow_digest(k), 5);
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), 5);
  m.update_row_digest(0, flow_digest(k), 2);
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), 7);
}

TEST(CounterMatrix, SignedEstimateUndoesSign) {
  CounterMatrix m(5, 64, 2, true);
  const FlowKey k = flow_key_for_rank(3, 0);
  for (std::uint32_t r = 0; r < 5; ++r) m.update_row_digest(r, flow_digest(k), 10);
  for (std::uint32_t r = 0; r < 5; ++r) EXPECT_EQ(m.row_estimate_digest(r, flow_digest(k)), 10);
}

TEST(CounterMatrix, RowsAreIndependent) {
  CounterMatrix m(2, 16, 3, false);
  const FlowKey k = flow_key_for_rank(7, 0);
  m.update_row_digest(0, flow_digest(k), 4);
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), 4);
  EXPECT_EQ(m.row_estimate_digest(1, flow_digest(k)), 0);
}

TEST(CounterMatrix, RowSumTracksUnsignedMass) {
  CounterMatrix m(2, 32, 4, false);
  for (int i = 0; i < 100; ++i) m.update_row_digest(0, flow_digest(flow_key_for_rank(i, 0)), 1);
  EXPECT_EQ(m.row_sum(0), 100);
  EXPECT_EQ(m.row_sum(1), 0);
}

TEST(CounterMatrix, RowSumSquares) {
  CounterMatrix m(1, 8, 5, false);
  const FlowKey k = flow_key_for_rank(0, 0);
  m.update_row_digest(0, flow_digest(k), 3);
  EXPECT_DOUBLE_EQ(m.row_sum_squares(0), 9.0);
}

TEST(CounterMatrix, ClearZeroesEverything) {
  CounterMatrix m(2, 8, 6, true);
  m.update_row_digest(0, flow_digest(flow_key_for_rank(0, 0)), 9);
  m.clear();
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (auto c : m.row(r)) EXPECT_EQ(c, 0);
  }
}

TEST(CounterMatrix, MergeAddsElementwise) {
  CounterMatrix a(2, 8, 7, false), b(2, 8, 7, false);
  const FlowKey k = flow_key_for_rank(11, 0);
  a.update_row_digest(0, flow_digest(k), 3);
  b.update_row_digest(0, flow_digest(k), 4);
  a.merge(b);
  EXPECT_EQ(a.row_estimate_digest(0, flow_digest(k)), 7);
}

TEST(CounterMatrix, UpdateViaDigestMatchesKeyPath) {
  CounterMatrix a(3, 32, 8, true), b(3, 32, 8, true);
  const FlowKey k = flow_key_for_rank(5, 1);
  a.update_row_digest(1, flow_digest(k), 6);
  b.update_row_digest(1, flow_digest(k), 6);
  EXPECT_EQ(a.row_estimate_digest(1, flow_digest(k)), b.row_estimate_digest(1, flow_digest(k)));
}

TEST(CounterMatrix, AddAtWritesRawCell) {
  CounterMatrix m(1, 8, 9, false);
  m.add_at(0, 3, 42);
  EXPECT_EQ(m.row(0)[3], 42);
}

TEST(CounterMatrix, MemoryBytesMatchesShape) {
  CounterMatrix m(5, 1000, 10, false);
  EXPECT_EQ(m.memory_bytes(), 5u * 1000u * sizeof(std::int64_t));
}

TEST(CounterMatrix, RowsAreCacheLineAligned) {
  // Width 10 is not a multiple of the 8 counters per 64B line, so the
  // stride must pad up to 16 and every row must start on its own line.
  CounterMatrix m(5, 10, 11, false);
  EXPECT_EQ(m.stride() % CounterMatrix::kLineCounters, 0u);
  EXPECT_GE(m.stride(), 10u);
  for (std::uint32_t r = 0; r < 5; ++r) {
    const auto addr = reinterpret_cast<std::uintptr_t>(m.row(r).data());
    EXPECT_EQ(addr % kCacheLineBytes, 0u) << "row " << r;
  }
}

TEST(CounterMatrix, PaddedStorageStaysInvisible) {
  CounterMatrix a(3, 10, 12, false), b(3, 10, 12, false);
  const FlowKey k = flow_key_for_rank(4, 0);
  a.update_row_digest(1, flow_digest(k), 3);
  b.update_row_digest(1, flow_digest(k), 4);
  a.merge(b);
  EXPECT_EQ(a.row_estimate_digest(1, flow_digest(k)), 7);
  EXPECT_EQ(a.row(1).size(), 10u);  // padding never leaks into row views
  EXPECT_EQ(a.row_sum(1), 7);
}

TEST(CounterMatrix, RowSumSquaresCompensated) {
  // One giant counter (square 2^54, ulp 4) plus 127 unit counters: naive
  // accumulation rounds every +1 away and returns exactly 2^54; the
  // compensated sum keeps all 127.
  CounterMatrix m(1, 256, 13, false);
  m.add_at(0, 0, std::int64_t{1} << 27);
  for (std::uint32_t c = 1; c <= 127; ++c) m.add_at(0, c, 1);
  EXPECT_DOUBLE_EQ(m.row_sum_squares(0), std::ldexp(1.0, 54) + 127.0);
}

TEST(CounterMatrix, SignedFlagReflectsConstruction) {
  EXPECT_TRUE(CounterMatrix(1, 4, 1, true).signed_updates());
  EXPECT_FALSE(CounterMatrix(1, 4, 1, false).signed_updates());
}

}  // namespace
}  // namespace nitro::sketch
