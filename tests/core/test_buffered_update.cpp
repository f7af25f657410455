#include "core/buffered_update.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/simd_hash.hpp"
#include "trace/workloads.hpp"

namespace nitro::core {
namespace {

using trace::flow_key_for_rank;

TEST(BufferedUpdater, FlushAppliesAllPending) {
  sketch::CounterMatrix m(3, 64, 1, false);
  BufferedUpdater buf;
  const FlowKey k = flow_key_for_rank(0, 0);
  buf.push(m, k, 0, 5);
  buf.push(m, k, 1, 7);
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), 0);  // nothing applied yet
  buf.flush(m);
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), 5);
  EXPECT_EQ(m.row_estimate_digest(1, flow_digest(k)), 7);
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(BufferedUpdater, AutoFlushOnFullBatch) {
  sketch::CounterMatrix m(1, 64, 2, false);
  BufferedUpdater buf;
  const FlowKey k = flow_key_for_rank(1, 0);
  for (std::size_t i = 0; i < buf.batch() - 1; ++i) {
    EXPECT_FALSE(buf.push(m, k, 0, 1));
  }
  EXPECT_TRUE(buf.push(m, k, 0, 1));  // final push of the group flushes
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), static_cast<std::int64_t>(buf.batch()));
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(BufferedUpdater, AutoWidthMatchesWidestKernel) {
  BufferedUpdater buf;
  EXPECT_EQ(buf.batch(), simd_digest_batch());
  EXPECT_EQ(buf.prefetch_window(), buf.batch());  // 0 = whole group
  BufferedUpdater narrow(8, 2);
  EXPECT_EQ(narrow.batch(), 8u);
  EXPECT_EQ(narrow.prefetch_window(), 2u);
  BufferedUpdater clamped(64, 99);
  EXPECT_EQ(clamped.batch(), BufferedUpdater::kBatchMax);
  EXPECT_EQ(clamped.prefetch_window(), clamped.batch());
}

TEST(BufferedUpdater, EquivalentToDirectUpdates) {
  sketch::CounterMatrix direct(5, 256, 3, true);
  sketch::CounterMatrix buffered(5, 256, 3, true);
  BufferedUpdater buf;
  Pcg32 rng(77);
  for (int i = 0; i < 1000; ++i) {
    const FlowKey k = flow_key_for_rank(rng.next_below(100), 0);
    const std::uint32_t row = rng.next_below(5);
    const std::int64_t delta = 1 + rng.next_below(10);
    direct.update_row_digest(row, flow_digest(k), delta);
    buf.push(buffered, k, row, delta);
  }
  buf.flush(buffered);
  for (int i = 0; i < 100; ++i) {
    const FlowKey k = flow_key_for_rank(i, 0);
    for (std::uint32_t r = 0; r < 5; ++r) {
      EXPECT_EQ(direct.row_estimate_digest(r, flow_digest(k)), buffered.row_estimate_digest(r, flow_digest(k)));
    }
  }
}

TEST(BufferedUpdater, FlushOnEmptyIsNoop) {
  sketch::CounterMatrix m(1, 16, 4, false);
  BufferedUpdater buf;
  buf.flush(m);
  for (auto c : m.row(0)) EXPECT_EQ(c, 0);
}

TEST(BufferedUpdater, PendingNeverExceedsBatchAcrossManyPushes) {
  // Regression guard for the count_ overflow: pushing far more than one
  // batch must keep pending() <= kBatch at every step and lose nothing.
  sketch::CounterMatrix m(1, 64, 6, false);
  BufferedUpdater buf;
  const FlowKey k = flow_key_for_rank(2, 0);
  const std::size_t n = 3 * buf.batch() + 5;
  for (std::size_t i = 0; i < n; ++i) {
    buf.push(m, k, 0, 1);
    ASSERT_LE(buf.pending(), buf.batch());
  }
  buf.flush(m);
  EXPECT_EQ(m.row_estimate_digest(0, flow_digest(k)), static_cast<std::int64_t>(n));
}

TEST(BufferedUpdater, FullBatchKernelMatchesPartialTail) {
  // The same 8 updates applied once through the batched x8 digest kernel
  // (auto-flush on a full batch) and once through two partial flushes
  // (scalar tail path) must produce identical counters.
  sketch::CounterMatrix full(2, 128, 9, true);
  sketch::CounterMatrix split(2, 128, 9, true);
  BufferedUpdater bf(8), bs(8);
  for (int i = 0; i < 8; ++i) {
    bf.push(full, flow_key_for_rank(i, 3), static_cast<std::uint32_t>(i & 1), i + 1);
  }
  EXPECT_EQ(bf.pending(), 0u);  // 8th push flushed through the batched kernel
  for (int i = 0; i < 5; ++i) {
    bs.push(split, flow_key_for_rank(i, 3), static_cast<std::uint32_t>(i & 1), i + 1);
  }
  bs.flush(split);
  for (int i = 5; i < 8; ++i) {
    bs.push(split, flow_key_for_rank(i, 3), static_cast<std::uint32_t>(i & 1), i + 1);
  }
  bs.flush(split);
  for (int i = 0; i < 8; ++i) {
    const FlowKey k = flow_key_for_rank(i, 3);
    for (std::uint32_t r = 0; r < 2; ++r) {
      EXPECT_EQ(full.row_estimate_digest(r, flow_digest(k)), split.row_estimate_digest(r, flow_digest(k)));
    }
  }
}

TEST(BufferedUpdater, X16GroupMatchesPartialTailAndX8Groups) {
  // The same 16 updates applied through (a) one full x16 group, (b) two
  // full x8 groups, and (c) ragged partial flushes (scalar tail) must all
  // land the same counters — the width changes flush cadence, never
  // values.
  sketch::CounterMatrix wide(2, 128, 11, true);
  sketch::CounterMatrix eights(2, 128, 11, true);
  sketch::CounterMatrix ragged(2, 128, 11, true);
  BufferedUpdater b16(16), b8(8), br(16, 3);
  for (int i = 0; i < 16; ++i) {
    const FlowKey k = flow_key_for_rank(i, 5);
    const auto row = static_cast<std::uint32_t>(i & 1);
    b16.push(wide, k, row, i + 1);
    b8.push(eights, k, row, i + 1);
    br.push(ragged, k, row, i + 1);
    if (i == 4 || i == 9) br.flush(ragged);  // force scalar tails of 5
  }
  EXPECT_EQ(b16.pending(), 0u);
  EXPECT_EQ(b8.pending(), 0u);
  br.flush(ragged);
  for (int i = 0; i < 16; ++i) {
    const FlowKey k = flow_key_for_rank(i, 5);
    for (std::uint32_t r = 0; r < 2; ++r) {
      EXPECT_EQ(wide.row_estimate_digest(r, flow_digest(k)), eights.row_estimate_digest(r, flow_digest(k))) << i;
      EXPECT_EQ(wide.row_estimate_digest(r, flow_digest(k)), ragged.row_estimate_digest(r, flow_digest(k))) << i;
    }
  }
}

TEST(BufferedUpdater, PrefetchWindowDoesNotChangeCounters) {
  // The prefetch distance is a pure hint: every window setting must be
  // value-identical.
  Pcg32 rng(123);
  std::vector<std::tuple<FlowKey, std::uint32_t, std::int64_t>> updates;
  for (int i = 0; i < 500; ++i) {
    updates.emplace_back(flow_key_for_rank(rng.next_below(64), 2),
                         rng.next_below(4), 1 + rng.next_below(9));
  }
  sketch::CounterMatrix ref(4, 256, 21, true);
  BufferedUpdater bref(16, 0);
  for (const auto& [k, r, d] : updates) bref.push(ref, k, r, d);
  bref.flush(ref);
  for (std::size_t window : {1u, 2u, 5u, 16u}) {
    sketch::CounterMatrix m(4, 256, 21, true);
    BufferedUpdater b(16, window);
    for (const auto& [k, r, d] : updates) b.push(m, k, r, d);
    b.flush(m);
    for (int i = 0; i < 64; ++i) {
      const FlowKey k = flow_key_for_rank(i, 2);
      for (std::uint32_t r = 0; r < 4; ++r) {
        ASSERT_EQ(ref.row_estimate_digest(r, flow_digest(k)), m.row_estimate_digest(r, flow_digest(k))) << window;
      }
    }
  }
}

TEST(BufferedUpdater, PendingCountsQueuedItems) {
  sketch::CounterMatrix m(1, 16, 5, false);
  BufferedUpdater buf;
  EXPECT_EQ(buf.pending(), 0u);
  buf.push(m, flow_key_for_rank(0, 0), 0, 1);
  EXPECT_EQ(buf.pending(), 1u);
  buf.push(m, flow_key_for_rank(1, 0), 0, 1);
  EXPECT_EQ(buf.pending(), 2u);
}

}  // namespace
}  // namespace nitro::core
