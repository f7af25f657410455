#include "sketch/topk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.hpp"
#include "trace/workloads.hpp"

namespace nitro::sketch {
namespace {

using trace::flow_key_for_rank;

TEST(TopKHeap, KeepsLargestK) {
  TopKHeap heap(3);
  for (int i = 0; i < 10; ++i) heap.offer(flow_key_for_rank(i, 0), i * 10);
  const auto entries = heap.entries_sorted();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].estimate, 90);
  EXPECT_EQ(entries[1].estimate, 80);
  EXPECT_EQ(entries[2].estimate, 70);
}

TEST(TopKHeap, RefreshesExistingKeyUp) {
  TopKHeap heap(3);
  heap.offer(flow_key_for_rank(0, 0), 5);
  heap.offer(flow_key_for_rank(1, 0), 10);
  heap.offer(flow_key_for_rank(0, 0), 50);
  const auto entries = heap.entries_sorted();
  EXPECT_EQ(entries[0].key, flow_key_for_rank(0, 0));
  EXPECT_EQ(entries[0].estimate, 50);
  EXPECT_EQ(heap.size(), 2u);
}

TEST(TopKHeap, RefreshesExistingKeyDown) {
  TopKHeap heap(3);
  heap.offer(flow_key_for_rank(0, 0), 50);
  heap.offer(flow_key_for_rank(1, 0), 10);
  heap.offer(flow_key_for_rank(0, 0), 1);  // estimate revised downward
  EXPECT_EQ(heap.min_estimate(), 1);
  EXPECT_TRUE(heap.contains(flow_key_for_rank(0, 0)));
}

TEST(TopKHeap, RejectsSmallWhenFull) {
  TopKHeap heap(2);
  heap.offer(flow_key_for_rank(0, 0), 100);
  heap.offer(flow_key_for_rank(1, 0), 200);
  heap.offer(flow_key_for_rank(2, 0), 50);
  EXPECT_FALSE(heap.contains(flow_key_for_rank(2, 0)));
  EXPECT_EQ(heap.size(), 2u);
}

TEST(TopKHeap, EvictsMinimum) {
  TopKHeap heap(2);
  heap.offer(flow_key_for_rank(0, 0), 100);
  heap.offer(flow_key_for_rank(1, 0), 200);
  heap.offer(flow_key_for_rank(2, 0), 150);
  EXPECT_FALSE(heap.contains(flow_key_for_rank(0, 0)));
  EXPECT_TRUE(heap.contains(flow_key_for_rank(2, 0)));
}

TEST(TopKHeap, MinEstimateIsHeapRoot) {
  TopKHeap heap(4);
  heap.offer(flow_key_for_rank(0, 0), 40);
  heap.offer(flow_key_for_rank(1, 0), 10);
  heap.offer(flow_key_for_rank(2, 0), 30);
  EXPECT_EQ(heap.min_estimate(), 10);
}

TEST(TopKHeap, ZeroCapacityNeverStores) {
  TopKHeap heap(0);
  heap.offer(flow_key_for_rank(0, 0), 1000);
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.min_estimate(), 0);
}

TEST(TopKHeap, ClearEmpties) {
  TopKHeap heap(4);
  heap.offer(flow_key_for_rank(0, 0), 5);
  heap.clear();
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.contains(flow_key_for_rank(0, 0)));
}

TEST(TopKHeap, StressAgainstSortedReference) {
  // Monotonically increasing estimates (the sketch-estimate pattern):
  // final heap must contain exactly the keys with the k largest finals.
  constexpr std::size_t kK = 16;
  constexpr int kKeys = 400;
  TopKHeap heap(kK);
  std::vector<std::int64_t> finals(kKeys);
  Pcg32 rng(99);
  for (int round = 1; round <= 50; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      if (rng.next_double() < 0.3) {
        finals[i] += rng.next_below(100);
        heap.offer(flow_key_for_rank(i, 0), finals[i]);
      }
    }
  }
  std::vector<std::pair<std::int64_t, int>> ranked;
  for (int i = 0; i < kKeys; ++i) ranked.push_back({finals[i], i});
  std::sort(ranked.rbegin(), ranked.rend());
  // Every key whose final estimate strictly exceeds the (k+1)-th largest
  // must be present.
  const std::int64_t cutoff = ranked[kK].first;
  for (std::size_t r = 0; r < kK; ++r) {
    if (ranked[r].first > cutoff) {
      EXPECT_TRUE(heap.contains(flow_key_for_rank(ranked[r].second, 0)))
          << "rank " << r;
    }
  }
}

TEST(TopKHeap, RefreshesTrackedKeyDownwardWhenFull) {
  // Regression: the full-heap early-reject used to fire before the
  // tracked-key lookup, so a tracked key whose estimate was revised below
  // min_estimate() kept its stale (higher) value once the heap filled.
  TopKHeap heap(2);
  heap.offer(flow_key_for_rank(0, 0), 10);
  heap.offer(flow_key_for_rank(1, 0), 20);  // heap now full
  heap.offer(flow_key_for_rank(0, 0), 5);   // downward refresh, below old min
  EXPECT_TRUE(heap.contains(flow_key_for_rank(0, 0)));
  EXPECT_EQ(heap.min_estimate(), 5);
  const auto entries = heap.entries_sorted();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].key, flow_key_for_rank(0, 0));
  EXPECT_EQ(entries[1].estimate, 5);
  // Untracked keys at or below the (new) minimum are still rejected.
  heap.offer(flow_key_for_rank(2, 0), 5);
  EXPECT_FALSE(heap.contains(flow_key_for_rank(2, 0)));
}

TEST(TopKHeap, RefreshInStorageOrderMatchesSortedReoffers) {
  // refresh() visits entries in storage order; re-offering them in sorted
  // order is the reference.  After each refresh both heaps take the same
  // further offers (admissions and evictions), then are merged into a
  // third heap, which walks them in storage order: every observable must
  // agree at every step.
  SplitMix64 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    TopKHeap a(16, trial % 2 == 0 ? 0 : 5);
    for (int i = 0; i < 40; ++i) {
      a.offer(flow_key_for_rank(rng.next() % 60, 2), static_cast<std::int64_t>(rng.next() % 100));
    }
    TopKHeap b = a;
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t salt = rng.next();
      auto estimate_of = [salt](const FlowKey& k) {
        return static_cast<std::int64_t>((std::hash<std::uint32_t>{}(k.src_ip) ^ salt) % 100);
      };
      a.refresh(estimate_of);
      for (const auto& e : b.entries_sorted()) b.offer(e.key, estimate_of(e.key));
      for (int i = 0; i < 10; ++i) {
        const FlowKey k = flow_key_for_rank(rng.next() % 60, 2);
        const auto est = static_cast<std::int64_t>(rng.next() % 100);
        a.offer(k, est);
        b.offer(k, est);
      }
      ASSERT_EQ(a.min_estimate(), b.min_estimate());
      ASSERT_EQ(a.evictions(), b.evictions());
      const auto ea = a.entries_sorted();
      const auto eb = b.entries_sorted();
      ASSERT_EQ(ea.size(), eb.size());
      for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_EQ(ea[i].key, eb[i].key);
        ASSERT_EQ(ea[i].estimate, eb[i].estimate);
      }
      TopKHeap ma(8), mb(8);
      ma.merge(a);
      mb.merge(b);
      const auto sa = ma.entries_sorted();
      const auto sb = mb.entries_sorted();
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i].key, sb[i].key);
    }
  }
}

TEST(TopKHeap, MemoryBytesNonZeroWhenPopulated) {
  TopKHeap heap(8);
  heap.offer(flow_key_for_rank(0, 0), 1);
  EXPECT_GT(heap.memory_bytes(), 0u);
}

}  // namespace
}  // namespace nitro::sketch
