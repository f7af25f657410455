// Merge-correctness property tests: merging per-shard sketches built with
// the same seeds/dimensions must equal a single sketch fed the union
// stream — exactly, because the sketches are linear in their counters.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sketch/count_min.hpp"
#include "sketch/count_sketch.hpp"
#include "sketch/counter_matrix.hpp"
#include "sketch/kary.hpp"
#include "sketch/topk.hpp"
#include "sketch/univmon.hpp"
#include "trace/workloads.hpp"

namespace nitro::sketch {
namespace {

using trace::flow_key_for_rank;

trace::Trace merge_trace(std::uint64_t packets = 60000, std::uint64_t seed = 31) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 1500;
  spec.seed = seed;
  return trace::caida_like(spec);
}

/// Feed `stream` split across `k` shard instances (sticky per-flow
/// partition), merge the shards into shard 0, and return it.
template <typename Sketch, typename MakeSketch>
Sketch sharded_merge(const trace::Trace& stream, std::size_t k,
                     MakeSketch make_sketch) {
  std::vector<Sketch> shards;
  for (std::size_t i = 0; i < k; ++i) shards.push_back(make_sketch());
  for (const auto& p : stream) {
    shards[flow_digest(p.key) % k].update(p.key, 1);
  }
  for (std::size_t i = 1; i < k; ++i) shards[0].merge(shards[i]);
  return std::move(shards[0]);
}

TEST(CounterMatrixMerge, AddsCountersElementWise) {
  CounterMatrix a(3, 64, 5, false);
  CounterMatrix b(3, 64, 5, false);
  for (int i = 0; i < 200; ++i) {
    a.update_row_digest(static_cast<std::uint32_t>(i % 3), flow_digest(flow_key_for_rank(i, 1)), 2);
    b.update_row_digest(static_cast<std::uint32_t>(i % 3), flow_digest(flow_key_for_rank(i + 50, 1)), 3);
  }
  CounterMatrix expect(3, 64, 5, false);
  for (int i = 0; i < 200; ++i) {
    expect.update_row_digest(static_cast<std::uint32_t>(i % 3), flow_digest(flow_key_for_rank(i, 1)), 2);
    expect.update_row_digest(static_cast<std::uint32_t>(i % 3), flow_digest(flow_key_for_rank(i + 50, 1)), 3);
  }
  a.merge(b);
  for (std::uint32_t r = 0; r < 3; ++r) {
    const auto got = a.row(r);
    const auto want = expect.row(r);
    for (std::uint32_t c = 0; c < 64; ++c) EXPECT_EQ(got[c], want[c]);
  }
}

TEST(CounterMatrixMerge, RejectsMismatchedShapeOrSeed) {
  CounterMatrix base(3, 64, 5, false);
  CounterMatrix other_seed(3, 64, 6, false);
  CounterMatrix other_width(3, 128, 5, false);
  CounterMatrix other_depth(4, 64, 5, false);
  CounterMatrix other_sign(3, 64, 5, true);
  EXPECT_THROW(base.merge(other_seed), std::invalid_argument);
  EXPECT_THROW(base.merge(other_width), std::invalid_argument);
  EXPECT_THROW(base.merge(other_depth), std::invalid_argument);
  EXPECT_THROW(base.merge(other_sign), std::invalid_argument);
  EXPECT_FALSE(base.mergeable_with(other_seed));
  EXPECT_TRUE(base.mergeable_with(base));
}

TEST(CountMinMerge, ShardedMergeEqualsUnionStreamExactly) {
  const auto stream = merge_trace();
  const auto merged = sharded_merge<CountMinSketch>(
      stream, 4, [] { return CountMinSketch(5, 2048, 11); });
  CountMinSketch single(5, 2048, 11);
  for (const auto& p : stream) single.update(p.key, 1);
  EXPECT_EQ(merged.total(), single.total());
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 31);
    EXPECT_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(CountSketchMerge, ShardedMergeEqualsUnionStreamExactly) {
  const auto stream = merge_trace();
  const auto merged = sharded_merge<CountSketch>(
      stream, 3, [] { return CountSketch(5, 2048, 12); });
  CountSketch single(5, 2048, 12);
  for (const auto& p : stream) single.update(p.key, 1);
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 31);
    EXPECT_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(KAryMerge, FoldsStreamTotalsIntoUnbiasedEstimator) {
  const auto stream = merge_trace();
  const auto merged = sharded_merge<KArySketch>(
      stream, 4, [] { return KArySketch(5, 2048, 13); });
  KArySketch single(5, 2048, 13);
  for (const auto& p : stream) single.update(p.key, 1);
  // The estimator divides by S: only a merge that also folds the shard
  // totals reproduces the single-sketch estimates.
  EXPECT_EQ(merged.total(), single.total());
  EXPECT_EQ(merged.total(), static_cast<std::int64_t>(stream.size()));
  for (int rank = 0; rank < 500; ++rank) {
    const auto key = flow_key_for_rank(rank, 31);
    EXPECT_DOUBLE_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(TopKHeapMerge, UnionsEntriesThroughNormalOfferPath) {
  TopKHeap a(3);
  TopKHeap b(3);
  a.offer(flow_key_for_rank(0, 0), 100);
  a.offer(flow_key_for_rank(1, 0), 50);
  b.offer(flow_key_for_rank(1, 0), 70);  // same key, larger estimate
  b.offer(flow_key_for_rank(2, 0), 60);
  b.offer(flow_key_for_rank(3, 0), 5);
  a.merge(b);
  const auto entries = a.entries_sorted();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].estimate, 100);
  EXPECT_EQ(entries[1].key, flow_key_for_rank(1, 0));
  EXPECT_EQ(entries[1].estimate, 70);
  EXPECT_EQ(entries[2].estimate, 60);
}

TEST(TopKHeapMerge, ReestimatorRewritesIncomingEstimates) {
  TopKHeap a(4);
  TopKHeap b(4);
  b.offer(flow_key_for_rank(7, 0), 10);
  b.offer(flow_key_for_rank(8, 0), 20);
  // Merging against a global view: the per-shard estimates are discarded
  // in favour of whatever the re-estimator reports.
  a.merge(b, [](const FlowKey&, std::int64_t est) { return est * 3; });
  const auto entries = a.entries_sorted();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].estimate, 60);
  EXPECT_EQ(entries[1].estimate, 30);
}

TEST(UnivMonMerge, MergedLevelsMatchUnionStream) {
  UnivMonConfig cfg;
  cfg.levels = 6;
  cfg.depth = 4;
  cfg.top_width = 1024;
  const auto stream = merge_trace(40000, 31);
  UnivMon a(cfg, 21);
  UnivMon b(cfg, 21);
  UnivMon single(cfg, 21);
  std::size_t i = 0;
  for (const auto& p : stream) {
    ((i++ % 2 == 0) ? a : b).update(p.key, 1);
    single.update(p.key, 1);
  }
  a.merge(b);
  for (int rank = 0; rank < 300; ++rank) {
    const auto key = flow_key_for_rank(rank, 31);
    EXPECT_EQ(a.query(key), single.query(key)) << "rank " << rank;
  }
}

}  // namespace
}  // namespace nitro::sketch
