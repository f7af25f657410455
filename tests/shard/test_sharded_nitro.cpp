// ShardGroup<NitroSketch<Base>>: dispatch invariants, merge_into's
// merged view against a single-instance run, epoch-boundary clearing,
// heap re-estimation, and pipeline integration.
#include "shard/shard_group.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "support/nitro_shards.hpp"
#include "switchsim/ovs_pipeline.hpp"
#include "switchsim/sharded_measurement.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::shard {
namespace {

using testing::merged_view;
using testing::nitro_shards;
using trace::flow_key_for_rank;

trace::Trace shard_trace(std::uint64_t packets = 120000, std::uint64_t seed = 51) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 3000;
  spec.seed = seed;
  return trace::caida_like(spec);
}

core::NitroConfig vanilla_cfg(bool top_keys = true) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.track_top_keys = top_keys;
  cfg.top_keys = 128;
  return cfg;
}

TEST(ShardSamplerSeed, MatchesTheInlineDerivation) {
  EXPECT_EQ(shard_sampler_seed(42, 3), mix64(42 ^ (0x9e3779b97f4a7c15ULL * 4)));
}

TEST(ShardedNitro, DispatchIsStickyPerFlowAndCoversAllShards) {
  auto sharded = nitro_shards(4, [] { return sketch::CountMinSketch(4, 1024, 3); },
                              vanilla_cfg(false));
  std::vector<bool> hit(4, false);
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 9);
    const std::uint32_t s = sharded.shard_of(key);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(sharded.shard_of(key), s);  // stable per flow
    hit[s] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(hit[s]) << "shard " << s << " unused";
}

TEST(ShardedNitro, VanillaMergedSnapshotEqualsSingleInstanceExactly) {
  const auto stream = shard_trace();
  auto make = [] { return sketch::CountMinSketch(5, 4096, 21); };
  auto sharded = nitro_shards(4, make, vanilla_cfg());
  core::NitroSketch<sketch::CountMinSketch> single(make(), vanilla_cfg());
  for (const auto& p : stream) {
    sharded.update(p.key, 1, p.ts_ns);
    single.update(p.key, 1, p.ts_ns);
  }
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  EXPECT_EQ(merged.packets(), stream.size());
  EXPECT_EQ(sharded.total_drops(), 0u);
  for (int rank = 0; rank < 4000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(ShardedNitro, BurstDispatchEqualsPerPacketDispatchExactly) {
  // update_burst partitions by shard and bulk-enqueues; the workers replay
  // runs through the sketch's burst fast path.  Both layers are
  // update-sequence-equivalent, so the merged counters must equal a
  // single-instance per-packet run bit for bit (vanilla mode: every
  // packet counts, no sampling randomness across thread interleavings).
  const auto stream = shard_trace();
  std::vector<FlowKey> keys;
  keys.reserve(stream.size());
  for (const auto& p : stream) keys.push_back(p.key);

  auto make = [] { return sketch::CountMinSketch(5, 4096, 28); };
  auto sharded = nitro_shards(4, make, vanilla_cfg());
  core::NitroSketch<sketch::CountMinSketch> single(make(), vanilla_cfg());
  std::size_t i = 0;
  while (i < keys.size()) {
    const std::size_t n = std::min<std::size_t>(32, keys.size() - i);
    sharded.update_burst(std::span<const FlowKey>(keys.data() + i, n), 1,
                         stream[i + n - 1].ts_ns);
    i += n;
  }
  for (const auto& p : stream) single.update(p.key, 1, p.ts_ns);
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  EXPECT_EQ(merged.packets(), stream.size());
  EXPECT_EQ(sharded.total_drops(), 0u);
  for (int rank = 0; rank < 4000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(ShardedNitro, KAryMergeFoldsShardTotals) {
  const auto stream = shard_trace(60000);
  auto make = [] { return sketch::KArySketch(5, 4096, 22); };
  auto sharded = nitro_shards(3, make, vanilla_cfg(false));
  core::NitroSketch<sketch::KArySketch> single(make(), vanilla_cfg(false));
  for (const auto& p : stream) {
    sharded.update(p.key, 1, p.ts_ns);
    single.update(p.key, 1, p.ts_ns);
  }
  const auto merged = merged_view(sharded, make, vanilla_cfg(false));
  // Each shard counted only its own packets; the merge must recover the
  // full stream length for the unbiased estimator.
  EXPECT_EQ(merged.base().total(), static_cast<std::int64_t>(stream.size()));
  for (int rank = 0; rank < 1000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(ShardedNitro, TopKeysReestimatedFromMergedCounters) {
  const auto stream = shard_trace();
  auto make = [] { return sketch::CountMinSketch(5, 4096, 23); };
  auto sharded = nitro_shards(4, make, vanilla_cfg());
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  const auto top = merged.top_keys();
  ASSERT_GT(top.size(), 0u);
  trace::GroundTruth truth(stream);
  for (const auto& e : top) {
    // Heap estimates come from the merged counters, not stale per-shard
    // views: they must match a direct merged query and CM's one-sided
    // guarantee (estimate >= true count) must hold globally.
    EXPECT_EQ(e.estimate, merged.query(e.key));
    EXPECT_GE(e.estimate, truth.count(e.key));
  }
  // The true heaviest flow must be tracked.
  EXPECT_TRUE(merged.heap().contains(truth.top_k(1)[0].first));
}

TEST(ShardedNitro, MergeIntoClearsShardsForTheNextEpoch) {
  auto make = [] { return sketch::CountMinSketch(4, 1024, 24); };
  auto sharded = nitro_shards(2, make, vanilla_cfg(false));
  const auto key = flow_key_for_rank(0, 1);
  sharded.update(key, 1, 0);
  auto total = merged_view(sharded, make, vanilla_cfg(false));
  EXPECT_EQ(total.query(key), 1);
  sharded.update(key, 1, 0);
  // The next epoch's view holds only the next epoch's packet ...
  const auto next = merged_view(sharded, make, vanilla_cfg(false));
  EXPECT_EQ(next.packets(), 1u);
  EXPECT_EQ(next.query(key), 1);
  // ... and an empty epoch merges nothing into a running total.
  sharded.drain();
  sharded.merge_into(total);
  EXPECT_EQ(total.packets(), 1u);
  EXPECT_EQ(total.query(key), 1);
}

TEST(ShardedNitro, SampledMergedEstimatesTrackTruth) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.05;
  cfg.track_top_keys = true;
  cfg.top_keys = 128;
  const auto stream = shard_trace(300000);
  auto make = [] { return sketch::CountSketch(5, 8192, 25); };
  auto sharded = nitro_shards(4, make, cfg);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  const auto merged = merged_view(sharded, make, cfg);
  trace::GroundTruth truth(stream);
  for (const auto& [key, count] : truth.top_k(5)) {
    EXPECT_NEAR(static_cast<double>(merged.query(key)), static_cast<double>(count),
                0.3 * static_cast<double>(count) + 100.0);
  }
}

TEST(ShardedNitro, DrivesOvsPipelineAsMeasurementHook) {
  const auto stream = shard_trace(80000);
  auto make = [] { return sketch::CountMinSketch(5, 4096, 26); };
  auto sharded = nitro_shards(3, make, vanilla_cfg());
  switchsim::ShardedMeasurement<core::NitroCountMin> meas(sharded);
  switchsim::OvsPipeline pipe(meas);
  const auto stats = pipe.run(switchsim::materialize(stream));
  EXPECT_EQ(stats.packets, stream.size());
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  EXPECT_EQ(merged.packets(), stream.size());
  trace::GroundTruth truth(stream);
  for (const auto& [key, count] : truth.top_k(5)) {
    EXPECT_GE(merged.query(key), count);  // CM one-sided bound, merged view
  }
}

TEST(ShardedNitro, PerShardTelemetryAndMergedGauges) {
  telemetry::Registry registry;
  auto make = [] { return sketch::CountMinSketch(4, 1024, 27); };
  auto sharded = nitro_shards(2, make, vanilla_cfg());
  sharded.attach_telemetry(registry, "dp");
  const auto stream = shard_trace(20000);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  std::uint64_t shard_packets = 0;
  double workers = -1.0;
  registry.for_each_counter([&](const std::string& name, const std::string&,
                                const telemetry::Counter& c) {
    if (name == "dp_shard0_packets_total" || name == "dp_shard1_packets_total") {
      shard_packets += c.value();
    }
  });
  registry.for_each_gauge([&](const std::string& name, const std::string&,
                              const telemetry::Gauge& g) {
    if (name == "dp_workers") workers = g.value();
  });
  EXPECT_EQ(shard_packets, stream.size());
  EXPECT_EQ(merged.packets(), stream.size());  // the merged view covers them all
  EXPECT_EQ(workers, 2.0);
}

TEST(ShardGroup, RejectsZeroWorkers) {
  EXPECT_THROW(nitro_shards(0, [] { return sketch::CountMinSketch(4, 1024, 1); },
                            vanilla_cfg(false)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nitro::shard
