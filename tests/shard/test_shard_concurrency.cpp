// Cross-thread behaviour of the shard layer, written for TSan
// (`-DNITRO_SANITIZE=thread`, `ctest -L tsan`): pre-partitioned
// multi-producer dispatch, epoch-boundary drain/merge interleaving,
// concurrent telemetry readers, the kDrop overflow policy, and the
// ShardGroup<NitroUnivMon> merge path the monitor daemon uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/nitro_univmon.hpp"
#include "shard/shard_group.hpp"
#include "support/nitro_shards.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::shard {
namespace {

using testing::merged_view;
using testing::nitro_shards;
using trace::flow_key_for_rank;

trace::Trace conc_trace(std::uint64_t packets = 80000, std::uint64_t seed = 61) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 2000;
  spec.seed = seed;
  return trace::caida_like(spec);
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.track_top_keys = false;
  return cfg;
}

TEST(ShardConcurrency, PrePartitionedProducersMatchSingleInstance) {
  // One producer thread per shard (the NIC-RSS shape): each producer
  // routes exactly the keys that hash to its shard, so every ring stays
  // single-producer.  The merged result must equal one sketch fed the
  // union stream.
  constexpr std::uint32_t kWorkers = 4;
  const auto stream = conc_trace();
  auto make = [] { return sketch::CountMinSketch(5, 4096, 31); };
  auto sharded = nitro_shards(kWorkers, make, vanilla_cfg());
  core::NitroSketch<sketch::CountMinSketch> single(make(), vanilla_cfg());
  for (const auto& p : stream) single.update(p.key, 1, p.ts_ns);

  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kWorkers; ++s) {
    producers.emplace_back([&, s] {
      for (const auto& p : stream) {
        if (sharded.shard_of(p.key) == s) sharded.update_on_shard(s, p.key, 1, p.ts_ns);
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  EXPECT_EQ(merged.packets(), stream.size());
  EXPECT_EQ(sharded.total_drops(), 0u);
  for (int rank = 0; rank < 3000; ++rank) {
    const auto key = flow_key_for_rank(rank, 61);
    EXPECT_EQ(merged.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(ShardConcurrency, SnapshotAtEpochBoundariesStaysCoherent) {
  // Dispatcher alternates traffic bursts with epoch-boundary merges into
  // a running total.  Every merge must account for exactly the packets
  // dispatched so far (drain barrier), monotonically.
  const auto stream = conc_trace(60000);
  auto make = [] { return sketch::CountMinSketch(5, 2048, 32); };
  auto sharded = nitro_shards(3, make, vanilla_cfg());
  core::NitroSketch<sketch::CountMinSketch> total(make(), vanilla_cfg());
  constexpr std::size_t kEpochs = 6;
  const std::size_t chunk = stream.size() / kEpochs;
  std::uint64_t prev_packets = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::size_t begin = e * chunk;
    const std::size_t end = (e + 1 == kEpochs) ? stream.size() : begin + chunk;
    for (std::size_t i = begin; i < end; ++i) {
      sharded.update(stream[i].key, 1, stream[i].ts_ns);
    }
    sharded.drain();
    sharded.merge_into(total);
    EXPECT_EQ(total.packets(), end);
    EXPECT_GT(total.packets(), prev_packets);
    prev_packets = total.packets();
  }
  // Final view equals a single-instance run of the whole stream.
  core::NitroSketch<sketch::CountMinSketch> single(make(), vanilla_cfg());
  for (const auto& p : stream) single.update(p.key, 1, p.ts_ns);
  for (int rank = 0; rank < 1000; ++rank) {
    const auto key = flow_key_for_rank(rank, 61);
    EXPECT_EQ(total.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(ShardConcurrency, TelemetryCountersReadableDuringDispatch) {
  // A monitoring thread polls the per-shard counters while the dispatcher
  // is pushing — the counters are relaxed atomics, so TSan must stay
  // quiet and the reads must be monotone.
  const auto stream = conc_trace(50000);
  auto sharded =
      nitro_shards(2, [] { return sketch::CountMinSketch(4, 2048, 33); }, vanilla_cfg());
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = sharded.total_packets();
      EXPECT_GE(now, prev);
      prev = now;
    }
  });
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  sharded.drain();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(sharded.total_packets(), stream.size());
}

TEST(ShardConcurrency, DropPolicyNeverBlocksAndAccountsEveryPacket) {
  // Tiny rings + kDrop: the dispatcher must never stall, and
  // packets == applied + drops must balance exactly after drain (what the
  // sketch saw is exactly the non-dropped packets).
  ShardOptions opts;
  opts.ring_capacity = 64;
  opts.overflow = OverflowPolicy::kDrop;
  const auto stream = conc_trace(50000);
  auto make = [] { return sketch::CountMinSketch(4, 2048, 34); };
  auto sharded = nitro_shards(2, make, vanilla_cfg(), opts);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  const auto merged = merged_view(sharded, make, vanilla_cfg());
  EXPECT_EQ(sharded.total_packets(), stream.size());
  EXPECT_EQ(merged.base().total(),
            static_cast<std::int64_t>(stream.size()) -
                static_cast<std::int64_t>(sharded.total_drops()));
}

TEST(ShardConcurrency, UnivMonShardsMergeIntoGlobalView) {
  // The monitor daemon's --workers path: ShardGroup<NitroUnivMon> shards
  // (same UnivMon seed, decorrelated sampler seeds) merged into one
  // aggregate at the epoch boundary, compared against a single instance
  // fed the union stream.  Vanilla mode keeps the comparison exact.
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 6;
  um_cfg.depth = 4;
  um_cfg.top_width = 2048;
  core::NitroConfig cfg = vanilla_cfg();
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  constexpr std::uint64_t kUmSeed = 77;

  const auto stream = conc_trace(60000);
  core::NitroUnivMon single(um_cfg, cfg, kUmSeed);
  for (const auto& p : stream) single.update(p.key, 1, p.ts_ns);

  core::NitroUnivMon aggregate(um_cfg, cfg, kUmSeed);
  {
    ShardGroup<core::NitroUnivMon> group(
        2,
        [&](std::uint32_t i) {
          core::NitroConfig shard_cfg = cfg;
          shard_cfg.seed = shard_sampler_seed(cfg.seed, i);
          return core::NitroUnivMon(um_cfg, shard_cfg, kUmSeed);
        },
        ShardOptions{});
    for (const auto& p : stream) group.update(p.key, 1, p.ts_ns);
    group.drain();
    EXPECT_TRUE(group.merge_into(aggregate).quarantined.empty());
  }
  for (int rank = 0; rank < 500; ++rank) {
    const auto key = flow_key_for_rank(rank, 61);
    EXPECT_EQ(aggregate.query(key), single.query(key)) << "rank " << rank;
  }
}

TEST(ShardConcurrency, ValveTripsUnderPrePartitionedProducersStayRaceFree) {
  // One producer per shard feeding a churn storm through an enabled
  // admission valve (DESIGN.md §16) while a monitoring thread polls the
  // trip counter and degrade levels: the valve itself is producer-local
  // (SPSC contract), the observability path is atomic — TSan must stay
  // quiet and the counters must be monotone.
  trace::AttackSpec aspec;
  aspec.benign.packets = 60'000;
  aspec.benign.flows = 500;
  aspec.benign.seed = 23;
  aspec.attack_fraction = 0.8;
  aspec.attack_seed = 0x5701217ULL;
  const auto storm = trace::churn_storm(aspec);

  constexpr std::uint32_t kWorkers = 2;
  ShardOptions opts;
  opts.valve.enabled = true;
  opts.valve.window = 4096;
  opts.valve.new_flow_threshold = 0.5;
  ShardGroup<core::NitroUnivMon> group(
      kWorkers,
      [&](std::uint32_t i) {
        core::NitroConfig cfg = vanilla_cfg();
        cfg.seed = shard_sampler_seed(cfg.seed, i);
        return core::NitroUnivMon(sketch::UnivMonConfig{}, cfg, 77);
      },
      opts);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t trips = group.total_valve_trips();
      EXPECT_GE(trips, prev);
      prev = trips;
      for (std::uint32_t i = 0; i < kWorkers; ++i) (void)group.degrade_level(i);
    }
  });
  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kWorkers; ++s) {
    producers.emplace_back([&, s] {
      for (const auto& p : storm.trace) {
        if (group.shard_of(p.key) == s) group.update_on_shard(s, p.key, 1, p.ts_ns);
      }
    });
  }
  for (auto& t : producers) t.join();
  group.drain();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(group.total_valve_trips(), 0u);
  std::uint32_t max_level = 0;
  for (std::uint32_t i = 0; i < kWorkers; ++i) {
    max_level = std::max(max_level, group.degrade_level(i));
  }
  EXPECT_GT(max_level, 0u);
}

TEST(ShardConcurrency, ResetDegradationRacingWorkersReappliesTheLevel) {
  // Regression for the reset-then-re-escalate-to-the-same-level skip: the
  // control plane resets the ladder while producers keep tripping the
  // valve, so the worker's cached applied level and the shared level churn
  // concurrently.  The generation counter makes every reset observable;
  // after the final reset with quiescent producers the ladder must read 0.
  trace::AttackSpec aspec;
  aspec.benign.packets = 48'000;
  aspec.benign.flows = 500;
  aspec.benign.seed = 29;
  aspec.attack_fraction = 0.9;
  aspec.attack_seed = 0xde5e7ULL;
  const auto storm = trace::churn_storm(aspec);

  ShardOptions opts;
  opts.valve.enabled = true;
  opts.valve.window = 2048;
  opts.valve.new_flow_threshold = 0.5;
  ShardGroup<core::NitroUnivMon> group(
      2,
      [&](std::uint32_t i) {
        core::NitroConfig cfg = vanilla_cfg();
        cfg.seed = shard_sampler_seed(cfg.seed, i);
        return core::NitroUnivMon(sketch::UnivMonConfig{}, cfg, 77);
      },
      opts);

  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      group.reset_degradation();
      std::this_thread::yield();
    }
  });
  std::uint64_t trips_seen = 0;
  constexpr int kRounds = 4;
  const std::size_t chunk = storm.trace.size() / kRounds;
  for (int r = 0; r < kRounds; ++r) {
    const std::size_t begin = static_cast<std::size_t>(r) * chunk;
    const std::size_t end = r + 1 == kRounds ? storm.trace.size() : begin + chunk;
    for (std::size_t i = begin; i < end; ++i) {
      group.update(storm.trace[i].key, 1, storm.trace[i].ts_ns);
    }
    const std::uint64_t trips = group.total_valve_trips();
    EXPECT_GE(trips, trips_seen);
    trips_seen = trips;
  }
  stop.store(true, std::memory_order_release);
  resetter.join();
  EXPECT_GT(trips_seen, 0u);  // the storm kept tripping through the resets
  group.drain();
  group.reset_degradation();
  group.drain();  // workers observe the bumped reset generation
  for (std::uint32_t i = 0; i < group.workers(); ++i) {
    EXPECT_EQ(group.degrade_level(i), 0u);
  }
}

}  // namespace
}  // namespace nitro::shard
