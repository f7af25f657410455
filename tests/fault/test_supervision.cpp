// Worker supervision: heartbeats, the drain watchdog, shard quarantine
// with survivor-only merges (Theorem-1 bound on the surviving traffic),
// the kDegrade overload ladder, and overflow accounting invariants.
#include "shard/shard_group.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "support/nitro_shards.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::shard {
namespace {

using testing::nitro_shards;
using trace::flow_key_for_rank;

trace::Trace shard_trace(std::uint64_t packets = 120000, std::uint64_t seed = 81) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 3000;
  spec.seed = seed;
  return trace::caida_like(spec);
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  return cfg;
}

TEST(Supervision, HeartbeatsAdvanceOnHealthyWorkers) {
  auto group =
      nitro_shards(2, [] { return sketch::CountMinSketch(4, 512, 31); }, vanilla_cfg());
  const std::uint64_t hb0 = group.worker_heartbeat(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(group.worker_heartbeat(0), hb0);
  EXPECT_TRUE(group.worker_alive(0));
  EXPECT_TRUE(group.worker_alive(1));
  EXPECT_EQ(group.quarantined_shards(), 0u);
}

TEST(Supervision, WatchdogQuarantinesAWedgedWorkerWithinTheDrainTimeout) {
  // Worker 1 wedges on its first loop iteration (60s injected stall, far
  // past the 250ms watchdog).  The epoch must still close: drain() gives
  // up on the wedged shard, quarantines it, and completes from survivors.
  fault::Schedule plan;
  plan.stall_worker(/*lane=*/1, /*at_hit=*/1, /*ns=*/60'000'000'000ULL);
  fault::ScopedFaultInjection scoped(plan);

  ShardOptions opts;
  opts.drain_timeout_ns = 250'000'000ULL;
  auto sharded = nitro_shards(3, [] { return sketch::CountMinSketch(4, 1024, 32); },
                              vanilla_cfg(), opts);
  const auto stream = shard_trace(30000);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);

  const auto t0 = std::chrono::steady_clock::now();
  const bool complete = sharded.drain();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_FALSE(complete);
  EXPECT_LT(elapsed_ms, 5000) << "drain must not wait out a 60s stall";
  EXPECT_TRUE(sharded.quarantined(1));
  EXPECT_FALSE(sharded.quarantined(0));
  EXPECT_FALSE(sharded.quarantined(2));
  EXPECT_EQ(sharded.quarantines(), 1u);
  // The aborted worker exits without touching its instance again.
  sharded.stop();
  EXPECT_FALSE(sharded.worker_alive(1));
}

TEST(Supervision, KilledWorkerMidEpochMergesSurvivorsWithinTheoremBound) {
  // Seeded kill: worker 2 wedges mid-epoch.  The merged snapshot excludes
  // the lost shard; for flows on surviving shards the view must be exactly
  // a Count-Min over the surviving union stream — one-sided, and within
  // the Theorem-1-style additive bound scaled to the surviving traffic.
  fault::Schedule plan;
  plan.stall_worker(/*lane=*/2, /*at_hit=*/40, /*ns=*/60'000'000'000ULL);
  fault::ScopedFaultInjection scoped(plan);

  ShardOptions opts;
  opts.drain_timeout_ns = 250'000'000ULL;
  constexpr std::uint32_t kWidth = 4096;
  auto make = [] { return sketch::CountMinSketch(5, kWidth, 33); };
  auto sharded = nitro_shards(4, make, vanilla_cfg(), opts);

  const auto stream = shard_trace(120000);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);

  EXPECT_FALSE(sharded.drain());
  ASSERT_TRUE(sharded.quarantined(2));
  core::NitroCountMin merged(make(), vanilla_cfg());
  EXPECT_EQ(sharded.merge_into(merged).quarantined, std::vector<std::uint32_t>{2});

  // Surviving stream = everything the live shards applied.
  std::uint64_t surviving = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (!sharded.quarantined(s)) surviving += sharded.shard_applied(s);
  }
  ASSERT_GT(surviving, 0u);
  ASSERT_LT(surviving, stream.size());  // the fault really cost coverage

  trace::GroundTruth truth(stream);
  // Per-flow truth restricted to surviving shards: dispatch is per-flow
  // sticky, so a flow is entirely in or entirely out.
  const double additive =
      3.0 * static_cast<double>(surviving) / static_cast<double>(kWidth) + 16.0;
  int checked = 0;
  for (int rank = 0; rank < 3000; ++rank) {
    const auto key = flow_key_for_rank(rank, 81);
    if (sharded.shard_of(key) == 2) continue;  // lost with the quarantined shard
    const std::int64_t t = truth.count(key);
    const std::int64_t est = merged.query(key);
    EXPECT_GE(est, t) << "rank " << rank;  // CM one-sided on survivors
    EXPECT_LE(static_cast<double>(est), static_cast<double>(t) + additive)
        << "rank " << rank;
    ++checked;
  }
  EXPECT_GT(checked, 1000);
}

TEST(Supervision, DeadWorkerIsDetectedAndDrainStillCompletes) {
  fault::Schedule plan;
  plan.kill_worker(/*lane=*/1, /*at_hit=*/1);
  fault::ScopedFaultInjection scoped(plan);

  ShardOptions opts;
  opts.drain_timeout_ns = 250'000'000ULL;
  auto make = [] { return sketch::CountMinSketch(4, 1024, 34); };
  auto group = nitro_shards(2, make, vanilla_cfg(), opts);
  // Give the injected death time to land, then push traffic at both shards.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(group.worker_alive(1));
  const auto stream = shard_trace(20000);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& p : stream) group.update(p.key, 1, p.ts_ns);
  group.drain();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_LT(elapsed_ms, 5000) << "pushes to a dead shard must not spin forever";
  // Every packet is accounted: applied by the live worker, or counted as
  // a drop at the dead shard (kBlock's bounded-liveness fallback).
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(group.shard_packets(s),
              group.shard_applied(s) + group.shard_drops(s))
        << "shard " << s;
  }
  EXPECT_EQ(group.shard_drops(0), 0u);
  EXPECT_EQ(group.shard_applied(0), group.shard_packets(0));
  EXPECT_GT(group.shard_drops(1), 0u);
  const auto merged = testing::merged_view(group, make, vanilla_cfg());
  EXPECT_GT(merged.packets(), 0u);  // merged view still answers
}

TEST(Supervision, DegradePolicyStepsProbabilityBeforeShedding) {
  // A repeatedly-stalling worker (5ms per loop iteration) against a tiny
  // ring forces overflow; under kDegrade the producer halves the shard's
  // sampling probability (bounded) before any packet is shed, and the
  // accounting makes the accuracy trade visible.
  fault::Schedule plan;
  plan.add({fault::Site::kWorkerLoop, /*at_hit=*/1, /*every=*/1, /*lane=*/0,
            fault::Action::kStall, /*param=*/5'000'000});
  auto scoped = std::make_unique<fault::ScopedFaultInjection>(plan);

  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.5;
  cfg.track_top_keys = false;
  ShardOptions opts;
  opts.ring_capacity = 64;
  opts.overflow = OverflowPolicy::kDegrade;
  opts.max_degrade_steps = 7;
  telemetry::Registry registry;
  auto make = [] { return sketch::CountMinSketch(4, 2048, 35); };
  auto group = nitro_shards(1, make, cfg, opts);
  group.attach_telemetry(registry, "dp");

  const auto stream = shard_trace(6000);
  for (const auto& p : stream) group.update(p.key, 1, p.ts_ns);

  EXPECT_GT(group.degrade_level(0), 0u);
  EXPECT_GT(group.estimated_error_inflation(), 1.0);
  EXPECT_DOUBLE_EQ(group.estimated_error_inflation(),
                   std::sqrt(std::ldexp(1.0, static_cast<int>(group.degrade_level(0)))));

  // Lift the stall storm; the worker catches up and the degraded
  // probability is visible on the instance.
  scoped.reset();
  group.drain();
  // Accounting: every packet was applied or counted as shed — none lost.
  EXPECT_EQ(group.shard_packets(0),
            group.shard_applied(0) + group.shard_drops(0));
  EXPECT_GT(group.shard_drops(0), 0u);
  EXPECT_LT(group.instance(0).current_probability(), cfg.probability);

  // Per-shard degrade telemetry counted the escalations.
  std::uint64_t steps = 0;
  registry.for_each_counter([&](const std::string& name, const std::string&,
                                const telemetry::Counter& c) {
    if (name == "dp_shard0_degrade_steps_total") steps = c.value();
  });
  EXPECT_EQ(steps, group.degrade_level(0));

  // Epoch boundary: the merge reports the level it ran at, then resets
  // degradation for the next epoch.
  const std::uint32_t level = group.degrade_level(0);
  core::NitroCountMin merged(make(), cfg);
  EXPECT_EQ(group.merge_into(merged).degrade_level, level);
  EXPECT_EQ(group.degrade_level(0), 0u);
  EXPECT_DOUBLE_EQ(group.estimated_error_inflation(), 1.0);
  EXPECT_DOUBLE_EQ(group.instance(0).current_probability(), cfg.probability);
}

TEST(Supervision, DropPolicyBurstAccountingIsExact) {
  // Regression for the kDrop burst tail: with every ring push rejected
  // (injected overflow storm), a dispatched burst must be fully accounted
  // as drops — packets == pushed + drops, nothing lost or double-counted.
  fault::Schedule plan;
  plan.reject_ring_pushes(/*lane=*/0, /*at_hit=*/1, /*every=*/1);
  fault::ScopedFaultInjection scoped(plan);

  core::NitroConfig cfg = vanilla_cfg();
  ShardOptions opts;
  opts.overflow = OverflowPolicy::kDrop;
  auto group =
      nitro_shards(1, [] { return sketch::CountMinSketch(4, 512, 36); }, cfg, opts);
  std::vector<FlowKey> burst;
  for (int i = 0; i < 100; ++i) burst.push_back(flow_key_for_rank(i, 5));
  group.update_burst(burst, 1, 0);
  group.update(burst[0], 1, 0);

  EXPECT_EQ(group.shard_packets(0), 101u);
  EXPECT_EQ(group.shard_drops(0), 101u);
  EXPECT_EQ(group.shard_applied(0), 0u);
  EXPECT_EQ(group.total_packets(), 101u);
  EXPECT_EQ(group.total_drops(), 101u);
}

TEST(Supervision, QuarantinedShardIsShedNotBlockedOn) {
  // After quarantine, kBlock producers shed to the lost shard instead of
  // spinning: the forwarding path never wedges on a dead core.
  fault::Schedule plan;
  plan.stall_worker(/*lane=*/0, /*at_hit=*/1, /*ns=*/60'000'000'000ULL);
  fault::ScopedFaultInjection scoped(plan);

  ShardOptions opts;
  opts.drain_timeout_ns = 200'000'000ULL;
  auto sharded = nitro_shards(2, [] { return sketch::CountMinSketch(4, 512, 37); },
                              vanilla_cfg(), opts);
  const auto stream = shard_trace(5000);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  EXPECT_FALSE(sharded.drain());
  ASSERT_TRUE(sharded.quarantined(0));

  const std::uint64_t drops_before = sharded.shard_drops(0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) {
    sharded.update_on_shard(0, flow_key_for_rank(i, 6), 1, 0);
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_LT(elapsed_ms, 1000);
  EXPECT_EQ(sharded.shard_drops(0), drops_before + 1000);
}

}  // namespace
}  // namespace nitro::shard
