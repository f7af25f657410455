// Online accuracy observer: digest sampling, exact reservoir counting, the
// eps*sqrt(n) bound with its sqrt(2^level) degradation inflation, and the
// bound check against a live sketch — including under kDegrade fault
// injection (the supervision test's stall storm).
#include "telemetry/accuracy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/nitro_univmon.hpp"
#include "fault/fault.hpp"
#include "shard/shard_group.hpp"
#include "telemetry/registry.hpp"
#include "trace/workloads.hpp"

namespace nitro::telemetry {
namespace {

using trace::flow_key_for_rank;

TEST(AccuracyObserver, TracksOnlyDigestSampledFlowsWithExactCounts) {
  constexpr unsigned kBits = 3;
  AccuracyObserver obs(/*epsilon=*/0.05, kBits, /*capacity=*/64);

  // Feed a known multiset: flow rank r gets r+1 packets.
  std::vector<std::pair<FlowKey, std::int64_t>> exact;
  std::size_t expected_tracked = 0;
  for (int r = 0; r < 200; ++r) {
    const FlowKey key = flow_key_for_rank(r, 7);
    exact.emplace_back(key, r + 1);
    if ((flow_digest(key) & ((1ULL << kBits) - 1)) == 0) ++expected_tracked;
    for (int i = 0; i <= r; ++i) obs.observe(key);
  }
  ASSERT_GT(expected_tracked, 0u);
  EXPECT_EQ(obs.tracked_flows(), expected_tracked);

  // A "sketch" that answers exact + 5 for every flow: the empirical error
  // must come out as exactly 5 (mean and max), proving counts are exact.
  auto query = [&exact](const FlowKey& k) -> std::int64_t {
    for (const auto& [key, count] : exact) {
      if (key == k) return count + 5;
    }
    ADD_FAILURE() << "queried a flow that was never fed";
    return 0;
  };
  const EpochAccuracy acc = obs.close_epoch(query, /*stream_total=*/20'100, 0);
  EXPECT_EQ(acc.tracked_flows, expected_tracked);
  EXPECT_DOUBLE_EQ(acc.mean_abs_error, 5.0);
  EXPECT_DOUBLE_EQ(acc.max_abs_error, 5.0);
  EXPECT_DOUBLE_EQ(acc.inflation, 1.0);
  EXPECT_DOUBLE_EQ(acc.bound, 0.05 * std::sqrt(20'100.0));
  EXPECT_TRUE(acc.within_bound);
}

TEST(AccuracyObserver, ZeroSampleBitsTracksEveryFlowUpToCapacity) {
  AccuracyObserver obs(0.05, /*sample_bits=*/0, /*capacity=*/4);
  for (int r = 0; r < 10; ++r) obs.observe(flow_key_for_rank(r, 9));
  EXPECT_EQ(obs.tracked_flows(), 4u);  // reservoir capped
  const auto acc =
      obs.close_epoch([](const FlowKey&) { return 1; }, 10, 0);
  EXPECT_EQ(acc.tracked_flows, 4u);
  EXPECT_DOUBLE_EQ(acc.max_abs_error, 0.0);  // every flow seen once
}

TEST(AccuracyObserver, ReservoirResetsBetweenEpochs) {
  AccuracyObserver obs(0.1, 0, 16);
  obs.observe(flow_key_for_rank(1, 3), 7);
  auto acc = obs.close_epoch([](const FlowKey&) { return 7; }, 7, 0);
  EXPECT_EQ(acc.epoch, 0u);
  EXPECT_EQ(acc.tracked_flows, 1u);
  EXPECT_EQ(obs.tracked_flows(), 0u);  // cleared

  // Next epoch starts fresh: old counts must not leak in.
  obs.observe(flow_key_for_rank(1, 3), 2);
  acc = obs.close_epoch([](const FlowKey&) { return 2; }, 2, 0);
  EXPECT_EQ(acc.epoch, 1u);
  EXPECT_DOUBLE_EQ(acc.max_abs_error, 0.0);
}

TEST(AccuracyObserver, BoundScalesBySqrtTwoToTheDegradeLevel) {
  AccuracyObserver obs(0.05, 0, 8);
  const double base = 0.05 * std::sqrt(10'000.0);

  obs.observe(flow_key_for_rank(0, 5));
  auto acc = obs.close_epoch([](const FlowKey&) { return 1; }, 10'000, 0);
  EXPECT_DOUBLE_EQ(acc.bound, base);

  obs.observe(flow_key_for_rank(0, 5));
  acc = obs.close_epoch([](const FlowKey&) { return 1; }, 10'000, 4);
  EXPECT_DOUBLE_EQ(acc.inflation, 4.0);  // sqrt(2^4)
  EXPECT_DOUBLE_EQ(acc.bound, base * 4.0);
  EXPECT_EQ(acc.degrade_level, 4);
}

TEST(AccuracyObserver, PublishesGaugesAndFlagsBoundViolations) {
  Registry registry;
  AccuracyObserver obs(0.01, 0, 8);
  obs.attach_telemetry(registry, "um");

  obs.observe(flow_key_for_rank(2, 11), 10);
  // Estimate is wildly off (error 990) against a tiny bound.
  const auto acc =
      obs.close_epoch([](const FlowKey&) { return 1000; }, 100, 1);
  EXPECT_FALSE(acc.within_bound);
  EXPECT_DOUBLE_EQ(registry.gauge("um_accuracy_within_bound").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("um_accuracy_max_abs_error").value(), 990.0);
  EXPECT_DOUBLE_EQ(registry.gauge("um_accuracy_bound").value(), acc.bound);
  EXPECT_DOUBLE_EQ(registry.gauge("um_accuracy_error_inflation").value(),
                   std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(registry.gauge("um_accuracy_tracked_flows").value(), 1.0);
}

TEST(AccuracyObserver, VanillaUnivMonStaysWithinTheoremBound) {
  // Deterministic end-to-end check against a real sketch: vanilla UnivMon
  // (no sampling noise) on a fixed-seed caida-like trace.  The observer
  // mirrors every update the sketch sees, so close_epoch compares the
  // sketch's own estimates with ground truth.
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 6;
  um_cfg.depth = 4;
  um_cfg.top_width = 8192;  // wide enough that collision error < eps*sqrt(n)
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.track_top_keys = false;
  core::NitroUnivMon um(um_cfg, cfg, /*seed=*/77);

  AccuracyObserver obs(cfg.epsilon, /*sample_bits=*/4, /*capacity=*/256);
  trace::WorkloadSpec spec;
  spec.packets = 60'000;
  spec.flows = 3'000;
  spec.seed = 81;
  const auto stream = trace::caida_like(spec);
  for (const auto& p : stream) {
    um.update(p.key, 1, p.ts_ns);
    obs.observe(p.key);
  }

  const auto acc = obs.close_epoch(
      [&um](const FlowKey& k) { return um.query(k); },
      static_cast<std::int64_t>(stream.size()), 0);
  ASSERT_GT(acc.tracked_flows, 10u);
  EXPECT_TRUE(acc.within_bound)
      << "mean error " << acc.mean_abs_error << " vs bound " << acc.bound;
}

TEST(AccuracyObserver, KDegradeFaultInjectionInflatesTheReportedBound) {
  // The supervision test's overload storm, observed through the accuracy
  // lens: a stalling worker against a tiny ring forces the kDegrade ladder
  // up, and the epoch-close accuracy verdict must carry the resulting
  // sqrt(2^level) inflation on its bound — the operator-visible form of
  // the throughput-for-accuracy trade.
  fault::Schedule plan;
  plan.add({fault::Site::kWorkerLoop, /*at_hit=*/1, /*every=*/1, /*lane=*/0,
            fault::Action::kStall, /*param=*/5'000'000});
  auto scoped = std::make_unique<fault::ScopedFaultInjection>(plan);

  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 6;
  um_cfg.depth = 4;
  um_cfg.top_width = 2048;
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.5;
  cfg.track_top_keys = false;
  constexpr std::uint64_t kUmSeed = 77;

  shard::ShardOptions opts;
  opts.ring_capacity = 64;
  opts.overflow = shard::OverflowPolicy::kDegrade;
  opts.max_degrade_steps = 7;
  shard::ShardGroup<core::NitroUnivMon> group(
      1,
      [&](std::uint32_t) { return core::NitroUnivMon(um_cfg, cfg, kUmSeed); },
      opts);

  AccuracyObserver obs(cfg.epsilon, /*sample_bits=*/4, /*capacity=*/256);
  trace::WorkloadSpec spec;
  spec.packets = 6'000;
  spec.flows = 3'000;
  spec.seed = 81;
  const auto stream = trace::caida_like(spec);
  for (const auto& p : stream) {
    group.update(p.key, 1, p.ts_ns);
    obs.observe(p.key);
  }
  ASSERT_GT(group.degrade_level(0), 0u);  // the storm forced the ladder up

  scoped.reset();  // lift the stall so drain completes
  group.drain();
  core::NitroUnivMon merged(um_cfg, cfg, kUmSeed);
  const std::uint32_t level = group.merge_into(merged).degrade_level;
  merged.apply_degradation(level);  // as MonitorRuntime::close_epoch does

  const auto acc = obs.close_epoch(
      [&merged](const FlowKey& k) { return merged.query(k); },
      static_cast<std::int64_t>(stream.size()),
      static_cast<int>(merged.degrade_level()));
  EXPECT_EQ(acc.degrade_level, static_cast<int>(level));
  EXPECT_DOUBLE_EQ(acc.inflation,
                   std::sqrt(std::ldexp(1.0, static_cast<int>(level))));
  EXPECT_GT(acc.inflation, 1.0);
  EXPECT_DOUBLE_EQ(
      acc.bound,
      cfg.epsilon * std::sqrt(static_cast<double>(stream.size())) * acc.inflation);
  ASSERT_GT(acc.tracked_flows, 0u);
}

}  // namespace
}  // namespace nitro::telemetry
