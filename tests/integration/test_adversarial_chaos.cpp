// Chaos soak harness (DESIGN.md §16): each attack workload runs against
// the live monitor -> exporter -> collector pipeline with fault injection,
// once with the defenses off (pinning the damage the attack does) and once
// with them on (pinning the recovery).  The assertions follow the threat
// model:
//
//  * collision flood  — crafted against the public base seed; keyed
//    per-generation seed derivation makes the crafted set miss, the
//    collision-pressure gauge and alarm fire only on the undefended
//    sketch, and the defended pipeline survives a crash + checkpoint
//    restore across a seed-rotation boundary with exact accounting.
//  * churn storm      — the shard admission valve trips and escalates the
//    degrade ladder before anything melts; memory stays flat; a fault
//    that blinds the valve is detected by the same counters.
//  * skew flip        — the eviction-velocity alarm fires on the flip
//    epoch and clears within one epoch of the attack end (the new
//    distribution becomes the baseline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "control/daemon.hpp"
#include "control/monitor_runtime.hpp"
#include "core/nitro_univmon.hpp"
#include "core/seed_schedule.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "fault/fault.hpp"
#include "shard/sharded_nitro.hpp"
#include "sketch/anomaly.hpp"
#include "sketch/univmon.hpp"
#include "support/monitor_config.hpp"
#include "support/temp_path.hpp"
#include "telemetry/registry.hpp"
#include "trace/adversary.hpp"
#include "trace/workloads.hpp"

namespace nitro {
namespace {

constexpr std::uint64_t kSeed = 7;  // the *public* base seed the attacker knows
constexpr std::uint64_t kMasterKey = 0x5eedace5ec3e7ULL;  // the secret
constexpr std::uint64_t kRotationEpochs = 2;
constexpr std::uint64_t kAttackSeed = 0xa77ac4e2ULL;
constexpr int kEpochs = 4;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 256;
  cfg.min_width = 128;
  cfg.heap_capacity = 64;
  return cfg;
}

core::SeedSchedule schedule() {
  return core::SeedSchedule{kSeed, kMasterKey, kRotationEpochs};
}

core::NitroConfig vanilla_config() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // deterministic: exact equality testable
  return cfg;
}

/// Epoch slice [e/kEpochs, (e+1)/kEpochs) of a trace.
std::pair<std::size_t, std::size_t> slice(const trace::Trace& t, int e) {
  const std::size_t per = t.size() / kEpochs;
  const std::size_t begin = static_cast<std::size_t>(e) * per;
  return {begin, e == kEpochs - 1 ? t.size() : begin + per};
}

template <typename Sketch>
void feed_slice(Sketch& sk, const trace::Trace& t, int e) {
  const auto [begin, end] = slice(t, e);
  for (std::size_t i = begin; i < end; ++i) {
    if constexpr (requires { sk.on_packet(t[i].key); }) {
      sk.on_packet(t[i].key);
    } else {
      sk.update(t[i].key);
    }
  }
}

// ===========================================================================
// Scenario 1: collision flood.
// ===========================================================================

trace::AttackTrace flood_trace(const std::vector<FlowKey>& crafted) {
  trace::AttackSpec spec;
  spec.benign.packets = 24'000;
  spec.benign.flows = 500;
  spec.benign.seed = 11;
  spec.attack_fraction = 0.4;
  spec.attack_seed = kAttackSeed;
  return trace::collision_flood(spec, crafted);
}

TEST(AdversarialChaos, CollisionFloodCorruptsTheBaseSeedButNotARotatedOne) {
  const auto target = trace::adversary::univmon_level0_target(um_config(), kSeed);
  const auto set = trace::adversary::craft_collision_set(
      target, /*count=*/16, /*min_rows=*/2, kAttackSeed);
  ASSERT_GE(set.keys.size(), 4u);
  const auto flood = flood_trace(set.keys);

  // One epoch's worth of the flood into each sketch.  The undefended one
  // sits on the seed the set was crafted against; the defended one on the
  // keyed generation-0 seed (the attacker knows kSeed, not kMasterKey).
  sketch::UnivMon undefended(um_config(), kSeed);
  sketch::UnivMon defended(um_config(), schedule().seed_for(0));
  feed_slice(undefended, flood.trace, 0);
  feed_slice(defended, flood.trace, 0);

  // Ground truth for the slice.
  const std::unordered_set<FlowKey> crafted(set.keys.begin(), set.keys.end());
  const auto [begin, end] = slice(flood.trace, 0);
  std::int64_t slice_attack = 0;
  std::unordered_map<FlowKey, std::int64_t> truth;
  for (std::size_t i = begin; i < end; ++i) {
    ++truth[flood.trace[i].key];
    if (crafted.count(flood.trace[i].key) != 0) ++slice_attack;
  }
  ASSERT_GT(slice_attack, 1'000);

  // Each crafted key carries ~1/16th of the flood, yet on the targeted
  // seed its estimate inherits the *whole* flood (every member lands in
  // the anchor's buckets on a median of rows).  On the rotated seed the
  // same key reads as the small flow it really is.
  for (std::size_t i = 1; i <= 3; ++i) {
    const FlowKey& k = set.keys[i];
    EXPECT_LE(truth[k], slice_attack / 8) << "crafted key is individually small";
    EXPECT_GE(undefended.query(k), slice_attack / 2) << "crafted key " << i;
    EXPECT_LT(defended.query(k), slice_attack / 2) << "crafted key " << i;
  }

  // The collision-pressure gauge separates the two regimes by a wide
  // margin — this separation is what the alarm threshold lives in.
  const double p_att = sketch::collision_pressure(undefended);
  const double p_def = sketch::collision_pressure(defended);
  EXPECT_GT(p_att, 2.0 * p_def + 0.5)
      << "attack pressure " << p_att << " vs defended " << p_def;

  // The undefended daemon raises the anomaly alarm on the attack epoch
  // and the telemetry counter records it.
  control::MeasurementDaemon::Tasks tasks;
  tasks.collision_alarm_threshold = p_def + (p_att - p_def) / 2.0;
  control::MeasurementDaemon daemon(um_config(), vanilla_config(), tasks, kSeed);
  telemetry::Registry registry;
  daemon.attach_telemetry(registry);
  for (std::size_t i = begin; i < end; ++i) daemon.on_packet(flood.trace[i].key);
  const auto report = daemon.end_epoch();
  EXPECT_GT(report.collision_pressure, tasks.collision_alarm_threshold);
  EXPECT_TRUE(report.anomaly_alarm);
  EXPECT_GE(registry.counter("nitro_anomaly_alarms_total").value(), 1u);
}

/// One defended monitor incarnation, flagged like nitro_monitor
/// --master-key K --rotate-epochs 2 --collision-alarm X --checkpoint-dir
/// DIR --export-to EP.
control::MonitorConfig defended_config(const std::string& dir, const xport::Endpoint& ep,
                                       const control::MeasurementDaemon::Tasks& tasks) {
  auto cfg = nitro::testing::monitor_config(kSeed, ep, 1);
  cfg.univmon = um_config();
  cfg.tasks = tasks;
  cfg.master_key = kMasterKey;
  cfg.rotate_epochs = kRotationEpochs;
  cfg.checkpoint_dir = dir;
  return cfg;
}

TEST(AdversarialChaos, DefendedPipelineSurvivesFloodCrashAndRotation) {
  const auto target = trace::adversary::univmon_level0_target(um_config(), kSeed);
  const auto set = trace::adversary::craft_collision_set(
      target, /*count=*/16, /*min_rows=*/2, kAttackSeed);
  ASSERT_GE(set.keys.size(), 4u);
  const auto flood = flood_trace(set.keys);

  // Alarm threshold calibrated exactly as the previous test proved valid.
  sketch::UnivMon probe_att(um_config(), kSeed);
  sketch::UnivMon probe_def(um_config(), schedule().seed_for(0));
  feed_slice(probe_att, flood.trace, 0);
  feed_slice(probe_def, flood.trace, 0);
  control::MeasurementDaemon::Tasks tasks;
  tasks.collision_alarm_threshold =
      sketch::collision_pressure(probe_def) +
      (sketch::collision_pressure(probe_att) -
       sketch::collision_pressure(probe_def)) /
          2.0;
  ASSERT_GT(tasks.collision_alarm_threshold,
            sketch::collision_pressure(probe_def));

  xport::CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  ccfg.master_key = kMasterKey;
  ccfg.rotation_epochs = kRotationEpochs;
  xport::CollectorCore core(ccfg);
  xport::CollectorServer server(core, *xport::parse_endpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(server.start());
  const xport::Endpoint ep = server.endpoint();
  const std::string dir = nitro::testing::fresh_temp_dir("nitro_chaos_flood");

  // Incarnation 1: epochs 0 and 1 (generation 0) export; the crash lands
  // inside the third end_epoch — after the epoch-2 delta frame hit disk,
  // before epoch 2 (the first generation-1 epoch) was closed or exported.
  {
    fault::Schedule plan;
    plan.crash_daemon_epoch(/*at_hit=*/3);
    fault::ScopedFaultInjection scoped(plan);
    control::MonitorRuntime rt(defended_config(dir, ep, tasks));
    ASSERT_EQ(rt.restore().source, control::RestoreSource::kNone);
    std::vector<control::EpochReport> reports;
    feed_slice(rt.daemon(), flood.trace, 0);
    reports.push_back(rt.close_epoch());  // -> seq 1, gen 0
    feed_slice(rt.daemon(), flood.trace, 1);
    reports.push_back(rt.close_epoch());  // -> seq 2, gen 0; rotates to gen 1
    feed_slice(rt.daemon(), flood.trace, 2);
    EXPECT_THROW((void)rt.close_epoch(), control::DaemonCrash);
    EXPECT_EQ(plan.fired(fault::Site::kDaemonEpoch), 1u);
    for (const auto& r : reports) {
      EXPECT_LT(r.collision_pressure, tasks.collision_alarm_threshold)
          << "epoch " << r.epoch;
      EXPECT_FALSE(r.anomaly_alarm) << "epoch " << r.epoch;
    }
    EXPECT_EQ(nitro::testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }

  // Incarnation 2: the checkpoint chain restores epoch 2 *and* its seed
  // generation — the replayed sketch must already be keyed under gen 1 or
  // every estimate after restore would be garbage.
  {
    control::MonitorRuntime rt(defended_config(dir, ep, tasks));
    ASSERT_EQ(rt.restore().source, control::RestoreSource::kChain);
    ASSERT_EQ(rt.daemon().epoch(), 2u);
    EXPECT_EQ(rt.daemon().seed_generation(), 1u);
    EXPECT_EQ(rt.daemon().active_seed(), schedule().seed_for(1));
    std::vector<control::EpochReport> reports;
    reports.push_back(rt.close_epoch());  // re-close epoch 2 -> seq 3, gen 1
    feed_slice(rt.daemon(), flood.trace, 3);
    reports.push_back(rt.close_epoch());  // -> seq 4, gen 1
    for (const auto& r : reports) {
      EXPECT_LT(r.collision_pressure, tasks.collision_alarm_threshold);
      EXPECT_FALSE(r.anomaly_alarm);
    }
    EXPECT_EQ(nitro::testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }
  server.stop();
  std::filesystem::remove_all(dir);

  // Exact accounting across crash + restore + rotation: all four epochs
  // applied once, one generation rotation, nothing double-counted.
  const std::uint64_t now = 1;
  const auto sources = core.sources(now);
  ASSERT_EQ(sources.size(), 1u);
  const auto& s = sources[0];
  EXPECT_EQ(s.last_seq, 4u);
  EXPECT_EQ(s.epochs_applied, 4u);
  EXPECT_EQ(s.duplicates, 0u);
  EXPECT_EQ(s.gap_epochs, 0u);
  EXPECT_EQ(s.packets, static_cast<std::int64_t>(flood.trace.size()));
  EXPECT_EQ(s.seed_gen, 1u);
  EXPECT_EQ(s.generation_rotations, 1u);
  EXPECT_EQ(s.stale_generation_dropped, 0u);
  const auto [g1_begin, g1_end] = std::pair{slice(flood.trace, 2).first,
                                            slice(flood.trace, 3).second};
  EXPECT_EQ(s.gen_packets, static_cast<std::int64_t>(g1_end - g1_begin));

  // The served view is the generation-1 window, bit-identical to a
  // crash-free reference keyed the same way (vanilla counters).
  const auto view = core.view(now);
  EXPECT_EQ(view->seed_gen, 1u);
  EXPECT_EQ(view->packets, s.gen_packets);
  EXPECT_EQ(view->merged.total(), s.gen_packets);
  sketch::UnivMon reference(um_config(), schedule().seed_for(1));
  feed_slice(reference, flood.trace, 2);
  feed_slice(reference, flood.trace, 3);
  EXPECT_EQ(view->merged.total(), reference.total());

  // Benign-background heavy hitters stay accurate with the defense on,
  // crafted keys included in the stream and a crash in the middle: every
  // flow above 1% of the window reads within total/10 of its true count.
  std::unordered_map<FlowKey, std::int64_t> truth;
  for (std::size_t i = g1_begin; i < g1_end; ++i) ++truth[flood.trace[i].key];
  const std::int64_t total = view->merged.total();
  std::size_t heavies_checked = 0;
  for (const auto& [key, count] : truth) {
    EXPECT_EQ(view->merged.query(key), reference.query(key));
    if (count >= total / 100) {
      ++heavies_checked;
      EXPECT_NEAR(static_cast<double>(view->merged.query(key)),
                  static_cast<double>(count), static_cast<double>(total) / 10.0)
          << "benign heavy hitter misestimated under attack";
    }
  }
  EXPECT_GE(heavies_checked, 5u);
}

// ===========================================================================
// Scenario 2: churn storm vs the shard admission valve.
// ===========================================================================

trace::AttackTrace storm_trace(std::uint64_t attack_seed = kAttackSeed) {
  trace::AttackSpec spec;
  spec.benign.packets = 40'000;
  spec.benign.flows = 500;
  spec.benign.seed = 21;
  spec.attack_fraction = 0.8;
  spec.attack_seed = attack_seed;
  return trace::churn_storm(spec);
}

shard::ShardGroup<core::NitroUnivMon> make_group(const shard::ShardOptions& opts) {
  return shard::ShardGroup<core::NitroUnivMon>(
      2,
      [&](std::uint32_t i) {
        core::NitroConfig cfg = vanilla_config();
        cfg.seed = mix64(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        return core::NitroUnivMon(um_config(), cfg, kSeed);
      },
      opts);
}

shard::ShardOptions valve_options() {
  shard::ShardOptions opts;
  opts.valve.enabled = true;
  opts.valve.window = 4096;
  opts.valve.new_flow_threshold = 0.5;
  opts.valve.table_bits = 12;
  return opts;
}

TEST(AdversarialChaos, ChurnStormTripsTheValveAndDegradesInsteadOfMelting) {
  // Benign control: the same valve on the same-shaped Zipf trace never
  // trips — the defense is free when nothing is wrong.
  {
    auto group = make_group(valve_options());
    trace::WorkloadSpec spec;
    spec.packets = 40'000;
    spec.flows = 500;
    spec.seed = 21;
    for (const auto& p : trace::caida_like(spec)) group.update(p.key, 1, p.ts_ns);
    group.drain();
    EXPECT_EQ(group.total_valve_trips(), 0u);
    for (std::uint32_t i = 0; i < group.workers(); ++i) {
      EXPECT_EQ(group.degrade_level(i), 0u) << "shard " << i;
    }
  }

  // The storm: unique-flow fraction ~0.8 per window trips the valve on
  // every shard and escalates the degrade ladder — the same ladder ring
  // overflow uses, so the accuracy cost is the known sqrt(2)-per-step.
  const auto storm = storm_trace();
  auto group = make_group(valve_options());
  const std::size_t mem_before = group.instance(0).univmon().memory_bytes();
  for (const auto& p : storm.trace) group.update(p.key, 1, p.ts_ns);
  group.drain();
  EXPECT_GT(group.total_valve_trips(), 0u);
  std::uint32_t max_level = 0;
  double max_fraction = 0.0;
  for (std::uint32_t i = 0; i < group.workers(); ++i) {
    max_level = std::max(max_level, group.degrade_level(i));
    max_fraction = std::max(max_fraction, group.valve_new_flow_fraction(i));
  }
  EXPECT_GT(max_level, 0u) << "the storm must escalate the ladder";
  EXPECT_GT(max_fraction, 0.5) << "the tripping window's fraction is visible";
  EXPECT_GT(group.estimated_error_inflation(), 1.0);
  // Bounded memory: the counter arrays are fixed and the heaps are
  // capacity-bound, so the storm can only fill preallocated slots (the
  // footprint rises as the heaps reach occupancy, but never doubles) —
  // and once saturated, a second storm of 40k brand-new unique keys must
  // not grow it by a single byte.
  const std::size_t mem_storm = group.instance(0).univmon().memory_bytes();
  EXPECT_LT(mem_storm, 2 * mem_before) << "storm growth must be fill-up only";
  const auto second_wave = storm_trace(kAttackSeed + 1);
  for (const auto& p : second_wave.trace) group.update(p.key, 1, p.ts_ns);
  group.drain();
  EXPECT_EQ(group.instance(0).univmon().memory_bytes(), mem_storm)
      << "fresh attack keys must reuse saturated capacity, not allocate";

  // Clean recovery once the storm ends: the operator (or the epoch loop)
  // resets the ladder and the shards run at full probability again.
  group.reset_degradation();
  for (std::uint32_t i = 0; i < group.workers(); ++i) {
    EXPECT_EQ(group.degrade_level(i), 0u);
  }
}

TEST(AdversarialChaos, BlindedValveStillCountsTripsSoTheFaultIsVisible) {
  // Chaos case: a fault rejects every valve escalation (the defense is
  // wired but its actuator is dead).  The trip counters must still move —
  // that divergence (trips > 0, level == 0) is the observable signature.
  const auto storm = storm_trace();
  fault::Schedule plan;
  plan.add({fault::Site::kAdmissionValve, /*at_hit=*/1, /*every=*/1,
            fault::kAnyLane, fault::Action::kReject, 0});
  fault::ScopedFaultInjection scoped(plan);
  auto group = make_group(valve_options());
  for (const auto& p : storm.trace) group.update(p.key, 1, p.ts_ns);
  group.drain();
  EXPECT_GT(group.total_valve_trips(), 0u);
  EXPECT_GE(plan.fired(fault::Site::kAdmissionValve), 1u);
  for (std::uint32_t i = 0; i < group.workers(); ++i) {
    EXPECT_EQ(group.degrade_level(i), 0u) << "blinded valve must not escalate";
  }
}

// ===========================================================================
// Scenario 3: skew flip — alarm on the flip, baseline within one epoch.
// ===========================================================================

TEST(AdversarialChaos, SkewFlipAlarmsOnceThenReturnsToBaseline) {
  trace::WorkloadSpec spec;
  spec.packets = 40'000;
  spec.flows = 400;
  spec.seed = 13;
  const auto flip = trace::skew_flip(spec, /*flip_at=*/0.5, /*flipped_s=*/0.3);
  ASSERT_EQ(flip.benign_packets + flip.attack_packets, flip.trace.size());

  sketch::UnivMonConfig cfg = um_config();
  cfg.heap_capacity = 32;  // small heap: eviction velocity is the signal

  // Calibrate the eviction alarm above BOTH steady states — the old skew
  // (epoch 1) and the new, flatter one (epoch 3): the flatter tail churns
  // the heap harder forever after, and only the flip epoch itself (the
  // wholesale hot-set replacement) may cross the alarm line.  Vanilla
  // mode makes each probe equal the daemon's per-epoch sketch bit for bit.
  sketch::UnivMon probe_base(cfg, kSeed);
  sketch::UnivMon probe_flip(cfg, kSeed);
  sketch::UnivMon probe_post(cfg, kSeed);
  feed_slice(probe_base, flip.trace, 1);
  feed_slice(probe_flip, flip.trace, 2);
  feed_slice(probe_post, flip.trace, 3);
  const std::uint64_t ev_base = probe_base.heap_evictions();
  const std::uint64_t ev_flip = probe_flip.heap_evictions();
  const std::uint64_t ev_post = probe_post.heap_evictions();
  const std::uint64_t ev_quiet = std::max(ev_base, ev_post);
  ASSERT_GT(ev_flip, ev_quiet + 4)
      << "flip churn " << ev_flip << " vs steady states " << ev_base << "/"
      << ev_post;

  control::MeasurementDaemon::Tasks tasks;
  tasks.eviction_alarm_threshold = ev_quiet + (ev_flip - ev_quiet) / 2;
  control::MeasurementDaemon daemon(cfg, vanilla_config(), tasks, kSeed);
  std::vector<control::EpochReport> reports;
  for (int e = 0; e < kEpochs; ++e) {
    feed_slice(daemon, flip.trace, e);
    reports.push_back(daemon.end_epoch());
  }
  ASSERT_EQ(reports.size(), 4u);

  // Before the attack: quiet.  Flip epoch: the alarm fires and change
  // detection names the wholesale hot-set replacement.  One epoch later
  // the new distribution *is* the baseline: alarm off, changes small.
  EXPECT_FALSE(reports[1].anomaly_alarm);
  EXPECT_TRUE(reports[2].anomaly_alarm) << "evictions " << reports[2].heap_evictions;
  EXPECT_GT(reports[2].heap_evictions, tasks.eviction_alarm_threshold);
  EXPECT_FALSE(reports[3].anomaly_alarm)
      << "must return to baseline within one epoch of the attack end";
  EXPECT_GT(reports[2].changed_flows.size(), reports[1].changed_flows.size());
  EXPECT_GT(reports[2].changed_flows.size(), reports[3].changed_flows.size());
}

}  // namespace
}  // namespace nitro
