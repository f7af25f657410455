// Crash-safe checkpoint/restore: atomic save, CRC-gated load with
// previous-generation fallback, torn-write and bit-rot injection, and
// round trips of the one payload the monitor writes — the daemon's chain
// frame, inline and after a sharded merge — plus its truncation sweep.
#include "control/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "control/daemon.hpp"
#include "core/nitro_univmon.hpp"
#include "fault/fault.hpp"
#include "shard/shard_group.hpp"
#include "support/temp_path.hpp"
#include "trace/workloads.hpp"

namespace nitro::control {
namespace {

std::string fresh_dir(const std::string& name) {
  return nitro::testing::fresh_temp_dir("nitro_ckpt_" + name);
}

std::vector<std::uint8_t> payload_of(const char* text) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(text);
  return {b, b + std::string(text).size()};
}

trace::Trace small_trace(std::uint64_t packets = 60000, std::uint64_t seed = 12) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 2000;
  spec.seed = seed;
  return trace::caida_like(spec);
}

/// Heaps preserve the (key, estimate) *multiset* across a checkpoint, but
/// entries_sorted() breaks estimate ties by internal array order, which
/// legitimately differs between an incrementally built heap and a restored
/// one.  Impose a total order before element-wise comparison.
template <typename E>
std::vector<E> canonical(std::vector<E> v) {
  std::sort(v.begin(), v.end(), [](const E& a, const E& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return std::memcmp(&a.key, &b.key, sizeof(FlowKey)) < 0;
  });
  return v;
}

TEST(CheckpointStore, SaveLoadRoundTripIsBitIdentical) {
  CheckpointStore store(fresh_dir("roundtrip"));
  const auto payload = payload_of("the epoch state");
  ASSERT_TRUE(store.save("daemon", payload));
  const auto restored = store.load("daemon");
  EXPECT_EQ(restored.source, CheckpointStore::Source::kCurrent);
  EXPECT_FALSE(restored.current_rejected);
  EXPECT_EQ(restored.payload, payload);
}

TEST(CheckpointStore, MissingCheckpointReportsNoneWithoutThrowing) {
  CheckpointStore store(fresh_dir("missing"));
  const auto restored = store.load("daemon");
  EXPECT_EQ(restored.source, CheckpointStore::Source::kNone);
  EXPECT_TRUE(restored.payload.empty());
}

TEST(CheckpointStore, SecondSaveRotatesThePreviousGeneration) {
  CheckpointStore store(fresh_dir("rotate"));
  ASSERT_TRUE(store.save("daemon", payload_of("epoch 1")));
  ASSERT_TRUE(store.save("daemon", payload_of("epoch 2")));
  EXPECT_TRUE(std::filesystem::exists(store.current_path("daemon")));
  EXPECT_TRUE(std::filesystem::exists(store.previous_path("daemon")));
  EXPECT_EQ(store.load("daemon").payload, payload_of("epoch 2"));
}

TEST(CheckpointStore, TornWriteIsDetectedByCrcAndFallsBackToPrevious) {
  CheckpointStore store(fresh_dir("torn"));
  ASSERT_TRUE(store.save("daemon", payload_of("good epoch")));

  // The second save is torn: only 10 bytes of the frame reach disk, but
  // the rename dance completes and the save reports success — exactly the
  // "rename journaled before data blocks" crash.  (Hit counters live in
  // the schedule, so the pre-install save above did not advance them.)
  fault::Schedule plan;
  plan.torn_checkpoint_write(/*at_hit=*/1, /*keep_bytes=*/10);
  {
    fault::ScopedFaultInjection scoped(plan);
    ASSERT_TRUE(store.save("daemon", payload_of("torn epoch")));
  }
  EXPECT_EQ(plan.fired(fault::Site::kCheckpointWrite), 1u);

  const auto restored = store.load("daemon");
  EXPECT_TRUE(restored.current_rejected);
  EXPECT_NE(restored.error.find("frame"), std::string::npos) << restored.error;
  EXPECT_EQ(restored.source, CheckpointStore::Source::kPrevious);
  EXPECT_EQ(restored.payload, payload_of("good epoch"));
}

TEST(CheckpointStore, InjectedBitRotIsCaughtByCrcOnRead) {
  CheckpointStore store(fresh_dir("bitrot"));
  ASSERT_TRUE(store.save("daemon", payload_of("epoch 1")));
  ASSERT_TRUE(store.save("daemon", payload_of("epoch 2")));

  // The first read (the current generation) rots in memory after the disk
  // read; the CRC rejects it and the clean previous generation loads.
  fault::Schedule plan;
  plan.corrupt_checkpoint_read(/*at_hit=*/1);
  fault::ScopedFaultInjection scoped(plan);
  const auto restored = store.load("daemon");
  EXPECT_TRUE(restored.current_rejected);
  EXPECT_EQ(restored.source, CheckpointStore::Source::kPrevious);
  EXPECT_EQ(restored.payload, payload_of("epoch 1"));
}

TEST(CheckpointStore, TelemetryCountsSavesAndRejections) {
  telemetry::Registry registry;
  CheckpointStore store(fresh_dir("telemetry"));
  store.attach_telemetry(registry, "ckpt");
  ASSERT_TRUE(store.save("daemon", payload_of("epoch 1")));
  ASSERT_TRUE(store.save("daemon", payload_of("epoch 2")));
  {
    fault::Schedule plan;
    plan.corrupt_checkpoint_read(1);
    fault::ScopedFaultInjection scoped(plan);
    (void)store.load("daemon");
  }
  std::uint64_t saves = 0, rejected = 0, restores = 0;
  registry.for_each_counter([&](const std::string& name, const std::string&,
                                const telemetry::Counter& c) {
    if (name == "ckpt_saves_total") saves = c.value();
    if (name == "ckpt_corrupt_rejected_total") rejected = c.value();
    if (name == "ckpt_restores_total") restores = c.value();
  });
  EXPECT_EQ(saves, 2u);
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(restores, 1u);
}

sketch::UnivMonConfig daemon_univmon() {
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 8;
  um_cfg.depth = 5;
  um_cfg.top_width = 1024;
  um_cfg.min_width = 256;
  um_cfg.heap_capacity = 100;
  return um_cfg;
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  return cfg;
}

void expect_same_flows(std::vector<HeavyHitter> got, std::vector<HeavyHitter> want) {
  got = canonical(std::move(got));
  want = canonical(std::move(want));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].estimate, want[i].estimate);
  }
}

void expect_same_report(const EpochReport& got, const EpochReport& want) {
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_DOUBLE_EQ(got.entropy, want.entropy);
  EXPECT_DOUBLE_EQ(got.distinct, want.distinct);
  expect_same_flows(got.heavy_hitters, want.heavy_hitters);
  expect_same_flows(got.changed_flows, want.changed_flows);
}

TEST(ShardedCheckpoint, RoundTripAcrossAWorkerGroup) {
  // The sharded monitor's epoch boundary: drain the workers, merge them
  // into the daemon's data plane, and persist the daemon's chain frame.
  // There is no per-shard payload; the merged daemon is the state.
  const auto um_cfg = daemon_univmon();
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.2;
  constexpr std::uint64_t kSeed = 99;
  shard::ShardGroup<core::NitroUnivMon> group(3, [&](std::uint32_t i) {
    core::NitroConfig shard_cfg = cfg;
    shard_cfg.seed = shard::shard_sampler_seed(cfg.seed, i);
    return core::NitroUnivMon(um_cfg, shard_cfg, kSeed);
  });
  MeasurementDaemon source(um_cfg, cfg, {}, kSeed);
  const auto merge_epoch = [&](const trace::Trace& stream, std::size_t from,
                               std::size_t to) {
    for (std::size_t i = from; i < to; ++i) group.update(stream[i].key, 1, stream[i].ts_ns);
    ASSERT_TRUE(group.drain());
    group.merge_into(source.data_plane_mut());
  };
  const auto stream = small_trace(80000, 16);
  // One closed epoch, so change detection has a previous sketch.
  merge_epoch(stream, 0, stream.size() / 2);
  (void)source.end_epoch();
  merge_epoch(stream, stream.size() / 2, stream.size());

  CheckpointStore store(fresh_dir("sharded"));
  ASSERT_TRUE(store.save_frame("daemon", /*full=*/true, source.checkpoint_bytes()).ok);
  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  EXPECT_TRUE(chain.deltas.empty());

  MeasurementDaemon restarted(um_cfg, cfg, {}, kSeed);
  restarted.restore_checkpoint(chain.base);
  EXPECT_EQ(restarted.epoch(), 1u);
  const auto want = source.end_epoch();
  EXPECT_EQ(want.packets, static_cast<std::int64_t>(stream.size() - stream.size() / 2));
  expect_same_report(restarted.end_epoch(), want);
}

TEST(DaemonCheckpoint, CrashAtEpochBoundaryRestoresIdenticalReports) {
  const auto um_cfg = daemon_univmon();
  const auto cfg = vanilla_cfg();

  MeasurementDaemon daemon(um_cfg, cfg, {}, /*seed=*/99);
  const auto stream = small_trace(50000, 17);
  // Run one full epoch so change detection has a previous sketch, then
  // half of the next epoch.
  std::size_t i = 0;
  for (; i < stream.size() / 2; ++i) daemon.on_packet(stream[i].key, stream[i].ts_ns);
  (void)daemon.end_epoch();
  for (; i < stream.size(); ++i) daemon.on_packet(stream[i].key, stream[i].ts_ns);

  CheckpointStore store(fresh_dir("daemon_crash"));
  ASSERT_TRUE(store.save_frame("daemon", /*full=*/true, daemon.checkpoint_bytes()).ok);

  {
    fault::Schedule plan;
    plan.crash_daemon_epoch(1);
    fault::ScopedFaultInjection scoped(plan);
    EXPECT_THROW(daemon.end_epoch(), DaemonCrash);
  }

  // "Restart": a fresh daemon with the same configs+seed restores the
  // chain and closes the epoch the crashed one could not — producing
  // exactly the report the original would have.
  MeasurementDaemon restarted(um_cfg, cfg, {}, /*seed=*/99);
  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  ASSERT_TRUE(chain.deltas.empty());
  restarted.restore_checkpoint(chain.base);
  EXPECT_EQ(restarted.epoch(), 1u);

  const auto want = daemon.end_epoch();  // fault uninstalled: original closes
  expect_same_report(restarted.end_epoch(), want);
}

TEST(DaemonCheckpoint, EveryTruncationIsRejectedAndLeavesTheDaemonUntouched) {
  // A sketch small enough to sweep every prefix of both payload kinds.
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 4;
  um_cfg.depth = 3;
  um_cfg.top_width = 256;
  um_cfg.min_width = 128;
  um_cfg.heap_capacity = 16;
  const auto cfg = vanilla_cfg();
  const auto feed = [](MeasurementDaemon& d, std::uint64_t seed,
                       std::uint64_t packets = 1500) {
    for (const auto& p : small_trace(packets, seed)) d.on_packet(p.key, p.ts_ns);
  };
  const auto make = [&] {
    auto d = std::make_unique<MeasurementDaemon>(um_cfg, cfg, MeasurementDaemon::Tasks{}, 99);
    d->enable_delta_checkpoints();
    return d;
  };

  // The payloads the monitor writes: a full frame with a previous sketch,
  // then a delta that crosses one rotation.
  auto source = make();
  feed(*source, 21);
  (void)source->end_epoch();
  feed(*source, 22);
  const auto full = source->checkpoint_bytes();
  source->cut_checkpoint_frame();
  (void)source->end_epoch();
  feed(*source, 23);
  const auto delta = source->delta_checkpoint_bytes();

  // Target and twin hold the same state, whose epoch, totals and counters
  // all differ from the source's; only the target sees the truncated
  // payloads.
  const auto sweep = [&](MeasurementDaemon& target, MeasurementDaemon& twin,
                         const std::vector<std::uint8_t>& payload, bool is_delta) {
    const auto untouched = twin.checkpoint_bytes();
    for (std::size_t n = 0; n < payload.size(); ++n) {
      const auto prefix = std::span(payload).first(n);
      if (is_delta) {
        EXPECT_THROW(target.apply_delta_checkpoint(prefix), std::exception) << n;
      } else {
        EXPECT_THROW(target.restore_checkpoint(prefix), std::exception) << n;
      }
      ASSERT_EQ(target.epoch(), twin.epoch()) << n;
      ASSERT_EQ(target.data_plane().total(), twin.data_plane().total()) << n;
      ASSERT_EQ(target.checkpoint_bytes(), untouched) << n;
    }
    expect_same_report(target.end_epoch(), twin.end_epoch());
  };

  auto target = make(), twin = make();
  for (MeasurementDaemon* d : {target.get(), twin.get()}) {
    feed(*d, 31, 900);
    (void)d->end_epoch();
    feed(*d, 32, 900);
    (void)d->end_epoch();
    feed(*d, 33, 700);
  }
  sweep(*target, *twin, full, /*is_delta=*/false);

  target = make();
  twin = make();
  target->restore_checkpoint(full);
  twin->restore_checkpoint(full);
  sweep(*target, *twin, delta, /*is_delta=*/true);
}

TEST(DaemonCheckpoint, RestoreRejectsWrongMagicLoudly) {
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 4;
  um_cfg.depth = 3;
  um_cfg.top_width = 256;
  um_cfg.heap_capacity = 16;
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  MeasurementDaemon daemon(um_cfg, cfg, {});
  auto payload = daemon.checkpoint_bytes();
  payload[0] ^= 0xff;
  EXPECT_THROW(daemon.restore_checkpoint(payload), std::invalid_argument);
}

}  // namespace
}  // namespace nitro::control
