// Crash-safe checkpoint/restore: atomic save, CRC-gated load with
// previous-generation fallback, torn-write and bit-rot injection, and
// full round trips for every sketch family plus the daemon and the
// sharded data plane.
#include "control/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "control/daemon.hpp"
#include "core/nitro_sketch.hpp"
#include "fault/fault.hpp"
#include "shard/sharded_nitro.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"
#include "support/temp_path.hpp"

namespace nitro::control {
namespace {

using trace::flow_key_for_rank;

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

core::NitroConfig fixed_cfg(double p = 0.2) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = p;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  return cfg;
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

template <typename Base>
void roundtrip_nitro(Base make_base(), std::uint64_t trace_seed) {
  const auto stream = small_trace(60000, trace_seed);
  core::NitroSketch<Base> source(make_base(), fixed_cfg());
  for (const auto& p : stream) source.update(p.key, 1, p.ts_ns);

  const auto payload = checkpoint_nitro(source);
  core::NitroSketch<Base> replica(make_base(), fixed_cfg());
  restore_nitro(payload, replica);

  EXPECT_EQ(replica.packets(), source.packets());
  EXPECT_EQ(replica.sampled_updates(), source.sampled_updates());
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(replica.query(key), source.query(key)) << "rank " << rank;
  }
  const auto a = canonical(source.top_keys());
  const auto b = canonical(replica.top_keys());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].estimate, b[i].estimate);
  }
}

TEST(NitroCheckpoint, CountMinRoundTripIsBitIdentical) {
  roundtrip_nitro<sketch::CountMinSketch>(
      +[] { return sketch::CountMinSketch(5, 2048, 61); }, 13);
}

TEST(NitroCheckpoint, CountSketchRoundTripIsBitIdentical) {
  roundtrip_nitro<sketch::CountSketch>(
      +[] { return sketch::CountSketch(5, 2048, 62); }, 14);
}

TEST(NitroCheckpoint, KAryRoundTripRestoresStreamTotal) {
  roundtrip_nitro<sketch::KArySketch>(
      +[] { return sketch::KArySketch(5, 2048, 63); }, 15);
}

TEST(NitroCheckpoint, RejectsTruncatedPayloads) {
  core::NitroSketch<sketch::CountMinSketch> source(
      sketch::CountMinSketch(4, 512, 7), fixed_cfg());
  source.update(flow_key_for_rank(1, 1));
  auto payload = checkpoint_nitro(source);
  core::NitroSketch<sketch::CountMinSketch> replica(
      sketch::CountMinSketch(4, 512, 7), fixed_cfg());
  payload.resize(payload.size() / 2);
  EXPECT_THROW(restore_nitro(payload, replica), std::exception);
}

TEST(ShardedCheckpoint, RoundTripAcrossAWorkerGroup) {
  const auto stream = small_trace(80000, 16);
  core::NitroConfig cfg = fixed_cfg(1.0);
  cfg.mode = core::Mode::kVanilla;
  auto make = [] { return sketch::CountMinSketch(5, 2048, 71); };
  shard::ShardedNitroCountMin source(3, make, cfg);
  for (const auto& p : stream) source.update(p.key, 1, p.ts_ns);

  const auto payload = checkpoint_sharded(source);
  shard::ShardedNitroCountMin replica(3, make, cfg);
  EXPECT_EQ(restore_sharded(payload, replica), 0u);

  const auto& src_snap = source.snapshot();
  const auto& dst_snap = replica.snapshot();
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(dst_snap.query(key), src_snap.query(key)) << "rank " << rank;
  }
}

TEST(ShardedCheckpoint, RejectsWorkerCountMismatch) {
  core::NitroConfig cfg = fixed_cfg(1.0);
  cfg.mode = core::Mode::kVanilla;
  auto make = [] { return sketch::CountMinSketch(4, 512, 72); };
  shard::ShardedNitroCountMin source(3, make, cfg);
  shard::ShardedNitroCountMin wrong(2, make, cfg);
  const auto payload = checkpoint_sharded(source);
  EXPECT_THROW(restore_sharded(payload, wrong), std::invalid_argument);
}

TEST(DaemonCheckpoint, CrashAtEpochBoundaryRestoresIdenticalReports) {
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 8;
  um_cfg.depth = 5;
  um_cfg.top_width = 1024;
  um_cfg.min_width = 256;
  um_cfg.heap_capacity = 100;
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;

  MeasurementDaemon daemon(um_cfg, cfg, {}, /*seed=*/99);
  const auto stream = small_trace(50000, 17);
  // Run one full epoch so change detection has a previous sketch, then
  // half of the next epoch.
  std::size_t i = 0;
  for (; i < stream.size() / 2; ++i) daemon.on_packet(stream[i].key, stream[i].ts_ns);
  (void)daemon.end_epoch();
  for (; i < stream.size(); ++i) daemon.on_packet(stream[i].key, stream[i].ts_ns);

  CheckpointStore store(fresh_dir("daemon_crash"));
  ASSERT_TRUE(store.save("daemon", daemon.checkpoint_bytes()));

  {
    fault::Schedule plan;
    plan.crash_daemon_epoch(1);
    fault::ScopedFaultInjection scoped(plan);
    EXPECT_THROW(daemon.end_epoch(), DaemonCrash);
  }

  // "Restart": a fresh daemon with the same configs+seed restores the
  // checkpoint and closes the epoch the crashed one could not — producing
  // exactly the report the original would have.
  MeasurementDaemon restarted(um_cfg, cfg, {}, /*seed=*/99);
  const auto restored = store.load("daemon");
  ASSERT_EQ(restored.source, CheckpointStore::Source::kCurrent);
  restarted.restore_checkpoint(restored.payload);
  EXPECT_EQ(restarted.epoch(), 1u);

  const auto want = daemon.end_epoch();  // fault uninstalled: original closes
  const auto got = restarted.end_epoch();
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_DOUBLE_EQ(got.entropy, want.entropy);
  EXPECT_DOUBLE_EQ(got.distinct, want.distinct);
  const auto want_hh = canonical(want.heavy_hitters);
  const auto got_hh = canonical(got.heavy_hitters);
  ASSERT_EQ(got_hh.size(), want_hh.size());
  for (std::size_t h = 0; h < got_hh.size(); ++h) {
    EXPECT_EQ(got_hh[h].key, want_hh[h].key);
    EXPECT_EQ(got_hh[h].estimate, want_hh[h].estimate);
  }
  const auto want_ch = canonical(want.changed_flows);
  const auto got_ch = canonical(got.changed_flows);
  ASSERT_EQ(got_ch.size(), want_ch.size());
  for (std::size_t c = 0; c < got_ch.size(); ++c) {
    EXPECT_EQ(got_ch[c].key, want_ch[c].key);
    EXPECT_EQ(got_ch[c].estimate, want_ch[c].estimate);
  }
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
