// Keyed seed rotation through the control plane (DESIGN.md §16): the
// SeedSchedule derivation itself, the daemon's epoch-boundary rotation,
// and the persistence surface — checkpoint v2 (generation-tagged), delta
// frames that replay a generation-crossing rotation, and the
// rebuild-from-collector path with a replica generation.  Restored state
// is compared bit-exactly via checkpoint_bytes(): two daemons whose
// checkpoints serialize identically hold identical measurement state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "control/codec.hpp"
#include "control/daemon.hpp"
#include "core/nitro_univmon.hpp"
#include "core/seed_schedule.hpp"
#include "trace/workloads.hpp"

namespace nitro::control {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kMasterKey = 0x5eedfeedULL;
constexpr std::uint64_t kRotationEpochs = 2;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 256;
  cfg.min_width = 128;
  cfg.heap_capacity = 32;
  return cfg;
}

core::NitroConfig vanilla_config() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // deterministic: bit-exact comparisons
  return cfg;
}

MeasurementDaemon make_daemon() {
  return MeasurementDaemon(um_config(), vanilla_config(),
                           MeasurementDaemon::Tasks{}, kSeed);
}

void feed_epoch(MeasurementDaemon& d, std::uint64_t stream_seed,
                std::uint64_t packets = 3'000) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 200;
  spec.seed = stream_seed;
  for (const auto& p : trace::caida_like(spec)) d.on_packet(p.key);
}

// --- SeedSchedule unit -----------------------------------------------------

TEST(SeedSchedule, DisabledScheduleIsTheLegacyFixedSeed) {
  const core::SeedSchedule off{kSeed, kMasterKey, 0};
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.generation_of(0), 0u);
  EXPECT_EQ(off.generation_of(1'000'000), 0u);
  EXPECT_EQ(off.seed_for(0), kSeed);
  EXPECT_EQ(off.seed_for(42), kSeed);  // every generation degenerates to base
  EXPECT_EQ(off.seed_for_epoch(999), kSeed);
}

TEST(SeedSchedule, KeyedDerivationIsDeterministicAndKeyDependent) {
  const core::SeedSchedule a{kSeed, kMasterKey, kRotationEpochs};
  EXPECT_TRUE(a.enabled());
  EXPECT_EQ(a.generation_of(0), 0u);
  EXPECT_EQ(a.generation_of(1), 0u);
  EXPECT_EQ(a.generation_of(2), 1u);
  EXPECT_EQ(a.generation_of(5), 2u);
  EXPECT_EQ(a.seed_for(3), a.seed_for(3));
  EXPECT_NE(a.seed_for(0), a.seed_for(1));
  // Even generation 0 is keyed: an attacker who read the base seed out of
  // a config file still targets the wrong hash functions.
  EXPECT_NE(a.seed_for(0), kSeed);
  const core::SeedSchedule b{kSeed, kMasterKey + 1, kRotationEpochs};
  EXPECT_NE(a.seed_for(0), b.seed_for(0));
}

// --- Daemon rotation -------------------------------------------------------

TEST(SeedRotation, DaemonRotatesSeedAtGenerationBoundaries) {
  auto daemon = make_daemon();
  daemon.enable_seed_rotation(kMasterKey, kRotationEpochs);
  const core::SeedSchedule sched{kSeed, kMasterKey, kRotationEpochs};
  ASSERT_EQ(daemon.seed_schedule(), sched);

  std::vector<std::uint64_t> exported_gens;
  daemon.set_export_sink([&](ExportedEpoch&& e) {
    exported_gens.push_back(e.seed_gen);
  });

  for (std::uint64_t e = 0; e < 5; ++e) {
    EXPECT_EQ(daemon.seed_generation(), sched.generation_of(e));
    EXPECT_EQ(daemon.active_seed(), sched.seed_for_epoch(e));
    feed_epoch(daemon, 100 + e, 500);
    (void)daemon.end_epoch();
  }
  // Epochs 0,1 -> gen 0; 2,3 -> gen 1; 4 -> gen 2, as carried on the wire.
  EXPECT_EQ(exported_gens, (std::vector<std::uint64_t>{0, 0, 1, 1, 2}));
  EXPECT_EQ(daemon.active_seed(), sched.seed_for_epoch(5));
}

TEST(SeedRotation, RotationDisabledKeepsTheClassicSeedForever) {
  auto daemon = make_daemon();
  std::vector<std::uint64_t> exported_gens;
  daemon.set_export_sink([&](ExportedEpoch&& e) {
    exported_gens.push_back(e.seed_gen);
  });
  for (std::uint64_t e = 0; e < 3; ++e) {
    EXPECT_EQ(daemon.active_seed(), kSeed);
    feed_epoch(daemon, 200 + e, 500);
    (void)daemon.end_epoch();
  }
  EXPECT_EQ(exported_gens, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(SeedRotation, EnableAfterTrafficIsRefused) {
  auto daemon = make_daemon();
  feed_epoch(daemon, 1, 10);
  EXPECT_THROW(daemon.enable_seed_rotation(kMasterKey, kRotationEpochs),
               std::logic_error);
  auto closed = make_daemon();
  (void)closed.end_epoch();
  EXPECT_THROW(closed.enable_seed_rotation(kMasterKey, kRotationEpochs),
               std::logic_error);
}

// --- Checkpoint v2 across rotation ----------------------------------------

TEST(SeedRotation, CheckpointRoundTripsAcrossAGenerationBoundary) {
  auto source = make_daemon();
  source.enable_seed_rotation(kMasterKey, kRotationEpochs);
  feed_epoch(source, 301);
  (void)source.end_epoch();  // epoch 0 closed
  feed_epoch(source, 302);
  (void)source.end_epoch();  // epoch 1 closed -> live sketch is generation 1
  feed_epoch(source, 303);   // traffic inside generation 1
  const auto payload = source.checkpoint_bytes();

  auto restored = make_daemon();
  restored.enable_seed_rotation(kMasterKey, kRotationEpochs);
  restored.restore_checkpoint(payload);
  EXPECT_EQ(restored.epoch(), 2u);
  EXPECT_EQ(restored.active_seed(), source.active_seed());
  EXPECT_EQ(restored.checkpoint_bytes(), payload);

  // The restored daemon keeps measuring identically to the uninterrupted
  // source — feed both the same next epoch and compare bit-exactly.
  feed_epoch(source, 304);
  feed_epoch(restored, 304);
  (void)source.end_epoch();
  (void)restored.end_epoch();
  EXPECT_EQ(restored.checkpoint_bytes(), source.checkpoint_bytes());
}

TEST(SeedRotation, MismatchedScheduleRejectsTheCheckpoint) {
  auto source = make_daemon();
  source.enable_seed_rotation(kMasterKey, kRotationEpochs);
  feed_epoch(source, 311);
  (void)source.end_epoch();
  (void)source.end_epoch();  // epoch counter at 2 = generation 1
  const auto payload = source.checkpoint_bytes();

  // Same master key, different cadence: generation_of(2) differs, so the
  // counters were written under hash functions this daemon cannot derive.
  auto wrong_cadence = make_daemon();
  wrong_cadence.enable_seed_rotation(kMasterKey, 4);
  EXPECT_THROW(wrong_cadence.restore_checkpoint(payload), std::invalid_argument);

  // Rotation off entirely: the payload's generation 1 can never match.
  auto rotation_off = make_daemon();
  EXPECT_THROW(rotation_off.restore_checkpoint(payload), std::invalid_argument);
}

TEST(SeedRotation, V1CheckpointsAreRejectedByNumberWithRotationOnAndOff) {
  // A v1 payload (pre-rotation layout: no generation field, no ingest
  // counters); magic matches daemon.hpp's kCheckpointMagic.  Builds that
  // wrote v1 sealed it in a v1 frame, which open_frame rejects, so the
  // payload decoder speaks only v2 — with or without rotation.
  sketch::UnivMon um(um_config(), kSeed);
  um.update(trace::flow_key_for_rank(1, 9), 5);
  ByteWriter w;
  w.put_u32(0x4e44434bu);  // "NDCK"
  w.put_u32(1);            // v1
  w.put_u64(0);            // epoch
  w.put_u64(5);            // cum_packets
  w.put_u64(5);            // cum_sampled
  w.put_blob(snapshot_univmon(um));
  w.put_u8(0);  // no previous sketch
  const auto v1 = std::move(w).take();

  // The delta payload's version field, rewound to 1.
  auto source = make_daemon();
  source.enable_delta_checkpoints();
  source.cut_checkpoint_frame();
  feed_epoch(source, 331);
  auto v1_delta = source.delta_checkpoint_bytes();
  v1_delta[4] = 1;

  for (const bool rotating : {false, true}) {
    auto d = make_daemon();
    if (rotating) d.enable_seed_rotation(kMasterKey, kRotationEpochs);
    const auto before = d.checkpoint_bytes();
    const auto error = [](auto&& restore) {
      try {
        restore();
      } catch (const std::invalid_argument& e) {
        return std::string(e.what());
      }
      return std::string();
    };
    EXPECT_EQ(error([&] { d.restore_checkpoint(v1); }),
              "daemon checkpoint: unsupported version 1")
        << "rotation " << rotating;
    EXPECT_EQ(error([&] { d.apply_delta_checkpoint(v1_delta); }),
              "daemon delta checkpoint: unsupported version 1")
        << "rotation " << rotating;
    EXPECT_EQ(d.checkpoint_bytes(), before) << "rotation " << rotating;
  }
}

// --- Delta frames across rotation -----------------------------------------

TEST(SeedRotation, DeltaFrameReplaysAGenerationCrossingRotation) {
  auto source = make_daemon();
  source.enable_seed_rotation(kMasterKey, kRotationEpochs);
  source.enable_delta_checkpoints();
  feed_epoch(source, 321);
  (void)source.end_epoch();  // epoch 0 -> 1, still generation 0
  feed_epoch(source, 322);
  const auto base = source.checkpoint_bytes();  // full frame at epoch 1
  source.cut_checkpoint_frame();
  (void)source.end_epoch();  // epoch 1 -> 2: the rotation CROSSES gen 0 -> 1
  feed_epoch(source, 323);   // traffic under the generation-1 seed
  ASSERT_TRUE(source.delta_ready());
  const auto delta = source.delta_checkpoint_bytes();

  auto restored = make_daemon();
  restored.enable_seed_rotation(kMasterKey, kRotationEpochs);
  restored.enable_delta_checkpoints();
  restored.restore_checkpoint(base);
  restored.apply_delta_checkpoint(delta);
  EXPECT_EQ(restored.epoch(), 2u);
  EXPECT_EQ(restored.active_seed(), source.active_seed());
  EXPECT_EQ(restored.checkpoint_bytes(), source.checkpoint_bytes());
}

// --- Rebuild-from-collector with a replica generation ---------------------

TEST(SeedRotation, RecoverySeedsTheBaselineUnderTheReplicaGeneration) {
  const core::SeedSchedule sched{kSeed, kMasterKey, kRotationEpochs};
  // The collector's replica for this source holds generation 1 (epochs
  // 2..3): rebuild it offline exactly as the collector would.
  sketch::UnivMon replica(um_config(), sched.seed_for(1));
  trace::WorkloadSpec spec;
  spec.packets = 3'000;
  spec.flows = 200;
  spec.seed = 331;
  const auto stream = trace::caida_like(spec);
  for (const auto& p : stream) replica.update(p.key);
  const auto snapshot = snapshot_univmon(replica);

  auto daemon = make_daemon();
  daemon.enable_seed_rotation(kMasterKey, kRotationEpochs);
  daemon.seed_from_recovery(/*next_epoch=*/4, snapshot,
                            /*packets=*/replica.total(),
                            /*replica_seed_gen=*/1);
  EXPECT_EQ(daemon.epoch(), 4u);
  EXPECT_EQ(daemon.active_seed(), sched.seed_for_epoch(4));

  // The baseline landed under the right hash functions: replaying the
  // replica's own traffic and closing the epoch reports only sketch-noise
  // deltas, never a change that looks like real traffic.
  for (const auto& p : stream) daemon.on_packet(p.key);
  const auto report = daemon.end_epoch();
  EXPECT_EQ(report.epoch, 4u);
  const auto volume = static_cast<std::int64_t>(2 * spec.packets);
  for (const auto& c : report.changed_flows) {
    EXPECT_LT(c.estimate, volume / 50) << "spurious change vs the baseline";
  }

  // Counter-test: loading the same replica as generation 0 puts the
  // baseline under the wrong hash functions — the heavy flows' previous
  // estimates are garbage, so change detection screams.
  auto wrong = make_daemon();
  wrong.enable_seed_rotation(kMasterKey, kRotationEpochs);
  wrong.seed_from_recovery(/*next_epoch=*/4, snapshot,
                           /*packets=*/replica.total(),
                           /*replica_seed_gen=*/0);
  for (const auto& p : stream) wrong.on_packet(p.key);
  const auto wrong_report = wrong.end_epoch();
  std::int64_t worst = 0;
  for (const auto& c : wrong_report.changed_flows) {
    worst = std::max(worst, c.estimate);
  }
  EXPECT_GE(worst, volume / 50) << "wrong-generation baseline went unnoticed";
}

}  // namespace
}  // namespace nitro::control
