// Delta checkpoints (DESIGN.md §15): dirty-segment tracking units, the
// run-length delta codec (round trips + adversarial fuzzing at every
// truncation point), the daemon's delta frame invariants (a delta restore
// is bit-identical to a full restore across random cut points), and the
// CheckpointStore chain — torn tails, corrupt bases, forged headers, and
// retention GC that never eats the live chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "control/checkpoint.hpp"
#include "control/codec.hpp"
#include "control/daemon.hpp"
#include "fault/fault.hpp"
#include "sketch/counter_matrix.hpp"
#include "sketch/univmon.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"
#include "support/temp_path.hpp"

namespace nitro::control {
namespace {

using trace::flow_key_for_rank;

std::string fresh_dir(const std::string& name) {
  return nitro::testing::fresh_temp_dir("nitro_delta_" + name);
}

std::vector<std::uint8_t> payload_of(const char* text) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(text);
  return {b, b + std::string(text).size()};
}

sketch::UnivMonConfig small_um() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 256;
  cfg.min_width = 128;
  cfg.heap_capacity = 32;
  return cfg;
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // deterministic: exact equality testable
  return cfg;
}

// --- Dirty-segment tracking units -------------------------------------------

TEST(DirtyTracking, OffByDefaultAllDirtyOnEnableCleanAfterClear) {
  sketch::CounterMatrix m(3, 256, 11, true);
  EXPECT_FALSE(m.dirty_tracking());
  m.enable_dirty_tracking();
  EXPECT_TRUE(m.dirty_tracking());
  // Enabling knows nothing about prior state: everything must be dirty.
  EXPECT_EQ(m.dirty_segment_count(),
            std::uint64_t{3} * m.segments_per_row());
  m.clear_dirty();
  EXPECT_EQ(m.dirty_segment_count(), 0u);
}

TEST(DirtyTracking, UpdateMarksExactlyTheTouchedSegment) {
  sketch::CounterMatrix m(2, 256, 11, true);
  m.enable_dirty_tracking();
  m.clear_dirty();
  const FlowKey key = flow_key_for_rank(5, 1);
  m.update_row(0, key, 7);
  const std::uint32_t col = m.column_of_digest(0, flow_digest(key));
  const std::uint32_t seg = col / sketch::CounterMatrix::kSegmentCounters;
  EXPECT_TRUE(m.segment_dirty(0, seg));
  EXPECT_EQ(m.dirty_segment_count(), 1u);
  for (std::uint32_t s = 0; s < m.segments_per_row(); ++s) {
    if (s != seg) EXPECT_FALSE(m.segment_dirty(0, s)) << "segment " << s;
    EXPECT_FALSE(m.segment_dirty(1, s)) << "row 1 segment " << s;
  }
}

TEST(DirtyTracking, ConservativeSitesMarkEverythingTheyMayTouch) {
  sketch::CounterMatrix m(2, 256, 11, true);
  m.enable_dirty_tracking();
  m.clear_dirty();
  (void)m.row_mut(1);  // caller may write any counter through the span
  for (std::uint32_t s = 0; s < m.segments_per_row(); ++s) {
    EXPECT_FALSE(m.segment_dirty(0, s));
    EXPECT_TRUE(m.segment_dirty(1, s));
  }
  m.clear_dirty();
  m.clear();  // zeroing changes every previously nonzero counter
  EXPECT_EQ(m.dirty_segment_count(), std::uint64_t{2} * m.segments_per_row());
}

TEST(DirtyTracking, MergeMarksOnlySegmentsTheOtherSidePerturbs) {
  sketch::CounterMatrix a(2, 256, 11, true);
  sketch::CounterMatrix b(2, 256, 11, true);
  const FlowKey key = flow_key_for_rank(9, 1);
  b.update_row(0, key, 3);
  a.enable_dirty_tracking();
  a.clear_dirty();
  a.merge(b);
  EXPECT_EQ(a.dirty_segment_count(), 1u);
  const std::uint32_t col = a.column_of_digest(0, flow_digest(key));
  EXPECT_TRUE(a.segment_dirty(0, col / sketch::CounterMatrix::kSegmentCounters));
}

// --- Matrix delta codec -----------------------------------------------------

TEST(MatrixDelta, AppliesTouchedSegmentsOntoTheBaseExactly) {
  sketch::CounterMatrix base(3, 200, 13, true);
  for (int i = 0; i < 300; ++i) {
    base.update_row(i % 3, flow_key_for_rank(i, 2), i + 1);
  }
  sketch::CounterMatrix src = base;  // replica holds the base state
  sketch::CounterMatrix dst = base;
  src.enable_dirty_tracking();
  src.clear_dirty();  // frame cut: deltas now relative to `base`
  for (int i = 0; i < 40; ++i) {
    src.update_row(i % 3, flow_key_for_rank(1000 + i, 2), 5);
  }
  ByteWriter w;
  write_matrix_delta(w, src);
  ByteReader r(w.bytes());
  apply_matrix_delta(r, dst);
  EXPECT_TRUE(r.exhausted());
  for (std::uint32_t row = 0; row < 3; ++row) {
    const auto a = src.row(row);
    const auto b = dst.row(row);
    for (std::uint32_t c = 0; c < 200; ++c) EXPECT_EQ(a[c], b[c]);
  }
}

TEST(MatrixDelta, RequiresTrackingAndMatchingShape) {
  sketch::CounterMatrix untracked(2, 128, 13, true);
  ByteWriter w;
  EXPECT_THROW(write_matrix_delta(w, untracked), std::logic_error);

  sketch::CounterMatrix src(2, 128, 13, true);
  src.enable_dirty_tracking();
  ByteWriter w2;
  write_matrix_delta(w2, src);
  sketch::CounterMatrix wrong_width(2, 64, 13, true);
  ByteReader r(w2.bytes());
  EXPECT_THROW(apply_matrix_delta(r, wrong_width), std::invalid_argument);
}

/// Hand-craft a matrix-delta payload with an adversarial run list; every
/// structural violation must throw, never write out of bounds.
std::vector<std::uint8_t> forged_delta(
    std::uint32_t depth, std::uint32_t width,
    const std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>& runs) {
  ByteWriter w;
  w.put_u32(0x4e4d4458);  // kMatrixDeltaMagic "NMDX"
  w.put_u32(depth);
  w.put_u32(width);
  w.put_u8(1);  // signed
  for (std::uint32_t row = 0; row < depth; ++row) {
    const auto& rr = row < runs.size() ? runs[row] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{};
    w.put_u32(static_cast<std::uint32_t>(rr.size()));
    for (const auto& [start, len] : rr) {
      w.put_u32(start);
      w.put_u32(len);
    }
    // Enough counter payload for plausible runs; malformed run lists must
    // be rejected before any of it is consumed.
    for (const auto& [start, len] : rr) {
      for (std::uint32_t i = 0; i < len * 64; ++i) w.put_i64(1);
    }
  }
  return std::move(w).take();
}

TEST(MatrixDelta, RejectsForgedRunLists) {
  sketch::CounterMatrix m(1, 256, 13, true);  // 4 segments per row
  auto expect_reject = [&](const std::vector<std::uint8_t>& bytes, const char* what) {
    ByteReader r(bytes);
    sketch::CounterMatrix replica = m;
    EXPECT_THROW(apply_matrix_delta(r, replica), std::invalid_argument) << what;
  };
  expect_reject(forged_delta(1, 256, {{{0, 0}}}), "zero-length run");
  expect_reject(forged_delta(1, 256, {{{2, 1}, {1, 1}}}), "unordered runs");
  expect_reject(forged_delta(1, 256, {{{0, 2}, {1, 1}}}), "overlapping runs");
  expect_reject(forged_delta(1, 256, {{{4, 1}}}), "run starts past the end");
  expect_reject(forged_delta(1, 256, {{{3, 2}}}), "run extends past the end");
  expect_reject(forged_delta(1, 256, {{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {3, 1}}}),
                "run count exceeds segments");
}

// --- UnivMon delta frame fuzzing --------------------------------------------

sketch::UnivMon touched_univmon() {
  sketch::UnivMon um(small_um(), 21);
  um.enable_dirty_tracking();
  um.clear_dirty();
  for (int i = 0; i < 50; ++i) um.update(flow_key_for_rank(i % 7, 3));
  return um;
}

TEST(UnivMonDelta, RoundTripsOntoTheBaseReplica) {
  sketch::UnivMon base(small_um(), 21);
  for (int i = 0; i < 500; ++i) base.update(flow_key_for_rank(i % 40, 3));
  sketch::UnivMon src = base;
  sketch::UnivMon replica = base;
  src.enable_dirty_tracking();
  src.clear_dirty();
  for (int i = 0; i < 80; ++i) src.update(flow_key_for_rank(100 + i % 11, 3));

  apply_univmon_delta(snapshot_univmon_delta(src), replica);
  EXPECT_EQ(replica.total(), src.total());
  // Bit-identical state: the full snapshots must match byte for byte.
  EXPECT_EQ(snapshot_univmon(replica), snapshot_univmon(src));
}

TEST(UnivMonDelta, EveryTruncationPointIsRejected) {
  const sketch::UnivMon src = touched_univmon();
  const auto frame = snapshot_univmon_delta(src);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    sketch::UnivMon replica(small_um(), 21);
    EXPECT_THROW(
        apply_univmon_delta(std::span(frame).first(n), replica),
        std::invalid_argument)
        << "truncation at byte " << n << " of " << frame.size();
  }
}

TEST(UnivMonDelta, SingleBitFlipsNeverLoad) {
  const sketch::UnivMon src = touched_univmon();
  const auto pristine = snapshot_univmon_delta(src);
  // Every byte, one bit each (rotating by byte index) — a full 8-bit sweep
  // is covered for the CRC frame by the codec suite; here the point is
  // that no flipped delta reaches the replica's counters.
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    auto frame = pristine;
    frame[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    sketch::UnivMon replica(small_um(), 21);
    EXPECT_THROW(apply_univmon_delta(frame, replica), std::invalid_argument)
        << "flip at byte " << byte;
  }
}

TEST(UnivMonDelta, LevelCountMismatchIsRejected) {
  const sketch::UnivMon src = touched_univmon();
  auto other = small_um();
  other.levels = 2;
  sketch::UnivMon replica(other, 21);
  EXPECT_THROW(apply_univmon_delta(snapshot_univmon_delta(src), replica),
               std::invalid_argument);
}

// --- Daemon delta frames ----------------------------------------------------

trace::Trace daemon_stream(std::uint64_t packets = 30'000) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 900;
  spec.seed = 42;
  return trace::caida_like(spec);
}

TEST(DaemonDelta, NotReadyUntilAFrameIsCutAndAfterTwoRotations) {
  control::MeasurementDaemon::Tasks tasks;
  MeasurementDaemon d(small_um(), vanilla_cfg(), tasks, 7);
  EXPECT_FALSE(d.delta_ready());
  d.enable_delta_checkpoints();
  EXPECT_FALSE(d.delta_ready());  // no base frame yet
  EXPECT_THROW((void)d.delta_checkpoint_bytes(), std::logic_error);
  d.cut_checkpoint_frame();
  EXPECT_TRUE(d.delta_ready());
  (void)d.end_epoch();
  EXPECT_TRUE(d.delta_ready());  // one rotation is encodable
  (void)d.end_epoch();
  EXPECT_FALSE(d.delta_ready());  // two are not
  EXPECT_THROW((void)d.delta_checkpoint_bytes(), std::logic_error);
}

/// The acceptance property: a replica driven purely by base + delta frames
/// is *bit-identical* (checkpoint_bytes equality) to the source daemon,
/// across random cut points, with and without an epoch rotation between
/// frames.
TEST(DaemonDelta, DeltaRestoreBitIdenticalAcrossRandomCutPoints) {
  control::MeasurementDaemon::Tasks tasks;
  MeasurementDaemon src(small_um(), vanilla_cfg(), tasks, 7);
  MeasurementDaemon dst(small_um(), vanilla_cfg(), tasks, 7);
  src.enable_delta_checkpoints();
  dst.enable_delta_checkpoints();

  const auto stream = daemon_stream();
  std::size_t cursor = 0;
  SplitMix64 rng(0xdeadbeef);

  dst.restore_checkpoint(src.checkpoint_bytes());
  src.cut_checkpoint_frame();

  for (int round = 0; round < 24 && cursor < stream.size(); ++round) {
    const std::size_t n = rng.next() % 800;  // random cut point
    for (std::size_t i = 0; i < n && cursor < stream.size(); ++i, ++cursor) {
      src.on_packet(stream[cursor].key);
    }
    if (rng.next() % 3 == 0) (void)src.end_epoch();  // at most one rotation
    ASSERT_TRUE(src.delta_ready()) << "round " << round;
    const auto delta = src.delta_checkpoint_bytes();
    src.cut_checkpoint_frame();
    dst.apply_delta_checkpoint(delta);
    ASSERT_EQ(src.checkpoint_bytes(), dst.checkpoint_bytes())
        << "round " << round << " cursor " << cursor;
  }
}

TEST(DaemonDelta, SparseEpochDeltaIsMuchSmallerThanAFullCheckpoint) {
  control::MeasurementDaemon::Tasks tasks;
  sketch::UnivMonConfig big = small_um();
  big.top_width = 8192;  // big enough that a sparse epoch touches a sliver
  MeasurementDaemon d(big, vanilla_cfg(), tasks, 7);
  d.enable_delta_checkpoints();
  d.cut_checkpoint_frame();
  // Sparse workload: a handful of flows.
  for (int i = 0; i < 200; ++i) d.on_packet(flow_key_for_rank(i % 4, 9));
  const auto full = d.checkpoint_bytes();
  const auto delta = d.delta_checkpoint_bytes();
  EXPECT_LT(delta.size(), full.size() / 4)
      << "delta " << delta.size() << " vs full " << full.size();
}

TEST(DaemonDelta, CorruptDeltaPayloadNeverHalfApplies) {
  control::MeasurementDaemon::Tasks tasks;
  MeasurementDaemon src(small_um(), vanilla_cfg(), tasks, 7);
  MeasurementDaemon dst(small_um(), vanilla_cfg(), tasks, 7);
  src.enable_delta_checkpoints();
  dst.enable_delta_checkpoints();
  dst.restore_checkpoint(src.checkpoint_bytes());
  src.cut_checkpoint_frame();
  for (int i = 0; i < 100; ++i) src.on_packet(flow_key_for_rank(i, 9));
  auto delta = src.delta_checkpoint_bytes();
  const auto before = dst.checkpoint_bytes();
  delta[delta.size() / 2] ^= 0x40;  // rots the inner sealed univmon delta
  EXPECT_THROW(dst.apply_delta_checkpoint(delta), std::invalid_argument);
  EXPECT_EQ(dst.checkpoint_bytes(), before);  // untouched by the bad frame
}

// --- CheckpointStore chains -------------------------------------------------

TEST(ChainStore, SaveLoadRoundTripInOrder) {
  CheckpointStore store(fresh_dir("roundtrip"));
  const auto s1 = store.save_frame("daemon", /*full=*/true, payload_of("base"));
  ASSERT_TRUE(s1.ok);
  EXPECT_EQ(s1.seq, 1u);
  EXPECT_EQ(s1.base_gen, 1u);
  const auto s2 = store.save_frame("daemon", /*full=*/false, payload_of("d1"));
  const auto s3 = store.save_frame("daemon", /*full=*/false, payload_of("d2"));
  ASSERT_TRUE(s2.ok);
  ASSERT_TRUE(s3.ok);
  EXPECT_EQ(s3.base_gen, 1u);

  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  EXPECT_EQ(chain.base, payload_of("base"));
  ASSERT_EQ(chain.deltas.size(), 2u);
  EXPECT_EQ(chain.deltas[0], payload_of("d1"));
  EXPECT_EQ(chain.deltas[1], payload_of("d2"));
  EXPECT_EQ(chain.base_gen, 1u);
  EXPECT_EQ(chain.last_seq, 3u);
  EXPECT_EQ(chain.frames_rejected, 0u);
}

TEST(ChainStore, DeltaWithNoBaseIsRefused) {
  CheckpointStore store(fresh_dir("nobase"));
  const auto s = store.save_frame("daemon", /*full=*/false, payload_of("d"));
  EXPECT_FALSE(s.ok);
  EXPECT_FALSE(store.load_chain("daemon").found);
}

TEST(ChainStore, TornTailTruncatesTheChainButKeepsThePrefix) {
  CheckpointStore store(fresh_dir("torntail"));
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("base")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d1")).ok);
  fault::Schedule plan;
  plan.torn_checkpoint_write(/*at_hit=*/1, /*keep_bytes=*/15);
  {
    fault::ScopedFaultInjection scoped(plan);
    // The torn save still reports success — exactly the crash-mid-
    // checkpoint shape where the rename was journaled first.
    ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d2-torn")).ok);
  }
  EXPECT_EQ(plan.fired(fault::Site::kCheckpointWrite), 1u);

  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  EXPECT_EQ(chain.base, payload_of("base"));
  ASSERT_EQ(chain.deltas.size(), 1u);
  EXPECT_EQ(chain.deltas[0], payload_of("d1"));
  EXPECT_EQ(chain.last_seq, 2u);
  EXPECT_EQ(chain.frames_rejected, 1u);
  EXPECT_NE(chain.error.find("frame"), std::string::npos) << chain.error;
}

TEST(ChainStore, CorruptFullFallsBackToTheOlderGeneration) {
  CheckpointStore store(fresh_dir("fallback"));
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("old base")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("old d")).ok);
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("new base")).ok);

  // Rot the newest full at load time (lane = its seq) — injected on the
  // read path, so the on-disk file itself stays pristine.
  fault::Schedule plan;
  plan.corrupt_chain_frame(/*at_hit=*/1, /*lane=*/3);
  fault::ScopedFaultInjection scoped(plan);
  const auto chain = store.load_chain("daemon");
  EXPECT_GE(plan.fired(fault::Site::kChainLoad), 1u);
  ASSERT_TRUE(chain.found);
  EXPECT_EQ(chain.base, payload_of("old base"));
  ASSERT_EQ(chain.deltas.size(), 1u);
  EXPECT_EQ(chain.deltas[0], payload_of("old d"));
  EXPECT_EQ(chain.base_gen, 1u);
  EXPECT_GE(chain.frames_rejected, 1u);
}

TEST(ChainStore, RenamedFrameIsDetectedAsForged) {
  CheckpointStore store(fresh_dir("forged"));
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("base")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d1")).ok);
  // Forge: substitute the seq-2 delta for a (claimed) seq-3 one by file
  // rename.  The seq inside the CRC frame disagrees with the file name, so
  // restore must reject it instead of replaying it out of order.
  std::filesystem::copy_file(store.chain_path("daemon", 2, false),
                             store.chain_path("daemon", 3, false));
  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  ASSERT_EQ(chain.deltas.size(), 1u);  // seq 2 applied, forged seq 3 rejected
  EXPECT_EQ(chain.last_seq, 2u);
  EXPECT_EQ(chain.frames_rejected, 1u);
  EXPECT_NE(chain.error.find("does not match"), std::string::npos) << chain.error;
}

TEST(ChainStore, SequenceGapTruncatesTheChain) {
  CheckpointStore store(fresh_dir("gap"));
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("base")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d1")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d2")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d3")).ok);
  std::filesystem::remove(store.chain_path("daemon", 3, false));
  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  ASSERT_EQ(chain.deltas.size(), 1u);  // d1; d3 unreachable across the gap
  EXPECT_EQ(chain.last_seq, 2u);
}

TEST(ChainStore, RetentionGcNeverDeletesTheLiveChain) {
  CheckpointStore store(fresh_dir("gc"));
  store.set_retention(4);
  // A live chain longer than the retention budget: nothing may be GC'd,
  // because every frame is reachable from the only base.
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("base")).ok);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d")).ok);
  }
  auto count_frames = [&] {
    std::size_t n = 0;
    for (std::uint64_t seq = 1; seq <= 64; ++seq) {
      n += std::filesystem::exists(store.chain_path("daemon", seq, true));
      n += std::filesystem::exists(store.chain_path("daemon", seq, false));
    }
    return n;
  };
  EXPECT_EQ(count_frames(), 7u);

  // A new base makes the old generation dead; GC may now reclaim it down
  // to the budget — and the new chain must remain fully restorable.
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("base2")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d2")).ok);
  EXPECT_LE(count_frames(), 4u);
  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  EXPECT_EQ(chain.base, payload_of("base2"));
  ASSERT_EQ(chain.deltas.size(), 1u);
  EXPECT_EQ(chain.deltas[0], payload_of("d2"));
}

TEST(ChainStore, RestartResumesSequenceNumbersFromDisk) {
  const std::string dir = fresh_dir("restart");
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.save_frame("daemon", true, payload_of("base")).ok);
    ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d1")).ok);
  }
  CheckpointStore reopened(dir);
  const auto chain = reopened.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  EXPECT_EQ(chain.last_seq, 2u);
  const auto s = reopened.save_frame("daemon", false, payload_of("d2"));
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.seq, 3u);  // continues, never recycles
  EXPECT_EQ(s.base_gen, 1u);
}

TEST(ChainStore, TelemetryCountsFramesRejectionsAndGc) {
  CheckpointStore store(fresh_dir("telemetry"));
  telemetry::Registry registry;
  store.attach_telemetry(registry, "nitro_checkpoint");
  store.set_retention(2);
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("b1")).ok);
  ASSERT_TRUE(store.save_frame("daemon", false, payload_of("d")).ok);
  ASSERT_TRUE(store.save_frame("daemon", true, payload_of("b2")).ok);
  EXPECT_EQ(registry.counter("nitro_checkpoint_chain_frames_total").value(), 3u);
  EXPECT_GE(registry.counter("nitro_checkpoint_chain_gc_deleted_total").value(), 1u);

  fault::Schedule plan;
  plan.corrupt_chain_frame(/*at_hit=*/1, /*lane=*/3);
  fault::ScopedFaultInjection scoped(plan);
  const auto chain = store.load_chain("daemon");
  // Retention-2 GC already deleted b1, so corrupting the only remaining
  // full (b2, seq 3) leaves nothing restorable — the rejection must still
  // be counted, and the failure reported rather than half-loaded.
  EXPECT_FALSE(chain.found);
  EXPECT_GE(registry.counter("nitro_checkpoint_chain_rejected_total").value(), 1u);
}

}  // namespace
}  // namespace nitro::control
