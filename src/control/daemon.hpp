// Measurement daemon: the per-epoch control loop of §6.
//
// Owns a data-plane NitroUnivMon, and at each epoch boundary (i) pulls the
// sketch state, (ii) runs the user's configured tasks (HH / entropy /
// distinct / change), and (iii) resets the data plane for the next epoch.
// This is the object the examples program against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/codec.hpp"
#include "control/estimation.hpp"
#include "core/epoch_span.hpp"
#include "core/nitro_univmon.hpp"
#include "core/seed_schedule.hpp"
#include "fault/fault.hpp"
#include "sketch/anomaly.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace nitro::control {

/// Thrown when the fault framework kills the daemon at an epoch boundary
/// (Site::kDaemonEpoch, Action::kDie).  Tests catch it where a real
/// deployment would crash the process and restart from the checkpoint.
struct DaemonCrash : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct EpochReport {
  std::uint64_t epoch = 0;
  std::int64_t packets = 0;
  std::vector<HeavyHitter> heavy_hitters;
  std::vector<HeavyHitter> changed_flows;
  double entropy = 0.0;
  double distinct = 0.0;
  /// Online bound check (telemetry/accuracy.hpp); tracked_flows == 0 when
  /// no observer is attached (or nothing got sampled this epoch).
  telemetry::EpochAccuracy accuracy{};
  // --- Adversarial-pressure signals (DESIGN.md §16) -----------------------
  /// Residual row-concentration of the level-0 Count Sketch at epoch
  /// close; benign traffic sits at a small constant, a crafted collision
  /// flood is orders of magnitude above it.
  double collision_pressure = 0.0;
  /// Untracked-evicts-tracked heap events this epoch (churn velocity).
  std::uint64_t heap_evictions = 0;
  /// True when a configured anomaly threshold (Tasks) was exceeded.
  bool anomaly_alarm = false;
};

/// One closed epoch handed to an export sink: the sealed UnivMon snapshot
/// plus span/packets metadata for the wire message.  The span is a single
/// epoch here; the exporter widens it when it coalesces a backlog.
struct ExportedEpoch {
  core::EpochSpan span;
  std::int64_t packets = 0;
  /// Steady-clock time the epoch closed; rides the v2 wire so the
  /// collector can compute end-to-end freshness.
  std::uint64_t close_ns = 0;
  std::vector<std::uint8_t> snapshot;  // snapshot_univmon() frame
  /// Seed generation of the closed epoch (0 unless rotation is enabled);
  /// rides the v4 wire so the collector can merge into the right replica.
  std::uint64_t seed_gen = 0;
};

class MeasurementDaemon {
 public:
  struct Tasks {
    bool heavy_hitters = true;
    double hh_fraction = 0.0005;  // paper: 0.05% of epoch volume
    bool change_detection = true;
    double change_fraction = 0.0005;
    bool entropy = true;
    bool distinct = true;
    /// Anomaly alarm thresholds (0 = that alarm disabled): the epoch
    /// report's anomaly_alarm flag and the nitro_anomaly_alarms_total
    /// counter fire when a gauge exceeds its threshold.
    double collision_alarm_threshold = 0.0;
    std::uint64_t eviction_alarm_threshold = 0;
  };

  MeasurementDaemon(const sketch::UnivMonConfig& um_cfg, const core::NitroConfig& nitro_cfg,
                    const Tasks& tasks, std::uint64_t seed = 0xdae11011ULL)
      : um_cfg_(um_cfg), nitro_cfg_(nitro_cfg), tasks_(tasks), seed_(seed),
        sched_{seed, 0, 0}, current_(um_cfg, nitro_cfg, seed) {}

  /// Turn on keyed per-generation seed rotation (core/seed_schedule.hpp):
  /// every `rotation_epochs` epochs the data plane rotates onto a seed
  /// derived from `master_key` and the generation number, invalidating any
  /// collision set crafted against an earlier seed.  Must be called before
  /// any traffic or rotation — the live sketch is rebuilt on the keyed
  /// generation-0 seed.  Checkpoints, delta frames and recovery responses
  /// re-derive seeds from the same schedule, so restores only work on a
  /// daemon configured with the same (master_key, rotation_epochs).
  void enable_seed_rotation(std::uint64_t master_key, std::uint64_t rotation_epochs) {
    if (current_.total() != 0 || previous_ || epoch_ != 0) {
      throw std::logic_error(
          "enable_seed_rotation: must be called on a fresh daemon");
    }
    sched_.master_key = master_key;
    sched_.rotation_epochs = rotation_epochs;
    current_ = core::NitroUnivMon(um_cfg_, nitro_cfg_, sched_.seed_for_epoch(0));
    if (delta_tracking_) {
      current_.enable_dirty_tracking();
      current_.clear_dirty();
    }
    if (registry_) {
      current_.attach_telemetry(tel_);
      publish_telemetry();
    }
  }

  const core::SeedSchedule& seed_schedule() const noexcept { return sched_; }
  /// Seed generation of the epoch currently accumulating.
  std::uint64_t seed_generation() const noexcept {
    return sched_.generation_of(epoch_);
  }
  /// Construction seed of the live data plane.
  std::uint64_t active_seed() const noexcept { return current_.seed(); }

  /// Data-plane entry point.
  void on_packet(const FlowKey& key, std::uint64_t ts_ns = 0) {
    current_.update(key, 1, skewed(ts_ns));
    if (accuracy_ != nullptr) accuracy_->observe(key);
  }

  /// Burst data-plane entry point: a whole rx burst of parsed keys with
  /// the burst's poll timestamp.
  void on_burst(std::span<const FlowKey> keys, std::uint64_t ts_ns = 0) {
    telemetry::ScopedSpan trace(telemetry::Stage::kBurstFlush);
    current_.update_burst(keys, skewed(ts_ns));
    if (accuracy_ != nullptr) accuracy_->observe_burst(keys);
  }

  /// Bind the daemon (and its rotating data plane) to a registry.  The
  /// sketch-level instruments live under "nitro_univmon"; because the data
  /// plane is rotated every epoch, the daemon re-attaches after each
  /// rotation and folds per-epoch counts into cumulative counters, so the
  /// exported counters stay monotonic across epochs.
  void attach_telemetry(telemetry::Registry& registry) {
    registry_ = &registry;
    tel_ = telemetry::SketchTelemetry::in(registry, "nitro_univmon");
    current_.attach_telemetry(tel_);
    publish_telemetry();
  }

  /// Refresh exported counters/gauges from the live data plane (cheap;
  /// call before any scrape/snapshot).
  void publish_telemetry() {
    if (!registry_) return;
    if (tel_.packets) {
      tel_.packets->store(cum_packets_ + static_cast<std::uint64_t>(current_.total()));
    }
    if (tel_.sampled_updates) {
      tel_.sampled_updates->store(cum_sampled_ + current_.sampled_updates());
    }
    if (tel_.probability) tel_.probability->set(current_.level_probability(0));
    registry_->gauge("nitro_daemon_epoch", "epochs closed so far")
        .set(static_cast<double>(epoch_));
  }

  /// Close the epoch: compute all configured task results, rotate sketches.
  /// May throw DaemonCrash under fault injection — callers that persist
  /// checkpoints do so *before* calling this, so a crash here loses at
  /// most the current (un-closed) epoch, never a reported one.
  EpochReport end_epoch() {
    if (fault::point(fault::Site::kDaemonEpoch) == fault::Action::kDie) {
      throw DaemonCrash("injected daemon crash at epoch boundary");
    }
    EpochReport report;
    report.epoch = epoch_++;
    report.packets = current_.total();

    // Bound check against the *current* sketch before rotation wipes it:
    // empirical |estimate - exact| over the sampled reservoir vs the
    // eps*sqrt(n) bound, inflated by sqrt(2^level) while degraded.
    if (accuracy_ != nullptr) {
      report.accuracy = accuracy_->close_epoch(
          [this](const FlowKey& k) { return current_.query(k); },
          report.packets, static_cast<int>(current_.degrade_level()));
    }

    if (tasks_.heavy_hitters) {
      report.heavy_hitters = heavy_hitters(current_, tasks_.hh_fraction);
    }
    if (tasks_.entropy) report.entropy = current_.estimate_entropy();
    if (tasks_.distinct) report.distinct = current_.estimate_distinct();

    if (tasks_.change_detection && previous_) {
      const auto candidates =
          candidate_union(current_.heavy_hitters(1), previous_->heavy_hitters(1));
      report.changed_flows =
          changes(*previous_, current_, candidates, tasks_.change_fraction);
    }

    // Adversarial-pressure signals, before rotation wipes the counters:
    // residual row concentration (collision floods) and heap eviction
    // velocity (churn storms).  The per-epoch sketch is fresh, so the raw
    // eviction counter IS this epoch's velocity.
    report.collision_pressure = sketch::collision_pressure(current_.univmon());
    report.heap_evictions = current_.univmon().heap_evictions();
    report.anomaly_alarm =
        (tasks_.collision_alarm_threshold > 0.0 &&
         report.collision_pressure > tasks_.collision_alarm_threshold) ||
        (tasks_.eviction_alarm_threshold > 0 &&
         report.heap_evictions > tasks_.eviction_alarm_threshold);
    if (registry_) {
      registry_->gauge("nitro_anomaly_collision_pressure",
                       "residual level-0 row concentration at epoch close")
          .set(report.collision_pressure);
      registry_->gauge("nitro_anomaly_heap_evictions",
                       "TopK heap evictions in the closed epoch")
          .set(static_cast<double>(report.heap_evictions));
      if (report.anomaly_alarm) {
        registry_->counter("nitro_anomaly_alarms_total",
                           "epochs whose anomaly gauges exceeded a threshold")
            .inc();
      }
    }

    // Hand the closed epoch to the export sink before rotation destroys
    // the counters.  The sink (an EpochExporter queue push) must not
    // block the epoch loop on a slow collector.
    if (export_sink_) {
      std::vector<std::uint8_t> snap;
      {
        telemetry::ScopedSpan trace(telemetry::Stage::kSnapshot);
        snap = snapshot_univmon(current_.univmon());
      }
      export_sink_(ExportedEpoch{core::EpochSpan::single(report.epoch),
                                 report.packets, telemetry::Tracer::now_ns(),
                                 std::move(snap),
                                 sched_.generation_of(report.epoch)});
    }

    // Fold this epoch's counts into the cumulative totals before the data
    // plane is rotated away, so exported counters never move backwards.
    cum_packets_ += static_cast<std::uint64_t>(current_.total());
    cum_sampled_ += current_.sampled_updates();

    // If a delta base is live, seal the closing window's changes now: the
    // rotation moves them into previous_, which a rotated delta frame must
    // still be able to reconstruct on the restore side (DESIGN.md §15).
    if (delta_tracking_ && delta_ok_ && rotations_since_cut_ == 0) {
      pre_rotation_delta_ = snapshot_univmon_delta(current_.univmon());
    }

    // Rotate: current becomes previous; fresh sketch for the next epoch,
    // on the next epoch's (possibly new-generation) seed.  previous_ keeps
    // the closed epoch's seed — change detection queries both sketches by
    // key, so a cross-generation pair is fine.
    previous_ = std::make_unique<core::NitroUnivMon>(std::move(current_));
    current_ = core::NitroUnivMon(um_cfg_, nitro_cfg_, sched_.seed_for_epoch(epoch_));
    // The delta frame format encodes at most one rotation (its `rotated`
    // flag).  A fresh sketch is all-zero, so its dirty state starts clean:
    // the next delta then carries exactly the segments traffic touches.
    ++rotations_since_cut_;
    if (rotations_since_cut_ > 1) delta_ok_ = false;
    if (delta_tracking_) {
      current_.enable_dirty_tracking();
      current_.clear_dirty();
    }
    if (registry_) {
      current_.attach_telemetry(tel_);
      publish_telemetry();
    }
    return report;
  }

  const core::NitroUnivMon& data_plane() const noexcept { return current_; }

  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Register a network-export sink: every end_epoch() hands it the closed
  /// epoch's sealed snapshot (see ExportedEpoch).  Pass an empty function
  /// to detach.  Kept as std::function so the control plane does not
  /// depend on the export subsystem.
  using ExportSink = std::function<void(ExportedEpoch&&)>;
  void set_export_sink(ExportSink sink) { export_sink_ = std::move(sink); }

  /// Attach an online accuracy observer (telemetry/accuracy.hpp): the
  /// daemon mirrors every data-plane update into it and closes it each
  /// epoch against the live sketch.  Caller keeps ownership; pass null to
  /// detach.  Single-threaded like the data plane itself.
  void set_accuracy_observer(telemetry::AccuracyObserver* observer) noexcept {
    accuracy_ = observer;
  }
  telemetry::AccuracyObserver* accuracy_observer() const noexcept {
    return accuracy_;
  }

  // --- Crash-safe checkpointing (control/checkpoint.hpp) ------------------

  /// Serialize the daemon's full measurement state — epoch counter,
  /// cumulative telemetry totals, the live data plane, and the previous
  /// epoch's sketch (change detection needs it) — as a checkpoint payload.
  /// Pair with CheckpointStore::save, which adds the CRC frame.
  std::vector<std::uint8_t> checkpoint_bytes() const {
    ByteWriter w;
    w.put_u32(kCheckpointMagic);
    w.put_u32(kCheckpointVersion);
    w.put_u64(epoch_);
    w.put_u64(cum_packets_);
    w.put_u64(cum_sampled_);
    // v2: the live sketch's seed generation, so a restore can verify the
    // restoring daemon derives the same seed before loading counters that
    // are meaningless under any other hash functions — plus the live
    // sketch's ingest counters, so a restored daemon's next epoch report
    // accounts packets/sampled-updates exactly like the uninterrupted one
    // (total() is not a substitute once sampling skips updates).
    w.put_u64(sched_.generation_of(epoch_));
    w.put_u64(current_.ingest_packets());
    w.put_u64(current_.sampled_updates());
    w.put_blob(snapshot_univmon(current_.univmon()));
    w.put_u8(previous_ ? 1 : 0);
    if (previous_) w.put_blob(snapshot_univmon(previous_->univmon()));
    return std::move(w).take();
  }

  /// Restore from a payload produced by checkpoint_bytes() on a daemon
  /// built with the same configs and seed (the snapshot codec's shape
  /// checks enforce it).  Throws std::invalid_argument on a malformed
  /// payload — corruption is rejected loudly, never half-loaded.
  void restore_checkpoint(std::span<const std::uint8_t> payload) {
    ByteReader r(payload);
    if (r.get_u32() != kCheckpointMagic) {
      throw std::invalid_argument("daemon checkpoint: bad magic");
    }
    check_version("daemon checkpoint", r.get_u32());
    const std::uint64_t epoch = r.get_u64();
    const std::uint64_t cum_packets = r.get_u64();
    const std::uint64_t cum_sampled = r.get_u64();
    const std::uint64_t gen = r.get_u64();
    if (gen != sched_.generation_of(epoch)) {
      throw std::invalid_argument(
          "daemon checkpoint: seed generation does not match this daemon's "
          "rotation schedule");
    }
    const std::uint64_t ingest_packets = r.get_u64();
    const std::uint64_t ingest_sampled = r.get_u64();
    const auto current_snap = r.get_blob();

    core::NitroUnivMon restored(um_cfg_, nitro_cfg_, sched_.seed_for_epoch(epoch));
    load_univmon(current_snap, restored.univmon_mut());
    std::unique_ptr<core::NitroUnivMon> prev;
    if (r.get_u8() != 0) {
      // previous_ holds the last closed epoch (epoch - 1), whose seed may
      // be one generation behind the live sketch's.
      const std::uint64_t prev_seed =
          sched_.seed_for_epoch(epoch > 0 ? epoch - 1 : 0);
      prev = std::make_unique<core::NitroUnivMon>(um_cfg_, nitro_cfg_, prev_seed);
      load_univmon(r.get_blob(), prev->univmon_mut());
    }
    if (!r.exhausted()) {
      throw std::invalid_argument("daemon checkpoint: trailing bytes");
    }

    // Validated end-to-end: only now mutate the daemon.
    epoch_ = epoch;
    cum_packets_ = cum_packets;
    cum_sampled_ = cum_sampled;
    current_ = std::move(restored);
    current_.set_ingest_counts(ingest_packets, ingest_sampled);
    previous_ = std::move(prev);
    // A restored sketch's relation to any delta base is unknown; the next
    // checkpoint frame must be a full one.
    delta_ok_ = false;
    rotations_since_cut_ = 0;
    pre_rotation_delta_.clear();
    if (delta_tracking_) current_.enable_dirty_tracking();
    if (registry_) {
      current_.attach_telemetry(tel_);
      publish_telemetry();
    }
  }

  // --- Delta checkpoints (DESIGN.md §15) ----------------------------------

  /// Turn on dirty-segment tracking so delta_checkpoint_bytes() becomes
  /// available.  Call once at startup; survives epoch rotations.
  void enable_delta_checkpoints() {
    delta_tracking_ = true;
    current_.enable_dirty_tracking();
  }

  /// True when the state since the last cut_checkpoint_frame() is
  /// expressible as a delta: tracking is on, a frame was cut, and at most
  /// one rotation happened since (the frame format encodes one).
  bool delta_ready() const noexcept {
    return delta_tracking_ && delta_ok_ && rotations_since_cut_ <= 1;
  }

  /// Serialize the changes since the last frame cut: dirty segments of
  /// the live sketch, full heaps, and whether one rotation happened (the
  /// restore side then replays the rotation before applying the delta).
  /// Requires delta_ready().
  std::vector<std::uint8_t> delta_checkpoint_bytes() const {
    if (!delta_ready()) {
      throw std::logic_error("daemon delta checkpoint: no valid base frame");
    }
    ByteWriter w;
    w.put_u32(kDeltaCkptMagic);
    w.put_u32(kCheckpointVersion);
    w.put_u64(epoch_);
    w.put_u64(cum_packets_);
    w.put_u64(cum_sampled_);
    // v2: live ingest counters, same rationale as the full frame.
    w.put_u64(current_.ingest_packets());
    w.put_u64(current_.sampled_updates());
    const bool rotated = rotations_since_cut_ == 1;
    w.put_u8(rotated ? 1 : 0);
    // A rotated frame carries two deltas: the closing window's changes
    // (sealed by end_epoch before it moved them into previous_) and the
    // post-rotation live sketch relative to zero.
    if (rotated) w.put_blob(pre_rotation_delta_);
    w.put_blob(snapshot_univmon_delta(current_.univmon()));
    return std::move(w).take();
  }

  /// Mark the just-serialized state as the new delta base.  Call after
  /// every *successful* checkpoint save (full or delta); subsequent dirty
  /// bits are relative to that frame.
  void cut_checkpoint_frame() {
    if (!delta_tracking_) return;
    current_.clear_dirty();
    pre_rotation_delta_.clear();
    rotations_since_cut_ = 0;
    delta_ok_ = true;
  }

  /// Replay one delta frame onto the restored base state (chain restore:
  /// restore_checkpoint(base) then apply_delta_checkpoint per frame, in
  /// sequence order).  Validates the payload fully before mutating.
  void apply_delta_checkpoint(std::span<const std::uint8_t> payload) {
    ByteReader r(payload);
    if (r.get_u32() != kDeltaCkptMagic) {
      throw std::invalid_argument("daemon delta checkpoint: bad magic");
    }
    check_version("daemon delta checkpoint", r.get_u32());
    const std::uint64_t epoch = r.get_u64();
    const std::uint64_t cum_packets = r.get_u64();
    const std::uint64_t cum_sampled = r.get_u64();
    const std::uint64_t ingest_packets = r.get_u64();
    const std::uint64_t ingest_sampled = r.get_u64();
    const bool rotated = r.get_u8() != 0;
    decltype(r.get_blob()) closing{};
    if (rotated) closing = r.get_blob();
    const auto delta = r.get_blob();
    if (!r.exhausted()) {
      throw std::invalid_argument("daemon delta checkpoint: trailing bytes");
    }

    if (rotated) {
      // Replay the rotation the source performed: base state + the sealed
      // closing-window delta becomes previous_, and the new live sketch is
      // rebuilt from zero + the post-rotation delta.  Both applies target
      // scratch objects so a malformed frame never half-applies.
      sketch::UnivMon closed = current_.univmon();
      apply_univmon_delta(closing, closed);
      // The rotation may have crossed a generation boundary: the fresh
      // sketch gets the frame epoch's seed, while previous_ keeps the base
      // sketch's (the closed window was accumulated under it).
      core::NitroUnivMon fresh(um_cfg_, nitro_cfg_, sched_.seed_for_epoch(epoch));
      apply_univmon_delta(delta, fresh.univmon_mut());
      auto prev =
          std::make_unique<core::NitroUnivMon>(um_cfg_, nitro_cfg_, current_.seed());
      prev->univmon_mut() = std::move(closed);
      previous_ = std::move(prev);
      current_ = std::move(fresh);
    } else {
      // Same epoch as the base frame: overwrite touched segments in place
      // (via a scratch copy so a malformed frame never half-applies).
      sketch::UnivMon scratch = current_.univmon();
      apply_univmon_delta(delta, scratch);
      current_.univmon_mut() = std::move(scratch);
    }
    epoch_ = epoch;
    cum_packets_ = cum_packets;
    cum_sampled_ = cum_sampled;
    current_.set_ingest_counts(ingest_packets, ingest_sampled);
    delta_ok_ = false;
    rotations_since_cut_ = 0;
    pre_rotation_delta_.clear();
    if (delta_tracking_) current_.enable_dirty_tracking();
    if (registry_) {
      current_.attach_telemetry(tel_);
      publish_telemetry();
    }
  }

  // --- Rebuild-from-collector (wire v3 rejoin, DESIGN.md §15) -------------

  /// Seed a state-less restart from the collector's last-applied replica:
  /// the cumulative replica becomes previous_ (the change-detection
  /// baseline — an approximation, documented in DESIGN.md §15), the live
  /// sketch starts fresh, and the epoch counter resumes at `next_epoch` so
  /// re-exported sequence numbers continue where the collector left off.
  /// `replica_seed_gen` is the seed generation the collector reported for
  /// its replica (RecoverResponse.seed_gen, 0 on pre-rotation wire
  /// versions); the previous_ baseline is rebuilt under that generation's
  /// seed while the live sketch starts on next_epoch's.
  void seed_from_recovery(std::uint64_t next_epoch,
                          std::span<const std::uint8_t> univmon_snapshot,
                          std::int64_t packets,
                          std::uint64_t replica_seed_gen = 0) {
    auto prev = std::make_unique<core::NitroUnivMon>(
        um_cfg_, nitro_cfg_, sched_.seed_for(replica_seed_gen));
    load_univmon(univmon_snapshot, prev->univmon_mut());
    epoch_ = next_epoch;
    cum_packets_ = static_cast<std::uint64_t>(packets);
    cum_sampled_ = 0;
    previous_ = std::move(prev);
    current_ = core::NitroUnivMon(um_cfg_, nitro_cfg_, sched_.seed_for_epoch(next_epoch));
    delta_ok_ = false;
    rotations_since_cut_ = 0;
    pre_rotation_delta_.clear();
    if (delta_tracking_) {
      current_.enable_dirty_tracking();
      current_.clear_dirty();
    }
    if (registry_) {
      current_.attach_telemetry(tel_);
      publish_telemetry();
    }
  }

  /// Mutable data-plane access for the sharded integration: at each epoch
  /// boundary the monitor merges every quiesced shard instance into the
  /// daemon's (otherwise idle) data plane, then runs end_epoch() as usual
  /// so task estimation and rotation see the global merged view.
  core::NitroUnivMon& data_plane_mut() noexcept { return current_; }

 private:
  static constexpr std::uint32_t kCheckpointMagic = 0x4e44434bu;  // "NDCK"
  static constexpr std::uint32_t kDeltaCkptMagic = 0x4e44444cu;   // "NDDL"
  /// v2 added the seed generation (keyed rotation, DESIGN.md §16) and the
  /// live ingest counters.  v1 payloads travelled only in v1 frames, which
  /// open_frame rejects, so every other version is rejected by number.
  static constexpr std::uint32_t kCheckpointVersion = 2;

  static void check_version(const char* what, std::uint32_t version) {
    if (version != kCheckpointVersion) {
      throw std::invalid_argument(std::string(what) + ": unsupported version " +
                                  std::to_string(version));
    }
  }

  /// Clock-skew fault point: timestamps entering the daemon can be shifted
  /// by a scheduled signed offset, exercising the AlwaysLineRate rate
  /// controller's tolerance to non-monotonic clocks.
  static std::uint64_t skewed(std::uint64_t ts_ns) noexcept {
    if constexpr (fault::kEnabled) {
      std::uint64_t param = 0;
      if (fault::point(fault::Site::kDaemonClock, 0, &param) ==
          fault::Action::kClockSkew) [[unlikely]] {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(ts_ns) +
                                          static_cast<std::int64_t>(param));
      }
    }
    return ts_ns;
  }

  sketch::UnivMonConfig um_cfg_;
  core::NitroConfig nitro_cfg_;
  Tasks tasks_;
  std::uint64_t seed_;
  /// Keyed seed-rotation schedule (DESIGN.md §16).  Disabled by default
  /// (rotation_epochs == 0): every generation derives to seed_, which is
  /// bit-identical to the pre-rotation behaviour.
  core::SeedSchedule sched_;
  std::uint64_t epoch_ = 0;
  core::NitroUnivMon current_;
  std::unique_ptr<core::NitroUnivMon> previous_;
  telemetry::Registry* registry_ = nullptr;
  telemetry::SketchTelemetry tel_{};
  std::uint64_t cum_packets_ = 0;
  std::uint64_t cum_sampled_ = 0;
  // Delta-checkpoint state: tracking enabled at all, whether a base frame
  // exists that deltas can be cut against, and rotations since that cut
  // (the frame format encodes at most one).
  bool delta_tracking_ = false;
  bool delta_ok_ = false;
  std::uint32_t rotations_since_cut_ = 0;
  // Sealed by end_epoch when a live base rotates away: the closing
  // window's changes since the cut, carried by the next rotated frame so
  // the restore side can reconstruct previous_.
  std::vector<std::uint8_t> pre_rotation_delta_;
  ExportSink export_sink_;
  telemetry::AccuracyObserver* accuracy_ = nullptr;
};

}  // namespace nitro::control
