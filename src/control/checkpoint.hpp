// Crash-safe checkpoint/restore for sketch state (DESIGN.md §10).
//
// A daemon crash must not lose the measurement epoch: at every epoch
// boundary the control plane persists its sketch state through this store
// and restores it on restart.  Durability recipe per save:
//
//   1. the payload is sealed in a versioned CRC-32 frame (codec.hpp);
//   2. the frame is written to `<name>.tmp` and fsync'd;
//   3. the previous `<name>.ckpt` (if any) is renamed to `<name>.prev`;
//   4. `<name>.tmp` is atomically renamed to `<name>.ckpt`.
//
// load() validates `<name>.ckpt` and, when it is missing, truncated or
// fails the CRC (a torn write), falls back to `<name>.prev` — corruption
// is always *detected and reported*, never silently loaded.  The fault
// framework can inject torn writes (persist only a prefix of the frame)
// and read-side bit rot to exercise exactly these paths.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "control/codec.hpp"
#include "telemetry/telemetry.hpp"

namespace nitro::control {

class CheckpointStore {
 public:
  /// `dir` is created if missing (single level).  Throws std::runtime_error
  /// when the directory cannot be created or is not writable.
  explicit CheckpointStore(std::string dir);

  /// Atomically persist `payload` under `name`.  Returns false when a
  /// filesystem operation fails (the previous checkpoint stays intact).
  /// An injected torn write persists only a prefix of the frame but still
  /// completes the rename dance — simulating a crash where the rename was
  /// journaled before the data blocks hit disk — and reports success, as
  /// the real crash would have.
  bool save(const std::string& name, std::span<const std::uint8_t> payload);

  enum class Source { kNone, kCurrent, kPrevious };

  struct Restored {
    std::vector<std::uint8_t> payload;  // frame-validated, header stripped
    Source source = Source::kNone;
    bool current_rejected = false;  // <name>.ckpt existed but failed validation
    std::string error;              // why the best candidate was rejected
  };

  /// Load the newest valid checkpoint for `name`.  Never throws for
  /// missing/corrupt files: the outcome (including the rejection reason)
  /// is reported in Restored so callers can log it loudly.
  Restored load(const std::string& name) const;

  std::string current_path(const std::string& name) const;
  std::string previous_path(const std::string& name) const;
  std::string tmp_path(const std::string& name) const;

  const std::string& dir() const noexcept { return dir_; }

  /// saves/failures/corrupt-rejections counters + last checkpoint size.
  void attach_telemetry(telemetry::Registry& registry, const std::string& prefix);

  // --- Delta-checkpoint chains (DESIGN.md §15) ----------------------------
  //
  // A chain is a sequence of numbered frames `<name>.NNNNNN.full` /
  // `<name>.NNNNNN.delta`: a periodic full base plus the deltas cut
  // against it.  Every frame is written with the same atomic durability
  // recipe as save(), and carries an inner chain header (kind, its own
  // sequence number, and the base generation — the sequence number of the
  // full frame the chain is rooted at) inside the CRC frame, so a frame
  // renamed or substituted on disk is detected at restore time.

  struct ChainSave {
    bool ok = false;
    std::uint64_t seq = 0;       // this frame's sequence number
    std::uint64_t base_gen = 0;  // sequence number of the live full base
  };

  /// Append one frame to `name`'s chain.  `full` starts a new base
  /// generation; a delta is refused (ok = false) when no full base exists
  /// yet.  A fault-injected torn write truncates the frame but reports
  /// success, exactly like save().  Successful saves trigger retention GC
  /// (see set_retention).
  ChainSave save_frame(const std::string& name, bool full,
                       std::span<const std::uint8_t> payload);

  struct ChainRestored {
    bool found = false;                           // a usable base was restored
    std::vector<std::uint8_t> base;               // full-frame payload
    std::vector<std::vector<std::uint8_t>> deltas;  // contiguous, in order
    std::uint64_t base_gen = 0;   // seq of the restored full frame
    std::uint64_t last_seq = 0;   // seq of the last restored frame
    std::uint64_t frames_rejected = 0;  // torn/corrupt/forged frames skipped
    std::string error;            // first rejection reason, for logging
  };

  /// Restore the longest valid chain for `name`: starting from the newest
  /// full frame, collect the contiguous run of deltas rooted at it; a
  /// torn/corrupt/mis-rooted delta truncates the chain there (the earlier
  /// prefix is still returned), and a corrupt full frame falls back to the
  /// next older one.  Never throws; rejections are counted and reported.
  ChainRestored load_chain(const std::string& name) const;

  /// Keep at most `keep_frames` chain frames per name, deleting oldest
  /// first — but never a frame of the live chain (seq >= the newest valid
  /// full frame's seq), so a restorable base is always retained.
  void set_retention(std::uint64_t keep_frames) noexcept {
    retention_ = keep_frames < 2 ? 2 : keep_frames;
  }
  std::uint64_t retention() const noexcept { return retention_; }

  std::string chain_path(const std::string& name, std::uint64_t seq,
                         bool full) const;

 private:
  struct ChainState {
    std::uint64_t next_seq = 1;
    std::uint64_t base_gen = 0;  // 0 = no full frame yet
    bool scanned = false;
  };

  ChainState& chain_state(const std::string& name);
  void gc_chain(const std::string& name);

  std::string dir_;
  std::uint64_t retention_ = 16;
  std::map<std::string, ChainState> chains_;
  telemetry::Counter* saves_ = nullptr;
  telemetry::Counter* save_failures_ = nullptr;
  telemetry::Counter* restores_ = nullptr;
  telemetry::Counter* corrupt_rejected_ = nullptr;
  telemetry::Counter* chain_frames_ = nullptr;
  telemetry::Counter* chain_rejected_ = nullptr;
  telemetry::Counter* chain_gc_deleted_ = nullptr;
  telemetry::Gauge* last_bytes_ = nullptr;
};

// --- Checkpoint payload builders --------------------------------------------
//
// These serialize *measurement state* (counters, heaps, stream totals,
// ingestion counts); samplers and convergence detectors are data-plane
// state that a restarted process re-derives.  The replica passed to each
// restore_* must be built with the same configs and seeds — the codec's
// shape checks reject anything else.

inline constexpr std::uint32_t kNitroCkptMagic = 0x4e4e434bu;    // "NNCK"
inline constexpr std::uint32_t kShardedCkptMagic = 0x4e53434bu;  // "NSCK"
inline constexpr std::uint32_t kCkptVersion = 1;

/// Checkpoint one NitroSketch<Base>: ingestion counters + base-sketch
/// counters + heavy-key heap.  Flushes pending buffered updates first so
/// the payload reflects every processed packet.
template <typename Nitro>
std::vector<std::uint8_t> checkpoint_nitro(Nitro& sketch) {
  sketch.flush();
  ByteWriter w;
  w.put_u32(kNitroCkptMagic);
  w.put_u32(kCkptVersion);
  w.put_u64(sketch.packets());
  w.put_u64(sketch.sampled_updates());
  w.put_blob(snapshot_sketch(sketch.base()));
  write_heap(w, sketch.heap());
  return std::move(w).take();
}

/// Restore a checkpoint_nitro payload into an identically configured
/// replica.  Throws std::invalid_argument on malformed input; the replica
/// is only mutated after the payload parses.
template <typename Nitro>
void restore_nitro(std::span<const std::uint8_t> payload, Nitro& replica) {
  ByteReader r(payload);
  if (r.get_u32() != kNitroCkptMagic) {
    throw std::invalid_argument("nitro checkpoint: bad magic");
  }
  if (r.get_u32() != kCkptVersion) {
    throw std::invalid_argument("nitro checkpoint: unsupported version");
  }
  const std::uint64_t packets = r.get_u64();
  const std::uint64_t sampled = r.get_u64();
  const auto base_snap = r.get_blob();
  load_sketch(base_snap, replica.base());
  read_heap_into(r, replica.heap_mut());
  if (!r.exhausted()) {
    throw std::invalid_argument("nitro checkpoint: trailing bytes");
  }
  replica.set_ingest_counts(packets, sampled);
}

/// Checkpoint a ShardGroup<NitroSketch<Base>>: one checkpoint_nitro payload
/// per shard instance plus its quarantine flag (a quarantined shard's frozen
/// pre-fault counters are still valid measurement state).  Call only at an
/// epoch boundary, before merge_into() clears the instances: drains first.
template <typename Sharded>
std::vector<std::uint8_t> checkpoint_sharded(Sharded& sharded) {
  sharded.drain();
  ByteWriter w;
  w.put_u32(kShardedCkptMagic);
  w.put_u32(kCkptVersion);
  w.put_u32(sharded.workers());
  for (std::uint32_t i = 0; i < sharded.workers(); ++i) {
    w.put_u8(sharded.quarantined(i) ? 1 : 0);
    w.put_blob(checkpoint_nitro(sharded.instance(i)));
  }
  return std::move(w).take();
}

/// Restore into a quiescent, identically configured sharded replica (same
/// worker count, base factory and seeds).  Quarantine is not re-imposed:
/// the restored process has fresh, healthy workers — the flag travels in
/// the payload purely so operators can see what the checkpoint lived
/// through.  Returns the number of shards that were quarantined at save
/// time.
template <typename Sharded>
std::uint32_t restore_sharded(std::span<const std::uint8_t> payload,
                              Sharded& replica) {
  ByteReader r(payload);
  if (r.get_u32() != kShardedCkptMagic) {
    throw std::invalid_argument("sharded checkpoint: bad magic");
  }
  if (r.get_u32() != kCkptVersion) {
    throw std::invalid_argument("sharded checkpoint: unsupported version");
  }
  const std::uint32_t workers = r.get_u32();
  if (workers != replica.workers()) {
    throw std::invalid_argument("sharded checkpoint: worker count mismatch");
  }
  std::uint32_t was_quarantined = 0;
  for (std::uint32_t i = 0; i < workers; ++i) {
    was_quarantined += r.get_u8() != 0 ? 1u : 0u;
    const auto shard_payload = r.get_blob();
    restore_nitro(shard_payload, replica.instance(i));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("sharded checkpoint: trailing bytes");
  }
  return was_quarantined;
}

}  // namespace nitro::control
