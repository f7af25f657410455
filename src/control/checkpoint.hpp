// Crash-safe checkpoint/restore for the daemon's state (DESIGN.md §10, §15).
//
// A daemon crash must not lose the measurement epoch: at every epoch
// boundary the monitor persists one payload, the daemon's
// (MeasurementDaemon::checkpoint_bytes / delta_checkpoint_bytes), as a
// numbered chain frame (save_frame), and restores the longest valid chain
// on restart (load_chain).  The sharded monitor merges its shards into the
// daemon first, so the same payload covers it.  Durability recipe per
// frame:
//
//   1. the payload is sealed in a versioned CRC-32 frame (codec.hpp);
//   2. the frame is written to a tmp file and fsync'd;
//   3. the tmp file is atomically renamed into place.
//
// Corruption is always *detected and reported*, never silently loaded.
// The fault framework can inject torn writes (persist only a prefix of the
// frame) and read-side bit rot to exercise exactly these paths.
//
// save()/load() keep the older two-generation `<name>.ckpt`/`<name>.prev`
// store, which only the e2ebench traced driver still reads.
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

}  // namespace nitro::control
