// Idempotent network-wide collector (DESIGN.md §11) + versioned query
// serving plane (DESIGN.md §13): the aggregation side of the epoch-export
// pipeline.
//
// CollectorCore is the thread-safe aggregation state: per-source
// accumulated sketches keyed by source id, deduplicated by contiguous
// sequence ranges so at-least-once redelivery never double-counts an
// epoch.  The rules per incoming message [seq_first, seq_last] against a
// source's last applied sequence A:
//
//   seq_last  <= A            duplicate  — acked, dropped, no state change
//   seq_first == A + 1        applied    — merged, A := seq_last
//   seq_first <= A < seq_last overlap    — a coalesced message straddling
//                                          applied epochs; applying it
//                                          would double-count, so the
//                                          whole message is dropped (and
//                                          counted — the exporter never
//                                          produces this because it
//                                          refuses to coalesce a message
//                                          it ever put on the wire, and
//                                          treats this ack as a hard
//                                          failure; a forged or corrupt
//                                          peer might still send one)
//   seq_first  > A + 1        applied with a gap — the missing epochs are
//                                          counted as lost (gap_epochs)
//
// Sources that stop reporting go *stale* after `staleness_ns` and are
// quarantined out of the merged network-wide view (their counters are
// kept; they rejoin on the next message — counted per transition in both
// directions, wherever the transition is first observed).
//
// Read/write separation (the serving plane):
//
//  * Ingest decodes the wire snapshot with NO lock held (decode needs
//    only the config), then takes a per-source mutex — two sources never
//    serialize on each other's decode or merge.
//  * The network-wide view is a sequence of immutable *generations*
//    (NetworkView), published RCU-style through a pointer slot whose
//    leaf mutex covers only the shared_ptr copy (detail::SnapshotSlot).
//    current_view() is that one pointer copy — any number of readers,
//    no contention with ingest.  view(now) additionally refreshes: if
//    nothing changed it returns the published generation (the fast path
//    is an atomic version check plus a lock-free staleness scan); if
//    sources changed it re-folds *only the dirty sources* into a
//    continuously maintained accumulator (per-source pending deltas),
//    falling back to a full re-fold only when the live set itself changed
//    (quarantine/rejoin).  One builder at a time; builders take only the
//    per-source locks of the sources they fold, never a global one.
//  * Conservation: within any generation, merged.total() equals the sum
//    of gen_packets over its folded sources — the per-source fold copies
//    the stats under the same lock hold as the sketch delta.  With keyed
//    seed rotation (DESIGN.md §16) the fold covers only live sources at
//    the newest seed generation; a lagging source rejoins the fold when
//    its next rotated message arrives.
//
// CollectorServer wraps the core with a socket front end: an accept loop
// plus one handler thread per monitor connection, each reassembling
// frames, acking every decoded message, and tearing the connection down
// on the first undecodable byte.  QueryServer (query_server.hpp) serves
// the generations over HTTP/JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/seed_schedule.hpp"
#include "export/transport.hpp"
#include "export/wire.hpp"
#include "sketch/univmon.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace nitro::xport {

namespace detail {

/// Publication slot for an immutable snapshot: a shared_ptr behind a
/// dedicated leaf mutex held only for the pointer copy / swap itself
/// (a refcount bump and two words) — never while building, folding, or
/// rendering.  Semantically this is std::atomic<std::shared_ptr<T>>;
/// libstdc++'s lock-free _Sp_atomic reads the pointer word under an
/// embedded spin bit whose load-path unlock is relaxed, which
/// ThreadSanitizer reports as a data race (correctly, per the formal
/// memory model — there is no release edge back to the next writer).  A
/// plain mutex gives the tsan suite real happens-before edges at the
/// cost of ~20 uncontended nanoseconds per load.
template <typename T>
class SnapshotSlot {
 public:
  std::shared_ptr<T> load() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ptr_;
  }

  void store(std::shared_ptr<T> next) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ptr_.swap(next);
    }
    // `next` (now the displaced snapshot) is released here, outside the
    // lock: dropping the last reference destroys a whole generation,
    // which must not run while holding a lock on every reader's path.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
};

}  // namespace detail

struct CollectorConfig {
  sketch::UnivMonConfig um_cfg;
  std::uint64_t seed = 1;  // must match the monitors' sketch seed
  /// Keyed seed rotation (DESIGN.md §16) — must match the monitors'
  /// schedule exactly, or cross-generation snapshots decode into replicas
  /// with the wrong hash functions.  rotation_epochs == 0 disables
  /// rotation: every frame carries generation 0 and the derived seed is
  /// `seed`, bit-identical to the pre-rotation collector.
  std::uint64_t master_key = 0;
  std::uint64_t rotation_epochs = 0;
  std::uint64_t staleness_ns = 10'000'000'000ULL;  // 10 s
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Minimum age of the published generation before view(now) builds a
  /// new one (0 = always exact).  A non-zero interval turns a reader pool
  /// hammering view() into at most one fold pass per interval; readers in
  /// between serve the published generation lock-free.
  std::uint64_t min_refresh_interval_ns = 0;
};

class CollectorCore {
 public:
  enum class Ingest { kApplied, kDuplicate, kOverlapDropped };

  struct SourceStats {
    std::uint64_t source_id = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t epochs_applied = 0;
    std::uint64_t messages_applied = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t overlap_dropped = 0;
    std::uint64_t gap_epochs = 0;
    std::uint64_t coalesced_epochs = 0;  // epochs arriving in width>1 messages
    std::uint64_t rejoins = 0;           // stale -> live transitions
    std::uint64_t last_seen_ns = 0;
    core::EpochSpan span;  // union of applied spans
    std::int64_t packets = 0;
    bool stale = false;
    // Freshness (wire timestamps; all 0 when the sender stamped none).
    // e2e lag = receive - epoch close at the source: how old the newest
    // applied data was on arrival.  wire lag = receive - last send stamp:
    // the transport share of it (the rest is queue + retry delay).
    std::uint64_t last_epoch_close_ns = 0;
    std::uint64_t last_send_ns = 0;
    std::uint64_t e2e_lag_ns = 0;
    std::uint64_t wire_lag_ns = 0;
    // Keyed seed rotation (wire v4, DESIGN.md §16).  The per-source
    // replica holds exactly one seed generation: a higher-generation
    // message resets it (the old generation's counters cannot be merged
    // with the new hash functions), a lower-generation message is dropped
    // whole and counted — an honest monitor's generations only advance.
    std::uint64_t seed_gen = 0;          // generation the replica holds
    std::int64_t gen_packets = 0;        // packets within that generation
    std::uint64_t generation_rotations = 0;  // replica resets seen
    std::uint64_t stale_generation_dropped = 0;  // backward-gen messages
  };

  /// One immutable generation of the network-wide view.  Published
  /// through a SnapshotSlot; everything here is frozen at build time.
  struct NetworkView {
    NetworkView(const sketch::UnivMonConfig& cfg, std::uint64_t seed)
        : merged(cfg, seed) {}

    std::uint64_t generation = 0;   // monotonic across builds
    std::uint64_t built_at_ns = 0;  // the now_ns the build saw
    /// Seed generation this view folded (the max over live sources); live
    /// sources still on an older generation are excluded from the fold
    /// and the packet sum until they rotate, exactly like stale ones.
    std::uint64_t seed_gen = 0;
    sketch::UnivMon merged;         // fold over the live, current-gen sources
    std::int64_t packets = 0;       // sum of gen_packets over folded sources
    std::uint64_t epochs_applied = 0;  // global counter at build time
    std::uint64_t folds = 0;           // per-source folds this build did
    bool full_rebuild = false;         // live set changed -> re-fold all
    std::vector<SourceStats> sources;  // sorted by id, staleness at built_at_ns

   private:
    friend class CollectorCore;
    std::uint64_t version = 0;  // change-version this build folded in
  };

  using ViewPtr = std::shared_ptr<const NetworkView>;

  explicit CollectorCore(const CollectorConfig& cfg);

  /// Apply one decoded epoch message (already CRC/shape-validated by
  /// decode_epoch).  `now_ns` drives liveness.  Thread-safe; decode runs
  /// outside any lock and apply holds only this source's lock.
  Ingest ingest(const EpochMessage& msg, std::uint64_t now_ns);

  /// The published generation — one pointer copy out of the publication
  /// slot (a leaf mutex held for nanoseconds; see detail::SnapshotSlot).
  /// Never waits on ingest or a build.  May lag ingest by whatever
  /// changed since the last view() call.
  ViewPtr current_view() const { return view_.load(); }

  /// An up-to-date generation for `now_ns`: returns the published one
  /// when nothing changed (lock-free fast path), otherwise folds the
  /// dirty sources and publishes a new generation.
  ViewPtr view(std::uint64_t now_ns) const;

  /// Per-source stats with staleness evaluated at `now_ns`, sorted by id.
  std::vector<SourceStats> sources(std::uint64_t now_ns) const;

  /// Network-wide merged sketch over the *live* sources (stale sources are
  /// quarantined out until they report again).  Compatibility wrapper over
  /// view(now_ns) — prefer holding the ViewPtr to avoid the copy.
  sketch::UnivMon merged_view(std::uint64_t now_ns) const {
    return view(now_ns)->merged;
  }

  /// Sum of applied packet counts over live sources — the exact cross-check
  /// against the merged sketch's total.
  std::int64_t merged_packets(std::uint64_t now_ns) const {
    return view(now_ns)->packets;
  }

  std::uint64_t epochs_applied() const {
    return epochs_applied_.load(std::memory_order_relaxed);
  }

  /// Incremental-merge observability: per-source folds performed over all
  /// generation builds, full re-folds (live-set changes), and generations
  /// published.  Also exported as telemetry counters.
  std::uint64_t folds_total() const {
    return folds_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t full_rebuilds_total() const {
    return full_rebuilds_.load(std::memory_order_relaxed);
  }
  std::uint64_t generations_built() const {
    return generations_.load(std::memory_order_relaxed);
  }

  /// Rebuild-from-collector (wire v3, DESIGN.md §15): the last-applied
  /// replica for `source_id` — the cumulative per-source accumulator, its
  /// settled sequence number and applied span/packets — packaged as a
  /// RecoverResponse.  found = false for a source the collector has never
  /// applied an epoch from.  Thread-safe: lock-free index lookup (never
  /// creates a source) plus that source's lock for a consistent snapshot.
  RecoverResponse recovery_snapshot(std::uint64_t source_id) const;

  /// Attach counters/gauges.  Call before traffic: the instrument
  /// pointers are read without synchronization on the ingest path.
  void attach_telemetry(telemetry::Registry& registry, const std::string& prefix);

  /// Refresh liveness gauges (sources_live/sources_stale/merged_packets)
  /// in one pass over the sources; called by the server loop and by
  /// exporters' scrape paths.
  void publish_telemetry(std::uint64_t now_ns);

  /// Route this core's apply/merge spans to a specific tracer instead of
  /// the ambient one (a test hosting monitor- and collector-side tracing
  /// in one process needs two "processes" worth of spans).  Set before
  /// traffic; not synchronized against in-flight ingests.
  void set_tracer(telemetry::Tracer* tracer) noexcept { tracer_ = tracer; }

  const CollectorConfig& config() const noexcept { return cfg_; }
  const core::SeedSchedule& seed_schedule() const noexcept { return sched_; }

 private:
  struct Source {
    /// `seed0` is the generation-0 seed from the collector's SeedSchedule
    /// (== cfg.seed only when rotation is off); a replica must never be
    /// built at the raw base seed while rotation keys generation 0.
    Source(const CollectorConfig& cfg, std::uint64_t seed0)
        : acc(cfg.um_cfg, seed0), pending(cfg.um_cfg, seed0) {}

    mutable std::mutex mu;  // guards everything below except last_seen_ns
    /// Atomic so the lock-free staleness scan on the view() fast path can
    /// read it without touching `mu` (also mirrored into stats copies).
    std::atomic<std::uint64_t> last_seen_ns{0};
    sketch::UnivMon acc;      // every applied epoch (for full re-folds)
    sketch::UnivMon pending;  // applied but not yet folded into net_acc_
    bool dirty = false;       // pending is non-empty
    SourceStats stats;
    // Lazily created per-source gauges (null until first applied message
    // with v2 timestamps / until attach_telemetry).
    telemetry::Gauge* e2e_lag_gauge = nullptr;
    telemetry::Gauge* freshness_gauge = nullptr;
  };

  /// Copy-on-write, sorted-by-id source index: readers binary-search /
  /// scan it lock-free; map_mu_ serializes the (rare) insert that swaps
  /// in a new vector.  Sources are never removed, so raw pointers into
  /// the map's unique_ptrs stay valid for the core's lifetime.
  struct IndexEntry {
    std::uint64_t id = 0;
    Source* src = nullptr;
  };
  using Index = std::vector<IndexEntry>;
  using IndexPtr = std::shared_ptr<const Index>;

  bool is_stale(std::uint64_t last_seen_ns, std::uint64_t now_ns) const noexcept {
    return now_ns > last_seen_ns && now_ns - last_seen_ns > cfg_.staleness_ns;
  }

  /// Unified transition accounting (src.mu must be held): evaluates
  /// staleness at `now_ns`, flips stats.stale on a transition, counts it
  /// (quarantine or rejoin) and bumps the change version so the published
  /// generation is invalidated.  Every observer — ingest, sources(),
  /// publish_telemetry(), the view builder — goes through here, so a
  /// transition is counted wherever it is first seen.  Returns the
  /// staleness at `now_ns`.
  bool refresh_staleness(Source& src, std::uint64_t now_ns) const;

  Source* find_or_create(std::uint64_t source_id);

  /// Is the published generation still valid for `now_ns`?  Lock-free.
  bool is_current(const NetworkView& v, std::uint64_t now_ns) const;

  /// Build + publish a new generation (build_mu_ must be held).
  ViewPtr rebuild(std::uint64_t now_ns) const;

  /// Copy stats out of a source (src.mu must be held), mirroring the
  /// atomic last_seen.
  static SourceStats copy_stats(const Source& src) {
    SourceStats s = src.stats;
    s.last_seen_ns = src.last_seen_ns.load(std::memory_order_relaxed);
    return s;
  }

  CollectorConfig cfg_;
  /// Derived from cfg_ (seed, master_key, rotation_epochs); maps a wire
  /// seed generation to the hash seed its snapshots were built under.
  core::SeedSchedule sched_;

  mutable std::mutex map_mu_;  // guards sources_ + index_ swap (inserts only)
  std::map<std::uint64_t, std::unique_ptr<Source>> sources_;
  detail::SnapshotSlot<const Index> index_;

  /// Bumped on every change that can alter the network view: an applied
  /// epoch, a staleness transition, a rejoin.  The published generation
  /// records the version it folded; equality means the fold is current.
  mutable std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> epochs_applied_{0};

  // --- the serving plane (build side) ------------------------------------
  mutable std::mutex build_mu_;  // one generation builder at a time
  /// Continuously maintained fold over `folded_live_`; incremental builds
  /// merge only dirty sources' pending deltas into it.
  mutable std::unique_ptr<sketch::UnivMon> net_acc_;
  mutable std::vector<std::uint64_t> folded_live_;  // ids folded in, sorted
  /// Seed generation net_acc_ is folded at; a newer generation among the
  /// live sources forces a reseeded full re-fold.
  mutable std::uint64_t folded_gen_ = 0;
  mutable std::uint64_t generation_seq_ = 0;
  mutable detail::SnapshotSlot<const NetworkView> view_;

  mutable std::atomic<std::uint64_t> folds_total_{0};
  mutable std::atomic<std::uint64_t> full_rebuilds_{0};
  mutable std::atomic<std::uint64_t> generations_{0};

  telemetry::Counter* messages_applied_ = nullptr;
  telemetry::Counter* epochs_applied_ctr_ = nullptr;
  telemetry::Counter* duplicates_ = nullptr;
  telemetry::Counter* overlap_dropped_ = nullptr;
  telemetry::Counter* gap_epochs_ = nullptr;
  telemetry::Counter* coalesced_epochs_ = nullptr;
  telemetry::Counter* quarantines_ = nullptr;
  telemetry::Counter* rejoins_ = nullptr;
  telemetry::Counter* gen_rotations_ = nullptr;
  telemetry::Counter* stale_gen_dropped_ = nullptr;
  mutable telemetry::Counter* folds_ctr_ = nullptr;
  mutable telemetry::Counter* full_rebuilds_ctr_ = nullptr;
  mutable telemetry::Counter* generations_ctr_ = nullptr;
  telemetry::Gauge* sources_live_ = nullptr;
  telemetry::Gauge* sources_stale_ = nullptr;
  telemetry::Gauge* merged_packets_gauge_ = nullptr;
  /// Anomaly surface on /stats (DESIGN.md §16): level-0 residual
  /// concentration of the merged view and its cumulative heap-eviction
  /// count — a crafted collision flood spikes the first, a churn storm
  /// the second.  Refreshed on every generation build.
  mutable telemetry::Gauge* collision_pressure_gauge_ = nullptr;
  mutable telemetry::Gauge* merged_heap_evictions_gauge_ = nullptr;
  mutable telemetry::Gauge* seed_gen_gauge_ = nullptr;
  telemetry::Histogram* e2e_lag_ns_ = nullptr;
  telemetry::Histogram* wire_lag_ns_ = nullptr;
  telemetry::Registry* registry_ = nullptr;  // for lazy per-source gauges
  std::string prefix_;
  telemetry::Tracer* tracer_ = nullptr;  // override; ambient when null
};

class CollectorServer {
 public:
  /// Owns its core.
  CollectorServer(const CollectorConfig& cfg, const Endpoint& listen_ep);
  /// Shares an externally owned core — lets a test (or a restarted server)
  /// keep aggregation state across server instances.
  CollectorServer(CollectorCore& core, const Endpoint& listen_ep);
  ~CollectorServer();
  CollectorServer(const CollectorServer&) = delete;
  CollectorServer& operator=(const CollectorServer&) = delete;

  /// Bind + listen + start the accept loop.  False if binding failed.
  bool start();
  void stop();

  CollectorCore& core() noexcept { return *core_; }
  /// Resolved listen endpoint (tcp:HOST:0 gets its kernel-assigned port).
  Endpoint endpoint() const;

  void attach_telemetry(telemetry::Registry& registry, const std::string& prefix);

  /// Handler threads currently tracked (live + finished-but-unreaped).
  /// Tests pin that a churning exporter cannot accumulate threads.
  std::size_t tracked_connections() const;

 private:
  /// One tracked handler thread; `done` is set by the thread itself just
  /// before it exits, telling the acceptor the thread is joinable without
  /// blocking.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void handle_connection(Socket sock);
  /// Join and forget finished handler threads (all of them when
  /// `join_all`, e.g. from stop() once stop_ is set).  Called from the
  /// accept loop on every iteration so a flaky exporter that reconnects
  /// forever cannot accumulate unjoined threads.
  void reap_connections(bool join_all);
  static std::uint64_t now_ns() noexcept;

  CollectorCore* core_;                   // owned_core_ or external
  std::unique_ptr<CollectorCore> owned_core_;
  Endpoint listen_ep_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread acceptor_;
  mutable std::mutex conn_mu_;
  std::vector<Conn> conns_;

  telemetry::Counter* connections_ = nullptr;
  telemetry::Counter* frames_rejected_ = nullptr;
  telemetry::Counter* injected_drops_ = nullptr;
  telemetry::Counter* injected_conn_kills_ = nullptr;
  telemetry::Counter* acks_sent_ = nullptr;
  telemetry::Counter* recover_requests_ = nullptr;
  telemetry::Counter* recover_served_ = nullptr;
  telemetry::Counter* injected_recover_drops_ = nullptr;
  telemetry::Gauge* active_connections_ = nullptr;
  std::atomic<std::int64_t> active_conns_{0};
};

}  // namespace nitro::xport
