// Sharded multi-core data plane: N worker threads, each owning a private
// sketch instance fed through its own SPSC ring.
//
// This is the paper's §6 scaling recipe (one sketch instance per
// forwarding thread, merged at query time) rather than a shared sketch
// with atomic counters: per-core instances keep the per-packet path free
// of cross-core cache-line contention, and the standard mergeability of
// linear sketches recovers a coherent global view at epoch boundaries.
//
// Dispatch is RSS-style: a flow-hash (independent of every sketch row
// hash) picks the shard, so all packets of a flow land on the same worker
// — per-shard heavy-hitter heaps then see whole flows, and the merged
// counters equal a single sketch fed the union stream.
//
// Threading contract (mirrors the NIC-RSS reality it models):
//  * update() is single-dispatcher: one thread fans out to all rings.
//  * update_on_shard() supports pre-partitioned producers — at most one
//    producer thread per shard (each ring stays SPSC).
//  * drain()/instance()/merge_into() are control-plane: call them only
//    while producers are quiescent (epoch boundary).
//  * While the group runs, a worker is the only thread that writes its
//    instance — including the degrade ladder's sampler changes.
//
// Supervision (DESIGN.md §10): each worker publishes a heartbeat per poll
// iteration; drain() doubles as a watchdog — a shard whose worker makes no
// progress for drain_timeout_ns (wedged, or killed by fault injection) is
// *quarantined*: its producer paths start shedding, its worker (if merely
// stalled) is told to abort without touching its instance again, and the
// epoch completes from the surviving shards.  Quarantine is one-way within
// a group's lifetime — the safe recovery point for a lost core is a
// process restart from the last checkpoint, not an in-place resurrection.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/flow_key.hpp"
#include "common/hash.hpp"
#include "common/simd_hash.hpp"
#include "common/spsc_ring.hpp"
#include "fault/fault.hpp"
#include "shard/admission.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace nitro::shard {

/// What a producer does when a shard's ring is full.  kBlock (default)
/// spins politely until the worker catches up — lossless, so merged
/// results match a single-instance run.  kDrop sheds the packet and
/// counts it, trading accuracy for a never-stalling forwarding thread
/// (the separate-thread integration's policy).  kDegrade first steps the
/// overloaded shard's sampling probability down (halving per step, which
/// halves the worker's counter work at a ~sqrt(2)× stddev cost per
/// Theorem 1) and only sheds once the ring stays full through a bounded
/// retry window — accuracy is *spent*, measurably, before any packet is
/// silently lost.
enum class OverflowPolicy { kBlock, kDrop, kDegrade };

struct ShardOptions {
  std::size_t ring_capacity = 1 << 16;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Watchdog: drain() quarantines a shard after this long with no
  /// forward progress on its applied counter.
  std::uint64_t drain_timeout_ns = 5'000'000'000ULL;
  /// kDegrade stops escalating past this level (p floor = base·2^-steps).
  std::uint32_t max_degrade_steps = 7;
  /// Churn admission valve (admission.hpp): when enabled, each shard
  /// watches its arrival stream's new-flow fraction and a tripped window
  /// escalates the same degrade ladder ring overflow does — the defense
  /// against unique-flow storms fires *before* the ring fills.
  ValveOptions valve;
};

/// One queued packet. `count` is the update weight, `ts_ns` feeds the
/// adaptive (AlwaysLineRate) modes.
struct ShardItem {
  FlowKey key;
  std::int64_t count;
  std::uint64_t ts_ns;
};
// Half a cache line per ring slot.  The dispatcher's digest is not
// carried: it would grow every slot, and so every ring, by a quarter.
static_assert(sizeof(ShardItem) == 32);

/// Worker i's Nitro sampler seed.  Every shard keeps the configured sketch
/// seed (mergeable counters) but derives its own sampler seed from it, so
/// shards do not run the same geometric schedule in lockstep.
inline std::uint64_t shard_sampler_seed(std::uint64_t seed, std::uint32_t i) noexcept {
  return mix64(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
}

/// What one merge_into() saw: the shards it left out, and the worst live
/// shard's degrade level (the view was sampled at up to p·2^-level).
struct MergeResult {
  std::vector<std::uint32_t> quarantined;
  std::uint32_t degrade_level = 0;
};

/// Generic shard fan-out over any instance with
/// `update(const FlowKey&, std::int64_t, std::uint64_t)` — NitroSketch<B>
/// and NitroUnivMon both qualify, and both have the merge_from()/clear()
/// pair merge_into() folds shards with.
template <typename Instance>
class ShardGroup {
 public:
  /// `make(i)` builds worker i's instance.  Mergeability is the caller's
  /// contract: every instance must share base-sketch seeds and dimensions
  /// (the sketches' own merge() checks enforce it at merge time).
  template <typename Factory>
  ShardGroup(std::uint32_t workers, Factory&& make, ShardOptions opts = {})
      : opts_(opts) {
    if (workers == 0) {
      throw std::invalid_argument("ShardGroup: need at least one worker");
    }
    shards_.reserve(workers);
    for (std::uint32_t i = 0; i < workers; ++i) {
      shards_.push_back(std::make_unique<Shard>(make(i), opts_));
      shards_.back()->index = i;
      shards_.back()->ring.set_fault_lane(i);
    }
    burst_runs_.resize(workers);
    for (auto& s : shards_) {
      s->worker = std::thread([this, shard = s.get()] { run(*shard); });
    }
  }

  ~ShardGroup() { stop(); }

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// RSS-style shard selection: a keyed mix of the flow digest, salted so
  /// it is independent of every row hash (the digest itself seeds those).
  /// Stable per flow — a flow always lands on the same shard.
  std::uint32_t shard_of(const FlowKey& key) const noexcept {
    return shard_of_digest(flow_digest(key));
  }

  std::uint32_t shard_of_digest(std::uint64_t digest) const noexcept {
    const std::uint64_t h = mix64(digest ^ kShardSalt);
    // Multiply-shift reduction onto [0, workers) — same technique as the
    // row hashes, no modulo on the per-packet path.
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(h) * shards_.size()) >> 64);
  }

  /// Single-dispatcher entry point: hash, then enqueue on the owning
  /// shard's ring.
  void update(const FlowKey& key, std::int64_t count = 1, std::uint64_t ts_ns = 0) {
    update_on_shard(shard_of(key), key, count, ts_ns);
  }

  /// Pre-partitioned entry point (one producer thread per shard, e.g. a
  /// bench emulating NIC RSS).  The caller must route each key to
  /// shard_of(key) for merged results to equal a single-instance run.
  void update_on_shard(std::uint32_t shard, const FlowKey& key,
                       std::int64_t count = 1, std::uint64_t ts_ns = 0) {
    const ShardItem item{key, count, ts_ns};
    push(*shards_[shard], &item, 1);
  }

  /// Burst dispatch (single-dispatcher): digest the burst with the
  /// batched kernel, partition it by shard, then enqueue each shard's run
  /// with one bulk ring reservation instead of one release store per
  /// packet.  Per-flow shard stickiness and the per-shard packet order are
  /// identical to calling update() per key.  The digest stays on the
  /// dispatcher: ring items keep their 32-byte shape and workers
  /// re-digest in their own burst path.
  void update_burst(std::span<const FlowKey> keys, std::int64_t count = 1,
                    std::uint64_t ts_ns = 0) {
    for (auto& run : burst_runs_) run.clear();
    std::uint64_t digests[kDispatchChunk];
    for (std::size_t i = 0; i < keys.size(); i += kDispatchChunk) {
      const std::size_t n = std::min(kDispatchChunk, keys.size() - i);
      flow_digests(keys.data() + i, n, digests);
      for (std::size_t k = 0; k < n; ++k) {
        burst_runs_[shard_of_digest(digests[k])].push_back({keys[i + k], count, ts_ns});
      }
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const auto& run = burst_runs_[i];
      if (!run.empty()) push(*shards_[i], run.data(), run.size());
    }
  }

  /// Barrier + watchdog: returns true once every enqueued packet has been
  /// applied by its worker.  A shard whose worker dies or makes no
  /// progress for drain_timeout_ns is quarantined (producers shed to it,
  /// its in-flight items are abandoned, a stalled worker is told to abort
  /// without touching its instance) and the drain moves on — the epoch
  /// then closes from the survivors, returning false.  Producers must be
  /// quiescent (this is the epoch boundary).
  bool drain() {
    using clock = std::chrono::steady_clock;
    // Ambient keys: the epoch loop sets (source, epoch) on the tracer at
    // each boundary before draining.
    telemetry::ScopedSpan trace(telemetry::Stage::kShardDrain);
    bool complete = true;
    for (auto& sp : shards_) {
      Shard& s = *sp;
      if (s.quarantined.load(std::memory_order_acquire)) {
        complete = false;
        continue;
      }
      const std::uint64_t target = s.pushed.value();
      std::uint64_t last = s.applied.load(std::memory_order_acquire);
      auto last_progress = clock::now();
      BoundedBackoff backoff;
      for (;;) {
        const std::uint64_t applied = s.applied.load(std::memory_order_acquire);
        if (applied >= target) break;
        if (applied != last) {
          last = applied;
          last_progress = clock::now();
          backoff.reset();
        }
        const bool dead = s.dead.load(std::memory_order_acquire);
        const auto stagnant_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     clock::now() - last_progress)
                                     .count();
        if (dead ||
            static_cast<std::uint64_t>(stagnant_ns) >= opts_.drain_timeout_ns) {
          quarantine(s);
          complete = false;
          break;
        }
        backoff.wait();
      }
    }
    publish_supervision_telemetry();
    return complete;
  }

  /// Control-plane access to worker i's instance.  Only safe after
  /// drain() with producers quiescent; the worker thread itself touches
  /// the instance only while applying ring items.  A quarantined shard's
  /// instance is frozen (its worker aborted without further writes) and
  /// reflects only the packets applied before the fault.
  Instance& instance(std::uint32_t i) noexcept { return shards_[i]->instance; }
  const Instance& instance(std::uint32_t i) const noexcept {
    return shards_[i]->instance;
  }

  std::uint64_t shard_packets(std::uint32_t i) const noexcept {
    return shards_[i]->packets.value();
  }
  std::uint64_t shard_drops(std::uint32_t i) const noexcept {
    return shards_[i]->drops.value();
  }
  std::uint64_t shard_applied(std::uint32_t i) const noexcept {
    return shards_[i]->applied.load(std::memory_order_acquire);
  }

  // --- Supervision observability -----------------------------------------

  bool quarantined(std::uint32_t i) const noexcept {
    return shards_[i]->quarantined.load(std::memory_order_acquire);
  }
  bool worker_alive(std::uint32_t i) const noexcept {
    return !shards_[i]->dead.load(std::memory_order_acquire);
  }
  /// Monotonic per-worker liveness: increments once per poll iteration.
  std::uint64_t worker_heartbeat(std::uint32_t i) const noexcept {
    return shards_[i]->heartbeat.load(std::memory_order_relaxed);
  }
  std::uint32_t quarantined_shards() const noexcept {
    std::uint32_t n = 0;
    for (const auto& s : shards_) {
      if (s->quarantined.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }
  std::uint64_t quarantines() const noexcept { return quarantines_.value(); }

  std::uint32_t degrade_level(std::uint32_t i) const noexcept {
    return shards_[i]->degrade_level.load(std::memory_order_acquire);
  }

  /// Admission-valve observability.  valve_trips is thread-safe (atomic
  /// counter); the fraction reads the valve's producer-side state and is
  /// only meaningful from the producer thread or with producers quiescent.
  std::uint64_t valve_trips(std::uint32_t i) const noexcept {
    return shards_[i]->valve_trips.value();
  }
  double valve_new_flow_fraction(std::uint32_t i) const noexcept {
    return shards_[i]->valve.last_new_flow_fraction();
  }
  std::uint64_t total_valve_trips() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->valve_trips.value();
    return n;
  }

  /// Estimated accuracy impact of the current degradation: Theorem 1 puts
  /// the estimator stddev at ∝ 1/sqrt(p), so level L inflates it by
  /// sqrt(2^L).  Reported for the worst (live) shard.
  double estimated_error_inflation() const noexcept {
    std::uint32_t max_level = 0;
    for (const auto& s : shards_) {
      if (s->quarantined.load(std::memory_order_acquire)) continue;
      const std::uint32_t l = s->degrade_level.load(std::memory_order_acquire);
      if (l > max_level) max_level = l;
    }
    return std::sqrt(std::ldexp(1.0, static_cast<int>(max_level)));
  }

  /// Lift degradation for the next epoch (the overload was epoch-local).
  /// Touches only the shared ladder, so any thread may call it: each
  /// worker restores its own instance to level 0 before its next items.
  void reset_degradation() {
    for (auto& sp : shards_) {
      sp->degrade_level.store(0, std::memory_order_release);
      // Release pairs with the worker's acquire load (see degrade_resets).
      sp->degrade_resets.fetch_add(1, std::memory_order_release);
    }
    publish_supervision_telemetry();
  }

  /// The epoch-boundary merge, after drain() with producers quiescent:
  /// fold each live shard into `into` and clear it for the next epoch.
  /// Quarantined shards are skipped, so the view is exactly the union
  /// stream of the survivors (Theorem 1 still holds).  Then lift
  /// degradation: the idle instances directly, the ladder by reset.
  MergeResult merge_into(Instance& into)
    requires requires(Instance& a, Instance& b) { a.merge_from(b); a.clear(); }
  {
    MergeResult out;
    for (auto& sp : shards_) {
      Shard& s = *sp;
      if (s.quarantined.load(std::memory_order_acquire)) {
        out.quarantined.push_back(s.index);
        continue;
      }
      out.degrade_level =
          std::max(out.degrade_level, s.degrade_level.load(std::memory_order_acquire));
      into.merge_from(s.instance);
      s.instance.clear();
      if constexpr (requires { s.instance.apply_degradation(0u); }) {
        s.instance.apply_degradation(0u);
      }
    }
    reset_degradation();
    return out;
  }

  std::uint64_t total_packets() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->packets.value();
    return n;
  }
  std::uint64_t total_drops() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->drops.value();
    return n;
  }

  /// Per-shard packet/drop/degrade counters plus group-level supervision
  /// instruments, registered under `<prefix>_...` (ISSUE: per-shard
  /// telemetry + degraded-mode accounting).
  void attach_telemetry(telemetry::Registry& registry, const std::string& prefix) {
    registry.gauge(prefix + "_workers", "number of shard worker threads")
        .set(static_cast<double>(shards_.size()));
    registry.register_external_counter(
        prefix + "_quarantines_total",
        "shards quarantined by the drain watchdog (dead or wedged worker)",
        quarantines_);
    quarantined_gauge_ =
        &registry.gauge(prefix + "_quarantined_shards",
                        "shards currently quarantined (degraded-coverage mode)");
    inflation_gauge_ = &registry.gauge(
        prefix + "_degrade_error_inflation",
        "estimated stddev inflation from overload degradation, sqrt(2^level)");
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string base = prefix + "_shard" + std::to_string(i);
      registry.register_external_counter(
          base + "_packets_total", "packets dispatched to this shard",
          shards_[i]->packets);
      registry.register_external_counter(
          base + "_drops_total",
          "packets shed on ring overflow or to a quarantined shard",
          shards_[i]->drops);
      registry.register_external_counter(
          base + "_degrade_steps_total",
          "overload-driven sampling-probability halvings on this shard",
          shards_[i]->degrade_steps);
      registry.register_external_counter(
          base + "_valve_trips_total",
          "admission-valve windows that closed above the new-flow threshold",
          shards_[i]->valve_trips);
    }
    publish_supervision_telemetry();
  }

  /// Join every worker (drains rings first).  Idempotent; the destructor
  /// calls it.  After stop(), instances stay readable single-threaded.
  void stop() {
    for (auto& s : shards_) {
      if (s->worker.joinable()) {
        s->done.store(true, std::memory_order_release);
        s->worker.join();
      }
    }
  }

 private:
  // Salt for the dispatch hash; any fixed odd constant distinct from the
  // digest seed works.
  static constexpr std::uint64_t kShardSalt = 0x5a4dd15bA7c4e11fULL;

  /// Keys update_burst() digests per batched-kernel pass.
  static constexpr std::size_t kDispatchChunk = 64;

  /// Full-ring retry budget under kDegrade before the producer sheds.
  static constexpr std::uint32_t kDegradeRetries = 128;

  struct Shard {
    Shard(Instance inst, const ShardOptions& opts)
        : instance(std::move(inst)), ring(opts.ring_capacity), valve(opts.valve) {}

    Instance instance;
    SpscRing<ShardItem> ring;
    ChurnValve valve;  // producer-side only (SPSC: one producer per shard)
    std::thread worker;
    std::uint32_t index = 0;
    std::atomic<bool> done{false};
    std::atomic<bool> abort{false};        // quarantine: exit, don't touch instance
    std::atomic<bool> dead{false};         // worker exited (fault kDie or abort)
    std::atomic<bool> quarantined{false};  // excluded from merges, producers shed
    std::atomic<std::uint64_t> heartbeat{0};      // one tick per poll iteration
    std::atomic<std::uint32_t> degrade_level{0};  // producer raises, worker applies
    /// Generation counter bumped by reset_degradation(): on a change the
    /// worker restores level 0 and re-syncs its cached applied level, so
    /// a re-escalation back to the *same* level (e.g. after merge_into()
    /// restored the instance directly) is re-applied, not skipped.
    std::atomic<std::uint64_t> degrade_resets{0};
    std::atomic<std::uint64_t> applied{0};  // worker -> control barrier
    telemetry::Counter packets;             // producer writes, control reads
    telemetry::Counter pushed;              // packets minus drops
    telemetry::Counter drops;
    telemetry::Counter degrade_steps;
    telemetry::Counter valve_trips;         // admission-valve window trips
  };

  /// The one enqueue routine: run `items` through the shard's valve, then
  /// into its ring with one bulk reservation, applying the overflow policy
  /// to whatever does not fit.  Accounting invariant (all policies):
  /// packets == pushed + drops.
  void push(Shard& s, const ShardItem* items, std::size_t n) {
    s.packets.inc(n);
    if (halted(s)) {
      s.drops.inc(n);
      return;
    }
    if (s.valve.enabled()) {
      for (std::size_t k = 0; k < n; ++k) {
        if (s.valve.on_packet(flow_digest(items[k].key))) valve_trip(s);
      }
    }
    std::size_t done = s.ring.try_push_bulk(items, n);
    if (done < n) {
      switch (opts_.overflow) {
        case OverflowPolicy::kDrop:
          break;
        case OverflowPolicy::kDegrade: {
          escalate_degradation(s);
          BoundedBackoff backoff;
          std::uint32_t attempts = 0;
          while (done < n && attempts < kDegradeRetries && !halted(s)) {
            const std::size_t more = s.ring.try_push_bulk(items + done, n - done);
            if (more == 0) {
              backoff.wait();
              ++attempts;
            } else {
              done += more;
              backoff.reset();
            }
          }
          break;
        }
        case OverflowPolicy::kBlock: {
          // Bounded-liveness blocking: never spin on a dead or quarantined
          // worker — a push that will never drain becomes a counted drop
          // instead of a wedged forwarding thread.
          BoundedBackoff backoff;
          while (done < n && !halted(s)) {
            const std::size_t more = s.ring.try_push_bulk(items + done, n - done);
            if (more == 0) {
              backoff.wait();
            } else {
              done += more;
              backoff.reset();
            }
          }
          break;
        }
      }
      s.drops.inc(n - done);
    }
    s.pushed.inc(done);
  }

  bool halted(const Shard& s) const noexcept {
    return s.dead.load(std::memory_order_acquire) ||
           s.quarantined.load(std::memory_order_acquire);
  }

  /// Admission-valve trip (admission.hpp): escalate the tripped shard's
  /// degrade ladder, exactly like a ring overflow would — the churn storm
  /// pays in sampling probability before it can fill the ring.  The fault
  /// site lets chaos tests blind the defense (kReject suppresses the
  /// escalation, the trip is still counted) to measure the attack's
  /// undefended damage.
  void valve_trip(Shard& s) {
    s.valve_trips.inc();
    if constexpr (fault::kEnabled) {
      if (fault::point(fault::Site::kAdmissionValve, s.index) ==
          fault::Action::kReject) {
        return;
      }
    }
    escalate_degradation(s);
  }

  /// Producer side of kDegrade: raise the shard's level by one (bounded);
  /// the worker applies the matching probability before its next item.
  void escalate_degradation(Shard& s) {
    std::uint32_t level = s.degrade_level.load(std::memory_order_relaxed);
    while (level < opts_.max_degrade_steps) {
      if (s.degrade_level.compare_exchange_weak(level, level + 1,
                                                std::memory_order_acq_rel)) {
        s.degrade_steps.inc();
        return;
      }
    }
  }

  void quarantine(Shard& s) {
    s.quarantined.store(true, std::memory_order_release);
    // An injected-stall worker wakes from its 1ms slice, sees abort, and
    // exits without another instance write — the quarantined sketch stays
    // frozen at its pre-fault contents.
    s.abort.store(true, std::memory_order_release);
    quarantines_.inc();
  }

  void publish_supervision_telemetry() {
    if (quarantined_gauge_) {
      quarantined_gauge_->set(static_cast<double>(quarantined_shards()));
    }
    if (inflation_gauge_) inflation_gauge_->set(estimated_error_inflation());
  }

  // Items the worker pops per bulk dequeue; matches the pipelines' rx
  // burst so a dispatched burst usually drains in one pop.
  static constexpr std::size_t kWorkerBurst = 32;

  void run(Shard& s) {
    ShardItem items[kWorkerBurst];
    std::vector<FlowKey> keys;
    keys.reserve(kWorkerBurst);
    BoundedBackoff backoff;
    std::uint32_t applied_level = 0;
    std::uint64_t seen_resets = 0;
    while (!s.done.load(std::memory_order_acquire) || !s.ring.empty_approx()) {
      s.heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (s.abort.load(std::memory_order_acquire)) break;
      if constexpr (fault::kEnabled) {
        std::uint64_t param = 0;
        switch (fault::point(fault::Site::kWorkerLoop, s.index, &param)) {
          case fault::Action::kDie:
            s.dead.store(true, std::memory_order_release);
            return;
          case fault::Action::kStall:
            fault::stall_ns(param, [&s] {
              return s.abort.load(std::memory_order_acquire) ||
                     s.done.load(std::memory_order_acquire);
            });
            continue;  // re-check abort/done before touching the instance
          default:
            break;
        }
      }
      const std::size_t m = s.ring.try_pop_bulk(items, kWorkerBurst);
      if (m == 0) {
        backoff.wait();
        continue;
      }
      backoff.reset();
      // Sync the degrade level only when there are items to apply it to.
      // An idle worker must never touch its instance: the control plane
      // owns instances between drain() and the next producer activity
      // (merge_into, epoch reads), and a popped batch proves the
      // producers are active again, i.e. the control plane is not.
      if constexpr (requires { s.instance.apply_degradation(0u); }) {
        const std::uint64_t resets =
            s.degrade_resets.load(std::memory_order_acquire);
        if (resets != seen_resets) {
          // The ladder was reset: restore level 0 here, on the thread
          // that owns the instance, and void the cached level so a
          // re-escalation to the old level is re-applied, not skipped.
          seen_resets = resets;
          s.instance.apply_degradation(0u);
          applied_level = 0;
        }
        const std::uint32_t level =
            s.degrade_level.load(std::memory_order_acquire);
        if (level != applied_level) {
          s.instance.apply_degradation(level);
          applied_level = level;
        }
      }
      std::size_t i = 0;
      while (i < m) {
        // A run of consecutive items with identical (count, ts) replays
        // through the sketch's burst fast path when it has one; the burst
        // path is update-sequence-equivalent, so results are bit-identical
        // to the per-item loop below.
        std::size_t j = i + 1;
        while (j < m && items[j].count == items[i].count &&
               items[j].ts_ns == items[i].ts_ns) {
          ++j;
        }
        bool bursted = false;
        if constexpr (requires(Instance& inst) {
                        inst.update_burst(std::span<const FlowKey>{},
                                          std::uint64_t{});
                      }) {
          if (items[i].count == 1 && j - i > 1) {
            keys.clear();
            for (std::size_t k = i; k < j; ++k) keys.push_back(items[k].key);
            s.instance.update_burst(
                std::span<const FlowKey>(keys.data(), keys.size()),
                items[i].ts_ns);
            bursted = true;
          }
        }
        if (!bursted) {
          for (std::size_t k = i; k < j; ++k) {
            s.instance.update(items[k].key, items[k].count, items[k].ts_ns);
          }
        }
        // Release pairs with drain()'s acquire: once applied covers a
        // push, the control plane sees every instance write behind it.
        s.applied.fetch_add(j - i, std::memory_order_release);
        i = j;
      }
    }
    if (s.abort.load(std::memory_order_acquire)) {
      s.dead.store(true, std::memory_order_release);
    }
  }

  ShardOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Dispatcher-local scratch for update_burst(); one run per shard.
  std::vector<std::vector<ShardItem>> burst_runs_;
  telemetry::Counter quarantines_;
  telemetry::Gauge* quarantined_gauge_ = nullptr;
  telemetry::Gauge* inflation_gauge_ = nullptr;
};

}  // namespace nitro::shard
