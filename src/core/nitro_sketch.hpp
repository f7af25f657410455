// NitroSketch framework — the paper's primary contribution (§4).
//
// `NitroSketch<Base>` wraps any canonical multi-row sketch (Count-Min,
// Count Sketch, K-ary) and accelerates it by sampling the counter arrays
// with a single geometric draw, adapting the sampling rate to the arrival
// rate (AlwaysLineRate) or gating it on provable convergence
// (AlwaysCorrect), buffering updates for batched hashing, and touching the
// heavy-key heap only on sampled updates.
//
// Per-packet cost: o(1) hashes + o(1) counter updates + o(1) heap ops in
// the sampled regime (expected d·p row updates per packet), versus the
// vanilla d1·H + d2·C + P (§3).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/flow_key.hpp"
#include "common/timing.hpp"
#include "core/buffered_update.hpp"
#include "core/convergence.hpp"
#include "core/nitro_config.hpp"
#include "core/rate_controller.hpp"
#include "core/row_sampler.hpp"
#include "sketch/count_min.hpp"
#include "sketch/count_sketch.hpp"
#include "sketch/kary.hpp"
#include "sketch/topk.hpp"
#include "telemetry/telemetry.hpp"

namespace nitro::core {

/// Per-base-sketch glue: estimator combination and row signedness.
template <typename Base>
struct SketchTraits;

/// Public alias for integrations outside the core (e.g. the
/// separate-thread measurement in switchsim).
template <typename Base>
using SketchTraitsFor = SketchTraits<Base>;

template <>
struct SketchTraits<sketch::CountMinSketch> {
  static constexpr bool kSignedRows = false;
  static std::int64_t query(const sketch::CountMinSketch& s, const FlowKey& k) {
    return s.query(k);
  }
  static void on_packet(sketch::CountMinSketch&, std::int64_t) {}
};

template <>
struct SketchTraits<sketch::CountSketch> {
  static constexpr bool kSignedRows = true;
  static std::int64_t query(const sketch::CountSketch& s, const FlowKey& k) {
    return s.query(k);
  }
  static void on_packet(sketch::CountSketch&, std::int64_t) {}
};

template <>
struct SketchTraits<sketch::KArySketch> {
  static constexpr bool kSignedRows = false;
  static std::int64_t query(const sketch::KArySketch& s, const FlowKey& k) {
    // llround, not floor(x + 0.5): K-ary's unbiased estimate is legitimately
    // negative for absent keys, and floor-style rounding biases those
    // toward zero (e.g. -0.7 must round to -1, not 0).
    return std::llround(s.query(k));
  }
  // K-ary's unbiased estimator needs the exact stream length S; counting
  // it is a single add per packet and involves no hashing.
  static void on_packet(sketch::KArySketch& s, std::int64_t count) { s.add_total(count); }
};

/// `WithTelemetry = false` compiles every instrumentation site out of the
/// update path (verified byte-for-byte cheap by
/// bench/micro_telemetry_overhead); the default follows the
/// NITRO_TELEMETRY_DISABLED macro.  Enabled-but-detached telemetry costs
/// one predicted null check per sampled timing site.
template <typename Base, bool WithTelemetry = telemetry::kDefaultEnabled>
class NitroSketch {
 public:
  using Traits = SketchTraits<Base>;

  /// 1-in-1024 packets get their update() bracketed by rdtsc for the
  /// per-packet cycle histogram.  The bracket costs ~200 cycles (two
  /// serializing reads + a cold call), so at 1/1024 it amortizes to well
  /// under 1% of a ~16-cycle sampled-mode update.
  static constexpr std::uint64_t kCycleSampleMask = 1023;

  NitroSketch(Base base, const NitroConfig& cfg)
      : base_(std::move(base)),
        cfg_(cfg),
        sampler_(base_.depth(), initial_probability(cfg), cfg.seed ^ 0x9a3f7d11ULL),
        rate_(cfg.target_sampled_rate_pps, cfg.rate_epoch_ns, cfg.probability),
        detector_(cfg.epsilon, cfg.probability, cfg.convergence_check_interval,
                  Traits::kSignedRows, base_.depth()),
        heap_(cfg.track_top_keys ? cfg.top_keys : 0),
        buffer_(cfg.digest_batch, cfg.prefetch_window) {}

  /// Process one packet (`count` = packet or byte weight, `now_ns` = its
  /// timestamp; only AlwaysLineRate consults the clock).
  void update(const FlowKey& key, std::int64_t count = 1, std::uint64_t now_ns = 0) {
    if constexpr (WithTelemetry) {
      if (tel_.update_cycles != nullptr && (packets_ & kCycleSampleMask) == 0)
          [[unlikely]] {
        // Out-of-line so the rdtsc bracket's spills stay off the fast path.
        update_timed(key, count, now_ns);
        return;
      }
    }
    update_impl(key, count, now_ns);
  }

  /// Process a whole rx burst of unit-weight packets sharing one arrival
  /// timestamp (a DPDK/BESS/VPP poll batch).  Bit-identical to calling
  /// update() once per key in order — same PRNG draws, counter values,
  /// heap contents and controller decisions — but amortized: the geometric
  /// skip advances across the burst in one pass (one compare per *sampled*
  /// slot instead of per packet), buffered updates flow through the
  /// batched digest kernel, and the heap refreshes at flush boundaries
  /// (once per ~kBatch sampled slots) rather than per sampled packet.
  /// (The 1-in-1024 cycle histogram is not sampled on this path; its
  /// counters still publish.)
  void update_burst(std::span<const FlowKey> keys, std::uint64_t now_ns = 0) {
    const std::size_t n = keys.size();
    std::size_t i = 0;
    // Exact regimes stay per-packet: kVanilla always, kAlwaysCorrect until
    // its detector flips (possibly mid-burst — the remainder then falls
    // through to the sampled fast path).
    if (cfg_.mode == Mode::kVanilla) {
      for (; i < n; ++i) update_impl(keys[i], 1, now_ns);
      return;
    }
    if (cfg_.mode == Mode::kAlwaysCorrect) {
      while (i < n && !detector_.converged()) update_impl(keys[i++], 1, now_ns);
      if (i == n) return;
    }
    if (cfg_.mode == Mode::kAlwaysLineRate) {
      // p may retune mid-burst (epoch boundary).  Feed the controller one
      // packet at a time exactly as update() would, but run the sampler
      // over maximal runs of constant p.  A retune fires *before* the
      // triggering packet samples, so that packet heads the next segment
      // with its controller feed already consumed.
      bool head_fed = false;
      while (i < n) {
        if (!head_fed && rate_.on_packet(now_ns)) {
          sampler_.set_probability(rate_.probability());
        }
        head_fed = false;
        std::size_t seg = 1;
        while (i + seg < n) {
          if (rate_.on_packet(now_ns)) {
            sampler_.set_probability(rate_.probability());
            head_fed = true;
            break;
          }
          ++seg;
        }
        sampled_burst(keys.subspan(i, seg));
        i += seg;
      }
      return;
    }
    if (i < n) sampled_burst(keys.subspan(i, n - i));
  }

  /// Bind registry instruments (see telemetry::SketchTelemetry).  The
  /// adaptive controllers get their event sinks wired here, and the
  /// current probability is logged as the timeline's starting point.
  void attach_telemetry(const telemetry::SketchTelemetry& tel) {
    if constexpr (WithTelemetry) {
      tel_ = tel;
      rate_.attach_telemetry(tel_.events, tel_.probability);
      detector_.attach_telemetry(tel_.events);
      if (tel_.probability) tel_.probability->set(sampler_.probability());
      if (tel_.events) {
        tel_.events->append(telemetry::EventKind::kProbabilityChange, 0,
                            sampler_.probability());
      }
      publish_telemetry();
    } else {
      (void)tel;
    }
  }

  /// Copy the internal (single-threaded) counters into the bound registry
  /// instruments.  Called at epoch boundaries / before export; keeps the
  /// per-packet path free of atomic increments.
  void publish_telemetry() {
    if constexpr (WithTelemetry) {
      if (tel_.packets) tel_.packets->store(packets_);
      if (tel_.sampled_updates) tel_.sampled_updates->store(sampled_updates_);
      if (tel_.batch_flushes) tel_.batch_flushes->store(buffer_.flushes());
      if (tel_.probability) tel_.probability->set(sampler_.probability());
    }
  }

  /// Point frequency estimate.  Flushes pending buffered updates first so
  /// queries always observe every processed packet.
  std::int64_t query(const FlowKey& key) const {
    const_cast<NitroSketch*>(this)->flush();
    return Traits::query(base_, key);
  }

  /// Drain the Idea-D buffer and apply any heap offers queued behind it
  /// (call at epoch end; queries do it implicitly).
  void flush() {
    const std::size_t drained = buffer_.pending();
    if (drained > 0) {
      buffer_.flush(base_.matrix());
      if constexpr (WithTelemetry) {
        if (tel_.explicit_flushes) tel_.explicit_flushes->inc();
        if (tel_.events) {
          tel_.events->append(telemetry::EventKind::kBufferFlush, 0,
                              static_cast<double>(drained));
        }
      }
    }
    if (!pending_offers_.empty()) drain_pending_offers();
  }

  /// Heavy keys observed so far (empty when track_top_keys is off).
  std::vector<sketch::TopKHeap::Entry> top_keys() const {
    const_cast<NitroSketch*>(this)->flush();
    std::vector<sketch::TopKHeap::Entry> out;
    for (const auto& e : heap_.entries_sorted()) {
      out.push_back({e.key, Traits::query(base_, e.key)});
    }
    return out;
  }

  const Base& base() const noexcept { return base_; }
  Base& base() noexcept { return base_; }
  const sketch::TopKHeap& heap() const noexcept { return heap_; }
  sketch::TopKHeap& heap_mut() noexcept { return heap_; }

  // --- Graceful degradation (shard OverflowPolicy::kDegrade) --------------

  /// Probability never degrades below this; past it the shard sheds.
  static constexpr double kDegradeFloor = 1.0 / 1024.0;

  /// Step the sampling probability to base_p·2^-level (floored at
  /// kDegradeFloor); level 0 restores the pre-degradation probability.
  /// The "base" is captured at the first nonzero level, so repeated steps
  /// compound against the original p, not against each other.  Estimator
  /// variance scales as 1/p (Theorem 1), so each step trades ~sqrt(2)×
  /// stddev for half the counter-update work — a measured accuracy cost
  /// instead of unaccounted drops.  In AlwaysLineRate mode the rate
  /// controller may override at its next retune; degradation is meant for
  /// the fixed-rate shard configuration where nothing else adapts p.
  void apply_degradation(std::uint32_t level) {
    if (level == 0) {
      if (degrade_level_ != 0) sampler_.set_probability(degrade_base_p_);
      degrade_level_ = 0;
      return;
    }
    if (degrade_level_ == 0) degrade_base_p_ = sampler_.probability();
    degrade_level_ = level;
    const double p = std::ldexp(degrade_base_p_, -static_cast<int>(level));
    sampler_.set_probability(p < kDegradeFloor ? kDegradeFloor : p);
  }

  std::uint32_t degrade_level() const noexcept { return degrade_level_; }

  // --- Shard support (src/shard/) -----------------------------------------

  /// Fold another instance in (both flush first): base counters, K-ary
  /// totals included; heavy keys re-estimated against the merged
  /// counters; packet and sampled counts.  Bases must be identically
  /// seeded (CounterMatrix::merge checks).  Sampler, detector and rate
  /// state stay per-instance.
  void merge_from(NitroSketch& other) {
    flush();
    other.flush();
    base_.merge(other.base_);
    if (heap_.capacity() > 0) {
      const auto estimate = [this](const FlowKey& k) { return Traits::query(base_, k); };
      heap_.merge(other.heap_,
                  [&estimate](const FlowKey& k, std::int64_t) { return estimate(k); });
      heap_.refresh(estimate);  // the merge changed every tracked estimate
    }
    packets_ += other.packets_;
    sampled_updates_ += other.sampled_updates_;
  }

  /// Reset counters, heap and counts for the next epoch while keeping the
  /// sampler, the detector and the telemetry bindings.
  void clear() {
    flush();
    base_.clear();
    heap_.clear();
    packets_ = 0;
    sampled_updates_ = 0;
  }

  /// Restore ingestion counters from a checkpoint (control/checkpoint.hpp);
  /// counters and heap are restored separately through the codec.
  void set_ingest_counts(std::uint64_t packets, std::uint64_t sampled) noexcept {
    packets_ = packets;
    sampled_updates_ = sampled;
  }

  double current_probability() const noexcept { return sampler_.probability(); }
  bool converged() const noexcept {
    return cfg_.mode != Mode::kAlwaysCorrect || detector_.converged();
  }
  std::uint64_t packets() const noexcept { return packets_; }
  std::uint64_t sampled_updates() const noexcept { return sampled_updates_; }
  const NitroConfig& config() const noexcept { return cfg_; }

  std::size_t memory_bytes() const noexcept {
    return base_.memory_bytes() + heap_.memory_bytes();
  }

 private:
#if defined(__GNUC__)
  __attribute__((noinline, cold))
#endif
  void update_timed(const FlowKey& key, std::int64_t count, std::uint64_t now_ns) {
    if constexpr (WithTelemetry) {
      const std::uint64_t t0 = rdtsc();
      update_impl(key, count, now_ns);
      tel_.update_cycles->observe(rdtsc() - t0);
    }
  }

  // Force-inlined: with telemetry enabled update_impl has two call sites
  // (fast path + timed path), which otherwise defeats the "called once"
  // inlining heuristic and costs ~25% on the per-packet path.
#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  inline void update_impl(const FlowKey& key, std::int64_t count, std::uint64_t now_ns) {
    Traits::on_packet(base_, count);
    ++packets_;

    if (cfg_.mode == Mode::kVanilla ||
        (cfg_.mode == Mode::kAlwaysCorrect && !detector_.converged())) {
      vanilla_update(key, count);
      if (cfg_.mode == Mode::kAlwaysCorrect &&
          detector_.on_packet(base_.matrix(), now_ns)) {
        // Converged: fall into the sampled regime (Algorithm 1 line 15).
        sampler_.set_probability(cfg_.probability);
        if constexpr (WithTelemetry) {
          if (tel_.probability) tel_.probability->set(cfg_.probability);
        }
      }
      return;
    }

    if (cfg_.mode == Mode::kAlwaysLineRate && rate_.on_packet(now_ns)) {
      sampler_.set_probability(rate_.probability());
    }

    sampled_update(key, count);
  }

  static double initial_probability(const NitroConfig& cfg) {
    switch (cfg.mode) {
      case Mode::kVanilla:
      case Mode::kAlwaysCorrect:   // p = 1 until converged
      case Mode::kAlwaysLineRate:  // first epoch runs at p = 1
        return 1.0;
      case Mode::kFixedRate:
        return cfg.probability;
    }
    return 1.0;
  }

  void vanilla_update(const FlowKey& key, std::int64_t count) {
    const std::uint64_t digest = flow_digest(key);
    for (std::uint32_t r = 0; r < base_.depth(); ++r) {
      base_.matrix().update_row_digest(r, digest, count);
    }
    sampled_updates_ += base_.depth();
    if (heap_.capacity() > 0) heap_.offer(key, Traits::query(base_, key));
  }

  // Bottleneck-3 mitigation: the heap is consulted only for sampled
  // packets, i.e. with probability <= d·p per packet.  With buffering
  // enabled the offer is additionally *deferred* to the next batch flush
  // (at most kBatch pushes away) so it estimates against fully-applied
  // counters and the heap work batches with the counter work; burst and
  // per-packet ingestion share this protocol, which is what makes them
  // bit-identical.  Without buffering the offer stays inline.
  void sampled_update(const FlowKey& key, std::int64_t count) {
    std::uint32_t rows[64];
    const std::uint32_t n = sampler_.rows_for_packet(rows);
    if (n == 0) return;
    const std::int64_t delta = count * sampler_.increment();
    if (cfg_.buffered_updates) {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (buffer_.push(base_.matrix(), key, rows[i], delta)) {
          drain_pending_offers();
        }
      }
      if (heap_.capacity() > 0) pending_offers_.push_back(key);
    } else {
      const std::uint64_t digest = flow_digest(key);
      for (std::uint32_t i = 0; i < n; ++i) {
        base_.matrix().update_row_digest(rows[i], digest, delta);
      }
      if (heap_.capacity() > 0) heap_.offer(key, Traits::query(base_, key));
    }
    sampled_updates_ += n;
  }

  /// Sampled fast path over a run of unit-weight packets at constant p.
  /// One sample_burst() call advances the skip across the whole run; the
  /// selected slots come back packet-major, so per-packet semantics
  /// (stream-total accounting before a packet's writes, heap offer after
  /// them) replay exactly.
  void sampled_burst(std::span<const FlowKey> keys) {
    const std::uint32_t m = static_cast<std::uint32_t>(keys.size());
    packets_ += m;
    const std::uint32_t nslots = sampler_.sample_burst(m, burst_slots_);
    if (nslots == 0) {
      Traits::on_packet(base_, m);
      return;
    }
    sampled_updates_ += nslots;
    const std::int64_t delta = sampler_.increment();
    // K-ary's stream total S feeds its estimator, which heap offers query
    // mid-stream — so S must grow exactly as in the per-packet path: fold
    // in each packet's contribution just before its first write.  (For
    // CM/CS on_packet is a no-op and this folds away.)
    std::uint32_t accounted = 0;
    std::size_t s = 0;
    while (s < nslots) {
      const std::uint32_t pkt = burst_slots_[s].packet;
      const FlowKey& key = keys[pkt];
      Traits::on_packet(base_, pkt + 1 - accounted);
      accounted = pkt + 1;
      if (cfg_.buffered_updates) {
        do {
          if (buffer_.push(base_.matrix(), key, burst_slots_[s].row, delta)) {
            drain_pending_offers();
          }
          ++s;
        } while (s < nslots && burst_slots_[s].packet == pkt);
        if (heap_.capacity() > 0) pending_offers_.push_back(key);
      } else {
        const std::uint64_t digest = flow_digest(key);
        do {
          base_.matrix().update_row_digest(burst_slots_[s].row, digest, delta);
          ++s;
        } while (s < nslots && burst_slots_[s].packet == pkt);
        if (heap_.capacity() > 0) heap_.offer(key, Traits::query(base_, key));
      }
    }
    Traits::on_packet(base_, m - accounted);  // trailing skipped packets
  }

  /// Apply deferred heavy-key offers against the just-flushed counters.
  /// A key sampled more than once since the last flush is offered once:
  /// no counters changed between the would-be duplicates, so they would
  /// see identical estimates and leave the heap unchanged anyway.
  void drain_pending_offers() {
    const std::size_t n = pending_offers_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const FlowKey& key = pending_offers_[i];
      bool duplicate = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (pending_offers_[j] == key) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) heap_.offer(key, Traits::query(base_, key));
    }
    pending_offers_.clear();
  }

  Base base_;
  NitroConfig cfg_;
  RowSampler sampler_;
  RateController rate_;
  ConvergenceDetector detector_;
  sketch::TopKHeap heap_;
  BufferedUpdater buffer_;
  // Scratch for update_burst (reused across bursts to avoid allocation)
  // and the offers deferred to the next buffer flush.  pending_offers_ is
  // bounded by the batch size: every kBatch-th push drains it.
  std::vector<BurstSlot> burst_slots_;
  std::vector<FlowKey> pending_offers_;
  std::uint64_t packets_ = 0;
  std::uint64_t sampled_updates_ = 0;
  double degrade_base_p_ = 1.0;
  std::uint32_t degrade_level_ = 0;
  [[no_unique_address]] std::conditional_t<WithTelemetry, telemetry::SketchTelemetry,
                                           telemetry::Disabled>
      tel_{};
};

using NitroCountMin = NitroSketch<sketch::CountMinSketch>;
using NitroCountSketch = NitroSketch<sketch::CountSketch>;
using NitroKAry = NitroSketch<sketch::KArySketch>;

}  // namespace nitro::core
