// NitroSketch applied to UnivMon (§6, §8).
//
// Each of UnivMon's L Count-Sketch levels is wrapped in its own Nitro row
// sampler that advances only on the packets belonging to that level's
// substream — exactly "replace each Count Sketch instance in UnivMon with
// NitroSketch".  A packet is hashed once: its flow digest picks its level
// (trailing-ones selector) and is reused for every row write and heap
// estimate.  Beyond that it costs, per member level (~2 expected), a
// geometric countdown; counter and heap work only happens on sampled
// slots.  update_burst() digests a whole chunk with the batched kernel
// and walks it level by level, so a sampled level pays one geometric draw
// per *sampled* slot instead of a compare per member (paper Ideas B + D).
// In AlwaysCorrect mode every level carries its own convergence detector
// (deeper levels see exponentially fewer packets and converge later);
// unconverged levels run vanilla while converged ones sample.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simd_hash.hpp"
#include "common/timing.hpp"
#include "core/convergence.hpp"
#include "core/nitro_config.hpp"
#include "core/rate_controller.hpp"
#include "core/row_sampler.hpp"
#include "sketch/univmon.hpp"
#include "telemetry/telemetry.hpp"

namespace nitro::core {

class NitroUnivMon {
 public:
  NitroUnivMon(const sketch::UnivMonConfig& um_cfg, const NitroConfig& cfg,
               std::uint64_t seed = 0x0417c0deULL)
      : um_(um_cfg, seed), cfg_(cfg) {
    SplitMix64 sm(mix64(cfg.seed ^ seed));
    const double p0 = initial_probability(cfg);
    reach_.resize(um_.num_levels());
    for (std::uint32_t j = 0; j < um_.num_levels(); ++j) {
      samplers_.emplace_back(um_cfg.depth, p0, sm.next());
      detectors_.emplace_back(cfg.epsilon, cfg.probability,
                              cfg.convergence_check_interval,
                              /*signed_rows=*/true, um_cfg.depth);
    }
    rate_ = std::make_unique<RateController>(cfg.target_sampled_rate_pps,
                                             cfg.rate_epoch_ns, cfg.probability);
  }

  /// Bind registry instruments.  The rate controller logs the p timeline,
  /// each level's convergence detector logs its flip tagged with the level
  /// index, and 1-in-1024 packets feed the update-cycle histogram.
  void attach_telemetry(const telemetry::SketchTelemetry& tel) {
    tel_ = tel;
    rate_->attach_telemetry(tel_.events, tel_.probability);
    for (std::uint32_t j = 0; j < detectors_.size(); ++j) {
      detectors_[j].attach_telemetry(tel_.events, j);
    }
    if (tel_.probability) tel_.probability->set(level_probability(0));
    if (tel_.events) {
      tel_.events->append(telemetry::EventKind::kProbabilityChange, 0,
                          level_probability(0));
    }
    publish_telemetry();
  }

  /// Copy internal counters into the bound instruments (epoch boundaries /
  /// export time; the per-packet path never touches an atomic).
  void publish_telemetry() {
    if (tel_.packets) tel_.packets->store(packets_);
    if (tel_.sampled_updates) tel_.sampled_updates->store(sampled_updates_);
    if (tel_.probability) tel_.probability->set(level_probability(0));
  }

  /// Same 1-in-1024 cycle-sampling policy as NitroSketch::update.
  static constexpr std::uint64_t kCycleSampleMask = 1023;

  /// Keys per update_burst() chunk: the fixed size of its per-chunk
  /// digest, level and member arrays.
  static constexpr std::size_t kBurstChunk = 64;

  /// Per-packet reference path; update_burst() is bit-identical to it.
  void update(const FlowKey& key, std::int64_t count = 1, std::uint64_t now_ns = 0) {
    if (tel_.update_cycles != nullptr && (packets_ & kCycleSampleMask) == 0)
        [[unlikely]] {
      update_timed(key, count, now_ns);
      return;
    }
    update_impl(key, count, now_ns);
  }

  /// Process a burst of unit-weight packets sharing one arrival timestamp.
  /// Bit-identical to update() once per key in order: same counters, heap
  /// contents, sampler, detector and controller state.  Works in chunks of
  /// kBurstChunk keys:
  ///  1. digest the chunk with the batched kernel (one hash per packet,
  ///     reused by its level, every row write and every heap estimate);
  ///  2. walk the levels in order, each over its members (packets whose
  ///     level is >= j, in packet order), stopping at the first level with
  ///     none.  A sampled level draws its slots for all members with one
  ///     RowSampler::sample_burst() (a geometric draw per *sampled* slot,
  ///     not a compare per member), so only sampled members cost work.
  /// Level-major order is exact because each level's sampler, detector,
  /// counters and heap only ever see that level's members; levels share
  /// nothing but the line-rate controller, whose retunes split the chunk
  /// exactly where update() would apply them.  Exact levels (kVanilla,
  /// kAlwaysCorrect before its detector flips) run per member and feed the
  /// detector; a flip mid-burst hands the rest to the sampled walk.  A
  /// chunk that holds a 1-in-1024 packet is timed whole and observed as
  /// cycles per packet, so the update-cycle histogram fills under bursts.
  void update_burst(std::span<const FlowKey> keys, std::uint64_t now_ns = 0) {
    for (std::size_t i = 0; i < keys.size(); i += kBurstChunk) {
      const auto chunk = keys.subspan(i, std::min(kBurstChunk, keys.size() - i));
      const std::uint64_t offset = packets_ & kCycleSampleMask;
      if (tel_.update_cycles != nullptr &&
          (offset == 0 || offset + chunk.size() > kCycleSampleMask + 1)) [[unlikely]] {
        burst_chunk_timed(chunk, now_ns);
      } else {
        burst_chunk(chunk, now_ns);
      }
    }
  }

 private:
#if defined(__GNUC__)
  __attribute__((noinline, cold))
#endif
  void update_timed(const FlowKey& key, std::int64_t count, std::uint64_t now_ns) {
    const std::uint64_t t0 = rdtsc();
    update_impl(key, count, now_ns);
    tel_.update_cycles->observe(rdtsc() - t0);
  }

#if defined(__GNUC__)
  __attribute__((noinline, cold))
#endif
  void burst_chunk_timed(std::span<const FlowKey> keys, std::uint64_t now_ns) {
    const std::uint64_t t0 = rdtsc();
    burst_chunk(keys, now_ns);
    tel_.update_cycles->observe((rdtsc() - t0) / keys.size());
  }

  void update_impl(const FlowKey& key, std::int64_t count, std::uint64_t now_ns) {
    um_.add_total(count);
    ++packets_;

    if (cfg_.mode == Mode::kAlwaysLineRate && rate_->on_packet(now_ns)) {
      for (auto& s : samplers_) s.set_probability(rate_->probability());
    }

    // One digest decides the deepest level this packet belongs to and
    // serves every row and heap estimate below.
    const std::uint64_t digest = flow_digest(key);
    const std::uint32_t z = um_.level_of_digest(digest);

    for (std::uint32_t j = 0; j <= z; ++j) {
      if (level_exact(j)) {
        exact_member(j, key, digest, count, now_ns);
        continue;
      }
      // Sampled regime: this level's sampler advances only for its
      // substream (this packet is a member), d slots per packet.
      std::uint32_t rows[64];
      const std::uint32_t n = samplers_[j].rows_for_packet(rows);
      if (n == 0) continue;
      const std::int64_t delta = count * samplers_[j].increment();
      const std::int64_t estimate =
          um_.level_sketch_mut(j).update_rows_and_query(digest, rows, n, delta);
      sampled_updates_ += n;
      um_.offer_to_heap_with_estimate(j, key, estimate);
    }
  }

  /// Does level j update every member exactly (no sampling) right now?
  bool level_exact(std::uint32_t j) const {
    return cfg_.mode == Mode::kVanilla ||
           (cfg_.mode == Mode::kAlwaysCorrect && !detectors_[j].converged());
  }

  /// Exact-regime update of level j by one member; AlwaysCorrect feeds the
  /// level's detector and switches its sampler on at convergence.
  void exact_member(std::uint32_t j, const FlowKey& key, std::uint64_t digest,
                    std::int64_t count, std::uint64_t now_ns) {
    auto& cs = um_.level_sketch_mut(j);
    cs.update_digest(digest, count);
    um_.offer_to_heap_with_estimate(j, key, cs.query_digest(digest));
    if (cfg_.mode == Mode::kAlwaysCorrect &&
        detectors_[j].on_packet(cs.matrix(), now_ns)) {
      samplers_[j].set_probability(cfg_.probability);
    }
  }

  /// One update_burst() chunk (at most kBurstChunk keys).
  void burst_chunk(std::span<const FlowKey> keys, std::uint64_t now_ns) {
    const auto m = static_cast<std::uint32_t>(keys.size());
    std::uint64_t digests[kBurstChunk];
    std::uint32_t levels[kBurstChunk];
    flow_digests(keys.data(), m, digests);
    for (std::uint32_t i = 0; i < m; ++i) levels[i] = um_.level_of_digest(digests[i]);
    um_.add_total(m);
    packets_ += m;
    if (cfg_.mode != Mode::kAlwaysLineRate) {
      burst_levels(keys, digests, levels, 0, m, now_ns);
      return;
    }
    // The controller is fed once per packet, as update() does.  A retune
    // applies before its triggering packet, so that packet heads the next
    // constant-p run.
    std::uint32_t begin = 0;
    for (std::uint32_t i = 0; i < m; ++i) {
      if (rate_->on_packet(now_ns)) {
        burst_levels(keys, digests, levels, begin, i, now_ns);
        for (auto& s : samplers_) s.set_probability(rate_->probability());
        begin = i;
      }
    }
    burst_levels(keys, digests, levels, begin, m, now_ns);
  }

  /// Level-major walk over packets [begin, end) of a chunk at constant
  /// line-rate probability.  Level j's members are the packets whose level
  /// is >= j; only their count is needed to draw a sampled level's slots.
  void burst_levels(std::span<const FlowKey> keys, const std::uint64_t* digests,
                    const std::uint32_t* levels, std::uint32_t begin, std::uint32_t end,
                    std::uint64_t now_ns) {
    std::fill(reach_.begin(), reach_.end(), 0u);
    for (std::uint32_t i = begin; i < end; ++i) ++reach_[levels[i]];
    for (std::size_t j = reach_.size() - 1; j > 0; --j) reach_[j - 1] += reach_[j];
    for (std::uint32_t j = 0; j < reach_.size() && reach_[j] > 0; ++j) {
      burst_level(j, reach_[j], keys, digests, levels, begin, end, now_ns);
    }
  }

  /// Level j over its `n` members among packets [begin, end), in packet
  /// order.  The member list is built only when the level has work: an
  /// exact level, or a sampled level that drew at least one slot.
  void burst_level(std::uint32_t j, std::uint32_t n, std::span<const FlowKey> keys,
                   const std::uint64_t* digests, const std::uint32_t* levels,
                   std::uint32_t begin, std::uint32_t end, std::uint64_t now_ns) {
    std::uint32_t members[kBurstChunk];
    bool listed = false;
    const auto list_members = [&] {
      std::uint32_t k = 0;
      for (std::uint32_t i = begin; i < end; ++i) {
        members[k] = i;
        k += levels[i] >= j ? 1u : 0u;
      }
      listed = true;
    };
    std::uint32_t t = 0;
    if (level_exact(j)) {
      list_members();
      for (; t < n && level_exact(j); ++t) {
        exact_member(j, keys[members[t]], digests[members[t]], 1, now_ns);
      }
      if (t == n) return;
    }
    const std::uint32_t nslots = samplers_[j].sample_burst(n - t, burst_slots_);
    if (nslots == 0) return;
    if (!listed) list_members();
    sampled_updates_ += nslots;
    const std::int64_t delta = samplers_[j].increment();
    auto& cs = um_.level_sketch_mut(j);
    // Slots come back member-major with rows ascending, so each sampled
    // member's writes land before its heap offer, as in update().
    std::uint32_t s = 0;
    while (s < nslots) {
      const std::uint32_t member = burst_slots_[s].packet;
      std::uint32_t rows[64];
      std::uint32_t nrows = 0;
      do {
        rows[nrows++] = burst_slots_[s++].row;
      } while (s < nslots && burst_slots_[s].packet == member);
      const std::uint32_t pkt = members[t + member];
      um_.offer_to_heap_with_estimate(
          j, keys[pkt], cs.update_rows_and_query(digests[pkt], rows, nrows, delta));
    }
  }

 public:
  // --- Queries (all reuse UnivMon's estimators) ---------------------------
  std::int64_t query(const FlowKey& key) const { return um_.query(key); }
  double estimate_entropy() const { return um_.estimate_entropy(); }
  double estimate_distinct() const { return um_.estimate_distinct(); }
  double estimate_l2() const { return um_.estimate_l2(); }
  std::vector<sketch::TopKHeap::Entry> heavy_hitters(std::int64_t threshold) const {
    return um_.heavy_hitters(threshold);
  }

  const sketch::UnivMon& univmon() const noexcept { return um_; }
  sketch::UnivMon& univmon_mut() noexcept { return um_; }
  std::int64_t total() const noexcept { return um_.total(); }
  /// Construction seed of the underlying UnivMon (generation-derived when
  /// seed rotation is active; see core/seed_schedule.hpp).
  std::uint64_t seed() const noexcept { return um_.seed(); }
  std::uint64_t sampled_updates() const noexcept { return sampled_updates_; }
  std::size_t memory_bytes() const { return um_.memory_bytes(); }

  bool level_converged(std::uint32_t j) const { return detectors_[j].converged(); }

  // --- Shard support (src/shard/) -----------------------------------------

  /// Fold another instance's UnivMon state (level counters, stream total,
  /// per-level heavy keys) into this one.  Both instances must be built
  /// from the same UnivMonConfig and UnivMon seed — the per-level
  /// CounterMatrix merge checks enforce it.  Sampler/convergence state
  /// stays per-instance (it is data-plane, not query, state).
  void merge_from(const NitroUnivMon& other) {
    um_.merge(other.um_);
    sampled_updates_ += other.sampled_updates_;
  }

  /// Reset counters, heaps and the stream total for the next epoch while
  /// keeping samplers, detectors and telemetry bindings.
  void clear() {
    um_.clear();
    packets_ = 0;
    sampled_updates_ = 0;
  }

  /// Effective sampling probability of level j's counter arrays.
  double level_probability(std::uint32_t j) const {
    if (cfg_.mode == Mode::kVanilla) return 1.0;
    if (cfg_.mode == Mode::kAlwaysCorrect && !detectors_[j].converged()) return 1.0;
    return samplers_[j].probability();
  }

  // --- Graceful degradation + checkpoint support --------------------------

  /// Same contract as NitroSketch::apply_degradation, applied to every
  /// level's sampler: p_j = base_j·2^-level floored at kDegradeFloor,
  /// level 0 restores the captured per-level baselines.
  static constexpr double kDegradeFloor = 1.0 / 1024.0;

  void apply_degradation(std::uint32_t level) {
    if (level == 0) {
      if (degrade_level_ != 0) {
        for (std::size_t j = 0; j < samplers_.size(); ++j) {
          samplers_[j].set_probability(degrade_base_[j]);
        }
      }
      degrade_level_ = 0;
      return;
    }
    if (degrade_level_ == 0) {
      degrade_base_.clear();
      for (const auto& s : samplers_) degrade_base_.push_back(s.probability());
    }
    degrade_level_ = level;
    for (std::size_t j = 0; j < samplers_.size(); ++j) {
      const double p = std::ldexp(degrade_base_[j], -static_cast<int>(level));
      samplers_[j].set_probability(p < kDegradeFloor ? kDegradeFloor : p);
    }
  }

  std::uint32_t degrade_level() const noexcept { return degrade_level_; }

  std::uint64_t ingest_packets() const noexcept { return packets_; }

  /// Restore ingestion counters from a checkpoint; the UnivMon levels and
  /// heaps are restored separately through codec load_univmon.
  void set_ingest_counts(std::uint64_t packets, std::uint64_t sampled) noexcept {
    packets_ = packets;
    sampled_updates_ = sampled;
  }

  /// Delta checkpoints: per-segment dirty tracking on every level matrix.
  void enable_dirty_tracking() { um_.enable_dirty_tracking(); }
  bool dirty_tracking() const noexcept { return um_.dirty_tracking(); }
  void clear_dirty() noexcept { um_.clear_dirty(); }

 private:
  static double initial_probability(const NitroConfig& cfg) {
    switch (cfg.mode) {
      case Mode::kVanilla:
      case Mode::kAlwaysLineRate:  // first epoch runs at p = 1
        return 1.0;
      case Mode::kAlwaysCorrect:  // sampled path only serves converged levels
      case Mode::kFixedRate:
        return cfg.probability;
    }
    return 1.0;
  }

  sketch::UnivMon um_;
  NitroConfig cfg_;
  std::vector<RowSampler> samplers_;  // one per level, advanced per member packet
  std::vector<ConvergenceDetector> detectors_;
  std::vector<double> degrade_base_;  // per-level p captured at first degrade
  std::uint32_t degrade_level_ = 0;
  std::unique_ptr<RateController> rate_;
  // update_burst scratch: one level's drawn slots, and per level the
  // number of a run's packets that reach it.
  std::vector<BurstSlot> burst_slots_;
  std::vector<std::uint32_t> reach_;
  std::uint64_t sampled_updates_ = 0;
  std::uint64_t packets_ = 0;
  telemetry::SketchTelemetry tel_{};
};

}  // namespace nitro::core
