// NitroSketch separate-thread integration (§4.3 + §6).
//
// The paper splits the data plane into a *pre-processing stage* (geometric
// selection of which packets/rows update a counter — runs inside the
// vswitchd forwarding thread) and a *sketch-updating stage* (hashing and
// counter writes — runs in a dedicated thread fed through a shared SPSC
// buffer).  Because only ~p of packets are selected, the ring carries a
// tiny fraction of the traffic and the forwarding thread's measurement
// cost collapses to the geometric countdown.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/flow_key.hpp"
#include "common/spsc_ring.hpp"
#include "core/nitro_config.hpp"
#include "core/nitro_sketch.hpp"
#include "core/rate_controller.hpp"
#include "core/row_sampler.hpp"
#include "sketch/topk.hpp"
#include "switchsim/measurement.hpp"
#include "telemetry/telemetry.hpp"

namespace nitro::switchsim {

template <typename Base>
class NitroSeparateThread final : public Measurement {
 public:
  using Traits = core::SketchTraitsFor<Base>;

  NitroSeparateThread(Base base, const core::NitroConfig& cfg,
                      std::size_t ring_capacity = 1 << 16)
      : base_(std::move(base)),
        cfg_(cfg),
        sampler_(base_.depth(),
                 cfg.mode == core::Mode::kFixedRate ? cfg.probability : 1.0,
                 cfg.seed ^ 0x51e9a7eULL),
        rate_(cfg.target_sampled_rate_pps, cfg.rate_epoch_ns, cfg.probability),
        heap_(cfg.track_top_keys ? cfg.top_keys : 0),
        ring_(ring_capacity) {
    consumer_ = std::thread([this] { run(); });
  }

  ~NitroSeparateThread() override { stop(); }

  /// Pre-processing stage: geometric selection only; selected (key, row,
  /// delta) tuples go to the ring.  The exact per-packet bookkeeping that
  /// the inline integration does via Traits::on_packet (K-ary's stream
  /// total S) is accumulated producer-side and folded into the base at
  /// finish(), after the consumer has been joined.
  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    packets_.inc();
    ++pending_stream_count_;
    if (cfg_.mode == core::Mode::kAlwaysLineRate && rate_.on_packet(ts_ns)) {
      sampler_.set_probability(rate_.probability());
    }
    std::uint32_t rows[64];
    const std::uint32_t n = sampler_.rows_for_packet(rows);
    if (n == 0) return;
    const std::int64_t delta = sampler_.increment();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!ring_.try_push({key, rows[i], delta})) drops_.inc();
    }
  }

  /// Burst pre-processing: one geometric advance across the whole burst
  /// (segmented into constant-p runs under AlwaysLineRate), then only the
  /// selected (key, row, delta) tuples touch the ring.  Same selections
  /// and drop policy as per-packet on_packet with a shared timestamp.
  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    packets_.inc(n);
    pending_stream_count_ += static_cast<std::int64_t>(n);
    std::size_t i = 0;
    bool head_fed = false;
    while (i < n) {
      std::size_t seg = n - i;
      if (cfg_.mode == core::Mode::kAlwaysLineRate) {
        if (!head_fed && rate_.on_packet(ts_ns)) {
          sampler_.set_probability(rate_.probability());
        }
        head_fed = false;
        seg = 1;
        while (i + seg < n) {
          if (rate_.on_packet(ts_ns)) {
            sampler_.set_probability(rate_.probability());
            head_fed = true;
            break;
          }
          ++seg;
        }
      }
      const std::uint32_t selected =
          sampler_.sample_burst(static_cast<std::uint32_t>(seg), burst_slots_);
      if (selected > 0) {
        const std::int64_t delta = sampler_.increment();
        for (std::uint32_t s = 0; s < selected; ++s) {
          if (!ring_.try_push({keys[i + burst_slots_[s].packet],
                               burst_slots_[s].row, delta})) {
            drops_.inc();
          }
        }
      }
      i += seg;
    }
  }

  void finish() override { stop(); }

  /// Expose ring counters and wire the rate controller's p-timeline into
  /// `registry` (same layout as SeparateThreadMeasurement).
  void attach_telemetry(telemetry::Registry& registry, const std::string& prefix) {
    registry.register_external_counter(prefix + "_packets_total",
                                       "packets seen by the pre-processing stage",
                                       packets_);
    registry.register_external_counter(prefix + "_drops_total",
                                       "ring overruns: samples dropped", drops_);
    registry.register_external_counter(
        prefix + "_idle_spins_total",
        "consumer poll rounds that found the ring empty", idle_spins_);
    rate_.attach_telemetry(&registry.event_log(prefix + "_events"),
                           &registry.gauge(prefix + "_sampling_probability",
                                           "current geometric sampling probability p"));
  }

  /// Queries run on the control path after finish().
  std::int64_t query(const FlowKey& key) const { return Traits::query(base_, key); }
  const Base& base() const noexcept { return base_; }
  const sketch::TopKHeap& heap() const noexcept { return heap_; }
  std::uint64_t packets() const noexcept { return packets_.value(); }
  std::uint64_t drops() const noexcept { return drops_.value(); }
  std::uint64_t idle_spins() const noexcept { return idle_spins_.value(); }
  std::uint64_t applied() const noexcept { return applied_.load(std::memory_order_relaxed); }

 private:
  struct Item {
    FlowKey key;
    std::uint32_t row;
    std::int64_t delta;
  };

  void run() {
    Item item;
    std::uint32_t idle = 0;
    while (!done_.load(std::memory_order_acquire) || !ring_.empty_approx()) {
      if (!ring_.try_pop(item)) {
        // Bounded backoff: PAUSE for a while, then hand the core back to
        // the scheduler instead of burning it on an empty ring.
        idle_spins_.inc();
        if (idle < kSpinsBeforeYield) {
          ++idle;
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
        continue;
      }
      idle = 0;
      base_.matrix().update_row_digest(item.row, flow_digest(item.key), item.delta);
      applied_.fetch_add(1, std::memory_order_relaxed);
      if (heap_.capacity() > 0) heap_.offer(item.key, Traits::query(base_, item.key));
    }
  }

  void stop() {
    if (consumer_.joinable()) {
      done_.store(true, std::memory_order_release);
      consumer_.join();
    }
    // Consumer joined: folding the producer-side stream total into the
    // base is single-threaded here.  Without this, K-ary's unbiased
    // estimator sees S = 0 and every estimate is shifted by S/w.
    if (pending_stream_count_ != 0) {
      Traits::on_packet(base_, pending_stream_count_);
      pending_stream_count_ = 0;
    }
  }

  Base base_;
  core::NitroConfig cfg_;
  core::RowSampler sampler_;       // producer-side
  core::RateController rate_;      // producer-side
  std::vector<core::BurstSlot> burst_slots_;  // producer-side burst scratch
  sketch::TopKHeap heap_;          // consumer-side
  SpscRing<Item> ring_;
  std::thread consumer_;
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> applied_{0};
  // Relaxed atomic (same pattern as drops_): the producer writes while a
  // control thread may read packets() mid-run.
  telemetry::Counter packets_;
  std::int64_t pending_stream_count_ = 0;  // producer-side, folded in stop()
  telemetry::Counter drops_;  // relaxed atomic: producer writes, control reads
  telemetry::Counter idle_spins_;
};

}  // namespace nitro::switchsim
