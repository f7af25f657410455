// Measurement hook routing a pipeline's packets into the sharded
// multi-core data plane (src/shard/).
//
// The pipeline's forwarding thread becomes the dispatcher: per packet it
// pays one flow-hash + one SPSC push, while the sketch work runs on the
// shard workers.  finish() is the pipeline's end-of-run barrier and maps
// to drain(), so the control plane can merge_into() afterwards — the same
// contract as SeparateThreadMeasurement, scaled to N consumers.
#pragma once

#include <cstdint>
#include <span>

#include "shard/shard_group.hpp"
#include "switchsim/measurement.hpp"
#include "telemetry/accuracy.hpp"

namespace nitro::switchsim {

template <typename Instance>
class ShardedMeasurement final : public Measurement {
 public:
  /// `accuracy` (may be null) is fed from the dispatch thread — the only
  /// place in the sharded data plane that still sees every packet — so
  /// the exact reservoir matches the post-merge global sketch.
  explicit ShardedMeasurement(shard::ShardGroup<Instance>& group,
                              telemetry::AccuracyObserver* accuracy = nullptr)
      : group_(group), accuracy_(accuracy) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    group_.update(key, 1, ts_ns);
    if (accuracy_ != nullptr) accuracy_->observe(key);
  }

  /// Burst dispatch: partition the whole rx burst by shard and enqueue
  /// each shard's run with one bulk ring reservation.
  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    group_.update_burst(std::span<const FlowKey>(keys, n), 1, ts_ns);
    if (accuracy_ != nullptr) {
      accuracy_->observe_burst(std::span<const FlowKey>(keys, n));
    }
  }

  void finish() override { group_.drain(); }

 private:
  shard::ShardGroup<Instance>& group_;
  telemetry::AccuracyObserver* accuracy_;
};

}  // namespace nitro::switchsim
