// Run-to-completion consumer loop: poll a backend, feed the measurement.
//
// The structure of a NIC driver loop — rx_burst(); parse; update; repeat
// on the same thread — with the parse already folded into the backend's
// descriptors and the update folded into switchsim::Measurement::on_burst
// (which routes to the sketch's update_burst fast path).  Epoch drivers
// call run() with a packet budget; the loop stops exactly at the budget
// even mid-burst (it requests smaller bursts as the budget runs down), so
// epoch boundaries land on the same packet regardless of backend burst
// shapes.
#pragma once

#include <cstdint>

#include "common/flow_key.hpp"
#include "ingest/backend.hpp"
#include "switchsim/measurement.hpp"
#include "switchsim/packet.hpp"

namespace nitro::ingest {

struct IngestStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bursts = 0;
};

class IngestLoop {
 public:
  /// Largest poll batch; larger burst sizes are clamped to it.
  static constexpr std::size_t kMaxBurst = 256;

  IngestLoop(IngestBackend& backend, switchsim::Measurement& measurement,
             std::size_t burst_size = switchsim::kBurstSize)
      : backend_(backend), measurement_(measurement), burst_size_(burst_size) {}

  /// Poll until the backend ends or `max_packets` have been delivered.
  /// Returns packets delivered by THIS call; cumulative totals accrue in
  /// stats().  Does not call measurement.finish() — the epoch driver owns
  /// that barrier.
  std::uint64_t run(std::uint64_t max_packets = ~0ull) {
    PacketView views[kMaxBurst];
    FlowKey keys[kMaxBurst];
    std::uint16_t wire[kMaxBurst];
    const std::size_t burst = burst_size_ < kMaxBurst ? burst_size_ : kMaxBurst;
    std::uint64_t delivered = 0;
    while (delivered < max_packets) {
      const std::uint64_t remaining = max_packets - delivered;
      const std::size_t want =
          remaining < burst ? static_cast<std::size_t>(remaining) : burst;
      const std::size_t n = backend_.next_burst(views, want);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = views[i].key;
        wire[i] = views[i].wire_bytes;
        stats_.bytes += views[i].wire_bytes;
      }
      // Whole burst stamped with the poll timestamp (= last packet's),
      // matching OvsPipeline's burst convention.
      measurement_.on_burst(keys, wire, n, views[n - 1].ts_ns);
      delivered += n;
      ++stats_.bursts;
    }
    stats_.packets += delivered;
    return delivered;
  }

  const IngestStats& stats() const noexcept { return stats_; }

 private:
  IngestBackend& backend_;
  switchsim::Measurement& measurement_;
  std::size_t burst_size_;
  IngestStats stats_;
};

}  // namespace nitro::ingest
