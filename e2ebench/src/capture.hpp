// The benchmark's input: a seeded CAIDA-like capture written as pcap, and
// the exact truth counted back from the written file.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flow_key.hpp"

namespace e2ebench {

struct CaptureSpec {
  std::uint64_t packets = 0;
  double rate_pps = 0.0;  // spacing of the capture's own timestamps
  std::uint64_t seed = 1;
  int epochs = 1;         // how the monitor will split it
};

struct Capture {
  std::string path;
  CaptureSpec spec;
  std::uint64_t packets = 0;     // records read back from the file
  std::uint64_t wire_bytes = 0;  // sum of on-wire lengths
  std::uint64_t file_bytes = 0;
  /// Per epoch, the capture time of its last packet relative to the first
  /// packet, with nitro_monitor's split (packets / epochs per epoch, the
  /// remainder in the last one).
  std::vector<std::uint64_t> epoch_due_ns;
  /// Exact per-flow packet counts over the written file.
  std::unordered_map<nitro::FlowKey, std::int64_t> counts;
};

/// Generate the capture with trace::caida_like (Zipf s = 1.0, 100k flows,
/// 714 B mean packets), write it with ingest::write_pcap, then read it
/// back through the same mmap replay backend the monitor uses.  Throws
/// on I/O failure or when the read-back disagrees with what was written.
Capture make_capture(const std::string& path, const CaptureSpec& spec);

/// Flows with an exact count >= frac * packets, descending by count (the
/// collector's /heavy-hitters threshold rule).
std::vector<std::pair<nitro::FlowKey, std::int64_t>> true_heavy_hitters(
    const Capture& cap, double frac);

}  // namespace e2ebench
