// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper
// (see DESIGN.md §4 for the index) and prints the same rows/series the
// paper plots.  Absolute Mpps depends on this machine; EXPERIMENTS.md
// records paper-vs-measured shapes.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "common/simd_hash.hpp"
#include "core/nitro_config.hpp"
#include "sketch/univmon.hpp"
#include "switchsim/measurement.hpp"
#include "switchsim/ovs_pipeline.hpp"
#include "switchsim/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::bench {

inline void banner(const char* id, const char* title) {
  std::printf("\n==================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==================================================================\n");
}

inline void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("  # ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

/// Paper §7 sketch configurations.
inline sketch::UnivMonConfig paper_univmon(std::uint32_t heap = 1000) {
  sketch::UnivMonConfig cfg;
  cfg.levels = 16;
  cfg.depth = 5;
  cfg.top_width = 10000;  // "five rows of 10000 counters" for the CS parts
  cfg.width_decay = 0.5;
  cfg.min_width = 512;
  cfg.heap_capacity = heap;
  return cfg;
}

/// Smaller UnivMon for memory-constrained configurations (2MB-ish).
inline sketch::UnivMonConfig univmon_sized(std::uint32_t top_width,
                                           std::uint32_t heap = 1000) {
  sketch::UnivMonConfig cfg = paper_univmon(heap);
  cfg.top_width = top_width;
  return cfg;
}

inline core::NitroConfig nitro_fixed(double p) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = p;
  return cfg;
}

/// Replays a trace through a measurement hook without any switch around it
/// ("in-memory" benchmarks like Figure 13a).
template <typename Measurement>
switchsim::RunStats replay_in_memory(const trace::Trace& stream, Measurement& meas) {
  switchsim::RunStats stats;
  WallTimer timer;
  for (const auto& p : stream) {
    meas.on_packet(p.key, p.wire_bytes, p.ts_ns);
    ++stats.packets;
    stats.bytes += p.wire_bytes;
  }
  meas.finish();
  stats.seconds = timer.seconds();
  return stats;
}

/// Direct sketch replay (no Measurement wrapper): update(key) per packet.
template <typename Sketch>
double mpps_of_direct_replay(const trace::Trace& stream, Sketch& sketch) {
  WallTimer timer;
  for (const auto& p : stream) sketch.update(p.key, 1);
  const double secs = timer.seconds();
  return static_cast<double>(stream.size()) / secs / 1e6;
}

/// Direct sketch replay for sketches taking (key, count, ts).
template <typename Sketch>
double mpps_of_direct_replay_ts(const trace::Trace& stream, Sketch& sketch) {
  WallTimer timer;
  for (const auto& p : stream) sketch.update(p.key, 1, p.ts_ns);
  const double secs = timer.seconds();
  return static_cast<double>(stream.size()) / secs / 1e6;
}

/// Paired, interleaved measurement for the A-vs-B gates: run `pairs`
/// (a, b) blocks back to back, alternating which runs first so a warm-up
/// or boost bias toward one slot cancels, and hand each pair's results to
/// `on_pair(a, b)`.  Interference only ever slows a block down, so callers
/// keep the cleanest pair by their own statistic.
template <typename RunA, typename RunB, typename OnPair>
void paired_interleaved(int pairs, RunA&& run_a, RunB&& run_b, OnPair&& on_pair) {
  for (int rep = 0; rep < pairs; ++rep) {
    if (rep % 2 == 0) {
      const auto a = run_a();
      const auto b = run_b();
      on_pair(a, b);
    } else {
      const auto b = run_b();
      const auto a = run_a();
      on_pair(a, b);
    }
  }
}

/// Write the bench's telemetry registry as a JSON sidecar next to the
/// printed rows (e.g. "tab02_telemetry.json"), so figure scripts can read
/// stage shares / p-timelines without scraping stdout.
inline void write_telemetry_sidecar(const telemetry::Registry& registry,
                                    const char* bench_id,
                                    const std::string& extra_json = {}) {
  const std::string path = std::string(bench_id) + "_telemetry.json";
  std::string json = telemetry::to_json(registry);
  // Stamp the active hash-kernel tier ("scalar" | "avx2" | "avx512" —
  // build capability AND runtime CPUID) so recorded numbers in the perf
  // trajectory are attributable to the kernel that produced them.
  // `extra_json` lets benches add fields of their own (e.g. the ingest
  // gate's `"backend": "pcap",`) — pass complete `"key": value,` clauses.
  const auto brace = json.find('{');
  if (brace != std::string::npos) {
    json.insert(brace + 1, std::string("\n  \"isa\": \"") + simd_isa_name() +
                               "\"," + extra_json);
  }
  if (telemetry::write_file(path, json)) {
    note("telemetry sidecar: %s", path.c_str());
  } else {
    note("telemetry sidecar: failed to write %s", path.c_str());
  }
}

}  // namespace nitro::bench
