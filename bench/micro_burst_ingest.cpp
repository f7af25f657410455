// Burst-ingestion fast-path gate (companion to micro_shard_overhead's
// dispatch gate and micro_telemetry_overhead's 5% gate).
//
// Compares NitroSketch<CountMin> ingest cost per packet:
//   scalar   — update(key) per packet (the pre-burst baseline)
//   burst-32 — update_burst(span of 32 keys): one geometric advance per
//              burst, batched x8 digest hashing, prefetched counter lines,
//              one heap refresh per flush
//
// Both paths are bit-identical by construction (tests/core/
// test_burst_equivalence.cpp proves it), so this bench isolates pure
// speed.  On AVX2 builds the burst path must be >= 1.3x the scalar path
// (best of kReps each); without AVX2 the batched hash kernel falls back
// to scalar lanes and the gate reports PASS (skipped) instead of failing.
//
// Any --benchmark_min_time* argument switches to quick mode (CI smoke:
// fewer packets, gate reported but not enforced), so the binary can sit
// next to micro_ops under the bench-smoke ctest label.
//
// A second, report-only row runs the same comparison on NitroUnivMon at
// the monitor's geometry (16 levels, depth 5, top width 10000, fixed
// p = 0.01): its burst path digests each 64-key chunk once and walks it
// level by level.  No gate: bench gates already flake on shared hosts.
//
// A JSON sidecar (micro_burst_ingest_telemetry.json) records every ns/pkt
// figure, the speedups, and whether the build has AVX2.
#include "bench_common.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/nitro_sketch.hpp"
#include "core/nitro_univmon.hpp"
#include "sketch/count_min.hpp"

using namespace nitro;
using namespace nitro::bench;

namespace {

constexpr std::uint64_t kPackets = 4'000'000;
constexpr std::uint64_t kQuickPackets = 200'000;
constexpr int kReps = 5;
constexpr std::size_t kBurst = 32;
constexpr double kGateSpeedup = 1.3;

core::NitroConfig bench_cfg() {
  // The fixed-rate regime the paper benches throughput in; top-k off so
  // the measured cost is pure ingest (heap costs are gated elsewhere).
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.01;
  cfg.track_top_keys = false;
  return cfg;
}

sketch::CountMinSketch make_base() { return sketch::CountMinSketch(5, 10000, 7); }

sketch::UnivMonConfig univmon_cfg() {
  sketch::UnivMonConfig cfg;  // the monitor's geometry
  cfg.levels = 16;
  cfg.depth = 5;
  cfg.top_width = 10000;
  return cfg;
}

core::NitroUnivMon make_univmon() { return core::NitroUnivMon(univmon_cfg(), bench_cfg()); }

core::NitroSketch<sketch::CountMinSketch> make_nitro_cm() {
  return core::NitroSketch<sketch::CountMinSketch>(make_base(), bench_cfg());
}

void finish(core::NitroSketch<sketch::CountMinSketch>& nitro) { nitro.flush(); }
void finish(core::NitroUnivMon&) {}

/// Best-of-kReps ns/packet of a fresh instance fed every key, either
/// per packet or in kBurst-key update_burst calls.
template <typename Make>
double ns_per_packet(const std::vector<FlowKey>& keys, Make make, bool burst) {
  double best = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    auto nitro = make();
    WallTimer timer;
    if (burst) {
      for (std::size_t i = 0; i < keys.size(); i += kBurst) {
        const std::size_t n = std::min(kBurst, keys.size() - i);
        nitro.update_burst(std::span<const FlowKey>(keys.data() + i, n));
      }
    } else {
      for (const FlowKey& key : keys) nitro.update(key);
    }
    finish(nitro);
    best = std::min(best, timer.seconds() * 1e9 / static_cast<double>(keys.size()));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) quick = true;
  }

  banner("micro_burst_ingest",
         "burst-32 update_burst vs scalar update, NitroSketch<CountMin> and "
         "NitroUnivMon, p=0.01");
  note("gate: burst >= %.1fx scalar on AVX2 builds (best of %d reps)%s",
       kGateSpeedup, kReps, quick ? " [quick mode: gate not enforced]" : "");
  note("avx2 batched hash kernel: %s", simd_hash_available() ? "yes" : "no");

  trace::WorkloadSpec spec;
  spec.packets = quick ? kQuickPackets : kPackets;
  spec.flows = 100'000;
  spec.seed = 99;
  const auto stream = trace::caida_like(spec);
  std::vector<FlowKey> keys;
  keys.reserve(stream.size());
  for (const auto& p : stream) keys.push_back(p.key);

  const double scalar_ns = ns_per_packet(keys, make_nitro_cm, false);
  const double burst_ns = ns_per_packet(keys, make_nitro_cm, true);
  const double speedup = scalar_ns / burst_ns;
  const double um_scalar_ns = ns_per_packet(keys, make_univmon, false);
  const double um_burst_ns = ns_per_packet(keys, make_univmon, true);
  const double um_speedup = um_scalar_ns / um_burst_ns;

  std::printf("\n  %-40s %12s\n", "variant", "ns/packet");
  std::printf("  %-40s %12.2f\n", "CountMin scalar update", scalar_ns);
  std::printf("  %-40s %12.2f   (%.2fx)\n", "CountMin update_burst(32)", burst_ns, speedup);
  std::printf("  %-40s %12.2f\n", "UnivMon scalar update (report only)", um_scalar_ns);
  std::printf("  %-40s %12.2f   (%.2fx)\n", "UnivMon update_burst(32) (report only)",
              um_burst_ns, um_speedup);

  telemetry::Registry registry;
  registry.gauge("burst_ingest_scalar_ns_per_packet", "scalar update ns/packet")
      .set(scalar_ns);
  registry.gauge("burst_ingest_burst_ns_per_packet", "update_burst(32) ns/packet")
      .set(burst_ns);
  registry.gauge("burst_ingest_speedup", "scalar / burst ns-per-packet ratio")
      .set(speedup);
  registry.gauge("burst_ingest_univmon_scalar_ns_per_packet",
                 "NitroUnivMon scalar update ns/packet (report only)")
      .set(um_scalar_ns);
  registry.gauge("burst_ingest_univmon_burst_ns_per_packet",
                 "NitroUnivMon update_burst(32) ns/packet (report only)")
      .set(um_burst_ns);
  registry.gauge("burst_ingest_univmon_speedup",
                 "NitroUnivMon scalar / burst ns-per-packet ratio (report only)")
      .set(um_speedup);
  write_telemetry_sidecar(registry, "micro_burst_ingest");

  if (!simd_hash_available()) {
    std::printf("\n  PASS (gate skipped: no AVX2 — batched hash kernel runs "
                "scalar lanes; speedup %.2fx recorded for tracking)\n", speedup);
    return 0;
  }
  if (quick) {
    std::printf("\n  PASS (quick mode: speedup %.2fx recorded, %.1fx gate not "
                "enforced on smoke runs)\n", speedup, kGateSpeedup);
    return 0;
  }
  if (speedup < kGateSpeedup) {
    std::printf("\n  FAIL: burst speedup %.2fx below the %.1fx gate\n", speedup,
                kGateSpeedup);
    return 1;
  }
  std::printf("\n  PASS: burst speedup %.2fx meets the %.1fx gate\n", speedup,
              kGateSpeedup);
  return 0;
}
