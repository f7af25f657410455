// Figure 9:
// (a) Throughput vs memory for UnivMon+Nitro under 3% and 5% error
//     targets — the sampling probability (and hence speed) that a memory
//     budget affords follows w = 8·ε⁻²·p⁻¹ per row.
// (b) Improvement breakdown: throughput as each NitroSketch component is
//     enabled (baseline UnivMon -> +batched hashing -> +counter-array
//     sampling -> +batched geometric -> +reduced heap updates).
//     Paper: counter-array sampling is by far the biggest jump.
#include "bench_common.hpp"

#include "common/geometric.hpp"
#include "core/nitro_univmon.hpp"
#include "sketch/univmon.hpp"

using namespace nitro;
using namespace nitro::bench;

namespace {

constexpr std::uint64_t kPackets = 2'000'000;

double univmon_nitro_mpps(const sketch::UnivMonConfig& um_cfg, double p,
                          const trace::Trace& stream) {
  core::NitroUnivMon nu(um_cfg, nitro_fixed(p), 5);
  WallTimer timer;
  for (const auto& pkt : stream) nu.update(pkt.key);
  return static_cast<double>(stream.size()) / timer.seconds() / 1e6;
}

/// Memory of a UnivMon instance with the given top width (all levels).
double univmon_mb(std::uint32_t top_width) {
  sketch::UnivMon um(univmon_sized(top_width), 1);
  return static_cast<double>(um.memory_bytes()) / 1e6;
}

// ---- Figure 9b: staged reimplementation of the update loop -------------
// Stage 0: vanilla UnivMon (per-packet: all levels, all rows, heap).
// Stage 1: + batched (buffered) hashing of updates.
// Stage 2: + counter-array sampling (per-row Bernoulli via per-row coin).
// Stage 3: + single geometric draw instead of per-row coins.
// Stage 4: + heap updated only on sampled packets (full NitroSketch).

double stage0_vanilla(const trace::Trace& stream) {
  sketch::UnivMon um(paper_univmon(), 7);
  WallTimer timer;
  for (const auto& p : stream) um.update(p.key);
  return static_cast<double>(stream.size()) / timer.seconds() / 1e6;
}

double stage1_buffered_hashing(const trace::Trace& stream) {
  // Vanilla work, but digests computed once per packet and reused across
  // rows/levels (the AVX-friendly batching of Idea D).
  sketch::UnivMon um(paper_univmon(), 7);
  WallTimer timer;
  for (const auto& p : stream) {
    um.add_total(1);
    const std::uint64_t digest = flow_digest(p.key);
    for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
      if (!um.level_passes(j, p.key)) break;
      auto& m = um.level_sketch_mut(j).matrix();
      for (std::uint32_t r = 0; r < m.depth(); ++r) m.update_row_digest(r, digest, 1);
      um.offer_to_heap(j, p.key);
    }
  }
  return static_cast<double>(stream.size()) / timer.seconds() / 1e6;
}

double stage2_row_sampling_coin_flips(const trace::Trace& stream, double p) {
  // Counter-array sampling with a *per-row coin flip* (Idea A without B).
  sketch::UnivMon um(paper_univmon(), 7);
  Pcg32 rng(99);
  const auto inc = static_cast<std::int64_t>(1.0 / p + 0.5);
  WallTimer timer;
  for (const auto& pkt : stream) {
    um.add_total(1);
    for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
      bool touched = false;
      auto& m = um.level_sketch_mut(j).matrix();
      for (std::uint32_t r = 0; r < m.depth(); ++r) {
        if (rng.next_double() >= p) continue;  // one PRNG draw per row!
        if (!touched && !um.level_passes(j, pkt.key)) goto next_packet;
        touched = true;
        m.update_row_digest(r, flow_digest(pkt.key), inc);
      }
      if (!touched && !um.level_passes(j, pkt.key)) break;
      if (touched) um.offer_to_heap(j, pkt.key);
    }
  next_packet:;
  }
  return static_cast<double>(stream.size()) / timer.seconds() / 1e6;
}

double stage3_geometric(const trace::Trace& stream, double p) {
  // Full Nitro sampling (geometric), but the heap still refreshed per
  // sampled *level* (not yet reduced).
  core::NitroConfig cfg = nitro_fixed(p);
  cfg.track_top_keys = true;
  core::NitroUnivMon nu(paper_univmon(), cfg, 7);
  WallTimer timer;
  for (const auto& pkt : stream) nu.update(pkt.key);
  return static_cast<double>(stream.size()) / timer.seconds() / 1e6;
}

double stage4_full(const trace::Trace& stream, double p) {
  core::NitroConfig cfg = nitro_fixed(p);
  cfg.track_top_keys = false;  // heap ops fully amortized away
  core::NitroUnivMon nu(paper_univmon(), cfg, 7);
  WallTimer timer;
  for (const auto& pkt : stream) nu.update(pkt.key);
  return static_cast<double>(stream.size()) / timer.seconds() / 1e6;
}

}  // namespace

int main() {
  trace::WorkloadSpec spec;
  spec.packets = kPackets;
  spec.flows = 200'000;
  spec.seed = 9;
  const auto stream = trace::caida_like(spec);

  banner("Figure 9a", "Throughput vs memory for UnivMon+Nitro, error targets 3%/5%");
  note("w = 8*eps^-2/p per CS row: a memory budget buys a sampling rate");
  std::printf("\n  %-12s %10s %14s %10s %14s\n", "top width", "MB", "p(eps=5%)",
              "Mpps", "p(eps=3%) Mpps");
  for (std::uint32_t top_width : {4000u, 10000u, 25000u, 60000u, 150000u}) {
    const double mb = univmon_mb(top_width);
    // Solve p from w = 8 eps^-2 p^-1 for the level-0 width.
    auto p_for = [&](double eps) {
      double p = 8.0 / (eps * eps * static_cast<double>(top_width));
      return std::min(1.0, std::max(p, 1.0 / 1024.0));
    };
    const double p5 = p_for(0.05);
    const double p3 = p_for(0.03);
    const double mpps5 = univmon_nitro_mpps(univmon_sized(top_width), p5, stream);
    const double mpps3 = univmon_nitro_mpps(univmon_sized(top_width), p3, stream);
    std::printf("  %-12u %10.2f %14.4f %10.2f %8.4f %5.2f\n", top_width, mb, p5,
                mpps5, p3, mpps3);
  }

  banner("Figure 9b", "Throughput as NitroSketch components are applied (p=0.01)");
  std::printf("\n  %-42s %10s\n", "configuration", "Mpps");
  std::printf("  %-42s %10.2f\n", "UnivMon (vanilla)", stage0_vanilla(stream));
  std::printf("  %-42s %10.2f\n", "+ batched hashing",
              stage1_buffered_hashing(stream));
  std::printf("  %-42s %10.2f\n", "+ counter-array sampling (per-row coins)",
              stage2_row_sampling_coin_flips(stream, 0.01));
  std::printf("  %-42s %10.2f\n", "+ batched geometric sampling",
              stage3_geometric(stream, 0.01));
  std::printf("  %-42s %10.2f\n", "+ reduced heap updates (full NitroSketch)",
              stage4_full(stream, 0.01));
  return 0;
}
