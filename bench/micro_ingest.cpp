// Zero-copy ingest gate (ROADMAP item 1; DESIGN.md §14).
//
// Measures the full receive path the ingest layer replaced: the baseline
// is what `nitro_monitor` ran before `--ingest` existed — the whole trace
// materialized as RawPacket copies, then pushed through the switch
// substrate with per-packet handoff (burst_size 1: a miniflow extract, an
// EMC/classifier lookup, and a per-packet sketch update for every frame).
// The contender is the mmap'd pcap replay backend feeding the
// run-to-completion loop: frames parsed in place from the mapping, no
// materialization, updates batched through update_burst's
// digest-vectorized fast path.  Both paths count every packet into an
// identical NitroSketch — the bench asserts the resulting counter state
// matches before trusting any throughput number.
//
// Methodology matches the span-overhead and collector-query gates: the
// two blocks run back-to-back within each rep with alternating order (so
// boost/warmup bias cancels) and the gate takes the BEST pair — ambient
// interference only ever slows a block down, so the cleanest pair is the
// best estimate of the true ratio.  RUN_SERIAL in ctest for the same
// reason.
//
// A second sub-gate covers the x16/AVX-512 digest kernel: on machines
// where the kernel is compiled in AND the CPU reports avx512f+avx512dq,
// the x16 batch digest must beat the scalar digest loop; anywhere else
// the sub-gate SKIPs (never fails — absence of hardware is not a
// regression).
//
// `--quick` shrinks the workload for the `ctest -L ingest` run.
#include "bench_common.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/simd_hash.hpp"
#include "core/nitro_sketch.hpp"
#include "ingest/frame.hpp"
#include "ingest/ingest_loop.hpp"
#include "ingest/mmap_replay.hpp"
#include "ingest/pcap.hpp"
#include "sketch/count_min.hpp"
#include "switchsim/ovs_pipeline.hpp"

using namespace nitro;
using namespace nitro::bench;

namespace {

constexpr double kSpeedupGate = 1.5;   // mmap+burst vs per-packet copy
constexpr double kDigestGate = 1.0;    // x16 kernel vs scalar digest loop

std::size_t g_packets = 2'000'000;
int g_pairs = 5;

using Nitro = core::NitroSketch<sketch::CountMinSketch>;

Nitro make_nitro(std::uint32_t prefetch_window) {
  core::NitroConfig cfg = nitro_fixed(0.05);
  cfg.prefetch_window = prefetch_window;
  return Nitro(sketch::CountMinSketch(5, 4096, 31), cfg);
}

/// Per-packet copy path: what `nitro_monitor` ran before `--ingest` — the
/// whole trace materialized as RawPacket copies and pushed through the
/// switch substrate with per-packet handoff (burst_size 1: one
/// miniflow-extract, EMC/classifier lookup, and per-packet sketch update
/// each).  This is the receive loop the zero-copy backends replace, so it
/// is the denominator of the gate.
double run_copy_block(const std::vector<switchsim::RawPacket>& raws,
                      Nitro& nitro) {
  switchsim::InlineMeasurement<Nitro> meas(nitro);
  switchsim::OvsPipeline pipe(meas, /*emc_entries=*/8192, /*burst_size=*/1);
  WallTimer timer;
  const auto stats = pipe.run(raws);  // calls meas.finish() itself
  nitro.flush();
  const double secs = timer.seconds();
  if (stats.drops != 0) {
    std::printf("  FAIL: pipeline dropped %llu packets of a clean trace\n",
                static_cast<unsigned long long>(stats.drops));
    std::exit(1);
  }
  return static_cast<double>(raws.size()) / secs / 1e6;
}

/// Zero-copy path: mmap'd pcap replay through the run-to-completion loop.
/// Frames are parsed in place from the mapping; updates reach the sketch
/// through update_burst.  The backend's preferred prefetch distance is
/// applied exactly as nitro_monitor applies it.
double run_mmap_block(const std::string& pcap_path, Nitro& nitro) {
  ingest::MmapReplayBackend backend(pcap_path);
  switchsim::InlineMeasurement<Nitro> meas(nitro);
  ingest::IngestLoop loop(backend, meas);
  WallTimer timer;
  const std::uint64_t n = loop.run();
  meas.finish();
  nitro.flush();
  const double secs = timer.seconds();
  if (backend.parse_errors() != 0) {
    std::printf("  FAIL: %llu parse errors replaying the capture\n",
                static_cast<unsigned long long>(backend.parse_errors()));
    std::exit(1);
  }
  return static_cast<double>(n) / secs / 1e6;
}

void expect_identical_state(const Nitro& a, const Nitro& b) {
  bool same = a.packets() == b.packets() &&
              a.sampled_updates() == b.sampled_updates();
  const auto& ma = a.base().matrix();
  const auto& mb = b.base().matrix();
  for (std::uint32_t r = 0; same && r < ma.depth(); ++r) {
    const auto ra = ma.row(r);
    const auto rb = mb.row(r);
    same = ra.size() == rb.size() &&
           std::equal(ra.begin(), ra.end(), rb.begin());
  }
  if (!same) {
    std::printf("  FAIL: copy and mmap paths disagree on sketch state — "
                "throughput numbers are meaningless\n");
    std::exit(1);
  }
}

/// x16 batch digest vs the scalar digest loop over the same keys.
struct DigestResult {
  double scalar_mkps = 0.0;
  double x16_mkps = 0.0;
};

DigestResult run_digest_block(const std::vector<FlowKey>& keys, int rounds) {
  DigestResult res;
  std::uint64_t sink = 0;
  {
    WallTimer timer;
    for (int rep = 0; rep < rounds; ++rep) {
      for (const auto& k : keys) sink ^= flow_digest(k);
    }
    res.scalar_mkps = static_cast<double>(keys.size()) * rounds /
                      timer.seconds() / 1e6;
  }
  {
    std::uint64_t out[16];
    WallTimer timer;
    for (int rep = 0; rep < rounds; ++rep) {
      for (std::size_t i = 0; i + 16 <= keys.size(); i += 16) {
        flow_digest_x16(&keys[i], out);
        sink ^= out[0] ^ out[15];
      }
    }
    res.x16_mkps = static_cast<double>(keys.size() / 16 * 16) * rounds /
                   timer.seconds() / 1e6;
  }
  if (sink == 0xdeadbeef) std::printf(" ");  // keep the loops alive
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_packets = 400'000;
      g_pairs = 3;
    }
  }

  banner("micro_ingest",
         "zero-copy mmap replay + run-to-completion loop vs per-packet copy");
  note("%zu packets, %d interleaved pairs, gate: best pair >= %.1fx",
       g_packets, g_pairs, kSpeedupGate);
  note("digest kernel tier: %s (batch width %zu)", simd_isa_name(),
       simd_digest_batch());

  trace::WorkloadSpec spec;
  spec.packets = g_packets;
  spec.flows = 20'000;
  spec.seed = 42;
  const auto stream = trace::caida_like(spec);
  const auto raws = switchsim::materialize(stream);
  const auto pcap_path =
      (std::filesystem::temp_directory_path() / "nitro_micro_ingest.pcap")
          .string();
  ingest::write_pcap(pcap_path, stream);

  // Correctness first: both paths must land identical sketch state.
  const std::uint32_t window =
      ingest::MmapReplayBackend(pcap_path).preferred_prefetch_window();
  {
    Nitro copy_sketch = make_nitro(0);
    Nitro mmap_sketch = make_nitro(window);
    (void)run_copy_block(raws, copy_sketch);
    (void)run_mmap_block(pcap_path, mmap_sketch);
    expect_identical_state(copy_sketch, mmap_sketch);
  }

  double copy_best = 0.0, mmap_best = 0.0;
  double best_ratio = 0.0;
  paired_interleaved(
      g_pairs,
      [&] {
        Nitro sketch = make_nitro(0);
        return run_copy_block(raws, sketch);
      },
      [&] {
        Nitro sketch = make_nitro(window);
        return run_mmap_block(pcap_path, sketch);
      },
      [&](double copy_mpps, double mmap_mpps) {
        copy_best = std::max(copy_best, copy_mpps);
        mmap_best = std::max(mmap_best, mmap_mpps);
        best_ratio = std::max(best_ratio, mmap_mpps / copy_mpps);
      });

  std::printf("\n  %-36s %10s\n", "path", "Mpps");
  std::printf("  %-36s %10.2f\n", "per-packet copy (baseline)", copy_best);
  std::printf("  %-36s %10.2f   (best pair %.2fx)\n",
              "mmap pcap + run-to-completion", mmap_best, best_ratio);

  // --- x16 digest kernel sub-gate (skip-not-fail) ------------------------
  std::vector<FlowKey> keys;
  keys.reserve(4096);
  for (int i = 0; i < 4096; ++i)
    keys.push_back(trace::flow_key_for_rank(i % 1024, 3));
  const int digest_rounds = g_packets >= 1'000'000 ? 2000 : 500;
  const bool avx512_active = simd_isa() == SimdIsa::kAvx512;
  DigestResult digest;
  if (avx512_active) {
    digest = run_digest_block(keys, digest_rounds);
    std::printf("  %-36s %10.1f   Mkeys/s\n", "scalar flow_digest", digest.scalar_mkps);
    std::printf("  %-36s %10.1f   Mkeys/s (%.2fx)\n", "x16 avx512 digest",
                digest.x16_mkps, digest.x16_mkps / digest.scalar_mkps);
  }

  // JSON sidecar for the experiment scripts.
  telemetry::Registry registry;
  registry.gauge("ingest_copy_path_mpps").set(copy_best);
  registry.gauge("ingest_mmap_burst_mpps").set(mmap_best);
  registry.gauge("ingest_best_pair_speedup").set(best_ratio);
  registry.gauge("ingest_digest_scalar_mkps").set(digest.scalar_mkps);
  registry.gauge("ingest_digest_x16_mkps").set(digest.x16_mkps);
  write_telemetry_sidecar(registry, "micro_ingest",
                          "\n  \"backend\": \"pcap\",");

  bool ok = true;
  if (best_ratio < kSpeedupGate) {
    std::printf("\n  FAIL: mmap+burst path %.2fx the copy path (< %.1fx gate)\n",
                best_ratio, kSpeedupGate);
    ok = false;
  } else {
    std::printf("\n  PASS: mmap+burst path %.2fx the copy path (>= %.1fx gate)\n",
                best_ratio, kSpeedupGate);
  }
  if (!avx512_active) {
    std::printf("  SKIP: x16/AVX-512 digest sub-gate (%s; running at %s)\n",
                detail::avx512_kernel_compiled()
                    ? "CPU lacks avx512f/avx512dq"
                    : "kernel not compiled into this build",
                simd_isa_name());
  } else if (digest.x16_mkps < kDigestGate * digest.scalar_mkps) {
    std::printf("  FAIL: x16 digest %.1f Mkeys/s vs scalar %.1f (gate %.1fx)\n",
                digest.x16_mkps, digest.scalar_mkps, kDigestGate);
    ok = false;
  } else {
    std::printf("  PASS: x16 digest %.2fx the scalar loop (>= %.1fx gate)\n",
                digest.x16_mkps / digest.scalar_mkps, kDigestGate);
  }
  std::filesystem::remove(pcap_path);
  return ok ? 0 : 1;
}
