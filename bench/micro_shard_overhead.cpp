// Shard-dispatch overhead budget check (companion to
// micro_telemetry_overhead's 5% telemetry gate).
//
// Compares NitroSketch<CountMin> update throughput:
//   unsharded        — inline update() on the calling thread
//   sharded, 1 worker — the same updates routed through flow-hash
//                       dispatch + one SPSC ring to one worker thread
//
// With real parallelism the dispatch pipeline overlaps the sketch work,
// so the single-worker sharded path must stay within 10% of the inline
// path; any regression means dispatch overhead crept onto the per-packet
// path.  On a single hardware thread the two stages serialize by
// definition (the pipeline *is* the overhead), so the gate reports and
// exits 0 — the number is still printed for tracking.
#include "bench_common.hpp"

#include <algorithm>
#include <thread>

#include "support/nitro_shards.hpp"

using namespace nitro;
using namespace nitro::bench;
using nitro::testing::nitro_shards;

namespace {

constexpr std::uint64_t kPackets = 2'000'000;
constexpr int kReps = 5;
constexpr double kBudgetPercent = 10.0;

core::NitroConfig bench_cfg() {
  // Vanilla mode: the regime sharding targets (per-packet sketch work
  // dominates); heavy-key tracking on, as in the HH deployments.
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.top_keys = 512;
  return cfg;
}

sketch::CountMinSketch make_base() { return sketch::CountMinSketch(5, 10000, 7); }

}  // namespace

int main() {
  banner("micro_shard_overhead",
         "single-worker sharded dispatch vs unsharded inline NitroSketch<CountMin>");
  note("budget: sharded(1 worker) >= %.0f%% of unsharded (best of %d reps)",
       100.0 - kBudgetPercent, kReps);

  trace::WorkloadSpec spec;
  spec.packets = kPackets;
  spec.flows = 100'000;
  spec.seed = 99;
  const auto stream = trace::caida_like(spec);

  double unsharded = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    core::NitroSketch<sketch::CountMinSketch> single(make_base(), bench_cfg());
    unsharded = std::max(unsharded, mpps_of_direct_replay_ts(stream, single));
  }

  double sharded = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto s = nitro_shards(1, make_base, bench_cfg());
    WallTimer timer;
    for (const auto& p : stream) s.update(p.key, 1, p.ts_ns);
    s.drain();
    sharded = std::max(sharded,
                       static_cast<double>(stream.size()) / timer.seconds() / 1e6);
  }

  const double overhead = 100.0 * (unsharded - sharded) / unsharded;
  std::printf("\n  %-24s %10s\n", "variant", "Mpps");
  std::printf("  %-24s %10.2f\n", "unsharded inline", unsharded);
  std::printf("  %-24s %10.2f   (%.2f%% overhead)\n", "sharded, 1 worker", sharded,
              overhead);

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) {
    std::printf("\n  PASS (gate skipped: %u hardware thread(s); producer and worker "
                "cannot overlap, so the pipeline cost is expected)\n", hw);
    return 0;
  }
  if (overhead > kBudgetPercent) {
    std::printf("\n  FAIL: shard dispatch overhead %.2f%% exceeds the %.1f%% budget\n",
                overhead, kBudgetPercent);
    return 1;
  }
  std::printf("\n  PASS: shard dispatch overhead %.2f%% within the %.1f%% budget\n",
              overhead, kBudgetPercent);
  return 0;
}
