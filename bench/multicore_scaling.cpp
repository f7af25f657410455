// Multi-core scaling of the sharded data plane (ROADMAP north star;
// paper §6 runs one sketch instance per forwarding thread and merges at
// query time).
//
// Series 1 — aggregate Mpps vs worker count on the Zipf (caida-like)
// trace, vanilla CountMin per shard (the regime where per-packet sketch
// work dominates and sharding pays): a single dispatcher thread fans the
// trace out by flow hash through the per-worker SPSC rings.
//
// Series 2 — merged-view fidelity: for CM, CS and K-ary, a 4-shard run's
// ShardGroup::merge_into view is compared against a single-instance
// NitroSketch fed the identical packets.  Vanilla mode must match
// *exactly* (same hash functions, disjoint flow partitions, additive
// merge); sampled mode must agree with ground truth within the
// configured ε.
//
// Monitor row (reported-only) — the path nitro_monitor --workers ships:
// NitroUnivMon shards at its default fixed rate p = 0.01, fed by
// rx-burst dispatch, timed through drain and the epoch merge.
//
// Gate: one dispatcher + w workers need w + 1 hardware threads.  The
// gated point is the larger of 2 and 4 workers that fits, and it must
// deliver >= 0.75·w the 1-worker aggregate Mpps (3x at 4 workers, 1.5x
// at 2).  Below 3 hardware threads the ratio measures the scheduler, not
// the data plane, so the gate is skipped.  The fidelity checks always
// gate.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/nitro_univmon.hpp"
#include "shard/shard_group.hpp"
#include "support/nitro_shards.hpp"
#include "trace/ground_truth.hpp"

using namespace nitro;
using namespace nitro::bench;
using nitro::testing::merged_view;
using nitro::testing::nitro_shards;

namespace {

constexpr std::uint64_t kPackets = 1'000'000;
constexpr std::uint64_t kFlows = 50'000;
constexpr double kRequiredSpeedupPerWorker = 0.75;
constexpr std::size_t kBurst = 32;  // nitro_monitor's ingest burst

trace::Trace zipf_trace() {
  trace::WorkloadSpec spec;
  spec.packets = kPackets;
  spec.flows = kFlows;
  spec.seed = 2024;
  spec.zipf_s = 1.0;
  return trace::caida_like(spec);
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.track_top_keys = true;
  cfg.top_keys = 512;
  return cfg;
}

/// One dispatcher thread replays the trace through update(); time covers
/// dispatch through drain (every packet applied).
template <typename Sharded>
double sharded_mpps(const trace::Trace& stream, Sharded& sharded) {
  WallTimer timer;
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  sharded.drain();
  const double secs = timer.seconds();
  return static_cast<double>(stream.size()) / secs / 1e6;
}

double run_scaling_point(const trace::Trace& stream, std::uint32_t workers) {
  auto sharded = nitro_shards(
      workers, [] { return sketch::CountMinSketch(5, 10000, 42); }, vanilla_cfg());
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) best = std::max(best, sharded_mpps(stream, sharded));
  return best;
}

/// Mpps of the monitor's sharded path: NitroUnivMon shards at the
/// monitor's default config, rx bursts dispatched, then drain and
/// merge_into the daemon-side aggregate (best of 3 epochs).
double monitor_config_mpps(const trace::Trace& stream, std::uint32_t workers) {
  const sketch::UnivMonConfig um_cfg;  // nitro_monitor's geometry
  const core::NitroConfig cfg{.probability = 0.01};
  constexpr std::uint64_t kUmSeed = 1;  // --seed default
  shard::ShardGroup<core::NitroUnivMon> group(workers, [&](std::uint32_t i) {
    core::NitroConfig shard_cfg = cfg;
    shard_cfg.seed = shard::shard_sampler_seed(cfg.seed, i);
    return core::NitroUnivMon(um_cfg, shard_cfg, kUmSeed);
  });
  core::NitroUnivMon aggregate(um_cfg, cfg, kUmSeed);
  std::vector<FlowKey> keys;
  keys.reserve(stream.size());
  for (const auto& p : stream) keys.push_back(p.key);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    for (std::size_t i = 0; i < keys.size(); i += kBurst) {
      const std::size_t n = std::min(kBurst, keys.size() - i);
      group.update_burst(std::span<const FlowKey>(keys.data() + i, n), 1,
                         stream[i].ts_ns);
    }
    group.drain();
    group.merge_into(aggregate);
    best = std::max(best, static_cast<double>(stream.size()) / timer.seconds() / 1e6);
    aggregate.clear();
  }
  return best;
}

/// Merged 4-shard vanilla run must equal the single-instance run exactly.
template <typename Base, typename MakeBase>
bool check_exact_vanilla(const trace::Trace& stream, MakeBase make_base,
                         const char* name) {
  auto sharded = nitro_shards(4, make_base, vanilla_cfg());
  core::NitroSketch<Base> single(make_base(), vanilla_cfg());
  for (const auto& p : stream) {
    sharded.update(p.key, 1, p.ts_ns);
    single.update(p.key, 1, p.ts_ns);
  }
  const auto snap = merged_view(sharded, make_base, vanilla_cfg());
  trace::GroundTruth truth(stream);
  std::size_t mismatches = 0;
  for (const auto& [key, count] : truth.top_k(200)) {
    (void)count;
    if (snap.query(key) != single.query(key)) ++mismatches;
  }
  note("%-8s vanilla merged-vs-single on top-200 keys: %zu mismatches", name,
       mismatches);
  return mismatches == 0;
}

/// Sampled (fixed p) 4-shard merged estimates must track ground truth
/// within the sampling-noise tolerance used across the repo's accuracy
/// tests (the configured ε regime).
template <typename Base, typename MakeBase>
bool check_sampled_accuracy(const trace::Trace& stream, MakeBase make_base,
                            const char* name) {
  core::NitroConfig cfg = nitro_fixed(0.02);
  cfg.top_keys = 512;
  auto sharded = nitro_shards(4, make_base, cfg);
  for (const auto& p : stream) sharded.update(p.key, 1, p.ts_ns);
  const auto snap = merged_view(sharded, make_base, cfg);
  trace::GroundTruth truth(stream);
  std::size_t bad = 0;
  double worst = 0.0;
  for (const auto& [key, count] : truth.top_k(50)) {
    const double est = static_cast<double>(snap.query(key));
    const double err = std::abs(est - static_cast<double>(count));
    const double tol = 0.3 * static_cast<double>(count) + 200.0;
    worst = std::max(worst, err / (static_cast<double>(count) + 1.0));
    if (err > tol) ++bad;
  }
  note("%-8s sampled (p=0.02) merged vs truth on top-50: %zu out of tolerance "
       "(worst rel err %.3f)",
       name, bad, worst);
  return bad == 0;
}

}  // namespace

int main() {
  banner("multicore_scaling",
         "sharded data plane: aggregate Mpps vs workers + merged-view fidelity");
  const unsigned hw = std::thread::hardware_concurrency();
  note("hardware threads available: %u", hw);

  const auto stream = zipf_trace();
  note("trace: Zipf s=1.0, %llu packets, %llu flows",
       static_cast<unsigned long long>(kPackets),
       static_cast<unsigned long long>(kFlows));

  // One dispatcher + w workers need w + 1 hardware threads to scale.
  const std::uint32_t gate_workers = hw >= 5 ? 4 : hw >= 3 ? 2 : 0;

  std::printf("\n  %-10s %12s %10s\n", "workers", "Mpps", "speedup");
  const double base_mpps = run_scaling_point(stream, 1);
  std::printf("  %-10u %12.2f %9.2fx\n", 1u, base_mpps, 1.0);
  double gate_mpps = 0.0;
  for (std::uint32_t workers : {2u, 4u, 8u}) {
    const double mpps = run_scaling_point(stream, workers);
    if (workers == gate_workers) gate_mpps = mpps;
    std::printf("  %-10u %12.2f %9.2fx\n", workers, mpps, mpps / base_mpps);
  }

  // Reported-only: the monitor's configuration, not yet gated.
  const std::uint32_t row_workers = gate_workers == 0 ? 2 : gate_workers;
  const double um1 = monitor_config_mpps(stream, 1);
  const double umw = monitor_config_mpps(stream, row_workers);
  std::printf("\n  monitor config (NitroUnivMon, fixed p=0.01, burst dispatch + "
              "merge_into):\n  1 worker %.2f Mpps, %u workers %.2f Mpps, "
              "speedup %.2fx (reported only)\n",
              um1, row_workers, umw, umw / um1);

  bool ok = true;
  std::printf("\n");
  ok &= check_exact_vanilla<sketch::CountMinSketch>(
      stream, [] { return sketch::CountMinSketch(5, 10000, 42); }, "CM");
  ok &= check_exact_vanilla<sketch::CountSketch>(
      stream, [] { return sketch::CountSketch(5, 10000, 43); }, "CS");
  ok &= check_exact_vanilla<sketch::KArySketch>(
      stream, [] { return sketch::KArySketch(5, 10000, 44); }, "K-ary");
  ok &= check_sampled_accuracy<sketch::CountMinSketch>(
      stream, [] { return sketch::CountMinSketch(5, 10000, 42); }, "CM");
  ok &= check_sampled_accuracy<sketch::CountSketch>(
      stream, [] { return sketch::CountSketch(5, 10000, 43); }, "CS");
  ok &= check_sampled_accuracy<sketch::KArySketch>(
      stream, [] { return sketch::KArySketch(5, 10000, 44); }, "K-ary");

  if (!ok) {
    std::printf("\n  FAIL: merged shard view diverged from the single-instance run\n");
    return 1;
  }

  if (gate_workers == 0) {
    std::printf("\n  PASS (scaling gate skipped: %u hardware threads < 3; "
                "merged-view fidelity checks all passed)\n", hw);
    return 0;
  }
  const double required = kRequiredSpeedupPerWorker * gate_workers;
  const double speedup = gate_mpps / base_mpps;
  if (speedup < required) {
    std::printf("\n  FAIL: %u-worker speedup %.2fx below required %.2fx\n", gate_workers,
                speedup, required);
    return 1;
  }
  std::printf("\n  PASS: %u-worker speedup %.2fx (>= %.2fx), merged view faithful\n",
              gate_workers, speedup, required);
  return 0;
}
