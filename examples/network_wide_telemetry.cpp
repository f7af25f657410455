// Network-wide telemetry: several software switches, one collector.
//
// Three simulated switches each run a NitroSketch-UnivMon data plane over
// their own traffic slice.  At the epoch boundary each serializes its
// sketch (the §6 data-plane -> control-plane transfer) and the collector
// merges the snapshots into a network-wide view — possible because all
// data planes share the same sketch configuration and hash seeds
// (the standard mergeability requirement).  The collector then reports
// network-wide heavy hitters that NO single switch could see locally.
//
//   ./examples/network_wide_telemetry
#include <cstdio>
#include <vector>

#include "control/codec.hpp"
#include "control/estimation.hpp"
#include "core/nitro_univmon.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

int main() {
  using namespace nitro;

  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 14;
  um_cfg.depth = 5;
  um_cfg.top_width = 8192;
  um_cfg.heap_capacity = 500;

  core::NitroConfig nitro_cfg;
  nitro_cfg.mode = core::Mode::kFixedRate;
  nitro_cfg.probability = 0.05;

  constexpr std::uint64_t kSharedSeed = 0x5eedULL;  // same hashes everywhere
  constexpr int kSwitches = 3;
  constexpr std::uint64_t kPacketsPerSwitch = 400'000;

  // A flow that is mid-sized at each switch but heavy network-wide:
  // 0.04% per switch (below the 0.05% reporting threshold), 0.12% total.
  const FlowKey distributed = trace::flow_key_for_rank(424242, 0xd15cULL);

  std::vector<core::NitroUnivMon> dataplanes;
  trace::GroundTruth truth;
  for (int s = 0; s < kSwitches; ++s) {
    dataplanes.emplace_back(um_cfg, nitro_cfg, kSharedSeed);
  }

  std::printf("simulating %d switches x %llu packets...\n", kSwitches,
              static_cast<unsigned long long>(kPacketsPerSwitch));
  for (int s = 0; s < kSwitches; ++s) {
    trace::WorkloadSpec spec;
    spec.packets = kPacketsPerSwitch;
    spec.flows = 30'000;
    spec.seed = 100 + s;  // different traffic mix per switch
    const auto stream = trace::caida_like(spec);
    for (const auto& p : stream) {
      dataplanes[s].update(p.key);
      truth.add(p.key, 1);
    }
    const auto spread = static_cast<std::int64_t>(0.0004 * kPacketsPerSwitch);
    for (std::int64_t i = 0; i < spread; ++i) {
      dataplanes[s].update(distributed);
      truth.add(distributed, 1);
    }
  }

  // Epoch boundary: pull snapshots over the (simulated) control channel.
  sketch::UnivMon network_view(um_cfg, kSharedSeed);
  std::size_t wire_bytes = 0;
  for (int s = 0; s < kSwitches; ++s) {
    const auto snapshot = control::snapshot_univmon(dataplanes[s].univmon());
    wire_bytes += snapshot.size();
    sketch::UnivMon replica(um_cfg, kSharedSeed);
    control::load_univmon(snapshot, replica);
    network_view.merge(replica);
  }
  std::printf("collected %zu KB of snapshots from %d switches\n", wire_bytes / 1024,
              kSwitches);

  // Per-switch view: the distributed flow is under threshold everywhere.
  const auto threshold =
      static_cast<std::int64_t>(0.0005 * kSwitches * kPacketsPerSwitch);
  for (int s = 0; s < kSwitches; ++s) {
    std::printf("switch %d local estimate of the distributed flow: %lld"
                " (network threshold %lld)\n",
                s, static_cast<long long>(dataplanes[s].query(distributed)),
                static_cast<long long>(threshold));
  }

  // Network-wide view: it crosses the threshold.
  const auto est = network_view.query(distributed);
  std::printf("\nnetwork-wide estimate: %lld (true %lld) -> %s\n",
              static_cast<long long>(est),
              static_cast<long long>(truth.count(distributed)),
              est >= threshold ? "HEAVY HITTER" : "missed");

  const auto hh = control::heavy_hitters(network_view, 0.0005);
  std::printf("network-wide heavy hitters above 0.05%%: %zu flows\n", hh.size());
  bool found = false;
  for (const auto& h : hh) {
    if (h.key == distributed) found = true;
  }
  std::printf("distributed flow present in the merged report: %s\n",
              found ? "yes" : "no");
  return found ? 0 : 1;
}
