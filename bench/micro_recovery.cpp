// micro_recovery — checkpoint/restore latency for the fault-tolerance
// layer (DESIGN.md §10, §15).  Reported-only: numbers land in stdout + the
// JSON sidecar for EXPERIMENTS.md; no ctest gate, since the cost is
// dominated by fsync behaviour of the host filesystem.
//
// Every row drives the path nitro_monitor ships: the daemon's payload in a
// chain frame.  Measures, for the inline daemon (UnivMon state) and the
// sharded monitor's epoch boundary (4 NitroUnivMon workers merged into the
// daemon):
//   * merge:     drain + merge_into the daemon's data plane (sharded only)
//   * serialize: building the checkpoint payload
//   * save:      CRC frame + tmp write + fsync + rename (save_frame)
//   * load:      chain scan + read + frame validation (load_chain)
//   * restore:   decoding into an identically configured daemon
#include "bench_common.hpp"

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "control/checkpoint.hpp"
#include "control/daemon.hpp"
#include "core/nitro_univmon.hpp"
#include "shard/shard_group.hpp"

namespace nitro::bench {
namespace {

constexpr int kReps = 5;

double avg_ms(double total_s) { return total_s / kReps * 1e3; }

/// Times kReps serializations, chain saves, chain loads and restores of
/// `daemon`'s full frame; prints the row and sets the `recovery_<id>_*`
/// gauges.  `extra` is printed after the row label (the sharded merge).
void chain_row(control::MeasurementDaemon& daemon, control::MeasurementDaemon& replica,
               control::CheckpointStore& store, telemetry::Registry& registry,
               const std::string& id, const char* label, const std::string& extra) {
  WallTimer t;
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < kReps; ++i) payload = daemon.checkpoint_bytes();
  const double ser_s = t.seconds();

  const std::string name = "bench_" + id;
  t.reset();
  for (int i = 0; i < kReps; ++i) store.save_frame(name, /*full=*/true, payload);
  const double save_s = t.seconds();

  t.reset();
  control::CheckpointStore::ChainRestored got;
  for (int i = 0; i < kReps; ++i) got = store.load_chain(name);
  const double load_s = t.seconds();

  t.reset();
  for (int i = 0; i < kReps; ++i) replica.restore_checkpoint(got.base);
  const double restore_s = t.seconds();

  std::printf("  %-15s payload %8.2f KiB %s serialize %7.3f ms  "
              "save %7.3f ms  load %7.3f ms  restore %7.3f ms\n",
              label, payload.size() / 1024.0, extra.c_str(), avg_ms(ser_s),
              avg_ms(save_s), avg_ms(load_s), avg_ms(restore_s));
  registry.gauge("recovery_" + id + "_payload_bytes", id + " checkpoint size")
      .set(static_cast<double>(payload.size()));
  registry.gauge("recovery_" + id + "_save_ms", "avg " + id + " checkpoint save latency")
      .set(avg_ms(save_s));
  registry.gauge("recovery_" + id + "_restore_ms", "avg " + id + " restore latency")
      .set(avg_ms(restore_s));
}

void run() {
  banner("micro_recovery", "checkpoint/restore latency (reported-only)");

  const std::string dir = "micro_recovery_ckpt";
  telemetry::Registry registry;
  control::CheckpointStore store(dir);
  store.attach_telemetry(registry, "recovery_ckpt");

  trace::WorkloadSpec spec;
  spec.packets = 500'000;
  spec.flows = 50'000;
  spec.seed = 23;
  const auto stream = trace::caida_like(spec);

  // The daemon and sharded rows share one geometry and sampler.
  const auto row_um = univmon_sized(/*top_width=*/2048, /*heap=*/256);
  core::NitroConfig row_nitro;
  row_nitro.mode = core::Mode::kFixedRate;
  row_nitro.probability = 0.1;

  // --- Measurement daemon (UnivMon) --------------------------------------
  {
    control::MeasurementDaemon daemon(row_um, row_nitro, {});
    for (const auto& p : stream) daemon.on_packet(p.key, p.ts_ns);
    control::MeasurementDaemon replica(row_um, row_nitro, {});
    chain_row(daemon, replica, store, registry, "daemon", "daemon/univmon", "");
  }

  // --- Sharded monitor (4x NitroUnivMon merged into the daemon) -----------
  {
    control::MeasurementDaemon daemon(row_um, row_nitro, {});
    shard::ShardGroup<core::NitroUnivMon> group(4, [&](std::uint32_t i) {
      core::NitroConfig shard_cfg = row_nitro;
      shard_cfg.seed = shard::shard_sampler_seed(row_nitro.seed, i);
      return core::NitroUnivMon(row_um, shard_cfg, daemon.seed_schedule().seed_for(0));
    });
    for (const auto& p : stream) group.update(p.key, 1, p.ts_ns);

    WallTimer t;
    group.drain();
    group.merge_into(daemon.data_plane_mut());
    const double merge_ms = t.seconds() * 1e3;
    group.stop();

    char extra[32];
    std::snprintf(extra, sizeof extra, " merge %7.3f ms ", merge_ms);
    control::MeasurementDaemon replica(row_um, row_nitro, {});
    chain_row(daemon, replica, store, registry, "sharded", "sharded/um x4", extra);
  }

  // --- Delta vs full checkpoint frames (DESIGN.md §15) --------------------
  // A warm, dense daemon cuts a frame, then sees a sparse epoch (few
  // flows): the delta frame must cost bytes proportional to the touched
  // counter segments (plus the heaps, replaced whole), not to the sketch size — that is the whole point of the
  // chain format.  Checked here on top of the ctest unit in
  // tests_recovery, and reported in the sidecar for EXPERIMENTS.md.
  {
    const auto um_cfg = univmon_sized(/*top_width=*/8192, /*heap=*/256);
    core::NitroConfig nitro_cfg;
    nitro_cfg.mode = core::Mode::kVanilla;
    control::MeasurementDaemon daemon(um_cfg, nitro_cfg, {});
    daemon.enable_delta_checkpoints();
    for (const auto& p : stream) daemon.on_packet(p.key, p.ts_ns);
    // Counters travel as sparse cells, so a full frame costs what the base
    // holds.  Make the base what an hour-long run at line rate leaves: no
    // counter zero, each carrying about a million packets.  The ratio then
    // compares the touched runs against a dense base.
    sketch::UnivMon& base = daemon.data_plane_mut().univmon_mut();
    for (std::uint32_t j = 0; j < base.num_levels(); ++j) {
      auto& m = base.level_sketch_mut(j).matrix();
      for (std::uint32_t r = 0; r < m.depth(); ++r) {
        for (auto& c : m.row_mut(r)) c += c < 0 ? -(1 << 20) : (1 << 20);
      }
    }
    daemon.cut_checkpoint_frame();  // the dense warm state is the delta base

    // Sparse epoch: 2k packets over 32 flows.
    trace::WorkloadSpec sparse_spec;
    sparse_spec.packets = 2'000;
    sparse_spec.flows = 32;
    sparse_spec.seed = 29;
    const auto sparse = trace::caida_like(sparse_spec);
    for (const auto& p : sparse) daemon.on_packet(p.key, p.ts_ns);

    WallTimer t;
    std::vector<std::uint8_t> full;
    for (int i = 0; i < kReps; ++i) full = daemon.checkpoint_bytes();
    const double full_ser_s = t.seconds();

    t.reset();
    std::vector<std::uint8_t> delta;
    for (int i = 0; i < kReps; ++i) delta = daemon.delta_checkpoint_bytes();
    const double delta_ser_s = t.seconds();

    t.reset();
    for (int i = 0; i < kReps; ++i) store.save_frame("bench_chain", true, full);
    const double full_save_s = t.seconds();

    t.reset();
    for (int i = 0; i < kReps; ++i) store.save_frame("bench_chain", false, delta);
    const double delta_save_s = t.seconds();

    control::MeasurementDaemon replica(um_cfg, nitro_cfg, {});
    replica.enable_delta_checkpoints();
    replica.restore_checkpoint(full);
    t.reset();
    for (int i = 0; i < kReps; ++i) replica.apply_delta_checkpoint(delta);
    const double apply_s = t.seconds();

    const double ratio = static_cast<double>(delta.size()) /
                         static_cast<double>(full.size());
    std::printf("  delta frame     payload %8.2f KiB  serialize %7.3f ms  "
                "save %7.3f ms  apply %7.3f ms\n",
                delta.size() / 1024.0, avg_ms(delta_ser_s),
                avg_ms(delta_save_s), avg_ms(apply_s));
    std::printf("  full frame      payload %8.2f KiB  serialize %7.3f ms  "
                "save %7.3f ms\n",
                full.size() / 1024.0, avg_ms(full_ser_s), avg_ms(full_save_s));
    const bool scales = delta.size() * 4 < full.size();
    std::printf("  sparse-epoch delta/full ratio %.4f — %s\n", ratio,
                scales ? "scales with touched lines (PASS)"
                       : "NOT proportional to touched lines (FAIL)");

    registry.gauge("recovery_delta_payload_bytes",
                   "sparse-epoch delta frame size").set(static_cast<double>(delta.size()));
    registry.gauge("recovery_full_payload_bytes",
                   "full frame size of the same state").set(static_cast<double>(full.size()));
    registry.gauge("recovery_delta_ratio", "delta/full byte ratio (sparse epoch)")
        .set(ratio);
    registry.gauge("recovery_delta_save_ms", "avg delta frame save latency")
        .set(avg_ms(delta_save_s));
    registry.gauge("recovery_delta_apply_ms", "avg delta frame apply latency")
        .set(avg_ms(apply_s));
    registry.gauge("recovery_delta_scales_with_touch",
                   "1 when the sparse delta is <1/4 of the full frame")
        .set(scales ? 1.0 : 0.0);
  }

  note("save includes fsync(tmp) + rename + dir fsync (durability recipe of "
       "DESIGN.md §10); load includes the chain scan and CRC validation of the "
       "frame; merge includes draining the workers' rings; delta frames "
       "encode the non-zero cells of dirty counter segments (DESIGN.md §15)");
  write_telemetry_sidecar(registry, "micro_recovery");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // bench artifacts, not checkpoints
}

}  // namespace
}  // namespace nitro::bench

int main() {
  nitro::bench::run();
  return 0;
}
