// Distributed recovery end-to-end (DESIGN.md §15): three monitors stream
// epochs to one collector; each monitor is crashed a different way —
// mid-epoch, mid-checkpoint-write, and with its checkpoint directory
// wiped — and restarted through MonitorRuntime::restore (delta chain →
// rebuild-from-collector).  Afterwards the collector's merged view must
// equal a single reference instance that saw all three full streams,
// with exact per-source sequence accounting: no epoch lost, no epoch
// double-counted.
//
// Every incarnation is the MonitorRuntime nitro_monitor drives, so the
// restore ladder, checkpoint cadence and sequence seeding under test are
// the shipped ones.  Sequence mapping: epochs 0..E-1 closed means seqs
// 1..E exported, so a chain-restored monitor resumes at seq epoch()+1 and
// a collector-rebuilt one at last_seq+1.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "control/monitor_runtime.hpp"
#include "core/nitro_univmon.hpp"
#include "export/collector.hpp"
#include "fault/fault.hpp"
#include "support/monitor_config.hpp"
#include "support/temp_path.hpp"
#include "telemetry/registry.hpp"
#include "trace/workloads.hpp"

namespace nitro::xport {
namespace {

using control::MonitorRuntime;
using control::RestoreSource;

constexpr std::uint64_t kSeed = 7;
constexpr int kMonitors = 3;
constexpr int kEpochs = 4;

trace::Trace monitor_stream(int monitor) {
  trace::WorkloadSpec spec;
  spec.packets = 20'000;
  spec.flows = 800;
  spec.seed = 100 + static_cast<std::uint64_t>(monitor);
  return trace::caida_like(spec);
}

/// One monitor process incarnation, flagged like
/// `nitro_monitor --checkpoint-dir DIR --recover-from-collector --export-to EP`.
control::MonitorConfig monitor_config(int id, const std::string& dir, const Endpoint& ep) {
  auto cfg = testing::monitor_config(kSeed, ep, static_cast<std::uint64_t>(id));
  cfg.checkpoint_dir = dir;
  cfg.recover_from_collector = true;
  return cfg;
}

void feed(MonitorRuntime& rt, int monitor, int epoch) {
  testing::feed_epoch(rt.hook(), monitor_stream(monitor), epoch, kEpochs);
}

TEST(RecoveryE2e, ThreeCrashedMonitorsRebuildAndTheMergedViewStaysExact) {
  CollectorConfig ccfg;
  ccfg.um_cfg = testing::small_univmon();
  ccfg.seed = kSeed;
  CollectorCore core(ccfg);
  CollectorServer server(core, *parse_endpoint("tcp:127.0.0.1:0"));
  telemetry::Registry registry;
  server.attach_telemetry(registry, "nitro_collector");
  ASSERT_TRUE(server.start());
  const Endpoint ep = server.endpoint();

  const std::string dir1 = testing::fresh_temp_dir("nitro_recovery_e2e_m1");
  const std::string dir2 = testing::fresh_temp_dir("nitro_recovery_e2e_m2");
  const std::string dir3 = testing::fresh_temp_dir("nitro_recovery_e2e_m3");

  // --- monitor 1: crash mid-epoch (inside end_epoch, after the epoch-2
  // frame was persisted but before epoch 2 was closed or exported) -------
  {
    fault::Schedule plan;
    plan.crash_daemon_epoch(/*at_hit=*/3);  // the 3rd end_epoch dies
    fault::ScopedFaultInjection scoped(plan);
    MonitorRuntime rt(monitor_config(1, dir1, ep));
    ASSERT_EQ(rt.restore().source, RestoreSource::kNone);
    feed(rt, 1, 0);
    (void)rt.close_epoch();  // -> seq 1
    feed(rt, 1, 1);
    (void)rt.close_epoch();  // -> seq 2
    feed(rt, 1, 2);
    EXPECT_THROW((void)rt.close_epoch(), control::DaemonCrash);
    EXPECT_EQ(plan.fired(fault::Site::kDaemonEpoch), 1u);
    // seqs 1..2 settle before the "process" disappears
    EXPECT_EQ(testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }
  {
    MonitorRuntime rt(monitor_config(1, dir1, ep));
    const auto restored = rt.restore();
    ASSERT_EQ(restored.source, RestoreSource::kChain);
    EXPECT_EQ(restored.frames_rejected, 0u);
    ASSERT_EQ(rt.daemon().epoch(), 2u);  // epoch-2 packets are in the sketch
    (void)rt.close_epoch();  // re-close epoch 2 -> seq 3, fresh
    feed(rt, 1, 3);
    (void)rt.close_epoch();  // -> seq 4
    EXPECT_EQ(testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }

  // --- monitor 2: crash mid-checkpoint (the epoch-2 delta frame is torn
  // on disk and the process dies right after; restart falls back to the
  // epoch-1 prefix of the chain and re-delivers seq 2, which the
  // collector drops as a duplicate) --------------------------------------
  {
    fault::Schedule plan;
    plan.torn_checkpoint_write(/*at_hit=*/3, /*keep_bytes=*/20);
    plan.crash_daemon_epoch(/*at_hit=*/3);
    fault::ScopedFaultInjection scoped(plan);
    MonitorRuntime rt(monitor_config(2, dir2, ep));
    ASSERT_EQ(rt.restore().source, RestoreSource::kNone);
    feed(rt, 2, 0);
    (void)rt.close_epoch();  // -> seq 1
    feed(rt, 2, 1);
    (void)rt.close_epoch();  // -> seq 2
    feed(rt, 2, 2);
    // The frame is torn on disk yet reported as ok — then the crash.
    EXPECT_THROW((void)rt.close_epoch(), control::DaemonCrash);
    EXPECT_EQ(plan.fired(fault::Site::kCheckpointWrite), 1u);
    EXPECT_EQ(testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }
  {
    MonitorRuntime rt(monitor_config(2, dir2, ep));
    const auto restored = rt.restore();
    ASSERT_EQ(restored.source, RestoreSource::kChain);
    EXPECT_GE(restored.frames_rejected, 1u);  // the torn epoch-2 frame was detected
    ASSERT_EQ(rt.daemon().epoch(), 1u);       // fell back to the epoch-1 frame
    (void)rt.close_epoch();  // re-close epoch 1 -> seq 2: duplicate
    feed(rt, 2, 2);          // epoch-2 packets never left the host;
    (void)rt.close_epoch();  // re-feed them so nothing is lost -> seq 3
    feed(rt, 2, 3);
    (void)rt.close_epoch();  // -> seq 4
    EXPECT_EQ(testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }

  // --- monitor 3: crash with local state wiped; rebuild from the
  // collector's replica, with the first recover request dropped ----------
  {
    MonitorRuntime rt(monitor_config(3, dir3, ep));
    ASSERT_EQ(rt.restore().source, RestoreSource::kNone);  // collector has nothing yet
    feed(rt, 3, 0);
    (void)rt.close_epoch();  // -> seq 1
    feed(rt, 3, 1);
    (void)rt.close_epoch();  // -> seq 2
    feed(rt, 3, 2);          // epoch 2 in flight when the host dies
    EXPECT_EQ(testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }
  std::filesystem::remove_all(dir3);
  {
    fault::Schedule plan;
    plan.drop_recover_request(/*at_hit=*/1, /*every=*/0, /*lane=*/3);
    fault::ScopedFaultInjection scoped(plan);
    MonitorRuntime rt(monitor_config(3, dir3, ep));
    ASSERT_EQ(rt.restore().source, RestoreSource::kCollector);
    EXPECT_GE(plan.fired(fault::Site::kRecoverServe), 1u);
    ASSERT_EQ(rt.daemon().epoch(), 2u);  // resumes at the next unapplied epoch
    feed(rt, 3, 2);                      // re-feed the lost epoch in full
    (void)rt.close_epoch();              // -> seq 3
    feed(rt, 3, 3);
    (void)rt.close_epoch();  // -> seq 4
    EXPECT_EQ(testing::checkpoint_save_failures(rt), 0u);
    ASSERT_TRUE(rt.shutdown(30'000));
  }
  EXPECT_GE(registry.counter("nitro_collector_injected_recover_drops_total").value(), 1u);
  EXPECT_GE(registry.counter("nitro_collector_recover_served_total").value(), 1u);

  // --- exact per-source sequence accounting -----------------------------
  const std::uint64_t now = 1;
  const auto sources = core.sources(now);
  ASSERT_EQ(sources.size(), static_cast<std::size_t>(kMonitors));
  for (const auto& s : sources) {
    const auto stream = monitor_stream(static_cast<int>(s.source_id));
    EXPECT_EQ(s.packets, static_cast<std::int64_t>(stream.size()))
        << "source " << s.source_id;
    EXPECT_EQ(s.epochs_applied, static_cast<std::uint64_t>(kEpochs))
        << "source " << s.source_id;
    EXPECT_EQ(s.last_seq, static_cast<std::uint64_t>(kEpochs))
        << "source " << s.source_id;
    EXPECT_EQ(s.gap_epochs, 0u) << "source " << s.source_id;
    EXPECT_EQ(s.overlap_dropped, 0u) << "source " << s.source_id;
    // Monitor 2's fallback re-delivered seq 2; the others rejoined
    // exactly at their next sequence number.
    EXPECT_EQ(s.duplicates, s.source_id == 2 ? 1u : 0u)
        << "source " << s.source_id;
  }
  EXPECT_EQ(core.epochs_applied(), static_cast<std::uint64_t>(kMonitors * kEpochs));

  // --- the merged view equals the single-instance reference -------------
  // Same update path, same config, same seed, vanilla counters: every
  // counter must match exactly despite three crashes and three rebuilds —
  // which keeps the merged estimates inside the paper's Theorem-1 bound,
  // since they are bit-identical to the crash-free reference's.
  core::NitroUnivMon reference(testing::small_univmon(), testing::vanilla_nitro(), kSeed);
  for (int m = 1; m <= kMonitors; ++m) {
    for (const auto& p : monitor_stream(m)) reference.update(p.key);
  }
  const sketch::UnivMon merged = core.merged_view(now);
  EXPECT_EQ(merged.total(), reference.univmon().total());
  std::int64_t total_packets = 0;
  for (const auto& s : sources) total_packets += s.packets;
  EXPECT_EQ(core.merged_packets(now), total_packets);
  for (int m = 1; m <= kMonitors; ++m) {
    int checked = 0;
    for (const auto& p : monitor_stream(m)) {
      EXPECT_EQ(merged.query(p.key), reference.univmon().query(p.key));
      if (++checked >= 500) break;
    }
  }
  const std::int64_t threshold = merged.total() / 200;
  const auto got_hh = merged.heavy_hitters(threshold);
  ASSERT_FALSE(got_hh.empty());
  for (const auto& g : got_hh) {
    EXPECT_EQ(g.estimate, reference.univmon().query(g.key));
  }

  server.stop();
  for (const auto& dir : {dir1, dir2, dir3}) std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nitro::xport
