// The monitor as one component (DESIGN.md §15): a data plane fed through
// one Measurement hook, and a control plane that closes epochs — drain,
// shard merge, checkpoint frame, end_epoch, export.
//
// nitro_monitor is a thin driver around it (flags -> MonitorConfig, an
// IngestLoop over hook(), report printing), and the e2e tests construct
// the same object, so the restore ladder, the checkpoint cadence and the
// export wiring under test are the ones that ship.
//
// Lifecycle:
//
//   MonitorRuntime rt(cfg);     // daemon, checkpoint store, exporter, hook
//   rt.restore();               // chain, then collector; starts the exporter
//   loop { feed rt.hook(); rt.close_epoch(); }
//   rt.shutdown(flush_ms);
//
// Lives outside nitro_control because it links nitro_export, which
// already depends on nitro_control.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "control/checkpoint.hpp"
#include "control/daemon.hpp"
#include "core/nitro_config.hpp"
#include "core/nitro_univmon.hpp"
#include "export/exporter.hpp"
#include "shard/admission.hpp"
#include "shard/shard_group.hpp"
#include "sketch/univmon.hpp"
#include "switchsim/measurement.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/telemetry.hpp"

namespace nitro::control {

/// One field per nitro_monitor flag that shapes the runtime.  Where a flag
/// sets a field of a library config, that config is the field; its other
/// members keep their defaults, which are the tool's (tests shrink the
/// sketch geometry and the exporter timeouts through them).
struct MonitorConfig {
  sketch::UnivMonConfig univmon;              // --heap-margin
  core::NitroConfig nitro{.probability = 0.01};  // --mode, --p
  MeasurementDaemon::Tasks tasks;             // --hh-threshold, --collision-alarm,
                                              // --eviction-alarm
  std::uint64_t seed = 1;                     // --seed
  std::uint32_t workers = 1;                  // --workers (>= 2: sharded)
  shard::ValveOptions valve;                  // --valve, --valve-threshold
  std::size_t accuracy_sample = 0;            // --accuracy-sample (0 = off)
  std::string checkpoint_dir;                 // --checkpoint-dir (empty = off)
  bool recover_from_collector = false;        // --recover-from-collector
  std::optional<xport::ExporterConfig> exporter;  // --export-to, --source-id
  std::uint64_t master_key = 0;               // --master-key
  std::uint64_t rotate_epochs = 0;            // --rotate-epochs (0 = off)
};

/// What seeded the daemon.  The values are the nitro_checkpoint_restore_source
/// gauge's codes (1 and 2 belonged to the retired two-generation store).
enum class RestoreSource : int { kNone = 0, kChain = 3, kCollector = 4 };

struct Restored {
  RestoreSource source = RestoreSource::kNone;
  std::uint64_t frames_rejected = 0;  // torn/corrupt chain frames skipped
};

class MonitorRuntime {
 public:
  /// Throws std::invalid_argument for an option combination that cannot
  /// work, std::runtime_error when the checkpoint directory is unusable.
  explicit MonitorRuntime(MonitorConfig cfg);

  MonitorRuntime(const MonitorRuntime&) = delete;
  MonitorRuntime& operator=(const MonitorRuntime&) = delete;

  /// Restore ladder: the delta-checkpoint chain (newest valid full base +
  /// contiguous deltas), then — with recover_from_collector — the
  /// collector's replica.  Seeds the exporter's next sequence number to
  /// match and starts it.  Call once, before the first packet.
  Restored restore();

  /// Where packets enter: the daemon inline, or the shard dispatcher.
  switchsim::Measurement& hook() noexcept { return *hook_; }

  /// Drain the hook, merge the live shards (quarantined ones are skipped),
  /// persist a checkpoint frame (a full base every 4th frame), then
  /// end_epoch, which exports; its accuracy verdict sees the shards' worst
  /// degrade level.  DaemonCrash from an injected fault propagates after
  /// the frame is on disk.
  EpochReport close_epoch();

  /// Flush the exporter for up to `flush_ms`, then stop it and the shard
  /// workers.  Returns false when epochs were left undelivered.
  bool shutdown(int flush_ms);

  MeasurementDaemon& daemon() noexcept { return daemon_; }
  telemetry::Registry& registry() noexcept { return registry_; }

 private:
  /// Sketch-shaped adapter so InlineMeasurement can drive the daemon.
  struct DaemonSketchAdapter {
    MeasurementDaemon* daemon;
    void update(const FlowKey& key, std::int64_t /*count*/, std::uint64_t ts_ns) {
      daemon->on_packet(key, ts_ns);
    }
    // InlineMeasurement detects this and routes whole bursts to
    // NitroUnivMon::update_burst.
    void update_burst(std::span<const FlowKey> keys, std::uint64_t ts_ns) {
      daemon->on_burst(keys, ts_ns);
    }
  };

  void restore_from_chain(Restored& out);
  void restore_from_collector(Restored& out, std::uint64_t& settled_seq);

  MonitorConfig cfg_;
  telemetry::Registry registry_;  // outlives everything that attaches to it
  MeasurementDaemon daemon_;
  std::unique_ptr<telemetry::AccuracyObserver> accuracy_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<xport::EpochExporter> exporter_;
  DaemonSketchAdapter adapter_{&daemon_};
  std::unique_ptr<shard::ShardGroup<core::NitroUnivMon>> group_;
  std::unique_ptr<switchsim::Measurement> hook_;
  telemetry::Counter* restore_failures_ = nullptr;
  std::uint64_t frames_since_full_ = 0;  // frames since the last full base
};

}  // namespace nitro::control
