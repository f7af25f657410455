// The traced run: an in-process driver that runs nitro_monitor's epoch
// sequence (tools/nitro_monitor.cpp, --ingest pcap: with --checkpoint-dir
// and --export-to) on the same capture and sketch config, calling each
// layer's public functions and timing those calls from here.  No span is
// added inside the program.
//
// Clock reads happen per burst (the Measurement hook) or per epoch, never
// per packet.  With `traced` off the same driver runs without the
// per-burst reads, without recording published epochs and without the
// ack watcher; the wall-time difference is the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "export/wire.hpp"

namespace e2ebench {

struct DriverConfig {
  std::string capture_path;
  int epochs = 1;
  bool paced = false;
  int workers = 1;  // > 1: the --workers N sharded data plane
  bool traced = false;
  std::string checkpoint_dir;  // must not hold a chain (no restore)
};

/// Per-layer ledger of one driver run.  Totals are nanoseconds on the
/// monitor (epoch-loop) thread unless noted; per-epoch samples are one
/// value per closed epoch.
struct Ledger {
  std::uint64_t packets = 0;
  std::uint64_t epochs = 0;
  std::uint64_t marker_ns = 0;      // where nitro_monitor prints its
                                    // "exporting epochs" line
  std::uint64_t loop_start_ns = 0;
  std::uint64_t last_close_ns = 0;  // the last epoch's close stamp
  std::uint64_t loop_end_ns = 0;    // after the last end_epoch

  double ingest_self_ns = 0;   // IngestLoop::run minus the hook's on_burst
  double burst_ns = 0;         // inside on_burst: update (inline) or dispatch
  double drain_ns = 0;         // Measurement::finish (the shard barrier)
  double merge_ns = 0;         // merge_from + clear over all shards
  double ckpt_encode_ns = 0;
  double ckpt_write_ns = 0;
  double end_epoch_self_ns = 0;  // end_epoch minus the export sink
  double publish_ns = 0;         // EpochExporter::publish
  double worker_update_ns = 0;   // sharded: update_burst on the workers

  std::vector<double> drain_ms, merge_ms, end_epoch_ms, ckpt_encode_ms,
      ckpt_write_ms, ckpt_kib, snapshot_kib, publish_us, delivery_ms;
  std::uint64_t ckpt_frames = 0, ckpt_full = 0;
  std::uint64_t sampled_updates = 0;
  double imbalance = 0.0;        // max / mean shard packets
  std::uint64_t ring_drops = 0;
  std::uint64_t coalesced_epochs = 0;
  std::vector<nitro::xport::EpochMessage> published;  // traced runs only
};

struct DriverResult {
  Ledger ledger;
  std::int64_t view_packets = 0;   // final collector view
  std::uint64_t view_epochs = 0;
  std::vector<std::string> hh_flows;  // final /heavy-hitters, sorted
};

/// Run the epoch sequence once.  Throws std::runtime_error on a failed
/// checkpoint save, a quarantined shard, or export that does not drain.
DriverResult run_driver(const DriverConfig& cfg);

struct CollectorLayers {
  std::vector<double> encode_ms, frame_kib, decode_ms, apply_ms, fold_ms,
      query_ms, query_cached_us;
};

/// Re-apply recorded epoch messages to a fresh CollectorCore and time each
/// collector-side call (encode_epoch, decode_epoch, ingest, view after one
/// apply, /heavy-hitters on the new and on the unchanged generation).
CollectorLayers time_collector_layers(const std::vector<nitro::xport::EpochMessage>& msgs);

/// The "flow" strings of a /heavy-hitters JSON body, sorted.
std::vector<std::string> hh_flow_set(const std::string& body);

}  // namespace e2ebench
