// MonitorConfig for the e2e suites: the runtime nitro_monitor ships,
// shrunk for tests — a small vanilla UnivMon (deterministic counters, so
// merged views can be compared to a reference exactly) and exporter
// timeouts short enough for loopback fault injection.
#pragma once

#include <cstdint>

#include "control/monitor_runtime.hpp"
#include "export/transport.hpp"
#include "switchsim/measurement.hpp"
#include "trace/packet_record.hpp"

namespace nitro::testing {

inline sketch::UnivMonConfig small_univmon() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 6;
  cfg.depth = 3;
  cfg.top_width = 512;
  cfg.min_width = 128;
  cfg.heap_capacity = 128;
  return cfg;
}

inline core::NitroConfig vanilla_nitro() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  return cfg;
}

/// A monitor exporting to `collector` as `source_id`.
inline control::MonitorConfig monitor_config(std::uint64_t seed,
                                             const xport::Endpoint& collector,
                                             std::uint64_t source_id) {
  control::MonitorConfig cfg;
  cfg.univmon = small_univmon();
  cfg.nitro = vanilla_nitro();
  cfg.seed = seed;
  auto& ecfg = cfg.exporter.emplace();
  ecfg.endpoint = collector;
  ecfg.source_id = source_id;
  ecfg.connect_timeout_ms = 500;
  ecfg.ack_timeout_ms = 1500;
  ecfg.backoff_base_ns = 500'000;
  ecfg.backoff_max_ns = 10'000'000;
  return cfg;
}

/// Checkpoint frames `rt` failed to write.  close_epoch logs a failed
/// save and carries on, as nitro_monitor does, so tests read the count.
inline std::uint64_t checkpoint_save_failures(control::MonitorRuntime& rt) {
  return rt.registry().counter("nitro_checkpoint_save_failures_total").value();
}

/// Feed epoch `e` of `stream` split `epochs` ways (the last slice takes
/// the remainder) through the runtime's packet hook.
inline void feed_epoch(switchsim::Measurement& hook, const trace::Trace& stream, int e,
                       int epochs) {
  const std::size_t per_epoch = stream.size() / static_cast<std::size_t>(epochs);
  const std::size_t begin = static_cast<std::size_t>(e) * per_epoch;
  const std::size_t end = e == epochs - 1 ? stream.size() : begin + per_epoch;
  for (std::size_t i = begin; i < end; ++i) hook.on_packet(stream[i].key, 0, 0);
}

}  // namespace nitro::testing
