// nitro_monitor — command-line flow-monitoring driver.
//
// Parses flags into a control::MonitorConfig, runs an ingest backend
// through the MonitorRuntime's measurement hook (DESIGN.md §14-§15),
// splits the run into epochs, and prints per-epoch reports: heavy
// hitters, changed flows, entropy, distinct count, throughput.  The
// runtime owns the data plane, the restore ladder, the checkpoint cadence
// and the export wiring; this file only drives it.
//
// Usage:
//   nitro_monitor [--workload caida|dc|ddos|64b|uniform|churn|skewflip]
//                 [--trace FILE] [--packets N] [--flows N] [--epochs N]
//                 [--mode fixed|linerate|correct|vanilla] [--p PROB]
//                 [--hh-threshold FRAC] [--top N] [--seed N]
//                 [--save-trace FILE] [--workers N] [--burst N]
//                 [--ingest synth|shim|pcap:FILE] [--replay-loop N] [--paced]
//                 [--stats-out FILE] [--stats-format prom|json]
//                 [--stats-interval N] ...  (see usage() for the rest)
//
// --ingest picks the backend (default synth, the generated or --trace
// workload held in memory): `pcap:FILE` mmap-replays a capture (pcap or
// NTR1, by magic) with zero per-packet copies, `shim` runs the
// AF_XDP-style burst-RX ring over hugepage frames.  The workload is only
// built when the backend reads it.  --burst N sets the poll batch
// (default 32; 1 forces the scalar per-packet path); --replay-loop walks
// the source N times; --paced replays a capture at its own timestamp
// spacing.
//
// With --workers N (N >= 2) the data plane is sharded: N NitroUnivMon
// instances on their own worker threads behind per-worker SPSC rings,
// packets dispatched by flow hash, merged into the daemon at each epoch
// boundary — the report is a coherent global view.
//
// With --stats-out the telemetry registry (sampling-probability timeline,
// shard/export/checkpoint counters, sampled update cycle histogram) is
// snapshotted to a file in Prometheus text exposition or JSON format.
//
// Exit codes: 0 ok, 2 bad flags or setup, 3 --require-restore found
// nothing to restore.
//
// Examples:
//   nitro_monitor --workload caida --packets 4000000 --epochs 4 --p 0.01
//   nitro_monitor --trace capture.ntr --mode correct
//   nitro_monitor --ingest pcap:capture.pcap --epochs 4
//   nitro_monitor --workload caida --packets 2000000 --workers 4
//   nitro_monitor --workload caida --packets 1000000 --mode linerate
//                 --stats-out stats.json --stats-format json
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "common/timing.hpp"
#include "control/monitor_runtime.hpp"
#include "export/transport.hpp"
#include "flags.hpp"
#include "ingest/factory.hpp"
#include "ingest/ingest_loop.hpp"
#include "switchsim/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"

namespace {

using nitro::tools::Flags;
using nitro::tools::kMax;
using nitro::tools::kPositive;

struct Options {
  std::string workload = "caida";
  std::string trace_file;
  std::string save_trace;
  std::uint64_t packets = 2'000'000;
  std::uint64_t flows = 100'000;
  int epochs = 2;
  int top = 10;
  std::size_t burst = nitro::switchsim::kBurstSize;
  std::string ingest = "synth";  // synth | shim | pcap:FILE
  std::uint32_t replay_loop = 1;
  bool paced = false;
  std::string stats_out;
  std::string stats_format = "json";
  int stats_interval = 1;
  bool require_restore = false;   // exit 3 when nothing restorable
  std::uint64_t source_id = 1;
  std::string trace_out;          // Chrome/Perfetto trace JSON (empty = off)
  nitro::control::MonitorConfig rt;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload caida|dc|ddos|64b|uniform|churn|skewflip]\n"
               "          [--trace FILE] [--packets N] [--flows N] [--epochs N]\n"
               "          [--mode fixed|linerate|correct|vanilla] [--p PROB]\n"
               "          [--hh-threshold FRAC] [--top N] [--seed N]\n"
               "          [--save-trace FILE] [--workers N]\n"
               "          [--burst N] [--ingest synth|shim|pcap:FILE]\n"
               "          [--replay-loop N] [--paced]\n"
               "          [--stats-out FILE] [--stats-format prom|json]\n"
               "          [--stats-interval N] [--checkpoint-dir DIR]\n"
               "          [--checkpoint-full-every N] [--require-restore]\n"
               "          [--recover-from-collector]\n"
               "          [--export-to tcp:HOST:PORT|unix:PATH] [--source-id N]\n"
               "          [--trace-out FILE] [--accuracy-sample N]\n"
               "          [--master-key HEX] [--rotate-epochs N]\n"
               "          [--heap-margin N] [--valve] [--valve-threshold FRAC]\n"
               "          [--collision-alarm X] [--eviction-alarm N]\n",
               argv0);
}

nitro::core::Mode mode_of(const std::string& name) {
  using nitro::core::Mode;
  if (name == "linerate") return Mode::kAlwaysLineRate;
  if (name == "correct") return Mode::kAlwaysCorrect;
  if (name == "vanilla") return Mode::kVanilla;
  return Mode::kFixedRate;
}

/// Exits 2 on any bad flag or value.
Options parse_args(int argc, char** argv) {
  Options opt;
  auto& rt = opt.rt;
  for (Flags f(argc, argv); f.next();) {
    if (f.is("--workload")) {
      opt.workload = f.choice({"caida", "dc", "datacenter", "ddos", "64b", "minsized",
                               "uniform", "churn", "skewflip"});
    } else if (f.is("--trace")) {
      opt.trace_file = f.value();
    } else if (f.is("--save-trace")) {
      opt.save_trace = f.value();
    } else if (f.is("--packets")) {
      opt.packets = f.number<std::uint64_t>(1, kMax<std::uint64_t>);
    } else if (f.is("--flows")) {
      opt.flows = f.number<std::uint64_t>(1, kMax<std::uint64_t>);
    } else if (f.is("--epochs")) {
      opt.epochs = f.number(1, 1'000'000);
    } else if (f.is("--mode")) {
      rt.nitro.mode = mode_of(f.choice({"fixed", "linerate", "correct", "vanilla"}));
    } else if (f.is("--p")) {
      rt.nitro.probability = f.number(kPositive, 1.0);
    } else if (f.is("--hh-threshold")) {
      rt.tasks.hh_fraction = rt.tasks.change_fraction = f.number(kPositive, 1.0);
    } else if (f.is("--top")) {
      opt.top = f.number(0, kMax<int>);
    } else if (f.is("--seed")) {
      rt.seed = f.number<std::uint64_t>(0, kMax<std::uint64_t>);
    } else if (f.is("--workers")) {
      rt.workers = f.number<std::uint32_t>(1, 1024);
    } else if (f.is("--burst")) {
      opt.burst = f.number<std::size_t>(1, nitro::ingest::IngestLoop::kMaxBurst);
    } else if (f.is("--ingest")) {
      opt.ingest = f.value();
    } else if (f.is("--replay-loop")) {
      opt.replay_loop = f.number<std::uint32_t>(1, 1'000'000);
    } else if (f.is("--paced")) {
      opt.paced = true;
    } else if (f.is("--stats-out")) {
      opt.stats_out = f.value();
    } else if (f.is("--stats-format")) {
      opt.stats_format = f.choice({"prom", "json"});
    } else if (f.is("--stats-interval")) {
      opt.stats_interval = f.number(1, kMax<int>);
    } else if (f.is("--checkpoint-dir")) {
      rt.checkpoint_dir = f.value();
    } else if (f.is("--checkpoint-full-every")) {
      rt.checkpoint_full_every = f.number<std::uint64_t>(1, kMax<std::uint64_t>);
    } else if (f.is("--require-restore")) {
      opt.require_restore = true;
    } else if (f.is("--recover-from-collector")) {
      rt.recover_from_collector = true;
    } else if (f.is("--export-to")) {
      const std::string spec = f.value();
      const auto ep = nitro::xport::parse_endpoint(spec);
      if (!ep) {
        Flags::fail("bad --export-to spec '" + spec + "' (want tcp:HOST:PORT or unix:PATH)");
      }
      rt.exporter.emplace().endpoint = *ep;
    } else if (f.is("--source-id")) {
      opt.source_id = f.number<std::uint64_t>(1, kMax<std::uint64_t>);
    } else if (f.is("--trace-out")) {
      opt.trace_out = f.value();
    } else if (f.is("--accuracy-sample")) {
      rt.accuracy_sample = f.number<std::size_t>(0, std::size_t{1} << 24);
    } else if (f.is("--master-key")) {
      rt.master_key = f.number<std::uint64_t>(0, kMax<std::uint64_t>, 16);
    } else if (f.is("--rotate-epochs")) {
      rt.rotate_epochs = f.number<std::uint64_t>(0, kMax<std::uint64_t>);
    } else if (f.is("--heap-margin")) {
      rt.univmon.heap_margin = f.number<std::int64_t>(0, kMax<std::int64_t>);
    } else if (f.is("--valve")) {
      rt.valve.enabled = true;
    } else if (f.is("--valve-threshold")) {
      rt.valve.new_flow_threshold = f.number(kPositive, 1.0);
    } else if (f.is("--collision-alarm")) {
      rt.tasks.collision_alarm_threshold = f.number(0.0, kMax<double>);
    } else if (f.is("--eviction-alarm")) {
      rt.tasks.eviction_alarm_threshold = f.number<std::uint64_t>(0, kMax<std::uint64_t>);
    } else {
      usage(argv[0]);
      if (!f.is("--help") && !f.is("-h")) f.unknown();
      std::exit(2);
    }
  }
  if (rt.exporter) rt.exporter->source_id = opt.source_id;
  return opt;
}

void write_stats(const Options& opt, nitro::telemetry::Registry& registry) {
  const std::string text = opt.stats_format == "prom" ? nitro::telemetry::to_prometheus(registry)
                                                      : nitro::telemetry::to_json(registry);
  if (!nitro::telemetry::write_file(opt.stats_out, text)) {
    std::fprintf(stderr, "failed to write %s\n", opt.stats_out.c_str());
  }
}

void print_report(const Options& opt, const nitro::control::EpochReport& report,
                  double seconds) {
  std::printf("\n=== epoch %llu: %lld packets in %.2fs (%.2f Mpps) ===\n",
              static_cast<unsigned long long>(report.epoch),
              static_cast<long long>(report.packets), seconds,
              static_cast<double>(report.packets) / seconds / 1e6);
  std::printf("entropy %.3f bits | distinct ~%.0f flows | %zu heavy hitters |"
              " %zu changed flows\n",
              report.entropy, report.distinct, report.heavy_hitters.size(),
              report.changed_flows.size());
  if (opt.rt.accuracy_sample > 0 && report.accuracy.tracked_flows > 0) {
    const auto& a = report.accuracy;
    std::printf("accuracy: %zu tracked | mean err %.1f | max err %.1f |"
                " bound %.1f (x%.2f degrade) | %s\n",
                a.tracked_flows, a.mean_abs_error, a.max_abs_error, a.bound, a.inflation,
                a.within_bound ? "WITHIN BOUND" : "BOUND EXCEEDED");
  }
  int shown = 0;
  for (const auto& h : report.heavy_hitters) {
    if (shown++ >= opt.top) break;
    std::printf("  HH  %-44s %10lld\n", to_string(h.key).c_str(),
                static_cast<long long>(h.estimate));
  }
  shown = 0;
  for (const auto& c : report.changed_flows) {
    if (shown++ >= opt.top) break;
    std::printf("  CHG %-44s %+10lld\n", to_string(c.key).c_str(),
                static_cast<long long>(c.estimate));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nitro;

  Options opt = parse_args(argc, argv);

  // The workload is built only when the backend reads it (or it is to be
  // saved): a capture replay never pays for a generated trace.
  trace::Trace stream;
  const bool reads_trace = opt.ingest == "synth" || opt.ingest == "shim";
  try {
    if (reads_trace || !opt.save_trace.empty()) {
      if (!opt.trace_file.empty()) {
        std::printf("loading trace %s...\n", opt.trace_file.c_str());
        stream = trace::load_trace(opt.trace_file);
      } else {
        trace::WorkloadSpec spec;
        spec.packets = opt.packets;
        spec.flows = opt.flows;
        spec.seed = opt.rt.seed;
        std::printf("generating %s workload: %llu packets, %llu flows...\n",
                    opt.workload.c_str(), static_cast<unsigned long long>(spec.packets),
                    static_cast<unsigned long long>(spec.flows));
        stream = trace::by_name(opt.workload, spec);
      }
    }
    if (!opt.save_trace.empty()) {
      trace::save_trace(opt.save_trace, stream);
      std::printf("saved trace to %s\n", opt.save_trace.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: %s\n", e.what());
    return 2;
  }
  if (reads_trace && stream.empty()) {
    std::fprintf(stderr, "nothing to do\n");
    return 2;
  }

  // The backend comes first so its preferred prefetch distance can be
  // baked into the sketch config.  (The shim's producer thread starts
  // here; it parks on its bounded rings until the epoch loop drains.)
  std::unique_ptr<ingest::IngestBackend> backend;
  ingest::BackendOptions bopts;
  bopts.replay_loop = opt.replay_loop;
  bopts.paced = opt.paced;
  try {
    backend = ingest::make_backend(opt.ingest, stream, bopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ingest: %s\n", e.what());
    return 2;
  }
  std::printf("ingest backend: %s (%llu packets expected)\n", backend->name(),
              static_cast<unsigned long long>(backend->size_hint()));
  opt.rt.nitro.prefetch_window = backend->preferred_prefetch_window();

  if (opt.rt.rotate_epochs > 0) {
    std::printf("seed rotation: every %llu epoch(s), keyed derivation\n",
                static_cast<unsigned long long>(opt.rt.rotate_epochs));
  }
  if (opt.rt.workers > 1) {
    std::printf("sharded data plane: %u workers, flow-hash dispatch\n", opt.rt.workers);
    if (opt.rt.valve.enabled) {
      std::printf("admission valve: on (new-flow fraction > %.2f trips)\n",
                  opt.rt.valve.new_flow_threshold);
    }
  }

  // Declared before the runtime so the runtime (and its exporter thread,
  // which records wire-send spans) is gone before the tracer is.
  std::unique_ptr<telemetry::Tracer> tracer;
  std::optional<control::MonitorRuntime> rt;
  try {
    rt.emplace(opt.rt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  telemetry::Registry& registry = rt->registry();

  // Span tracing (--trace-out): every lifecycle site (ingest, burst flush,
  // shard drain/merge, snapshot, checkpoint, export enqueue, wire send)
  // records into a process-wide tracer, written as Chrome/Perfetto JSON
  // at exit.
  if (!opt.trace_out.empty()) {
    tracer = std::make_unique<telemetry::Tracer>();
    tracer->attach_telemetry(registry, "nitro_trace");
    tracer->set_context(opt.source_id, rt->daemon().epoch());
    telemetry::install_tracer(tracer.get());
  }

  const control::Restored restored = rt->restore();
  if (opt.require_restore && restored.source == control::RestoreSource::kNone) {
    std::fprintf(stderr,
                 "--require-restore: no checkpoint or collector state could be restored\n");
    return 3;
  }
  if (opt.rt.exporter) {
    std::printf("exporting epochs to %s as source %llu\n",
                opt.rt.exporter->endpoint.to_string().c_str(),
                static_cast<unsigned long long>(opt.source_id));
  }

  ingest::IngestLoop loop(*backend, rt->hook(), opt.burst);
  const std::uint64_t per_epoch = backend->size_hint() / static_cast<std::uint64_t>(opt.epochs);
  for (int e = 0; e < opt.epochs; ++e) {
    const bool last = e == opt.epochs - 1;
    // Ambient trace keys for this epoch: deep sites (burst flush, shard
    // drain and merge, snapshot, checkpoint) pick them up.
    if (tracer) tracer->set_context(opt.source_id, rt->daemon().epoch());
    WallTimer timer;
    {
      telemetry::ScopedSpan ingest_span(telemetry::Stage::kIngest, opt.source_id,
                                        rt->daemon().epoch());
      // The final epoch runs to backend EOF (covers size hints that
      // undercount, e.g. pcap parse-error skips).
      (void)loop.run(last ? ~0ull : per_epoch);
    }
    // Mpps covers ingest plus the drain, not the epoch close (checkpoint
    // fsync, export); close_epoch's own drain then finds nothing left.
    rt->hook().finish();
    const double seconds = timer.seconds();
    const auto report = rt->close_epoch();
    print_report(opt, report, seconds);
    if (!opt.stats_out.empty() && (e + 1) % opt.stats_interval == 0) {
      write_stats(opt, registry);
    }
  }
  rt->shutdown(10'000);
  if (opt.rt.exporter) {
    std::printf("export: %llu epoch(s) acknowledged by the collector\n",
                static_cast<unsigned long long>(
                    registry.counter("nitro_export_acked_epochs_total").value()));
  }

  if (!opt.stats_out.empty()) {
    write_stats(opt, registry);
    std::printf("\ntelemetry snapshot (%s) written to %s\n", opt.stats_format.c_str(),
                opt.stats_out.c_str());
  }

  if (tracer) {
    telemetry::uninstall_tracer();
    const std::string json = telemetry::to_chrome_json(*tracer, "nitro_monitor");
    if (telemetry::write_file(opt.trace_out, json)) {
      std::printf("trace: %llu span(s) written to %s (load in ui.perfetto.dev"
                  " or chrome://tracing)\n",
                  static_cast<unsigned long long>(tracer->total_recorded()),
                  opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", opt.trace_out.c_str());
    }
  }
  return 0;
}
