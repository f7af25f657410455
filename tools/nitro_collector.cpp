// nitro_collector — network-wide aggregation endpoint.
//
// Listens for epoch streams from any number of nitro_monitor instances
// (started with --export-to), deduplicates redelivered messages by
// sequence range so retries never double-count, merges the per-source
// UnivMon sketches into one network-wide view, and periodically prints
// that view: live/stale sources, merged packet totals, and the global
// heavy hitters.  Sources that stop reporting are quarantined out of the
// merged view until they come back.
//
// The sketch geometry (+ seed) must match the monitors': mergeability
// requires identical hash functions.
//
// Usage:
//   nitro_collector --listen tcp:127.0.0.1:9909|unix:/tmp/nitro.sock
//                   [--seed N] [--hh-threshold FRAC] [--top N]
//                   [--interval-ms N] [--staleness-ms N] [--run-for-ms N]
//                   [--stats-out FILE] [--stats-format prom|json]
//                   [--stats-interval MS] [--trace-out FILE]
//
// --stats-interval decouples stats dumps from the (human-paced) print
// interval; both files use the atomic tmp+rename write path.  --trace-out
// records collector-side apply/merge spans as Chrome/Perfetto JSON; merge
// with the monitors' trace files for the end-to-end timeline.
//
// Examples:
//   nitro_collector --listen tcp:127.0.0.1:9909
//   nitro_monitor --workload caida --packets 1000000 --epochs 4
//                 --export-to tcp:127.0.0.1:9909 --source-id 1
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/flow_key.hpp"
#include "export/collector.hpp"
#include "export/query_server.hpp"
#include "flags.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Options {
  std::string listen = "tcp:127.0.0.1:9909";
  std::uint64_t seed = 1;
  double hh_threshold = 0.0005;
  int top = 10;
  int interval_ms = 1000;
  std::uint64_t staleness_ms = 10'000;
  std::uint64_t run_for_ms = 0;  // 0 = until SIGINT/SIGTERM
  std::string stats_out;
  std::string stats_format = "json";
  int stats_interval_ms = 0;  // 0 = dump on the print interval (old behavior)
  std::string trace_out;
  std::string query_listen;    // empty = no HTTP query plane
  int min_refresh_ms = 5;      // view rebuild rate limit under reader load
  // Keyed seed rotation (DESIGN.md §16): must mirror the monitors' flags
  // exactly — replicas for generation g are built at the schedule's
  // derived seed, and generation 0 is already keyed when rotation is on.
  std::uint64_t master_key = 0;
  std::uint64_t rotate_epochs = 0;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen tcp:HOST:PORT|unix:PATH\n"
               "          [--seed N] [--hh-threshold FRAC] [--top N]\n"
               "          [--interval-ms N] [--staleness-ms N] [--run-for-ms N]\n"
               "          [--stats-out FILE] [--stats-format prom|json]\n"
               "          [--stats-interval MS] [--trace-out FILE]\n"
               "          [--query-listen tcp:HOST:PORT] [--min-refresh-ms N]\n"
               "          [--master-key HEX] [--rotate-epochs N]\n",
               argv0);
}

/// Exits 2 on any bad flag or value.
Options parse_args(int argc, char** argv) {
  using nitro::tools::kMax;
  using nitro::tools::kPositive;
  Options opt;
  for (nitro::tools::Flags f(argc, argv); f.next();) {
    if (f.is("--listen")) {
      opt.listen = f.value();
    } else if (f.is("--seed")) {
      opt.seed = f.number<std::uint64_t>(0, kMax<std::uint64_t>);
    } else if (f.is("--hh-threshold")) {
      opt.hh_threshold = f.number(kPositive, 1.0);
    } else if (f.is("--top")) {
      opt.top = f.number(0, kMax<int>);
    } else if (f.is("--interval-ms")) {
      opt.interval_ms = f.number(10, kMax<int>);
    } else if (f.is("--staleness-ms")) {
      opt.staleness_ms = f.number<std::uint64_t>(1, kMax<std::uint64_t> / 1'000'000);
    } else if (f.is("--run-for-ms")) {
      opt.run_for_ms = f.number<std::uint64_t>(0, kMax<std::uint64_t> / 1'000'000);
    } else if (f.is("--stats-out")) {
      opt.stats_out = f.value();
    } else if (f.is("--stats-format")) {
      opt.stats_format = f.choice({"prom", "json"});
    } else if (f.is("--stats-interval")) {
      opt.stats_interval_ms = f.number(10, kMax<int>);
    } else if (f.is("--trace-out")) {
      opt.trace_out = f.value();
    } else if (f.is("--query-listen")) {
      opt.query_listen = f.value();
    } else if (f.is("--min-refresh-ms")) {
      opt.min_refresh_ms = f.number(0, kMax<int>);
    } else if (f.is("--master-key")) {
      opt.master_key = f.number<std::uint64_t>(0, kMax<std::uint64_t>, 16);
    } else if (f.is("--rotate-epochs")) {
      opt.rotate_epochs = f.number<std::uint64_t>(0, kMax<std::uint64_t>);
    } else {
      usage(argv[0]);
      if (!f.is("--help") && !f.is("-h")) f.unknown();
      std::exit(2);
    }
  }
  return opt;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void print_view(const Options& opt, nitro::xport::CollectorCore& core) {
  const std::uint64_t now = now_ns();
  // One generation snapshot serves everything below: the source table, the
  // merged sketch AND the packet total come from the same immutable view,
  // so printing costs at most one incremental fold (and zero when nothing
  // changed since the query server last refreshed it).
  const auto view = core.view(now);
  if (view->sources.empty()) {
    std::printf("[collector] no sources yet\n");
    return;
  }
  std::printf("\n=== network-wide view: generation %llu, %zu source(s), "
              "%llu fold(s)%s ===\n",
              static_cast<unsigned long long>(view->generation),
              view->sources.size(),
              static_cast<unsigned long long>(view->folds),
              view->full_rebuild ? " [full rebuild]" : "");
  for (const auto& s : view->sources) {
    std::printf(
        "  src %llu: epochs [%llu..%llu] applied=%llu packets=%lld"
        " dup=%llu gap=%llu coalesced=%llu",
        static_cast<unsigned long long>(s.source_id),
        static_cast<unsigned long long>(s.span.first),
        static_cast<unsigned long long>(s.span.last),
        static_cast<unsigned long long>(s.epochs_applied),
        static_cast<long long>(s.packets),
        static_cast<unsigned long long>(s.duplicates),
        static_cast<unsigned long long>(s.gap_epochs),
        static_cast<unsigned long long>(s.coalesced_epochs));
    if (s.last_epoch_close_ns != 0) {
      // e2e lag at apply time; freshness keeps aging while the source is
      // silent (it is what the staleness quarantine watches).
      const std::uint64_t freshness =
          now > s.last_epoch_close_ns ? now - s.last_epoch_close_ns : 0;
      std::printf(" e2e-lag=%.1fms fresh=%.1fms",
                  static_cast<double>(s.e2e_lag_ns) / 1e6,
                  static_cast<double>(freshness) / 1e6);
    }
    std::printf("%s\n", s.stale ? "  [STALE — quarantined]" : "");
  }
  const auto& merged = view->merged;
  const std::int64_t packets = view->packets;
  std::printf("merged: %lld packets | entropy %.3f bits | distinct ~%.0f flows\n",
              static_cast<long long>(packets), merged.estimate_entropy(),
              merged.estimate_distinct());
  const auto threshold =
      static_cast<std::int64_t>(opt.hh_threshold * static_cast<double>(packets));
  int shown = 0;
  for (const auto& h : merged.heavy_hitters(threshold)) {
    std::printf("  HH  %-44s %10lld\n", nitro::to_string(h.key).c_str(),
                static_cast<long long>(h.estimate));
    if (++shown >= opt.top) break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nitro;

  const Options opt = parse_args(argc, argv);

  const auto ep = xport::parse_endpoint(opt.listen);
  if (!ep) {
    std::fprintf(stderr, "bad --listen spec '%s' (want tcp:HOST:PORT or unix:PATH)\n",
                 opt.listen.c_str());
    return 2;
  }

  // Must mirror nitro_monitor's sketch geometry (mergeability needs
  // identical hashes, hence also the shared --seed).
  xport::CollectorConfig cfg;
  cfg.um_cfg.levels = 16;
  cfg.um_cfg.depth = 5;
  cfg.um_cfg.top_width = 10000;
  cfg.um_cfg.heap_capacity = 1000;
  cfg.seed = opt.seed;
  cfg.master_key = opt.master_key;
  cfg.rotation_epochs = opt.rotate_epochs;
  cfg.staleness_ns = opt.staleness_ms * 1'000'000ULL;
  // Rate-limit view rebuilds: a reader fleet hammering the query plane
  // coalesces onto one generation per window instead of re-folding on
  // every dirty read.
  cfg.min_refresh_interval_ns =
      static_cast<std::uint64_t>(opt.min_refresh_ms) * 1'000'000ULL;

  telemetry::Registry registry;
  xport::CollectorServer server(cfg, *ep);
  server.attach_telemetry(registry, "nitro_collector");

  std::unique_ptr<telemetry::Tracer> tracer;
  if (!opt.trace_out.empty()) {
    tracer = std::make_unique<telemetry::Tracer>();
    tracer->attach_telemetry(registry, "nitro_collector_trace");
    telemetry::install_tracer(tracer.get());
  }
  if (!server.start()) {
    std::fprintf(stderr, "failed to listen on %s\n", ep->to_string().c_str());
    return 2;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("[collector] listening on %s (seed %llu, staleness %llums)\n",
              server.endpoint().to_string().c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.staleness_ms));

  std::unique_ptr<xport::QueryServer> query_server;
  if (!opt.query_listen.empty()) {
    const auto qep = xport::parse_endpoint(opt.query_listen);
    if (!qep) {
      std::fprintf(stderr, "bad --query-listen spec '%s'\n",
                   opt.query_listen.c_str());
      return 2;
    }
    xport::QueryServerConfig qcfg;
    qcfg.default_hh_threshold = opt.hh_threshold;
    qcfg.default_top = opt.top;
    query_server = std::make_unique<xport::QueryServer>(server.core(), *qep, qcfg);
    query_server->attach_telemetry(registry, "nitro_collector_query");
    query_server->serve_stats_from(&registry);
    if (!query_server->start()) {
      std::fprintf(stderr, "failed to listen on %s\n", qep->to_string().c_str());
      return 2;
    }
    std::printf("[collector] query plane on http://%s:%u (try /view, "
                "/heavy-hitters, /entropy)\n",
                query_server->endpoint().host.c_str(),
                query_server->endpoint().port);
  }

  // Stats dumps run on their own cadence when --stats-interval is given
  // (parity with nitro_monitor); otherwise they ride the print interval.
  const std::uint64_t stats_period_ns =
      static_cast<std::uint64_t>(opt.stats_interval_ms != 0 ? opt.stats_interval_ms
                                                            : opt.interval_ms) *
      1'000'000ULL;
  const std::uint64_t start = now_ns();
  std::uint64_t last_print = start;
  std::uint64_t last_stats = start;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = now_ns();
    if (opt.run_for_ms != 0 && now - start >= opt.run_for_ms * 1'000'000ULL) break;
    if (now - last_print >= static_cast<std::uint64_t>(opt.interval_ms) * 1'000'000ULL) {
      last_print = now;
      server.core().publish_telemetry(now);
      print_view(opt, server.core());
    }
    if (!opt.stats_out.empty() && now - last_stats >= stats_period_ns) {
      last_stats = now;
      server.core().publish_telemetry(now);
      const std::string text = opt.stats_format == "prom"
                                   ? telemetry::to_prometheus(registry)
                                   : telemetry::to_json(registry);
      telemetry::write_file(opt.stats_out, text);
    }
  }

  server.core().publish_telemetry(now_ns());
  print_view(opt, server.core());
  if (!opt.stats_out.empty()) {
    const std::string text = opt.stats_format == "prom"
                                 ? telemetry::to_prometheus(registry)
                                 : telemetry::to_json(registry);
    if (telemetry::write_file(opt.stats_out, text)) {
      std::printf("[collector] telemetry snapshot written to %s\n",
                  opt.stats_out.c_str());
    }
  }
  if (query_server) query_server->stop();
  server.stop();

  if (tracer) {
    telemetry::uninstall_tracer();
    const std::string json =
        telemetry::to_chrome_json(*tracer, "nitro_collector");
    if (telemetry::write_file(opt.trace_out, json)) {
      std::printf("[collector] trace: %llu span(s) written to %s\n",
                  static_cast<unsigned long long>(tracer->total_recorded()),
                  opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "[collector] trace: failed to write %s\n",
                   opt.trace_out.c_str());
    }
  }
  return 0;
}
