// e2e_bench — end-to-end monitor -> collector benchmark (see README.md).
//
//   e2e_bench --workload fresh|sharded --seed N --seconds S --trace 0|1
//             --monitor PATH --work-dir DIR [--source-digest X]
//             [--build-type T]
//
// Tracing off: after an untimed warm-up, runs the shipped nitro_monitor
// against an in-process collector as many times as fit in S seconds (at
// least three) and prints the end-to-end metrics.  Tracing on: a warm-up,
// three monitor runs interleaved with the untraced in-process driver, then
// the traced driver; prints the per-layer metrics.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check failed, 2 on bad arguments.
#include <sys/statfs.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capture.hpp"
#include "common/simd_hash.hpp"
#include "host.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "traced.hpp"

namespace fs = std::filesystem;
using namespace e2ebench;

namespace {

struct Workload {
  const char* name;
  std::uint64_t packets;
  int epochs;
  double rate_pps;  // the capture's own timestamp spacing
  bool paced;
  int workers;
};

// sharded replays its capture unpaced; its timestamps are 1 ns apart, so
// every packet is due almost at once and lateness reads as loop time.
// fresh replays a capture timestamped at 1 Mpps with one epoch per 50k
// packets (one every 50 ms when paced).
constexpr Workload kWorkloads[] = {
    {"fresh", 3'500'000, 70, 1'000'000.0, true, 1},
    {"sharded", 8'000'000, 4, 1'000'000'000.0, false, 2},
};

constexpr double kHhFraction = 0.0005;
constexpr int kMinMonitorRuns = 3;
constexpr double kMonitorTimeoutS = 90.0;
const char* const kLoopMarker = "exporting epochs to";
// Reconciliation and same-program bounds of the traced run.
constexpr double kLayerSumMin = 0.90;
constexpr double kLayerSumMax = 1.001;
constexpr double kDriverVsMonitorMin = 0.67;
constexpr double kDriverVsMonitorMax = 1.5;
constexpr int kTracedPairs = 3;  // monitor / untraced-driver pairs per traced run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string monitor;
  std::string work_dir;
  std::string source_digest = "unknown";
  std::string build_type = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", k.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--monitor") {
      a.monitor = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else if (k == "--build-type") {
      a.build_type = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", k.c_str());
      return false;
    }
  }
  return !a.workload.empty() && !a.monitor.empty() && !a.work_dir.empty();
}

std::string fs_name(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string ip_string(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

/// Failed checks, printed to stderr and folded into "correct".
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// What one run of the shipped monitor showed.
struct MonitorObs {
  ChildRun child;
  std::vector<GenerationStamp> stamps;
  QueryLog queries;
  std::uint64_t epochs_clean = 0;  // applied with no gap/overlap/stale drop
  std::int64_t view_packets = 0;
  std::vector<std::string> hh_flows;  // final /heavy-hitters (if asked)
  double recall = 0, are = 0;
};

MonitorObs run_monitor_once(const Args& args, const Workload& w, const Capture& cap,
                            bool accuracy, Checks& checks) {
  const std::string ckpt = args.work_dir + "/ckpt-monitor";
  fs::remove_all(ckpt);
  CollectorHost host;
  host.start();

  std::vector<std::string> argv = {args.monitor,
                                   "--ingest", "pcap:" + cap.path,
                                   "--epochs", std::to_string(w.epochs),
                                   "--checkpoint-dir", ckpt,
                                   "--export-to",
                                   "tcp:127.0.0.1:" + std::to_string(host.export_port())};
  if (w.paced) argv.push_back("--paced");
  if (w.workers > 1) {
    argv.push_back("--workers");
    argv.push_back(std::to_string(w.workers));
  }

  MonitorObs obs;
  obs.child = run_child(argv, kLoopMarker, kMonitorTimeoutS);
  const auto epochs = static_cast<std::uint64_t>(w.epochs);
  const bool visible = host.wait_visible(epochs, 5000);
  checks.expect(obs.child.exited && obs.child.exit_code == 0,
                "monitor exit code " + std::to_string(obs.child.exit_code) +
                    (obs.child.timed_out ? " (timed out)" : ""));
  checks.expect(obs.child.marker_ns != 0, "monitor never reached its epoch loop");
  checks.expect(visible, "collector never showed every epoch");

  const auto view = host.core().view(now_ns());
  obs.view_packets = view->packets;
  checks.expect(view->packets == static_cast<std::int64_t>(cap.packets),
                "collector view holds " + std::to_string(view->packets) + " packets, capture " +
                    std::to_string(cap.packets));
  for (const auto& s : view->sources) {
    if (s.source_id != 1) continue;
    const bool clean = s.gap_epochs == 0 && s.overlap_dropped == 0 &&
                       s.stale_generation_dropped == 0;
    checks.expect(clean, "collector saw gaps, overlaps or stale-generation drops");
    checks.expect(s.epochs_applied == epochs,
                  "collector applied " + std::to_string(s.epochs_applied) + " of " +
                      std::to_string(epochs) + " epochs");
    if (clean) obs.epochs_clean = std::min<std::uint64_t>(s.epochs_applied, epochs);
  }

  if (accuracy) {
    // What a user of the collector sees, over its HTTP query plane.
    HttpClient client;
    std::string body;
    const bool up = client.connect(host.query_server().endpoint().port, 2000);
    const int code = up ? client.get("/heavy-hitters?top=100000", body, 5000) : 0;
    checks.expect(code == 200, "/heavy-hitters failed");
    obs.hh_flows = hh_flow_set(body);
    std::vector<std::string> truth_flows;
    std::vector<std::pair<std::string, std::int64_t>> truth;
    std::unordered_map<std::string, std::int64_t> estimates;
    for (const auto& [key, count] : true_heavy_hitters(cap, kHhFraction)) {
      const std::string name = nitro::to_string(key);
      truth_flows.push_back(name);
      truth.emplace_back(name, count);
      const std::string target = "/flow?src=" + ip_string(key.src_ip) +
                                 "&dst=" + ip_string(key.dst_ip) +
                                 "&sport=" + std::to_string(key.src_port) +
                                 "&dport=" + std::to_string(key.dst_port) +
                                 "&proto=" + std::to_string(key.proto);
      const int c = client.get(target, body, 5000);
      checks.expect(c == 200, "/flow failed");
      const auto at = body.find("\"estimate\":");
      if (c == 200 && at != std::string::npos) {
        estimates[name] = std::strtoll(body.c_str() + at + 11, nullptr, 10);
      }
    }
    obs.recall = hh_recall(truth_flows, obs.hh_flows);
    obs.are = hh_are(truth, estimates);
    client.close();
  }

  host.stop();
  obs.stamps = host.stamps();
  obs.queries = host.queries();
  const auto fresh = freshness_from(obs.stamps);
  checks.expect(fresh.epochs_seen == epochs, "view refresher missed epochs");
  fs::remove_all(ckpt);
  return obs;
}

/// The stamp of the first generation that showed every epoch.
const GenerationStamp* final_stamp(const MonitorObs& o, std::uint64_t epochs) {
  for (const auto& s : o.stamps) {
    if (s.applied_through >= epochs) return &s;
  }
  return nullptr;
}

struct Result {
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> stamp;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

void run_end_to_end(const Args& args, const Workload& w, const Capture& cap, Result& r) {
  const auto epochs = static_cast<std::uint64_t>(w.epochs);
  // Warm-up run, not timed: it settles the host after the capture was
  // written, and it is where the deterministic accuracy metrics are read.
  const MonitorObs warm = run_monitor_once(args, w, cap, /*accuracy=*/true, r.checks);
  r.attempted += epochs;
  r.failed += epochs - warm.epochs_clean;

  std::vector<MonitorObs> runs;
  const std::uint64_t t0 = now_ns();
  while (r.checks.failures.empty()) {
    const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    const double per_run = runs.empty() ? 0.0 : elapsed / static_cast<double>(runs.size());
    if (runs.size() >= static_cast<std::size_t>(kMinMonitorRuns) &&
        elapsed + per_run > args.seconds) {
      break;
    }
    runs.push_back(run_monitor_once(args, w, cap, /*accuracy=*/false, r.checks));
  }

  std::vector<double> setup, mpps, lateness, cpu, anon;
  std::vector<std::vector<double>> fresh_runs, query_runs;
  std::uint64_t unstamped = 0, fresh_samples = 0, query_samples = 0;
  for (const auto& o : runs) {
    r.attempted += epochs + o.queries.sent;
    r.failed += (epochs - o.epochs_clean) + (o.queries.sent - o.queries.answered_in_time);
    const auto* last = final_stamp(o, epochs);
    if (o.child.marker_ns == 0 || last == nullptr) continue;
    setup.push_back(static_cast<double>(o.child.marker_ns - o.child.exec_ns) / 1e9);
    mpps.push_back(static_cast<double>(cap.packets) /
                   (static_cast<double>(last->built_at_ns - o.child.marker_ns) / 1e9) / 1e6);
    lateness.push_back(
        lateness_ms(last->last_close_ns, o.child.marker_ns, cap.epoch_due_ns.back()));
    cpu.push_back(o.child.cpu_s * 1e9 / static_cast<double>(cap.packets));
    anon.push_back(static_cast<double>(o.child.peak_anon_kib) / 1024.0);
    const auto f = freshness_from(o.stamps);
    std::printf("run %zu: setup %.3f s, %.3f Mpps, lateness %.2f ms, cpu %.1f ns/pkt, "
                "anon %.1f MiB, freshness p50 %.2f ms over %zu epochs, query p50 %.3f ms "
                "over %zu\n",
                fresh_runs.size(), setup.back(), mpps.back(), lateness.back(), cpu.back(),
                anon.back(), median(f.ms), f.ms.size(), median(o.queries.latency_ms),
                o.queries.latency_ms.size());
    unstamped += f.unstamped;
    fresh_samples += f.ms.size();
    query_samples += o.queries.latency_ms.size();
    fresh_runs.push_back(f.ms);
    query_runs.push_back(o.queries.latency_ms);
  }
  r.checks.expect(!setup.empty(), "no complete monitor run");

  const auto fresh50 = percentile_over_runs(fresh_runs, 0.50);
  const auto fresh95 = percentile_over_runs(fresh_runs, 0.95);
  const auto query50 = percentile_over_runs(query_runs, 0.50);
  const auto query99 = percentile_over_runs(query_runs, 0.99);
  r.metric("setup_s", median(setup), "s");
  r.metric("e2e_mpps", median(mpps), "Mpps");
  r.metric("lateness_ms", median(lateness), "ms");
  r.metric("freshness_p50_ms", fresh50.value, "ms");
  r.metric("freshness_p95_ms", fresh95.value, "ms");
  r.metric("query_p50_ms", query50.value, "ms");
  r.metric("query_p99_ms", query99.value, "ms");
  r.metric("hh_recall", warm.recall, "ratio");
  r.metric("hh_are", warm.are, "ratio");
  r.metric("monitor_cpu_ns_per_pkt", median(cpu), "ns");
  r.metric("monitor_anon_mb", median(anon), "MiB");

  r.stamp["monitor_runs"] = std::to_string(runs.size());
  r.stamp["freshness_samples"] = std::to_string(fresh_samples);
  r.stamp["freshness_unstamped_epochs"] = std::to_string(unstamped);
  // Groups of runs behind each percentile; 0 = below the ten-beyond rule.
  r.stamp["freshness_p50_groups"] = std::to_string(fresh50.groups);
  r.stamp["freshness_p95_groups"] = std::to_string(fresh95.groups);
  r.stamp["query_samples"] = std::to_string(query_samples);
  r.stamp["query_p50_groups"] = std::to_string(query50.groups);
  r.stamp["query_p99_groups"] = std::to_string(query99.groups);
}

double sum_layers(const Ledger& l) {
  return l.ingest_self_ns + l.burst_ns + l.drain_ns + l.merge_ns + l.ckpt_encode_ns +
         l.ckpt_write_ns + l.end_epoch_self_ns + l.publish_ns;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? NAN : s / static_cast<double>(v.size());
}

void run_traced(const Args& args, const Workload& w, const Capture& cap, Result& r) {
  const auto epochs = static_cast<std::uint64_t>(w.epochs);
  auto driver = [&](bool traced, int workers, bool paced, const char* tag) {
    DriverConfig cfg;
    cfg.capture_path = cap.path;
    cfg.epochs = w.epochs;
    cfg.paced = paced;
    cfg.workers = workers;
    cfg.traced = traced;
    cfg.checkpoint_dir = args.work_dir + "/ckpt-" + tag;
    fs::remove_all(cfg.checkpoint_dir);
    DriverResult res = run_driver(cfg);
    fs::remove_all(cfg.checkpoint_dir);
    r.attempted += res.ledger.epochs;
    const bool same = res.view_packets == static_cast<std::int64_t>(cap.packets) &&
                      res.view_epochs == epochs;
    if (!same) ++r.failed;
    r.checks.expect(same, std::string("driver (") + tag + ") view differs from the capture");
    return res;
  };

  // The shipped monitor and the untraced driver, interleaved; the median
  // loop times of the two give driver_vs_monitor.
  std::vector<double> monitor_loop_ns, plain_loop_ns, plain_wall_ns;
  // Warm-up run, not timed; its final view is the same-program reference.
  const MonitorObs warm = run_monitor_once(args, w, cap, /*accuracy=*/true, r.checks);
  r.attempted += epochs;
  r.failed += epochs - warm.epochs_clean;
  const std::vector<std::string>& monitor_hh = warm.hh_flows;
  const std::int64_t monitor_packets = warm.view_packets;
  for (int i = 0; i < kTracedPairs; ++i) {
    const MonitorObs mon = run_monitor_once(args, w, cap, /*accuracy=*/false, r.checks);
    r.attempted += epochs + mon.queries.sent;
    r.failed += (epochs - mon.epochs_clean) + (mon.queries.sent - mon.queries.answered_in_time);
    const auto* last = final_stamp(mon, epochs);
    if (last != nullptr && mon.child.marker_ns != 0) {
      monitor_loop_ns.push_back(static_cast<double>(last->last_close_ns - mon.child.marker_ns));
    }
    const DriverResult plain = driver(false, w.workers, w.paced, "untraced");
    plain_loop_ns.push_back(
        static_cast<double>(plain.ledger.last_close_ns - plain.ledger.marker_ns));
    plain_wall_ns.push_back(
        static_cast<double>(plain.ledger.loop_end_ns - plain.ledger.loop_start_ns));
    // Same program: the driver's final view equals the shipped monitor's.
    r.checks.expect(plain.hh_flows == monitor_hh,
                    "driver /heavy-hitters set differs from the monitor's");
    r.checks.expect(plain.view_packets == monitor_packets,
                    "driver view packet total differs from the monitor's");
  }
  const DriverResult traced = driver(true, w.workers, w.paced, "traced");
  r.checks.expect(traced.hh_flows == monitor_hh,
                  "traced driver /heavy-hitters set differs from the monitor's");
  // fresh never dispatches; its shard.* figures come from a probe that
  // pushes the same capture, unpaced, through a 2-worker ShardGroup.
  const DriverResult probe = w.workers > 1 ? DriverResult{} : driver(true, 2, false, "probe");
  const Ledger& L = traced.ledger;
  const Ledger& S = w.workers > 1 ? traced.ledger : probe.ledger;

  const double pk = static_cast<double>(L.packets);
  const double wall_ns = static_cast<double>(L.loop_end_ns - L.loop_start_ns);
  const double layer_frac = sum_layers(L) / wall_ns;
  const double vs_monitor = median(plain_loop_ns) / median(monitor_loop_ns);
  r.checks.expect(layer_frac >= kLayerSumMin && layer_frac <= kLayerSumMax,
                  "layer self times sum to " + std::to_string(layer_frac) + " of wall time");
  r.checks.expect(vs_monitor >= kDriverVsMonitorMin && vs_monitor <= kDriverVsMonitorMax,
                  "driver/monitor loop time ratio " + std::to_string(vs_monitor) +
                      " is out of bounds");

  const CollectorLayers C = time_collector_layers(L.published);
  const double spk = static_cast<double>(S.packets);

  r.metric("ingest.self_ns_per_pkt", L.ingest_self_ns / pk, "ns");
  r.metric("core.update_ns_per_pkt",
           (w.workers > 1 ? L.worker_update_ns : L.burst_ns) / pk, "ns");
  r.metric("core.sampled_per_pkt", static_cast<double>(L.sampled_updates) / pk, "ratio");
  r.metric("shard.dispatch_ns_per_pkt", S.burst_ns / spk, "ns");
  r.metric("shard.drain_ms", median(S.drain_ms), "ms");
  r.metric("shard.merge_ms", median(S.merge_ms), "ms");
  r.metric("shard.imbalance", S.imbalance, "ratio");
  r.metric("shard.ring_drops", static_cast<double>(S.ring_drops), "count");
  r.metric("control.end_epoch_ms", median(L.end_epoch_ms), "ms");
  r.metric("control.snapshot_kib", median(L.snapshot_kib), "KiB");
  r.metric("control.ckpt_encode_ms", median(L.ckpt_encode_ms), "ms");
  r.metric("control.ckpt_write_ms", median(L.ckpt_write_ms), "ms");
  r.metric("control.ckpt_kib", mean(L.ckpt_kib), "KiB");
  r.metric("control.ckpt_full_frac",
           static_cast<double>(L.ckpt_full) / static_cast<double>(L.ckpt_frames), "ratio");
  r.metric("export.publish_us", median(L.publish_us), "us");
  r.metric("export.encode_ms", median(C.encode_ms), "ms");
  r.metric("export.frame_kib", median(C.frame_kib), "KiB");
  r.metric("export.delivery_ms", median(L.delivery_ms), "ms");
  r.metric("export.coalesced_epochs", static_cast<double>(L.coalesced_epochs), "count");
  r.metric("collector.decode_ms", median(C.decode_ms), "ms");
  r.metric("collector.apply_ms", median(C.apply_ms), "ms");
  r.metric("collector.fold_ms", median(C.fold_ms), "ms");
  r.metric("collector.query_ms", median(C.query_ms), "ms");
  r.metric("collector.query_cached_us", median(C.query_cached_us), "us");
  r.metric("traced.wall_s", wall_ns / 1e9, "s");
  r.metric("traced.layer_sum_frac", layer_frac, "ratio");
  r.metric("traced.overhead_frac", wall_ns / median(plain_wall_ns) - 1.0, "ratio");
  r.metric("traced.driver_vs_monitor", vs_monitor, "ratio");

  r.stamp["traced_epochs"] = std::to_string(L.epochs);
  r.stamp["shard_source"] = w.workers > 1 ? "workload" : "probe";
}

void print_result(const Result& r) {
  bool finite = true;
  std::string m;
  for (const auto& [name, vu] : r.metrics) {
    if (!m.empty()) m += ", ";
    char buf[64];
    if (std::isfinite(vu.first)) {
      std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    } else {
      std::snprintf(buf, sizeof buf, "null");
      finite = false;
    }
    m += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
  }
  for (const auto& f : r.checks.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  if (!finite) std::fprintf(stderr, "CHECK FAILED: a metric is not a finite number\n");
  const bool correct = finite && r.checks.failures.empty();

  std::string stamp;
  for (const auto& [k, v] : r.stamp) {
    if (!stamp.empty()) stamp += ", ";
    const bool raw = !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
    stamp += "\"" + k + "\": " + (raw ? v : "\"" + v + "\"");
  }
  std::printf("stamp {%s}\n", stamp.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, m.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload fresh|sharded --seed N --seconds S "
                 "--trace 0|1 --monitor PATH --work-dir DIR [--source-digest X] "
                 "[--build-type T]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Result r;
  fs::create_directories(args.work_dir);
  const std::string capture_path =
      args.work_dir + "/capture-" + w->name + "-" + std::to_string(args.seed) + ".pcap";
  try {
    CaptureSpec spec{w->packets, w->rate_pps, args.seed, w->epochs};
    const Capture cap = make_capture(capture_path, spec);
    r.stamp["source_digest"] = args.source_digest;
    r.stamp["build_type"] = args.build_type;
    r.stamp["isa"] = nitro::simd_isa_name();
    r.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
    r.stamp["workload"] = w->name;
    r.stamp["seed"] = std::to_string(args.seed);
    r.stamp["capture_packets"] = std::to_string(cap.packets);
    r.stamp["capture_wire_bytes"] = std::to_string(cap.wire_bytes);
    r.stamp["capture_file_bytes"] = std::to_string(cap.file_bytes);
    r.stamp["checkpoint_fs"] = fs_name(args.work_dir);
    if (args.trace) {
      run_traced(args, *w, cap, r);
    } else {
      run_end_to_end(args, *w, cap, r);
    }
  } catch (const std::exception& e) {
    r.checks.expect(false, std::string("error: ") + e.what());
  }
  std::error_code ec;
  fs::remove(capture_path, ec);
  print_result(r);
  return r.checks.failures.empty() ? 0 : 1;
}
