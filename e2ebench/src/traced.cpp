#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>

#include "common/hash.hpp"
#include "control/checkpoint.hpp"
#include "control/daemon.hpp"
#include "export/exporter.hpp"
#include "host.hpp"
#include "ingest/factory.hpp"
#include "ingest/ingest_loop.hpp"
#include "proc.hpp"
#include "shard/shard_group.hpp"
#include "switchsim/measurement.hpp"
#include "telemetry/telemetry.hpp"

namespace e2ebench {

namespace {

using nitro::FlowKey;

/// nitro_monitor's DaemonSketchAdapter: routes whole bursts into the
/// daemon's data plane.
struct DaemonAdapter {
  nitro::control::MeasurementDaemon* daemon = nullptr;
  void update(const FlowKey& key, std::int64_t, std::uint64_t ts_ns) {
    daemon->on_packet(key, ts_ns);
  }
  void update_burst(std::span<const FlowKey> keys, std::uint64_t ts_ns) {
    daemon->on_burst(keys, ts_ns);
  }
};

/// A shard instance that times NitroUnivMon::update_burst per call on the
/// worker thread (when `timed`).  The accumulated time is published to the
/// control plane by ShardGroup's drain barrier, like the sketch itself.
struct TimedUnivMon {
  nitro::core::NitroUnivMon sketch;
  bool timed = false;
  std::uint64_t ns = 0;

  void update(const FlowKey& key, std::int64_t count, std::uint64_t ts_ns) {
    sketch.update(key, count, ts_ns);
  }
  void update_burst(std::span<const FlowKey> keys, std::uint64_t ts_ns) {
    if (!timed) {
      sketch.update_burst(keys, ts_ns);
      return;
    }
    const std::uint64_t t0 = now_ns();
    sketch.update_burst(keys, ts_ns);
    ns += now_ns() - t0;
  }
  void apply_degradation(std::uint32_t level) { sketch.apply_degradation(level); }
};

using Group = nitro::shard::ShardGroup<TimedUnivMon>;

/// nitro_monitor's ShardedDaemonMeasurement (without the accuracy hook,
/// which the monitor leaves off by default).
class ShardedMeasurement final : public nitro::switchsim::Measurement {
 public:
  explicit ShardedMeasurement(Group& group) : group_(group) {}
  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    group_.update(key, 1, ts_ns);
  }
  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    group_.update_burst(std::span<const FlowKey>(keys, n), 1, ts_ns);
  }
  void finish() override { group_.drain(); }

 private:
  Group& group_;
};

/// Times the hook's on_burst, one clock pair per burst.
class TimedMeasurement final : public nitro::switchsim::Measurement {
 public:
  explicit TimedMeasurement(nitro::switchsim::Measurement& inner) : inner_(inner) {}
  void on_packet(const FlowKey& key, std::uint16_t wire, std::uint64_t ts_ns) override {
    inner_.on_packet(key, wire, ts_ns);
  }
  void on_burst(const FlowKey* keys, const std::uint16_t* wire, std::size_t n,
                std::uint64_t ts_ns) override {
    const std::uint64_t t0 = now_ns();
    inner_.on_burst(keys, wire, n, ts_ns);
    ns += now_ns() - t0;
  }
  void finish() override { inner_.finish(); }

  std::uint64_t ns = 0;

 private:
  nitro::switchsim::Measurement& inner_;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

DriverResult run_driver(const DriverConfig& cfg) {
  using namespace nitro;
  constexpr std::uint64_t kSeed = 1;  // nitro_monitor --seed default

  CollectorHost host;
  host.start();

  const trace::Trace unused;
  ingest::BackendOptions bopts;
  bopts.paced = cfg.paced;
  auto backend = ingest::make_backend("pcap:" + cfg.capture_path, unused, bopts);

  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 16;
  um_cfg.depth = 5;
  um_cfg.top_width = 10000;
  um_cfg.heap_capacity = 1000;
  core::NitroConfig nitro_cfg;
  nitro_cfg.mode = core::Mode::kFixedRate;
  nitro_cfg.probability = 0.01;
  nitro_cfg.prefetch_window = backend->preferred_prefetch_window();
  control::MeasurementDaemon::Tasks tasks;
  tasks.hh_fraction = 0.0005;
  tasks.change_fraction = 0.0005;

  control::MeasurementDaemon daemon(um_cfg, nitro_cfg, tasks, kSeed);
  telemetry::Registry registry;
  daemon.attach_telemetry(registry);

  // The restore attempt: a fresh directory holds no chain.
  control::CheckpointStore ckpt(cfg.checkpoint_dir);
  ckpt.attach_telemetry(registry, "nitro_checkpoint");
  daemon.enable_delta_checkpoints();
  if (ckpt.load_chain("daemon").found ||
      ckpt.load("daemon").source != control::CheckpointStore::Source::kNone) {
    throw std::runtime_error("driver: checkpoint dir is not empty: " + cfg.checkpoint_dir);
  }

  xport::ExporterConfig ecfg;
  ecfg.endpoint = *xport::parse_endpoint("tcp:127.0.0.1:" +
                                         std::to_string(host.export_port()));
  ecfg.source_id = 1;
  xport::EpochExporter exporter(ecfg, xport::univmon_coalescer(um_cfg, kSeed));
  exporter.attach_telemetry(registry, "nitro_export");
  exporter.start();

  DriverResult result;
  Ledger& L = result.ledger;
  // nitro_monitor prints its "exporting epochs" line here, before it builds
  // the data-plane hook; the benchmark times the monitor's loop from that
  // line, so the driver's comparable loop time starts here too.
  L.marker_ns = now_ns();
  std::mutex pub_mu;  // publish stamps: epoch loop writes, ack watcher reads
  std::vector<std::uint64_t> publish_ns;
  std::uint64_t sink_ns = 0;
  daemon.set_export_sink([&](control::ExportedEpoch&& e) {
    const std::uint64_t s0 = now_ns();
    L.snapshot_kib.push_back(static_cast<double>(e.snapshot.size()) / 1024.0);
    L.last_close_ns = e.close_ns;
    if (cfg.traced) {
      xport::EpochMessage m;
      m.source_id = 1;
      m.seq_first = m.seq_last = L.published.size() + 1;
      m.span = e.span;
      m.packets = e.packets;
      m.epoch_close_ns = e.close_ns;
      m.seed_gen = e.seed_gen;
      m.snapshot = e.snapshot;
      L.published.push_back(std::move(m));
    }
    const std::uint64_t p0 = now_ns();
    exporter.publish(e.span, e.packets, std::move(e.snapshot), e.close_ns, e.seed_gen);
    const std::uint64_t p1 = now_ns();
    L.publish_ns += static_cast<double>(p1 - p0);
    L.publish_us.push_back(static_cast<double>(p1 - p0) / 1e3);
    {
      std::lock_guard lk(pub_mu);
      publish_ns.push_back(p0);
    }
    sink_ns += now_ns() - s0;
  });

  // Ack watcher (traced only): when epochs_acked() advances, every newly
  // acknowledged epoch's delivery time is now - its publish stamp.
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (cfg.traced) {
    watcher = std::thread([&] {
      std::uint64_t acked = 0;
      for (bool last_poll = false; !last_poll;) {
        // One more poll after stop: flush() may have just seen the last acks.
        last_poll = watch_stop.load(std::memory_order_relaxed);
        const std::uint64_t now_acked = exporter.epochs_acked();
        if (now_acked > acked) {
          const std::uint64_t t = now_ns();
          std::lock_guard lk(pub_mu);
          for (; acked < now_acked && acked < publish_ns.size(); ++acked) {
            L.delivery_ms.push_back(ms(t - publish_ns[acked]));
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& t;
    ~Joiner() {
      stop.store(true);
      if (t.joinable()) t.join();
    }
  } join_watcher{watch_stop, watcher};

  DaemonAdapter adapter{&daemon};
  std::unique_ptr<Group> group;
  std::unique_ptr<switchsim::Measurement> hook;
  if (cfg.workers > 1) {
    group = std::make_unique<Group>(
        static_cast<std::uint32_t>(cfg.workers), [&](std::uint32_t i) {
          core::NitroConfig shard_cfg = nitro_cfg;
          shard_cfg.seed = mix64(nitro_cfg.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
          return TimedUnivMon{core::NitroUnivMon(um_cfg, shard_cfg, kSeed), cfg.traced, 0};
        });
    group->attach_telemetry(registry, "nitro_shard");
    hook = std::make_unique<ShardedMeasurement>(*group);
  } else {
    hook = std::make_unique<switchsim::InlineMeasurement<DaemonAdapter>>(adapter);
  }
  TimedMeasurement timed_hook(*hook);
  switchsim::Measurement& measurement =
      cfg.traced ? static_cast<switchsim::Measurement&>(timed_hook) : *hook;
  ingest::IngestLoop loop(*backend, measurement, 32);

  const std::uint64_t total = backend->size_hint();
  const std::uint64_t per_epoch = total / static_cast<std::uint64_t>(cfg.epochs);
  std::uint64_t frames_since_full = 0;
  L.loop_start_ns = now_ns();
  for (int e = 0; e < cfg.epochs; ++e) {
    const bool last = e == cfg.epochs - 1;
    const std::uint64_t burst_before = timed_hook.ns;
    const std::uint64_t t0 = now_ns();
    L.packets += loop.run(last ? ~0ull : per_epoch);
    const std::uint64_t t1 = now_ns();
    measurement.finish();
    const std::uint64_t t2 = now_ns();
    const auto in_hook = static_cast<double>(timed_hook.ns - burst_before);
    L.burst_ns += in_hook;
    L.ingest_self_ns += static_cast<double>(t1 - t0) - in_hook;
    L.drain_ns += static_cast<double>(t2 - t1);
    L.drain_ms.push_back(ms(t2 - t1));

    if (group) {
      const std::uint64_t m0 = now_ns();
      for (std::uint32_t s = 0; s < group->workers(); ++s) {
        if (group->quarantined(s)) {
          throw std::runtime_error("driver: shard " + std::to_string(s) + " quarantined");
        }
        daemon.data_plane_mut().merge_from(group->instance(s).sketch);
        group->instance(s).sketch.clear();
      }
      const std::uint64_t m1 = now_ns();
      L.merge_ns += static_cast<double>(m1 - m0);
      L.merge_ms.push_back(ms(m1 - m0));
      group->reset_degradation();
      daemon.publish_telemetry();
    }
    L.sampled_updates += daemon.data_plane().sampled_updates();

    const bool want_full = !daemon.delta_ready() || frames_since_full >= 4;
    const std::uint64_t c0 = now_ns();
    const auto bytes = want_full ? daemon.checkpoint_bytes() : daemon.delta_checkpoint_bytes();
    const std::uint64_t c1 = now_ns();
    const auto saved = ckpt.save_frame("daemon", want_full, bytes);
    const std::uint64_t c2 = now_ns();
    if (!saved.ok) throw std::runtime_error("driver: checkpoint save failed");
    daemon.cut_checkpoint_frame();
    frames_since_full = want_full ? 1 : frames_since_full + 1;
    L.ckpt_encode_ns += static_cast<double>(c1 - c0);
    L.ckpt_write_ns += static_cast<double>(c2 - c1);
    L.ckpt_encode_ms.push_back(ms(c1 - c0));
    L.ckpt_write_ms.push_back(ms(c2 - c1));
    L.ckpt_kib.push_back(static_cast<double>(bytes.size()) / 1024.0);
    ++L.ckpt_frames;
    if (want_full) ++L.ckpt_full;

    const std::uint64_t sink_before = sink_ns;
    const std::uint64_t x0 = now_ns();
    daemon.end_epoch();
    const std::uint64_t x1 = now_ns();
    const auto self = static_cast<double>(x1 - x0) - static_cast<double>(sink_ns - sink_before);
    L.end_epoch_self_ns += self;
    L.end_epoch_ms.push_back(self / 1e6);
    ++L.epochs;
  }
  L.loop_end_ns = now_ns();

  if (group) {
    std::uint64_t max_pk = 0, sum_pk = 0;
    for (std::uint32_t s = 0; s < group->workers(); ++s) {
      max_pk = std::max(max_pk, group->shard_packets(s));
      sum_pk += group->shard_packets(s);
      L.worker_update_ns += static_cast<double>(group->instance(s).ns);
    }
    L.imbalance = sum_pk == 0 ? 0.0
                              : static_cast<double>(max_pk) * group->workers() /
                                    static_cast<double>(sum_pk);
    L.ring_drops = group->total_drops();
    group->stop();
  }

  const bool flushed = exporter.flush(10'000);
  exporter.stop();
  join_watcher.stop.store(true);
  if (watcher.joinable()) watcher.join();
  if (!flushed) throw std::runtime_error("driver: export did not drain");
  L.coalesced_epochs =
      registry.counter("nitro_export_coalesced_epochs_total").value();

  if (!host.wait_visible(L.epochs, 5000)) {
    throw std::runtime_error("driver: collector never showed every epoch");
  }
  const std::uint64_t t = now_ns();
  const auto view = host.core().view(t);
  result.view_packets = view->packets;
  result.view_epochs = view->epochs_applied;
  const std::string resp =
      host.query_server().handle("GET", "/heavy-hitters?top=100000", t);
  result.hh_flows = hh_flow_set(resp.substr(resp.find("\r\n\r\n") + 4));
  host.stop();
  return result;
}

CollectorLayers time_collector_layers(const std::vector<nitro::xport::EpochMessage>& msgs) {
  using namespace nitro;
  CollectorLayers out;
  xport::CollectorCore core(collector_config());
  xport::QueryServer qs(core, *xport::parse_endpoint("tcp:127.0.0.1:0"), query_config());
  // A synthetic clock one second apart per message: every view() after an
  // apply is past the min-refresh window, so it really folds.
  std::uint64_t now = now_ns();
  for (auto msg : msgs) {
    now += 1'000'000'000ULL;
    msg.send_ns = now;
    const std::uint64_t t0 = now_ns();
    const auto frame = xport::encode_epoch(msg);
    const std::uint64_t t1 = now_ns();
    const auto decoded = xport::decode_epoch(frame);
    const std::uint64_t t2 = now_ns();
    core.ingest(decoded, now);
    const std::uint64_t t3 = now_ns();
    core.view(now);
    const std::uint64_t t4 = now_ns();
    qs.handle("GET", "/heavy-hitters", now);
    const std::uint64_t t5 = now_ns();
    qs.handle("GET", "/heavy-hitters", now);
    const std::uint64_t t6 = now_ns();
    out.encode_ms.push_back(ms(t1 - t0));
    out.frame_kib.push_back(static_cast<double>(frame.size()) / 1024.0);
    out.decode_ms.push_back(ms(t2 - t1));
    out.apply_ms.push_back(ms(t3 - t2));
    out.fold_ms.push_back(ms(t4 - t3));
    out.query_ms.push_back(ms(t5 - t4));
    out.query_cached_us.push_back(static_cast<double>(t6 - t5) / 1e3);
  }
  return out;
}

std::vector<std::string> hh_flow_set(const std::string& body) {
  static const std::string kTag = "\"flow\":\"";
  std::vector<std::string> flows;
  std::size_t pos = 0;
  while ((pos = body.find(kTag, pos)) != std::string::npos) {
    pos += kTag.size();
    const std::size_t end = body.find('"', pos);
    if (end == std::string::npos) break;
    flows.push_back(body.substr(pos, end - pos));
    pos = end + 1;
  }
  std::sort(flows.begin(), flows.end());
  return flows;
}

}  // namespace e2ebench
