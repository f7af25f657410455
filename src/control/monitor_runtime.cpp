#include "control/monitor_runtime.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "export/recovery.hpp"
#include "telemetry/trace.hpp"

namespace nitro::control {

namespace {

using ShardGroup = shard::ShardGroup<core::NitroUnivMon>;

/// --workers N data plane: the ingest thread dispatches into the shard
/// group's rings; finish() is the per-epoch drain barrier.
class ShardedDaemonMeasurement final : public switchsim::Measurement {
 public:
  /// `accuracy` (may be null) is fed from the dispatch thread — the only
  /// place in the sharded integration that still sees every packet — so
  /// the exact reservoir matches the post-merge global sketch.
  ShardedDaemonMeasurement(ShardGroup& group, telemetry::AccuracyObserver* accuracy)
      : group_(group), accuracy_(accuracy) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    group_.update(key, 1, ts_ns);
    if (accuracy_ != nullptr) accuracy_->observe(key);
  }

  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    group_.update_burst(std::span<const FlowKey>(keys, n), 1, ts_ns);
    if (accuracy_ != nullptr) {
      accuracy_->observe_burst(std::span<const FlowKey>(keys, n));
    }
  }

  void finish() override { group_.drain(); }

 private:
  ShardGroup& group_;
  telemetry::AccuracyObserver* accuracy_;
};

}  // namespace

MonitorRuntime::MonitorRuntime(MonitorConfig cfg)
    : cfg_(std::move(cfg)),
      daemon_(cfg_.univmon, cfg_.nitro, cfg_.tasks, cfg_.seed) {
  if (cfg_.workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (cfg_.rotate_epochs > 0 && cfg_.workers > 1) {
    // Shard instances hold one fixed UnivMon seed for the run; merging
    // them into a daemon whose seed rotates per generation would cross
    // hash functions.  Per-shard rotation is future work.
    throw std::invalid_argument("--rotate-epochs is not yet supported with --workers > 1");
  }
  if (cfg_.recover_from_collector && !cfg_.exporter) {
    throw std::invalid_argument("--recover-from-collector needs --export-to");
  }
  if (cfg_.rotate_epochs > 0) {
    // Keyed epoch-boundary seed rotation (DESIGN.md §16): enabled on the
    // fresh daemon, before any restore — checkpoint frames are
    // generation-tagged and validated against this schedule.
    daemon_.enable_seed_rotation(cfg_.master_key, cfg_.rotate_epochs);
  }
  daemon_.attach_telemetry(registry_);

  // Online accuracy observer: exact-count a hash sample of flows and
  // compare against the sketch each epoch.
  if (cfg_.accuracy_sample > 0) {
    accuracy_ = std::make_unique<telemetry::AccuracyObserver>(
        cfg_.nitro.epsilon, /*sample_bits=*/6, cfg_.accuracy_sample);
    accuracy_->attach_telemetry(registry_, "nitro_univmon");
    daemon_.set_accuracy_observer(accuracy_.get());
  }

  restore_failures_ = &registry_.counter(
      "nitro_checkpoint_restore_failures_total",
      "checkpoint frames or restore attempts rejected at startup");
  if (!cfg_.checkpoint_dir.empty()) {
    store_ = std::make_unique<CheckpointStore>(cfg_.checkpoint_dir);
    store_->attach_telemetry(registry_, "nitro_checkpoint");
    daemon_.enable_delta_checkpoints();
  }

  // Resilient epoch export: retry with backoff, a circuit breaker and
  // backlog coalescing, never blocking the epoch loop or dropping an
  // epoch.  With rotation on, coalescing must be generation-aware: frames
  // from different seed generations hash differently and never merge.
  if (cfg_.exporter) {
    exporter_ = std::make_unique<xport::EpochExporter>(
        *cfg_.exporter,
        cfg_.rotate_epochs > 0 ? xport::univmon_coalescer(cfg_.univmon, daemon_.seed_schedule())
                               : xport::univmon_coalescer(cfg_.univmon, cfg_.seed));
    exporter_->attach_telemetry(registry_, "nitro_export");
  }

  if (cfg_.workers > 1) {
    shard::ShardOptions shard_opts;
    // Churn admission valve (DESIGN.md §16): a window whose unique-flow
    // fraction crosses the threshold escalates the same degrade ladder
    // ring overflow uses instead of melting down.
    shard_opts.valve = cfg_.valve;
    group_ = std::make_unique<ShardGroup>(
        cfg_.workers,
        [this](std::uint32_t i) {
          // Same UnivMon seed everywhere (mergeable counters); decorrelated
          // per-shard sampler seeds.
          core::NitroConfig shard_cfg = cfg_.nitro;
          shard_cfg.seed = mix64(cfg_.nitro.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
          return core::NitroUnivMon(cfg_.univmon, shard_cfg, cfg_.seed);
        },
        shard_opts);
    group_->attach_telemetry(registry_, "nitro_shard");
    hook_ = std::make_unique<ShardedDaemonMeasurement>(*group_, accuracy_.get());
  } else {
    hook_ = std::make_unique<switchsim::InlineMeasurement<DaemonSketchAdapter>>(adapter_);
  }
}

Restored MonitorRuntime::restore() {
  Restored out;
  if (store_) restore_from_chain(out);
  std::uint64_t settled_seq = 0;  // the collector's, for a replica restore
  if (out.source == RestoreSource::kNone && cfg_.recover_from_collector) {
    restore_from_collector(out, settled_seq);
  }
  registry_
      .gauge("nitro_checkpoint_restore_source",
             "what seeded the daemon: 0 none, 3 chain, 4 collector")
      .set(static_cast<double>(out.source));

  if (exporter_) {
    if (out.source == RestoreSource::kCollector) {
      // Resume after the collector's settled sequence number so the
      // rejoin never redelivers an already-applied epoch.
      exporter_->set_next_seq(settled_seq + 1);
    } else if (out.source == RestoreSource::kChain) {
      // Epochs 0..epoch()-1 already went out as seqs 1..epoch(), so the
      // re-closed current epoch goes out as seq epoch()+1 — the collector
      // settles it as a duplicate if the previous process delivered it.
      exporter_->set_next_seq(daemon_.epoch() + 1);
    }
    exporter_->start();
    daemon_.set_export_sink([this](ExportedEpoch&& e) {
      exporter_->publish(e.span, e.packets, std::move(e.snapshot), e.close_ns,
                         e.seed_gen);
    });
  }
  return out;
}

void MonitorRuntime::restore_from_chain(Restored& out) {
  const auto chain = store_->load_chain("daemon");
  out.frames_rejected = chain.frames_rejected;
  if (chain.frames_rejected > 0) {
    restore_failures_->inc(chain.frames_rejected);
    std::fprintf(stderr, "checkpoint: %llu torn/corrupt chain frame(s) rejected (%s)\n",
                 static_cast<unsigned long long>(chain.frames_rejected),
                 chain.error.c_str());
  }
  if (!chain.found) return;
  try {
    daemon_.restore_checkpoint(chain.base);
  } catch (const std::exception& e) {
    restore_failures_->inc();
    std::fprintf(stderr, "checkpoint: chain base restore FAILED (%s)\n", e.what());
    return;
  }
  out.source = RestoreSource::kChain;
  std::size_t applied = 0;
  for (const auto& d : chain.deltas) {
    try {
      daemon_.apply_delta_checkpoint(d);
      ++applied;
    } catch (const std::exception& e) {
      // The earlier frames already restored a consistent state; keep it
      // and drop the rest of the chain.
      restore_failures_->inc();
      std::fprintf(stderr,
                   "checkpoint: delta frame rejected (%s); keeping the state "
                   "restored so far\n",
                   e.what());
      break;
    }
  }
  std::printf("checkpoint: restored epoch %llu from chain (base %llu + %zu delta(s))\n",
              static_cast<unsigned long long>(daemon_.epoch()),
              static_cast<unsigned long long>(chain.base_gen), applied);
}

void MonitorRuntime::restore_from_collector(Restored& out, std::uint64_t& settled_seq) {
  // Rebuild-from-collector: with no usable local state, ask the collector
  // for its last-applied replica and resume exporting after its settled
  // sequence number — the merged view never double-counts.
  const std::uint64_t source_id = cfg_.exporter->source_id;
  const auto rec = xport::request_recovery(cfg_.exporter->endpoint, source_id,
                                           /*timeout_ms=*/2000, /*attempts=*/4);
  if (!rec.ok) {
    restore_failures_->inc();
    std::fprintf(stderr, "recover: %s\n", rec.error.c_str());
    return;
  }
  if (!rec.resp.found) {
    std::printf("recover: collector has no state for source %llu; starting fresh\n",
                static_cast<unsigned long long>(source_id));
    return;
  }
  try {
    daemon_.seed_from_recovery(rec.resp.span.last + 1, rec.resp.snapshot, rec.resp.packets,
                               rec.resp.seed_gen);
  } catch (const std::exception& e) {
    restore_failures_->inc();
    std::fprintf(stderr, "recover: replica rejected (%s)\n", e.what());
    return;
  }
  settled_seq = rec.resp.last_seq;
  out.source = RestoreSource::kCollector;
  std::printf("recover: seeded from collector replica (epochs %llu..%llu, seq settled at %llu)\n",
              static_cast<unsigned long long>(rec.resp.span.first),
              static_cast<unsigned long long>(rec.resp.span.last),
              static_cast<unsigned long long>(rec.resp.last_seq));
}

EpochReport MonitorRuntime::close_epoch() {
  hook_->finish();
  if (group_) {
    telemetry::ScopedSpan merge_span(telemetry::Stage::kShardMerge);
    // The drain left the shards quiescent: merge every live shard into the
    // daemon's idle data plane and reset it for the next epoch, so task
    // estimation runs on the coherent merged view.  Quarantined shards
    // (dead/wedged workers caught by the drain watchdog) are excluded —
    // the report covers the survivors.
    for (std::uint32_t s = 0; s < group_->workers(); ++s) {
      if (group_->quarantined(s)) {
        std::fprintf(stderr, "shard %u QUARANTINED (worker %s); excluded from merge\n", s,
                     group_->worker_alive(s) ? "wedged" : "dead");
        continue;
      }
      daemon_.data_plane_mut().merge_from(group_->instance(s));
      group_->instance(s).clear();
    }
    group_->reset_degradation();
    daemon_.publish_telemetry();
  }
  if (store_) {
    // Persist before closing the epoch: a crash inside end_epoch then
    // costs at most the current epoch, never an already-reported one.
    // A full base every checkpoint_full_every frames (or whenever the
    // dirty state cannot be expressed as a delta); run-length deltas of
    // the touched segments between.
    const bool want_full =
        !daemon_.delta_ready() || frames_since_full_ >= cfg_.checkpoint_full_every;
    const auto saved = store_->save_frame(
        "daemon", want_full,
        want_full ? daemon_.checkpoint_bytes() : daemon_.delta_checkpoint_bytes());
    if (saved.ok) {
      daemon_.cut_checkpoint_frame();
      frames_since_full_ = want_full ? 1 : frames_since_full_ + 1;
    } else {
      std::fprintf(stderr, "checkpoint: save FAILED for epoch %llu\n",
                   static_cast<unsigned long long>(daemon_.epoch()));
    }
  }
  return daemon_.end_epoch();
}

bool MonitorRuntime::shutdown(int flush_ms) {
  bool flushed = true;
  if (exporter_) {
    // An unreachable collector must not wedge the monitor: flush for a
    // bounded time, then stop regardless.
    flushed = exporter_->flush(flush_ms);
    if (!flushed) {
      std::fprintf(stderr, "export: %zu epoch message(s) undelivered at shutdown\n",
                   exporter_->queue_depth());
    }
    exporter_->stop();
  }
  if (group_) group_->stop();
  return flushed;
}

}  // namespace nitro::control
