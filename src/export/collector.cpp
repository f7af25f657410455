#include "export/collector.hpp"

#include <algorithm>
#include <chrono>

#include "control/codec.hpp"
#include "fault/fault.hpp"
#include "sketch/anomaly.hpp"

namespace nitro::xport {

// ---------------------------------------------------------------------------
// CollectorCore

CollectorCore::CollectorCore(const CollectorConfig& cfg)
    : cfg_(cfg),
      sched_{cfg.seed, cfg.master_key, cfg.rotation_epochs},
      net_acc_(std::make_unique<sketch::UnivMon>(cfg.um_cfg, sched_.seed_for(0))) {
  index_.store(std::make_shared<const Index>());
  // Generation 0: empty view, valid until the first source appears.  With
  // rotation on, generation 0 is already keyed — replicas must start at
  // seed_for(0), not the raw base seed, or the first ingest can't merge.
  auto v = std::make_shared<NetworkView>(cfg_.um_cfg, sched_.seed_for(0));
  view_.store(ViewPtr(std::move(v)));
}

bool CollectorCore::refresh_staleness(Source& src, std::uint64_t now_ns) const {
  const bool stale_now =
      is_stale(src.last_seen_ns.load(std::memory_order_relaxed), now_ns);
  if (stale_now && !src.stats.stale) {
    src.stats.stale = true;
    if (quarantines_ != nullptr) quarantines_->inc();
    version_.fetch_add(1, std::memory_order_release);
  } else if (!stale_now && src.stats.stale) {
    src.stats.stale = false;
    ++src.stats.rejoins;
    if (rejoins_ != nullptr) rejoins_->inc();
    version_.fetch_add(1, std::memory_order_release);
  }
  return stale_now;
}

CollectorCore::Source* CollectorCore::find_or_create(std::uint64_t source_id) {
  const IndexPtr idx = index_.load();
  const auto it = std::lower_bound(
      idx->begin(), idx->end(), source_id,
      [](const IndexEntry& e, std::uint64_t id) { return e.id < id; });
  if (it != idx->end() && it->id == source_id) return it->src;

  std::lock_guard lk(map_mu_);
  auto [map_it, inserted] =
      sources_.try_emplace(source_id, nullptr);
  if (inserted) {
    map_it->second = std::make_unique<Source>(cfg_, sched_.seed_for(0));
    map_it->second->stats.source_id = source_id;
    // Publish a new sorted index (copy-on-write; map iteration is sorted).
    auto fresh = std::make_shared<Index>();
    fresh->reserve(sources_.size());
    for (const auto& [id, src] : sources_) fresh->push_back({id, src.get()});
    index_.store(IndexPtr(std::move(fresh)));
  }
  return map_it->second.get();
}

RecoverResponse CollectorCore::recovery_snapshot(std::uint64_t source_id) const {
  RecoverResponse resp;
  resp.source_id = source_id;
  const IndexPtr idx = index_.load();
  const auto it = std::lower_bound(
      idx->begin(), idx->end(), source_id,
      [](const IndexEntry& e, std::uint64_t id) { return e.id < id; });
  if (it == idx->end() || it->id != source_id) return resp;  // found = false
  Source& src = *it->src;
  std::lock_guard lk(src.mu);
  if (src.stats.last_seq == 0) return resp;  // known but nothing applied yet
  resp.found = true;
  resp.last_seq = src.stats.last_seq;
  resp.span = src.stats.span;
  // The replica holds exactly one seed generation (rotation resets it),
  // so the packet count describing its contents is the per-generation
  // one — identical to the cumulative count when rotation is off.
  resp.packets = src.stats.gen_packets;
  resp.seed_gen = src.stats.seed_gen;
  // The cumulative accumulator *is* the last-applied replica; serializing
  // it under src.mu keeps it consistent with last_seq/span/packets.
  resp.snapshot = control::snapshot_univmon(src.acc);
  return resp;
}

CollectorCore::Ingest CollectorCore::ingest(const EpochMessage& msg,
                                            std::uint64_t now_ns) {
  // Collector-side half of the epoch's trace: keyed by the message's
  // oldest covered epoch, matching the exporter's wire_send span.
  telemetry::ScopedSpan trace(telemetry::Stage::kCollectorApply, msg.source_id,
                              msg.span.first, tracer_);

  // Decode with NO lock held — it needs only the config, and it is the
  // expensive part of ingest.  A stall here (injected or real) must never
  // block another source's apply.
  std::uint64_t param = 0;
  if (fault::point(fault::Site::kCollectorDecode,
                   static_cast<std::uint32_t>(msg.source_id),
                   &param) == fault::Action::kStall) {
    fault::stall_ns(param, [] { return false; });
  }
  sketch::UnivMon tmp(cfg_.um_cfg, sched_.seed_for(msg.seed_gen));
  control::load_univmon(msg.snapshot, tmp);  // throws on corruption

  Source* src_ptr = find_or_create(msg.source_id);
  Source& src = *src_ptr;
  std::lock_guard lk(src.mu);
  // Any message — even a duplicate — proves the source is alive; a
  // quarantined source rejoins here (counted by refresh_staleness).
  src.last_seen_ns.store(now_ns, std::memory_order_relaxed);
  refresh_staleness(src, now_ns);

  const std::uint64_t applied_up_to = src.stats.last_seq;
  if (msg.seq_last <= applied_up_to) {
    ++src.stats.duplicates;
    if (duplicates_ != nullptr) duplicates_->inc();
    return Ingest::kDuplicate;
  }
  if (msg.seq_first <= applied_up_to) {
    // Straddles the applied boundary: part of this coalesced sketch is
    // already in the accumulator and a merged sketch cannot be split, so
    // applying any of it would double-count.  Drop whole, loudly.
    ++src.stats.overlap_dropped;
    if (overlap_dropped_ != nullptr) overlap_dropped_->inc();
    return Ingest::kOverlapDropped;
  }
  if (msg.seed_gen < src.stats.seed_gen) {
    // A backward seed generation with a fresh sequence number: an honest
    // monitor's generations only advance (a checkpoint rollback also
    // rolls the sequence back, which the duplicate check above already
    // settled), so this sketch was hashed under a seed the replica no
    // longer holds.  Drop whole and count; ack as duplicate so a
    // confused-but-live exporter settles the entry instead of wedging
    // in retries.
    ++src.stats.stale_generation_dropped;
    if (stale_gen_dropped_ != nullptr) stale_gen_dropped_->inc();
    return Ingest::kDuplicate;
  }
  if (msg.seed_gen > src.stats.seed_gen) {
    // The source rotated onto a new keyed seed (DESIGN.md §16).  The
    // replica's counters are hashed under the old seed and can never be
    // merged with the new generation — reset to fresh sketches at the
    // derived seed.  The network view re-folds at the new generation on
    // its next build.
    const std::uint64_t rotated_seed = sched_.seed_for(msg.seed_gen);
    src.acc = sketch::UnivMon(cfg_.um_cfg, rotated_seed);
    src.pending = sketch::UnivMon(cfg_.um_cfg, rotated_seed);
    src.dirty = false;
    src.stats.seed_gen = msg.seed_gen;
    src.stats.gen_packets = 0;
    ++src.stats.generation_rotations;
    if (gen_rotations_ != nullptr) gen_rotations_->inc();
  }

  src.acc.merge(tmp);      // full accumulator (full re-folds)
  src.pending.merge(tmp);  // delta since the last fold (incremental builds)
  src.dirty = true;

  if (msg.seq_first > applied_up_to + 1) {
    const std::uint64_t lost = msg.seq_first - applied_up_to - 1;
    src.stats.gap_epochs += lost;
    if (gap_epochs_ != nullptr) gap_epochs_->inc(lost);
  }
  const std::uint64_t covered = msg.epochs_covered();
  src.stats.last_seq = msg.seq_last;
  src.stats.epochs_applied += covered;
  ++src.stats.messages_applied;
  if (covered > 1) {
    src.stats.coalesced_epochs += covered;
    if (coalesced_epochs_ != nullptr) coalesced_epochs_->inc(covered);
  }
  if (src.stats.epochs_applied == covered) {
    src.stats.span = msg.span;
  } else {
    src.stats.span.widen(msg.span);
  }
  src.stats.packets += msg.packets;
  src.stats.gen_packets += msg.packets;
  epochs_applied_.fetch_add(covered, std::memory_order_relaxed);
  if (messages_applied_ != nullptr) messages_applied_->inc();
  if (epochs_applied_ctr_ != nullptr) epochs_applied_ctr_->inc(covered);

  // End-to-end freshness from the wire timestamps (0 = unstamped, skip).
  // Clocks are compared across processes: meaningful for same-host
  // steady clocks (this repo's deployments/tests); clamp to 0 otherwise.
  if (msg.epoch_close_ns != 0) {
    src.stats.last_epoch_close_ns = msg.epoch_close_ns;
    src.stats.e2e_lag_ns =
        now_ns > msg.epoch_close_ns ? now_ns - msg.epoch_close_ns : 0;
    if (e2e_lag_ns_ != nullptr) e2e_lag_ns_->observe(src.stats.e2e_lag_ns);
    if (registry_ != nullptr && src.e2e_lag_gauge == nullptr) {
      const std::string id = std::to_string(msg.source_id);
      src.e2e_lag_gauge =
          &registry_->gauge(prefix_ + "_source_" + id + "_e2e_lag_ns",
                            "epoch close -> applied latency, last message");
      src.freshness_gauge =
          &registry_->gauge(prefix_ + "_source_" + id + "_freshness_ns",
                            "age of the newest applied epoch (grows while silent)");
    }
    if (src.e2e_lag_gauge != nullptr) {
      src.e2e_lag_gauge->set(static_cast<double>(src.stats.e2e_lag_ns));
    }
    if (src.freshness_gauge != nullptr) {
      src.freshness_gauge->set(static_cast<double>(src.stats.e2e_lag_ns));
    }
  }
  if (msg.send_ns != 0) {
    src.stats.last_send_ns = msg.send_ns;
    src.stats.wire_lag_ns = now_ns > msg.send_ns ? now_ns - msg.send_ns : 0;
    if (wire_lag_ns_ != nullptr) wire_lag_ns_->observe(src.stats.wire_lag_ns);
  }
  // The applied epoch changed the network view: invalidate the published
  // generation.  Release-ordered after every state write above so a
  // reader that observes the new version also observes the new state.
  version_.fetch_add(1, std::memory_order_release);
  return Ingest::kApplied;
}

std::vector<CollectorCore::SourceStats> CollectorCore::sources(
    std::uint64_t now_ns) const {
  const IndexPtr idx = index_.load();
  std::vector<SourceStats> out;
  out.reserve(idx->size());
  for (const IndexEntry& e : *idx) {
    std::lock_guard lk(e.src->mu);
    refresh_staleness(*e.src, now_ns);
    out.push_back(copy_stats(*e.src));
  }
  return out;
}

bool CollectorCore::is_current(const NetworkView& v, std::uint64_t now_ns) const {
  // Optional rate limit: a young-enough generation is served as-is even
  // if ingest moved on (bounded, configured staleness for read scaling).
  if (cfg_.min_refresh_interval_ns != 0 && now_ns > v.built_at_ns &&
      now_ns - v.built_at_ns < cfg_.min_refresh_interval_ns) {
    return true;
  }
  if (v.version != version_.load(std::memory_order_acquire)) return false;
  // Same data — but staleness is a function of time: re-evaluate each
  // source's liveness at now_ns against what the generation folded.
  // No source lock taken: last_seen is atomic and the index is
  // copy-on-write (its slot mutex covers only the pointer copy).
  const IndexPtr idx = index_.load();
  if (idx->size() != v.sources.size()) return false;  // new source appeared
  for (std::size_t i = 0; i < idx->size(); ++i) {
    const std::uint64_t seen =
        (*idx)[i].src->last_seen_ns.load(std::memory_order_relaxed);
    if (is_stale(seen, now_ns) != v.sources[i].stale) return false;
  }
  return true;
}

CollectorCore::ViewPtr CollectorCore::view(std::uint64_t now_ns) const {
  ViewPtr cur = view_.load();
  if (is_current(*cur, now_ns)) return cur;
  std::lock_guard bl(build_mu_);
  cur = view_.load();
  if (is_current(*cur, now_ns)) return cur;  // a racing reader built it
  return rebuild(now_ns);
}

CollectorCore::ViewPtr CollectorCore::rebuild(std::uint64_t now_ns) const {
  // Capture the version BEFORE reading any source state: changes applied
  // during the build bump past v0 and invalidate this generation, so a
  // fold can include more than v0 promised but never less.
  const std::uint64_t v0 = version_.load(std::memory_order_acquire);
  const IndexPtr idx = index_.load();

  std::shared_ptr<NetworkView> next;
  std::uint64_t folds = 0;
  std::uint64_t fold_gen = 0;
  bool full = false;
  std::vector<std::uint64_t> fold_ids;
  // Rotation retry: if a source rotates its seed generation between the
  // passes, the pass-2 fold would mix hash generations — abort and redo
  // the build as a full reseeded re-fold (from the accumulators, so any
  // pending deltas already cleared by the aborted pass are harmless).
  // Rotations are epoch-scale events, so this loop retries at most once
  // in practice.
  bool force_full = false;
  for (bool retry = true; retry;) {
    retry = false;

    // Pass 1 (cheap): staleness accounting, this build's liveness
    // decision, and each source's seed generation.  The fold covers the
    // newest generation among the live sources; a live source still on an
    // older generation is excluded (like a stale one) until it rotates.
    std::vector<char> alive_flags(idx->size(), 0);
    std::vector<std::uint64_t> gens(idx->size(), 0);
    {
      std::size_t i = 0;
      for (const IndexEntry& e : *idx) {
        std::lock_guard lk(e.src->mu);
        if (!refresh_staleness(*e.src, now_ns)) alive_flags[i] = 1;
        gens[i] = e.src->stats.seed_gen;
        ++i;
      }
    }
    fold_gen = 0;
    for (std::size_t i = 0; i < idx->size(); ++i) {
      if (alive_flags[i]) fold_gen = std::max(fold_gen, gens[i]);
    }
    std::vector<char> fold_flags(idx->size(), 0);
    fold_ids.clear();
    fold_ids.reserve(idx->size());
    for (std::size_t i = 0; i < idx->size(); ++i) {
      if (alive_flags[i] && gens[i] == fold_gen) {
        fold_flags[i] = 1;
        fold_ids.push_back((*idx)[i].id);
      }
    }

    full = force_full || fold_ids != folded_live_ || fold_gen != folded_gen_;
    if (full) {
      // The folded set changed (quarantine, rejoin, first build, seed
      // rotation): the running fold contains sources or a hash generation
      // it must no longer contain, and sketch merges cannot be
      // subtracted — re-fold every covered source from its full
      // accumulator.  A generation change also reseeds the accumulator:
      // counters only merge between identically hashed sketches.
      if (fold_gen != folded_gen_) {
        *net_acc_ = sketch::UnivMon(cfg_.um_cfg, sched_.seed_for(fold_gen));
      } else {
        net_acc_->clear();
      }
    }

    next = std::make_shared<NetworkView>(cfg_.um_cfg, sched_.seed_for(fold_gen));
    next->sources.reserve(idx->size());
    folds = 0;

    // Pass 2: fold + copy stats under the SAME lock hold, so each folded
    // source's (sketch delta, gen_packets) pair is coherent — the
    // conservation invariant merged.total() == sum(folded gen_packets)
    // holds per generation even under concurrent ingest.  The dirty flag
    // is re-read under the lock: an epoch applied between the passes is
    // folded AND counted.  Liveness sticks to the pass-1 decision — a
    // source rejoining mid-build is excluded from both the fold and the
    // packet sum of this generation (its version bump invalidates the
    // generation immediately anyway).
    for (std::size_t i = 0; i < idx->size(); ++i) {
      Source& src = *(*idx)[i].src;
      std::lock_guard lk(src.mu);
      if (src.stats.seed_gen != gens[i]) {
        // Rotated since pass 1: this source's sketches changed hash
        // generation mid-build.  Restart as a full re-fold.
        retry = true;
        force_full = true;
        break;
      }
      if (fold_flags[i] && (full || src.dirty)) {
        // One merge span per folded source, keyed by its newest applied
        // epoch — the final stage of that epoch's end-to-end trace.
        telemetry::ScopedSpan span(telemetry::Stage::kNetworkMerge,
                                   (*idx)[i].id, src.stats.span.last, tracer_);
        net_acc_->merge(full ? src.acc : src.pending);
        src.pending.clear();
        src.dirty = false;
        ++folds;
      }
      SourceStats s = copy_stats(src);
      s.stale = alive_flags[i] == 0;  // this build's decision, not the current flag
      if (fold_flags[i]) next->packets += s.gen_packets;
      next->sources.push_back(std::move(s));
    }
  }

  next->merged = *net_acc_;
  next->generation = ++generation_seq_;
  next->version = v0;
  next->built_at_ns = now_ns;
  next->seed_gen = fold_gen;
  next->epochs_applied = epochs_applied_.load(std::memory_order_relaxed);
  next->folds = folds;
  next->full_rebuild = full;

  folded_live_ = std::move(fold_ids);
  folded_gen_ = fold_gen;
  folds_total_.fetch_add(folds, std::memory_order_relaxed);
  generations_.fetch_add(1, std::memory_order_relaxed);
  if (full) full_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  if (folds_ctr_ != nullptr) folds_ctr_->inc(folds);
  if (generations_ctr_ != nullptr) generations_ctr_->inc();
  if (full && full_rebuilds_ctr_ != nullptr) full_rebuilds_ctr_->inc();

  // Anomaly surface (DESIGN.md §16), refreshed per generation build: a
  // crafted collision flood concentrates level-0 row mass into a few
  // buckets (pressure way above its benign baseline), a churn storm
  // drives the merged heaps' eviction count.
  if (collision_pressure_gauge_ != nullptr) {
    collision_pressure_gauge_->set(sketch::collision_pressure(next->merged));
  }
  if (merged_heap_evictions_gauge_ != nullptr) {
    merged_heap_evictions_gauge_->set(
        static_cast<double>(next->merged.heap_evictions()));
  }
  if (seed_gen_gauge_ != nullptr) {
    seed_gen_gauge_->set(static_cast<double>(fold_gen));
  }

  ViewPtr published(std::move(next));
  view_.store(published);
  return published;
}

void CollectorCore::attach_telemetry(telemetry::Registry& registry,
                                     const std::string& prefix) {
  messages_applied_ = &registry.counter(prefix + "_messages_applied_total",
                                        "epoch messages merged into a source");
  epochs_applied_ctr_ = &registry.counter(prefix + "_epochs_applied_total",
                                          "epochs merged (coalesced count as many)");
  duplicates_ = &registry.counter(prefix + "_duplicate_messages_total",
                                  "redelivered messages dropped idempotently");
  overlap_dropped_ = &registry.counter(
      prefix + "_overlap_dropped_total",
      "messages straddling the applied boundary, dropped to avoid double-count");
  gap_epochs_ = &registry.counter(prefix + "_gap_epochs_total",
                                  "epochs lost to sequence gaps");
  coalesced_epochs_ = &registry.counter(
      prefix + "_coalesced_epochs_total", "epochs that arrived pre-merged");
  quarantines_ = &registry.counter(prefix + "_quarantine_transitions_total",
                                   "live -> stale source transitions");
  rejoins_ = &registry.counter(prefix + "_rejoin_transitions_total",
                               "stale -> live source transitions");
  gen_rotations_ = &registry.counter(
      prefix + "_generation_rotations_total",
      "per-source replica resets onto a newer seed generation");
  stale_gen_dropped_ = &registry.counter(
      prefix + "_stale_generation_dropped_total",
      "messages dropped for carrying an already-retired seed generation");
  folds_ctr_ = &registry.counter(
      prefix + "_source_folds_total",
      "per-source folds into the network view (dirty-only when incremental)");
  full_rebuilds_ctr_ = &registry.counter(
      prefix + "_full_rebuilds_total",
      "generation builds that re-folded every live source (live set changed)");
  generations_ctr_ = &registry.counter(prefix + "_generations_total",
                                       "network-view generations published");
  sources_live_ = &registry.gauge(prefix + "_sources_live", "sources in the merged view");
  sources_stale_ = &registry.gauge(prefix + "_sources_stale",
                                   "sources quarantined for staleness");
  merged_packets_gauge_ = &registry.gauge(prefix + "_merged_packets",
                                          "packet total over live sources");
  collision_pressure_gauge_ = &registry.gauge(
      prefix + "_collision_pressure",
      "level-0 residual row concentration of the merged view (crafted "
      "collision floods spike this far above the benign baseline)");
  merged_heap_evictions_gauge_ = &registry.gauge(
      prefix + "_merged_heap_evictions",
      "cumulative heavy-hitter heap evictions in the merged view (churn "
      "storms drive the velocity of this)");
  seed_gen_gauge_ = &registry.gauge(prefix + "_seed_generation",
                                    "seed generation the merged view folds");
  e2e_lag_ns_ = &registry.histogram(
      prefix + "_e2e_lag_ns",
      "epoch close at source -> applied here, per applied message");
  wire_lag_ns_ = &registry.histogram(
      prefix + "_wire_lag_ns", "send stamp -> applied here, per applied message");
  registry_ = &registry;
  prefix_ = prefix;
}

void CollectorCore::publish_telemetry(std::uint64_t now_ns) {
  const IndexPtr idx = index_.load();
  std::int64_t packets = 0;
  double live = 0, stale = 0;
  for (const IndexEntry& e : *idx) {
    Source& src = *e.src;
    std::lock_guard lk(src.mu);
    if (refresh_staleness(src, now_ns)) {
      stale += 1;
    } else {
      live += 1;
      packets += src.stats.packets;
    }
    // Freshness keeps growing while a source is silent — the gauge makes
    // the staleness-quarantine decision visible as it approaches.
    if (src.freshness_gauge != nullptr && src.stats.last_epoch_close_ns != 0 &&
        now_ns > src.stats.last_epoch_close_ns) {
      src.freshness_gauge->set(
          static_cast<double>(now_ns - src.stats.last_epoch_close_ns));
    }
  }
  if (sources_live_ != nullptr) sources_live_->set(live);
  if (sources_stale_ != nullptr) sources_stale_->set(stale);
  if (merged_packets_gauge_ != nullptr) {
    merged_packets_gauge_->set(static_cast<double>(packets));
  }
}

// ---------------------------------------------------------------------------
// CollectorServer

CollectorServer::CollectorServer(const CollectorConfig& cfg, const Endpoint& listen_ep)
    : owned_core_(std::make_unique<CollectorCore>(cfg)), listen_ep_(listen_ep) {
  core_ = owned_core_.get();
}

CollectorServer::CollectorServer(CollectorCore& core, const Endpoint& listen_ep)
    : core_(&core), listen_ep_(listen_ep) {}

CollectorServer::~CollectorServer() { stop(); }

bool CollectorServer::start() {
  if (started_) return true;
  if (!listener_.open(listen_ep_)) return false;
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void CollectorServer::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  reap_connections(/*join_all=*/true);  // handlers exit on stop_
  started_ = false;
}

std::size_t CollectorServer::tracked_connections() const {
  std::lock_guard lk(conn_mu_);
  return conns_.size();
}

void CollectorServer::reap_connections(bool join_all) {
  // Move joinable threads out of the registry first so the (possibly
  // blocking) joins run without conn_mu_ held.
  std::vector<std::thread> finished;
  {
    std::lock_guard lk(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (join_all || it->done->load(std::memory_order_acquire)) {
        finished.push_back(std::move(it->thread));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

Endpoint CollectorServer::endpoint() const {
  Endpoint ep = listen_ep_;
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    ep.port = listener_.bound_port();
  }
  return ep;
}

void CollectorServer::attach_telemetry(telemetry::Registry& registry,
                                       const std::string& prefix) {
  core_->attach_telemetry(registry, prefix);
  connections_ = &registry.counter(prefix + "_connections_total",
                                   "monitor connections accepted");
  frames_rejected_ = &registry.counter(
      prefix + "_frames_rejected_total",
      "undecodable frames/messages (each poisons its connection)");
  injected_drops_ = &registry.counter(prefix + "_injected_drops_total",
                                      "fault-injected frame drops (no ack sent)");
  injected_conn_kills_ = &registry.counter(prefix + "_injected_conn_kills_total",
                                           "fault-injected connection kills");
  acks_sent_ = &registry.counter(prefix + "_acks_sent_total", "acks written back");
  recover_requests_ = &registry.counter(prefix + "_recover_requests_total",
                                        "wire-v3 recover requests received");
  recover_served_ = &registry.counter(
      prefix + "_recover_served_total",
      "recover responses written back (found or not)");
  injected_recover_drops_ =
      &registry.counter(prefix + "_injected_recover_drops_total",
                        "fault-injected recover-request drops (no response)");
  active_connections_ = &registry.gauge(prefix + "_active_connections",
                                        "currently connected monitors");
}

std::uint64_t CollectorServer::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void CollectorServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Reap before (possibly) blocking in accept: handler threads of
    // disconnected monitors are joined here, so a flaky link that
    // reconnects forever holds a bounded number of threads.
    reap_connections(/*join_all=*/false);
    Socket sock = listener_.accept_conn(100);
    if (!sock.valid()) continue;
    if (connections_ != nullptr) connections_->inc();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard lk(conn_mu_);
    conns_.push_back(Conn{
        std::thread([this, s = std::move(sock), done]() mutable {
          handle_connection(std::move(s));
          done->store(true, std::memory_order_release);
        }),
        done});
  }
}

void CollectorServer::handle_connection(Socket sock) {
  active_conns_.fetch_add(1, std::memory_order_relaxed);
  if (active_connections_ != nullptr) {
    active_connections_->set(static_cast<double>(active_conns_.load()));
  }
  FrameAssembler assembler(core_->config().max_frame_bytes);
  std::uint8_t buf[64 * 1024];
  std::vector<std::uint8_t> frame;
  bool alive = true;
  while (alive && !stop_.load(std::memory_order_relaxed)) {
    std::size_t got = 0;
    switch (sock.recv_some(buf, sizeof buf, 200, &got)) {
      case Socket::RecvResult::kData:
        assembler.feed(std::span<const std::uint8_t>(buf, got));
        break;
      case Socket::RecvResult::kTimeout:
        core_->publish_telemetry(now_ns());
        continue;
      case Socket::RecvResult::kClosed:
      case Socket::RecvResult::kError:
        alive = false;
        continue;
    }
    try {
      while (alive && assembler.next_frame(frame)) {
        const std::uint32_t magic = peek_message_magic(frame);
        if (magic == kRecoverReqMagic) {
          // Wire v3 rejoin handshake: a restarting monitor asks for its
          // last-applied replica (DESIGN.md §15).
          const RecoverRequest req = decode_recover_request(frame);
          if (recover_requests_ != nullptr) recover_requests_->inc();
          const auto action =
              fault::point(fault::Site::kRecoverServe,
                           static_cast<std::uint32_t>(req.source_id));
          if (action == fault::Action::kReject) {
            // Simulated recover-request loss: no response, the monitor's
            // recovery client times out and retries.
            if (injected_recover_drops_ != nullptr) injected_recover_drops_->inc();
            continue;
          }
          if (action == fault::Action::kDie) {
            if (injected_conn_kills_ != nullptr) injected_conn_kills_->inc();
            alive = false;
            break;
          }
          const RecoverResponse resp = core_->recovery_snapshot(req.source_id);
          if (!sock.send_all(encode_recover_response(resp), 2000)) {
            alive = false;
            break;
          }
          if (recover_served_ != nullptr) recover_served_->inc();
          continue;
        }
        if (magic != kEpochMsgMagic) {
          // Monitors only send epoch and recover messages; anything else
          // is garbage the CRC happened to bless.  Poison the connection.
          if (frames_rejected_ != nullptr) frames_rejected_->inc();
          alive = false;
          break;
        }
        const EpochMessage msg = decode_epoch(frame);

        std::uint64_t param = 0;
        const auto action = fault::point(fault::Site::kCollectorIngest,
                                         static_cast<std::uint32_t>(msg.source_id),
                                         &param);
        if (action == fault::Action::kReject) {
          // Simulated receive-side loss: no ack, the exporter must retry.
          if (injected_drops_ != nullptr) injected_drops_->inc();
          continue;
        }
        if (action == fault::Action::kDie) {
          if (injected_conn_kills_ != nullptr) injected_conn_kills_->inc();
          alive = false;  // abrupt close mid-stream
          break;
        }
        if (action == fault::Action::kStall) {
          fault::stall_ns(param, [this] {
            return stop_.load(std::memory_order_relaxed);
          });
        }

        AckMessage ack;
        ack.source_id = msg.source_id;
        ack.seq_last = msg.seq_last;
        switch (core_->ingest(msg, now_ns())) {
          case CollectorCore::Ingest::kApplied:
            ack.status = AckStatus::kApplied;
            break;
          case CollectorCore::Ingest::kDuplicate:
            ack.status = AckStatus::kDuplicate;
            break;
          case CollectorCore::Ingest::kOverlapDropped:
            ack.status = AckStatus::kOverlapDropped;
            break;
        }
        if (!sock.send_all(encode_ack(ack), 2000)) {
          alive = false;
          break;
        }
        if (acks_sent_ != nullptr) acks_sent_->inc();
      }
    } catch (const std::exception&) {
      // Undecodable frame or corrupt snapshot: the stream cannot resync.
      if (frames_rejected_ != nullptr) frames_rejected_->inc();
      alive = false;
    }
    core_->publish_telemetry(now_ns());
  }
  sock.close();
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  if (active_connections_ != nullptr) {
    active_connections_->set(static_cast<double>(active_conns_.load()));
  }
}

}  // namespace nitro::xport
