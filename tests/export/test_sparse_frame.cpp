// Bit identity of the sparse epoch path (DESIGN.md §11, §15).  The
// collector decodes each epoch into a sparse image and merges it straight
// into its accumulators; the dense reference kept here loads every message
// into a temporary UnivMon and runs the dense UnivMon::merge, under the
// collector's own apply and fold rules.  Over random epoch sequences —
// densities from empty to full, negative counters and values near ±2^62,
// seed rotations, duplicates, overlaps, gaps and exporter-coalesced
// messages — the network view and every recovery replica must serialize
// to the same bytes.  A chain restore (a full base plus sparse deltas)
// must equal the daemon that never stopped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "control/checkpoint.hpp"
#include "control/codec.hpp"
#include "control/daemon.hpp"
#include "core/seed_schedule.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "support/temp_path.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::xport {
namespace {

using trace::flow_key_for_rank;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 5;
  cfg.depth = 3;
  cfg.top_width = 512;
  cfg.min_width = 64;
  cfg.heap_capacity = 24;
  return cfg;
}

CollectorConfig collector_config(bool rotate) {
  CollectorConfig cfg;
  cfg.um_cfg = um_config();
  cfg.seed = 7;
  if (rotate) {
    cfg.master_key = 0xfeedULL;
    cfg.rotation_epochs = 2;
  }
  return cfg;
}

core::SeedSchedule schedule_of(const CollectorConfig& cfg) {
  return {cfg.seed, cfg.master_key, cfg.rotation_epochs};
}

double unit(SplitMix64& rng) { return static_cast<double>(rng.next() >> 11) * 0x1.0p-53; }

/// A random epoch image: each counter non-zero with probability `density`
/// (values in ±[1, magnitude]), and a heap of keys drawn from a small shared pool so heaps overlap across
/// epochs and sources.
sketch::UnivMon random_epoch(std::uint64_t seed, double density, std::int64_t magnitude,
                             SplitMix64& rng) {
  sketch::UnivMon um(um_config(), seed);
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    auto& m = um.level_sketch_mut(j).matrix();
    for (std::uint32_t r = 0; r < m.depth(); ++r) {
      for (auto& c : m.row_mut(r)) {
        if (density >= 1.0 || unit(rng) < density) {
          const auto v = static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(magnitude)) + 1;
          c = rng.next() % 2 == 0 ? v : -v;
        }
      }
    }
    const std::uint64_t n = rng.next() % (um_config().heap_capacity + 8);
    for (std::uint64_t i = 0; i < n; ++i) {
      um.offer_to_heap_with_estimate(j, flow_key_for_rank(rng.next() % 60, 11),
                                     static_cast<std::int64_t>(rng.next() % 20000) - 1000);
    }
  }
  um.set_total(static_cast<std::int64_t>(rng.next() % 100000));
  return um;
}

/// `um` with every counter and the total negated (heaps kept).
sketch::UnivMon negated(sketch::UnivMon um) {
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    auto& m = um.level_sketch_mut(j).matrix();
    for (std::uint32_t r = 0; r < m.depth(); ++r) {
      for (auto& c : m.row_mut(r)) c = -c;
    }
  }
  um.set_total(-um.total());
  return um;
}

/// The dense reference: CollectorCore's apply and fold rules (every source
/// live), with a temporary UnivMon and the dense merge per message.
class DenseCollector {
 public:
  explicit DenseCollector(const CollectorConfig& cfg)
      : cfg_(cfg), sched_(schedule_of(cfg)), net_(cfg.um_cfg, sched_.seed_for(0)) {}

  void ingest(const EpochMessage& msg) {
    sketch::UnivMon tmp(cfg_.um_cfg, sched_.seed_for(msg.seed_gen));
    control::load_univmon(msg.snapshot, tmp);
    Source& s = sources_.try_emplace(msg.source_id, cfg_.um_cfg, sched_.seed_for(0))
                    .first->second;
    if (msg.seq_first <= s.last_seq) return;  // duplicate or overlap
    if (msg.seed_gen < s.gen) return;         // stale generation
    if (msg.seed_gen > s.gen) {
      s.acc = sketch::UnivMon(cfg_.um_cfg, sched_.seed_for(msg.seed_gen));
      s.pending = sketch::UnivMon(cfg_.um_cfg, sched_.seed_for(msg.seed_gen));
      s.gen = msg.seed_gen;
    }
    s.acc.merge(tmp);
    s.pending.merge(tmp);
    s.dirty = true;
    s.last_seq = msg.seq_last;
  }

  const sketch::UnivMon& view() {
    std::uint64_t fold_gen = 0;
    for (const auto& [id, s] : sources_) fold_gen = std::max(fold_gen, s.gen);
    std::vector<std::uint64_t> ids;
    for (const auto& [id, s] : sources_) {
      if (s.gen == fold_gen) ids.push_back(id);
    }
    const bool full = ids != folded_ || fold_gen != folded_gen_;
    if (full) {
      if (fold_gen != folded_gen_) {
        net_ = sketch::UnivMon(cfg_.um_cfg, sched_.seed_for(fold_gen));
      } else {
        net_.clear();
      }
    }
    for (auto& [id, s] : sources_) {
      if (s.gen == fold_gen && (full || s.dirty)) {
        net_.merge(full ? s.acc : s.pending);
        s.pending.clear();
        s.dirty = false;
      }
    }
    folded_ = std::move(ids);
    folded_gen_ = fold_gen;
    return net_;
  }

  /// The accumulator recovery_snapshot serializes (null before any apply).
  const sketch::UnivMon* replica(std::uint64_t id) const {
    const auto it = sources_.find(id);
    return it == sources_.end() || it->second.last_seq == 0 ? nullptr : &it->second.acc;
  }

 private:
  struct Source {
    Source(const sketch::UnivMonConfig& cfg, std::uint64_t seed) : acc(cfg, seed), pending(cfg, seed) {}
    sketch::UnivMon acc;
    sketch::UnivMon pending;
    std::uint64_t gen = 0;
    std::uint64_t last_seq = 0;
    bool dirty = false;
  };

  CollectorConfig cfg_;
  core::SeedSchedule sched_;
  std::map<std::uint64_t, Source> sources_;
  sketch::UnivMon net_;
  std::vector<std::uint64_t> folded_;
  std::uint64_t folded_gen_ = 0;
};

/// One monitor's side of a scenario: its sequence numbers, seed
/// generation and sent history.
struct Monitor {
  std::uint64_t id = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t gen = 0;
  std::vector<EpochMessage> sent;
};

EpochMessage message(const Monitor& mon, std::uint64_t seq_first, std::uint64_t seq_last,
                     std::uint64_t gen, std::vector<std::uint8_t> snapshot) {
  EpochMessage msg;
  msg.source_id = mon.id;
  msg.seq_first = seq_first;
  msg.seq_last = seq_last;
  msg.span = {seq_first - 1, seq_last - 1};
  msg.packets = 1;
  msg.seed_gen = gen;
  msg.snapshot = std::move(snapshot);
  return msg;
}

/// Drives one random scenario through CollectorCore and the dense
/// reference side by side, comparing bytes after every message.
void run_scenario(std::uint64_t seed, bool rotate, int steps) {
  const CollectorConfig cfg = collector_config(rotate);
  const core::SeedSchedule sched = schedule_of(cfg);
  const Coalescer coalesce = univmon_coalescer(cfg.um_cfg, sched);
  CollectorCore core(cfg);
  DenseCollector dense(cfg);
  SplitMix64 rng(seed);
  std::vector<Monitor> monitors(3);
  for (std::size_t i = 0; i < monitors.size(); ++i) monitors[i].id = i + 1;
  const double densities[] = {0.0, 0.03, 0.5, 1.0};
  // Monitor 1 sends an epoch of values near ±2^62 and, a few steps
  // later, its negation: the varint extremes cross every hop without the
  // accumulators ever overflowing.
  constexpr std::int64_t kHuge = std::int64_t{1} << 62;
  const int huge_at = steps / 3;
  const int negate_at = huge_at + 4;
  std::vector<std::uint8_t> negation;

  for (int step = 0; step < steps; ++step) {
    const bool extreme = step == huge_at || step == negate_at;
    Monitor& mon = extreme ? monitors[0] : monitors[rng.next() % monitors.size()];
    if (rotate && rng.next() % 10 == 0) ++mon.gen;
    const std::uint64_t epoch_seed = sched.seed_for(mon.gen);
    auto epoch = [&] {
      const double d = densities[rng.next() % 4];
      const std::int64_t magnitude = rng.next() % 2 == 0 ? 1000 : std::int64_t{1} << 40;
      return control::snapshot_univmon(random_epoch(epoch_seed, d, magnitude, rng));
    };

    EpochMessage msg;
    const std::uint64_t action = rng.next() % 10;
    if (step == huge_at) {
      sketch::UnivMon huge = random_epoch(epoch_seed, 0.5, 1000, rng);
      for (std::uint32_t j = 0; j < huge.num_levels(); ++j) {
        auto& m = huge.level_sketch_mut(j).matrix();
        for (std::uint32_t r = 0; r < m.depth(); ++r) {
          for (auto& c : m.row_mut(r)) {
            if (c != 0) c = c > 0 ? kHuge - c : -kHuge - c;
          }
        }
      }
      negation = control::snapshot_univmon(negated(huge));
      msg = message(mon, mon.next_seq, mon.next_seq, mon.gen, control::snapshot_univmon(huge));
      ++mon.next_seq;
    } else if (step == negate_at) {
      msg = message(mon, mon.next_seq, mon.next_seq, mon.gen, negation);
      ++mon.next_seq;
    } else if (action == 0 && !mon.sent.empty()) {
      msg = mon.sent[rng.next() % mon.sent.size()];  // redelivery
    } else if (action == 1 && mon.next_seq > 1) {
      // Straddles the applied boundary: dropped whole.
      msg = message(mon, mon.next_seq - 1, mon.next_seq, mon.gen, epoch());
    } else if (action == 2 && mon.gen > 0) {
      // A fresh sequence number on a generation the source left behind.
      msg = message(mon, mon.next_seq, mon.next_seq, mon.gen - 1, epoch());
    } else if (action <= 5) {
      // Two backlogged epochs coalesced by the exporter.
      const auto merged = coalesce(epoch(), epoch(), mon.gen);
      msg = message(mon, mon.next_seq, mon.next_seq + 1, mon.gen, merged);
      mon.next_seq += 2;
    } else {
      if (action == 6) ++mon.next_seq;  // a lost epoch: applied with a gap
      msg = message(mon, mon.next_seq, mon.next_seq, mon.gen, epoch());
      ++mon.next_seq;
    }
    mon.sent.push_back(msg);

    const std::uint64_t now = 1000 + static_cast<std::uint64_t>(step);
    (void)core.ingest(msg, now);
    dense.ingest(msg);
    ASSERT_EQ(control::snapshot_univmon(core.view(now)->merged),
              control::snapshot_univmon(dense.view()))
        << "seed " << seed << " step " << step;
    for (const Monitor& m : monitors) {
      const RecoverResponse resp = core.recovery_snapshot(m.id);
      const sketch::UnivMon* ref = dense.replica(m.id);
      ASSERT_EQ(resp.found, ref != nullptr) << "source " << m.id << " step " << step;
      if (ref != nullptr) {
        ASSERT_EQ(resp.snapshot, control::snapshot_univmon(*ref))
            << "seed " << seed << " source " << m.id << " step " << step;
      }
    }
  }
}

TEST(SparseFrameIdentity, SparseMergeEqualsTheDenseMergeOfTheLoadedImage) {
  SplitMix64 rng(5);
  for (double density : {0.0, 0.03, 0.5, 1.0}) {
    sketch::UnivMon base = random_epoch(7, 0.5, 1000, rng);
    const auto bytes = control::snapshot_univmon(random_epoch(7, density, 1 << 20, rng));
    sketch::UnivMon tmp(um_config(), 7);
    control::load_univmon(bytes, tmp);
    sketch::UnivMon dense = base;
    dense.merge(tmp);
    sketch::UnivMon sparse = base;
    sparse.merge(control::decode_univmon(bytes, um_config(), 7));
    EXPECT_EQ(control::snapshot_univmon(sparse), control::snapshot_univmon(dense))
        << "density " << density;
  }
}

TEST(SparseFrameIdentity, SparseMergeRejectsAForeignSeed) {
  SplitMix64 rng(6);
  const auto bytes = control::snapshot_univmon(random_epoch(7, 0.1, 100, rng));
  sketch::UnivMon um(um_config(), 8);
  EXPECT_THROW(um.merge(control::decode_univmon(bytes, um_config(), 7)), std::invalid_argument);
}

TEST(SparseFrameIdentity, CollectorViewAndReplicasMatchTheDenseReference) {
  for (std::uint64_t seed : {1, 2, 3}) run_scenario(seed, /*rotate=*/false, 60);
}

TEST(SparseFrameIdentity, CollectorViewAndReplicasMatchTheDenseReferenceUnderRotation) {
  for (std::uint64_t seed : {4, 5, 6}) run_scenario(seed, /*rotate=*/true, 60);
}

TEST(SparseFrameIdentity, ChainRestoreEqualsTheUninterruptedDaemon) {
  // A sampled monitor (p = 0.05) checkpoints each epoch close through the
  // chain store: a full base every third frame, sparse deltas between.
  const std::string dir = nitro::testing::fresh_temp_dir("nitro_sparse_chain");
  sketch::UnivMonConfig cfg = um_config();
  cfg.top_width = 4096;
  core::NitroConfig nitro_cfg;
  nitro_cfg.mode = core::Mode::kFixedRate;
  nitro_cfg.probability = 0.05;
  control::MeasurementDaemon::Tasks tasks;
  control::MeasurementDaemon live(cfg, nitro_cfg, tasks, 21);
  live.enable_delta_checkpoints();
  control::CheckpointStore store(dir);

  trace::WorkloadSpec spec;
  spec.packets = 40000;
  spec.flows = 4000;
  spec.seed = 12;
  const auto stream = trace::caida_like(spec);
  std::uint64_t frames_since_full = 0;
  std::size_t deltas = 0;
  std::vector<std::uint8_t> at_last_cut;
  for (std::size_t e = 0; e < 8; ++e) {
    for (std::size_t i = e * 5000; i < (e + 1) * 5000; ++i) live.on_packet(stream[i].key);
    const bool want_full = !live.delta_ready() || frames_since_full >= 3;
    const auto bytes = want_full ? live.checkpoint_bytes() : live.delta_checkpoint_bytes();
    ASSERT_TRUE(store.save_frame("daemon", want_full, bytes).ok);
    live.cut_checkpoint_frame();
    at_last_cut = live.checkpoint_bytes();
    frames_since_full = want_full ? 1 : frames_since_full + 1;
    deltas += want_full ? 0 : 1;
    (void)live.end_epoch();
  }
  ASSERT_GT(deltas, 0u);

  const auto chain = store.load_chain("daemon");
  ASSERT_TRUE(chain.found);
  ASSERT_EQ(chain.frames_rejected, 0u);
  control::MeasurementDaemon restored(cfg, nitro_cfg, tasks, 21);
  restored.enable_delta_checkpoints();
  restored.restore_checkpoint(chain.base);
  for (const auto& d : chain.deltas) restored.apply_delta_checkpoint(d);
  EXPECT_EQ(restored.checkpoint_bytes(), at_last_cut);
  // The last frame was cut before the last end_epoch: close it here too.
  (void)restored.end_epoch();
  EXPECT_EQ(restored.checkpoint_bytes(), live.checkpoint_bytes());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nitro::xport
