// Seed generations on the wire and in the collector (DESIGN.md §16): the
// seed_gen field's roundtrip, the
// collector's one-generation-per-replica rules (reset on advance, drop
// stale, fold only the newest generation), packet conservation across a
// rotation, and the exporter's refusal to coalesce across a generation
// boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "control/codec.hpp"
#include "core/seed_schedule.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "export/wire.hpp"
#include "sketch/univmon.hpp"
#include "trace/workloads.hpp"

namespace nitro::xport {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kMasterKey = 0xfacef11eULL;
constexpr std::uint64_t kRotationEpochs = 2;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 256;
  cfg.min_width = 128;
  cfg.heap_capacity = 32;
  return cfg;
}

core::SeedSchedule schedule() {
  return core::SeedSchedule{kSeed, kMasterKey, kRotationEpochs};
}

CollectorConfig rotating_collector_config() {
  CollectorConfig cfg;
  cfg.um_cfg = um_config();
  cfg.seed = kSeed;
  cfg.master_key = kMasterKey;
  cfg.rotation_epochs = kRotationEpochs;
  return cfg;
}

/// A sealed snapshot of `packets` caida-like packets under `gen`'s seed,
/// plus the sketch itself for reference queries.
sketch::UnivMon feed_sketch(std::uint64_t gen, std::uint64_t stream_seed,
                            std::uint64_t packets = 2'000) {
  sketch::UnivMon um(um_config(), schedule().seed_for(gen));
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 150;
  spec.seed = stream_seed;
  for (const auto& p : trace::caida_like(spec)) um.update(p.key);
  return um;
}

EpochMessage message_for(std::uint64_t source, std::uint64_t seq,
                         std::uint64_t gen, const sketch::UnivMon& um) {
  EpochMessage msg;
  msg.source_id = source;
  msg.seq_first = msg.seq_last = seq;
  msg.span = core::EpochSpan::single(seq - 1);
  msg.packets = um.total();
  msg.seed_gen = gen;
  msg.snapshot = control::snapshot_univmon(um);
  return msg;
}

// --- Wire roundtrip --------------------------------------------------------

TEST(GenerationWire, SeedGenerationRidesTheV4EpochFrame) {
  const auto um = feed_sketch(3, 41, 100);
  EpochMessage msg = message_for(9, 5, 3, um);
  msg.epoch_close_ns = 111;
  msg.send_ns = 222;
  const EpochMessage back = decode_epoch(encode_epoch(msg));
  EXPECT_EQ(back.seed_gen, 3u);
  EXPECT_EQ(back.packets, msg.packets);
  EXPECT_EQ(back.snapshot, msg.snapshot);
  EXPECT_EQ(back.epoch_close_ns, 111u);
}

TEST(GenerationWire, SeedGenerationRidesTheV4RecoverResponse) {
  RecoverResponse resp;
  resp.source_id = 4;
  resp.found = true;
  resp.last_seq = 7;
  resp.span = {0, 6};
  resp.packets = 1234;
  resp.seed_gen = 2;
  resp.snapshot = {1, 2, 3};
  const RecoverResponse back =
      decode_recover_response(encode_recover_response(resp));
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.seed_gen, 2u);
  EXPECT_EQ(back.snapshot, resp.snapshot);
}

TEST(GenerationCollector, RotationResetsTheReplicaAndStaleGenerationsDrop) {
  CollectorCore core(rotating_collector_config());
  const std::uint64_t now = 1;

  const auto gen0a = feed_sketch(0, 51);
  const auto gen0b = feed_sketch(0, 52);
  ASSERT_EQ(core.ingest(message_for(1, 1, 0, gen0a), now),
            CollectorCore::Ingest::kApplied);
  ASSERT_EQ(core.ingest(message_for(1, 2, 0, gen0b), now),
            CollectorCore::Ingest::kApplied);
  auto stats = core.sources(now);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].seed_gen, 0u);
  EXPECT_EQ(stats[0].gen_packets, gen0a.total() + gen0b.total());

  // Generation advance: the replica is rebuilt under the rotated seed —
  // old-generation counters cannot be merged with the new hash functions.
  const auto gen1 = feed_sketch(1, 53);
  ASSERT_EQ(core.ingest(message_for(1, 3, 1, gen1), now),
            CollectorCore::Ingest::kApplied);
  stats = core.sources(now);
  EXPECT_EQ(stats[0].seed_gen, 1u);
  EXPECT_EQ(stats[0].gen_packets, gen1.total());
  EXPECT_EQ(stats[0].generation_rotations, 1u);
  // Cumulative packet accounting still spans both generations.
  EXPECT_EQ(stats[0].packets, gen0a.total() + gen0b.total() + gen1.total());

  // A backward generation is dropped whole but ACKed as a duplicate so an
  // honest-but-confused exporter settles instead of wedging on retries.
  const auto late = feed_sketch(0, 54);
  EXPECT_EQ(core.ingest(message_for(1, 4, 0, late), now),
            CollectorCore::Ingest::kDuplicate);
  stats = core.sources(now);
  EXPECT_EQ(stats[0].stale_generation_dropped, 1u);
  EXPECT_EQ(stats[0].seed_gen, 1u);
  EXPECT_EQ(stats[0].gen_packets, gen1.total());

  // The view now serves generation 1 only, with exact conservation.
  const auto view = core.view(now);
  EXPECT_EQ(view->seed_gen, 1u);
  EXPECT_EQ(view->merged.total(), gen1.total());
  EXPECT_EQ(view->packets, gen1.total());
  EXPECT_EQ(view->merged.seed(), schedule().seed_for(1));
}

TEST(GenerationCollector, ViewFoldsOnlyTheNewestGenerationUntilLaggardsRotate) {
  CollectorCore core(rotating_collector_config());
  const std::uint64_t now = 1;

  const auto a0 = feed_sketch(0, 61);
  const auto b0 = feed_sketch(0, 62);
  ASSERT_EQ(core.ingest(message_for(1, 1, 0, a0), now),
            CollectorCore::Ingest::kApplied);
  ASSERT_EQ(core.ingest(message_for(2, 1, 0, b0), now),
            CollectorCore::Ingest::kApplied);
  auto view = core.view(now);
  EXPECT_EQ(view->seed_gen, 0u);
  EXPECT_EQ(view->merged.total(), a0.total() + b0.total());
  EXPECT_EQ(view->packets, a0.total() + b0.total());

  // Source 1 rotates; source 2 lags on generation 0.  The fold covers only
  // the newest generation — a cross-generation merge would mix hash
  // functions — so source 2 temporarily leaves the view, exactly like a
  // stale source would.
  const auto a1 = feed_sketch(1, 63);
  ASSERT_EQ(core.ingest(message_for(1, 2, 1, a1), now),
            CollectorCore::Ingest::kApplied);
  view = core.view(now);
  EXPECT_EQ(view->seed_gen, 1u);
  EXPECT_EQ(view->merged.total(), a1.total());
  EXPECT_EQ(view->packets, a1.total());

  // The laggard rotates and rejoins the fold.
  const auto b1 = feed_sketch(1, 64);
  ASSERT_EQ(core.ingest(message_for(2, 2, 1, b1), now),
            CollectorCore::Ingest::kApplied);
  view = core.view(now);
  EXPECT_EQ(view->seed_gen, 1u);
  EXPECT_EQ(view->merged.total(), a1.total() + b1.total());
  EXPECT_EQ(view->packets, a1.total() + b1.total());

  // Point queries of the merged generation-1 view match a reference merge
  // under the same derived seed (mergeability preserved within a gen).
  sketch::UnivMon reference(um_config(), schedule().seed_for(1));
  reference.merge(a1);
  reference.merge(b1);
  for (std::uint64_t r = 0; r < 100; ++r) {
    const FlowKey k = trace::flow_key_for_rank(r, 63);
    EXPECT_EQ(view->merged.query(k), reference.query(k));
  }
}

TEST(GenerationCollector, RecoveryReportsTheReplicaGeneration) {
  CollectorCore core(rotating_collector_config());
  const auto g0 = feed_sketch(0, 71);
  const auto g1 = feed_sketch(1, 72);
  ASSERT_EQ(core.ingest(message_for(5, 1, 0, g0), 1),
            CollectorCore::Ingest::kApplied);
  ASSERT_EQ(core.ingest(message_for(5, 2, 1, g1), 1),
            CollectorCore::Ingest::kApplied);
  const RecoverResponse resp = core.recovery_snapshot(5);
  ASSERT_TRUE(resp.found);
  EXPECT_EQ(resp.seed_gen, 1u);
  // The replica holds exactly one generation, and the reported packet
  // count matches it — a rejoining monitor must not claim gen-0 traffic
  // under gen-1 hash functions.
  EXPECT_EQ(resp.packets, g1.total());
  EXPECT_EQ(resp.last_seq, 2u);
  sketch::UnivMon replica(um_config(), schedule().seed_for(1));
  control::load_univmon(resp.snapshot, replica);
  EXPECT_EQ(replica.total(), g1.total());
}

// --- Exporter: same-generation coalescing only -----------------------------

ExporterConfig tiny_queue_config() {
  ExporterConfig cfg;
  cfg.endpoint = *parse_endpoint("tcp:127.0.0.1:9");  // never connected
  cfg.source_id = 1;
  cfg.queue_capacity = 4;
  return cfg;
}

TEST(GenerationExporter, BacklogCoalescesWithinAGenerationOnly) {
  EpochExporter exporter(tiny_queue_config(),
                         univmon_coalescer(um_config(), schedule()));
  // Never started: the queue just accumulates, as under a dead collector.
  std::vector<sketch::UnivMon> sketches;
  const std::uint64_t gens[] = {0, 1, 1, 1, 1};
  for (std::uint64_t e = 0; e < 5; ++e) {
    sketches.push_back(feed_sketch(gens[e], 80 + e, 500));
    exporter.publish(core::EpochSpan::single(e), sketches.back().total(),
                     control::snapshot_univmon(sketches.back()), 0, gens[e]);
  }
  // Capacity 4, fifth publish forces a coalesce.  The oldest pair (seqs
  // 1,2) straddles the generation boundary and must be skipped; the next
  // pair (seqs 2,3 — both generation 1) merges instead.
  const auto pending = exporter.pending_messages();
  ASSERT_EQ(pending.size(), 4u);
  EXPECT_EQ(pending[0].seed_gen, 0u);
  EXPECT_EQ(pending[0].seq_first, 1u);
  EXPECT_EQ(pending[0].seq_last, 1u);  // the gen-0 epoch was left alone
  EXPECT_EQ(pending[1].seed_gen, 1u);
  EXPECT_EQ(pending[1].seq_first, 2u);
  EXPECT_EQ(pending[1].seq_last, 3u);  // the gen-1 pair coalesced
  EXPECT_EQ(pending[1].packets, sketches[1].total() + sketches[2].total());

  // The merged snapshot decodes under the generation-1 seed with the
  // summed totals — proof the schedule-aware coalescer seeded correctly.
  sketch::UnivMon merged(um_config(), schedule().seed_for(1));
  control::load_univmon(pending[1].snapshot, merged);
  EXPECT_EQ(merged.total(), sketches[1].total() + sketches[2].total());
}

TEST(GenerationExporter, AllCrossGenerationBacklogGrowsInsteadOfMerging) {
  EpochExporter exporter(tiny_queue_config(),
                         univmon_coalescer(um_config(), schedule()));
  for (std::uint64_t e = 0; e < 5; ++e) {
    const auto um = feed_sketch(e, 90 + e, 300);  // every epoch a new gen
    exporter.publish(core::EpochSpan::single(e), um.total(),
                     control::snapshot_univmon(um), 0, e);
  }
  // No adjacent same-generation pair exists: nothing may merge, so the
  // queue grows past capacity rather than corrupting a snapshot.
  const auto pending = exporter.pending_messages();
  ASSERT_EQ(pending.size(), 5u);
  for (std::uint64_t e = 0; e < 5; ++e) {
    EXPECT_EQ(pending[e].seed_gen, e);
    EXPECT_EQ(pending[e].seq_first, pending[e].seq_last);
  }
}

}  // namespace
}  // namespace nitro::xport
