// Property tests for the burst ingestion fast path: update_burst over any
// packet sequence, chopped into arbitrary bursts, must be *bit-identical*
// to per-packet update() with the same seed — same counters, same heap
// contents, same sampler/controller state — across CM/CS/K-ary and
// NitroUnivMon in every mode.  Also covers the batched 64-bit digest
// kernel against scalar flow_digest, ShardGroup's batched-digest dispatch
// and the SpscRing bulk operations the burst path rides on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_hash.hpp"
#include "common/spsc_ring.hpp"
#include "core/nitro_sketch.hpp"
#include "core/nitro_univmon.hpp"
#include "core/row_sampler.hpp"
#include "shard/shard_group.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::core {
namespace {

using sketch::CountMinSketch;
using sketch::CountSketch;
using sketch::KArySketch;
using trace::flow_key_for_rank;

trace::Trace zipf_stream(std::uint64_t packets, std::uint64_t flows, std::uint64_t seed) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = flows;
  spec.seed = seed;
  return trace::caida_like(spec);
}

template <typename Base>
void expect_same_counters(const NitroSketch<Base>& a, const NitroSketch<Base>& b) {
  const auto& ma = a.base().matrix();
  const auto& mb = b.base().matrix();
  ASSERT_EQ(ma.depth(), mb.depth());
  ASSERT_EQ(ma.width(), mb.width());
  for (std::uint32_t r = 0; r < ma.depth(); ++r) {
    const auto ra = ma.row(r);
    const auto rb = mb.row(r);
    for (std::uint32_t c = 0; c < ma.width(); ++c) {
      ASSERT_EQ(ra[c], rb[c]) << "row " << r << " col " << c;
    }
  }
}

template <typename Base>
void expect_same_state(NitroSketch<Base>& per_packet, NitroSketch<Base>& burst) {
  per_packet.flush();
  burst.flush();
  expect_same_counters(per_packet, burst);
  EXPECT_EQ(per_packet.packets(), burst.packets());
  EXPECT_EQ(per_packet.sampled_updates(), burst.sampled_updates());
  EXPECT_DOUBLE_EQ(per_packet.current_probability(), burst.current_probability());
  const auto ha = per_packet.heap().entries_sorted();
  const auto hb = burst.heap().entries_sorted();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].key, hb[i].key) << "heap entry " << i;
    EXPECT_EQ(ha[i].estimate, hb[i].estimate) << "heap entry " << i;
  }
}

/// Feed `stream` per-packet into one instance and in random-size bursts
/// (1..48, crossing the pipelines' burst of 32) into the other, then
/// verify bit-identical state.  A 2000-packet per-packet coda on *both*
/// instances then re-verifies, which catches any divergence in the
/// sampler/controller position that the first comparison can't see.
template <typename Base>
void run_equivalence(Base base, NitroConfig cfg, const trace::Trace& stream,
                     std::uint64_t split_seed) {
  NitroSketch<Base> per_packet(base, cfg);
  NitroSketch<Base> burst(std::move(base), cfg);
  Pcg32 rng(split_seed, 7);
  std::vector<FlowKey> scratch;
  std::size_t i = 0;
  const std::size_t n = stream.size();
  while (i < n) {
    std::size_t b = 1 + rng.next() % 48;
    if (b > n - i) b = n - i;
    // All packets of one rx burst share the poll timestamp, as in a real
    // PMD loop; both instances must see the same clock to stay identical.
    const std::uint64_t ts = stream[i + b - 1].ts_ns;
    scratch.clear();
    for (std::size_t j = 0; j < b; ++j) {
      per_packet.update(stream[i + j].key, 1, ts);
      scratch.push_back(stream[i + j].key);
    }
    burst.update_burst(std::span<const FlowKey>(scratch), ts);
    i += b;
  }
  expect_same_state(per_packet, burst);
  std::uint64_t ts = stream.empty() ? 0 : stream.back().ts_ns;
  for (int k = 0; k < 2000; ++k) {
    const FlowKey key = flow_key_for_rank(k % 97, 3);
    ts += 25;
    per_packet.update(key, 1, ts);
    burst.update(key, 1, ts);
  }
  expect_same_state(per_packet, burst);
}

NitroConfig fixed_cfg(double p, bool buffered = true) {
  NitroConfig cfg;
  cfg.mode = Mode::kFixedRate;
  cfg.probability = p;
  cfg.buffered_updates = buffered;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  return cfg;
}

TEST(BurstEquivalence, FixedRateCountMin) {
  run_equivalence(CountMinSketch(5, 2048, 101), fixed_cfg(0.02), zipf_stream(30000, 2000, 1), 11);
}

TEST(BurstEquivalence, FixedRateCountSketch) {
  run_equivalence(CountSketch(5, 2048, 102), fixed_cfg(0.05), zipf_stream(30000, 2000, 2), 12);
}

TEST(BurstEquivalence, FixedRateKAry) {
  // K-ary exercises the stream-total interleaving: heap offers query the
  // estimator, which depends on S at the moment of the offer.
  run_equivalence(KArySketch(5, 2048, 103), fixed_cfg(0.05), zipf_stream(30000, 2000, 3), 13);
}

TEST(BurstEquivalence, FixedRateUnbuffered) {
  run_equivalence(CountSketch(5, 2048, 104), fixed_cfg(0.05, /*buffered=*/false),
                  zipf_stream(30000, 2000, 4), 14);
}

TEST(BurstEquivalence, FixedRateProbabilityOne) {
  // p = 1: every slot sampled; stresses the dense grouping path.
  run_equivalence(CountMinSketch(4, 1024, 105), fixed_cfg(1.0), zipf_stream(8000, 500, 5), 15);
}

TEST(BurstEquivalence, VanillaMode) {
  NitroConfig cfg;
  cfg.mode = Mode::kVanilla;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  run_equivalence(CountMinSketch(4, 1024, 106), cfg, zipf_stream(12000, 1000, 6), 16);
}

NitroConfig always_correct_cfg() {
  // Loose epsilon and a small check interval so the detector flips well
  // inside the stream — the interesting case is the vanilla->sampled
  // transition landing mid-burst.
  NitroConfig cfg;
  cfg.mode = Mode::kAlwaysCorrect;
  cfg.probability = 0.25;
  cfg.epsilon = 0.5;
  cfg.convergence_check_interval = 1000;
  cfg.buffered_updates = true;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  return cfg;
}

TEST(BurstEquivalence, AlwaysCorrectCountMin) {
  auto cfg = always_correct_cfg();
  const auto stream = zipf_stream(40000, 2000, 7);
  NitroSketch<CountMinSketch> probe(CountMinSketch(5, 2048, 107), cfg);
  run_equivalence(CountMinSketch(5, 2048, 107), cfg, stream, 17);
  for (const auto& p : stream) probe.update(p.key, 1, p.ts_ns);
  EXPECT_TRUE(probe.converged()) << "config must converge mid-stream for this test to bite";
}

TEST(BurstEquivalence, AlwaysCorrectCountSketch) {
  run_equivalence(CountSketch(5, 2048, 108), always_correct_cfg(), zipf_stream(40000, 2000, 8), 18);
}

TEST(BurstEquivalence, AlwaysCorrectKAry) {
  run_equivalence(KArySketch(5, 2048, 109), always_correct_cfg(), zipf_stream(40000, 2000, 9), 19);
}

NitroConfig line_rate_cfg() {
  NitroConfig cfg;
  cfg.mode = Mode::kAlwaysLineRate;
  cfg.probability = 1.0 / 128.0;
  cfg.rate_epoch_ns = 1'000'000;  // 1ms epochs: many retunes in-stream
  cfg.target_sampled_rate_pps = 625000.0;
  cfg.buffered_updates = true;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  return cfg;
}

TEST(BurstEquivalence, AlwaysLineRateCountMin) {
  // caida_like timestamps advance realistically, so 1ms epochs retune the
  // probability repeatedly — including mid-burst, exercising the
  // constant-p segmentation.
  run_equivalence(CountMinSketch(5, 2048, 110), line_rate_cfg(), zipf_stream(60000, 2000, 10), 20);
}

TEST(BurstEquivalence, AlwaysLineRateCountSketch) {
  run_equivalence(CountSketch(5, 2048, 111), line_rate_cfg(), zipf_stream(60000, 2000, 11), 21);
}

TEST(BurstEquivalence, AlwaysLineRateKAry) {
  run_equivalence(KArySketch(5, 2048, 112), line_rate_cfg(), zipf_stream(60000, 2000, 12), 22);
}

// --- NitroUnivMon ----------------------------------------------------------

sketch::UnivMonConfig univmon_cfg() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 12;
  cfg.depth = 5;
  cfg.top_width = 2048;
  cfg.min_width = 256;
  cfg.heap_capacity = 64;
  return cfg;
}

void expect_same_univmon(const NitroUnivMon& per_packet, const NitroUnivMon& burst) {
  EXPECT_EQ(per_packet.total(), burst.total());
  EXPECT_EQ(per_packet.ingest_packets(), burst.ingest_packets());
  EXPECT_EQ(per_packet.sampled_updates(), burst.sampled_updates());
  const auto& ua = per_packet.univmon();
  const auto& ub = burst.univmon();
  ASSERT_EQ(ua.num_levels(), ub.num_levels());
  for (std::uint32_t j = 0; j < ua.num_levels(); ++j) {
    EXPECT_EQ(per_packet.level_converged(j), burst.level_converged(j)) << "level " << j;
    EXPECT_DOUBLE_EQ(per_packet.level_probability(j), burst.level_probability(j))
        << "level " << j;
    const auto& ma = ua.level_sketch(j).matrix();
    const auto& mb = ub.level_sketch(j).matrix();
    for (std::uint32_t r = 0; r < ma.depth(); ++r) {
      const auto ra = ma.row(r);
      const auto rb = mb.row(r);
      for (std::uint32_t c = 0; c < ma.width(); ++c) {
        ASSERT_EQ(ra[c], rb[c]) << "level " << j << " row " << r << " col " << c;
      }
    }
    const auto ha = ua.level_heap(j).entries_sorted();
    const auto hb = ub.level_heap(j).entries_sorted();
    ASSERT_EQ(ha.size(), hb.size()) << "level " << j;
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].key, hb[i].key) << "level " << j << " heap entry " << i;
      EXPECT_EQ(ha[i].estimate, hb[i].estimate) << "level " << j << " heap entry " << i;
    }
  }
}

/// NitroUnivMon counterpart of run_equivalence: random bursts of 1..256
/// keys (crossing update_burst's 64-key chunks) against per-packet
/// update(), then a per-packet coda on both.  With `degrade`, both
/// instances step through degradation levels 0..3 between bursts.
void run_univmon_equivalence(NitroConfig cfg, const trace::Trace& stream,
                             std::uint64_t split_seed, bool degrade = false) {
  NitroUnivMon per_packet(univmon_cfg(), cfg, 0x5eed);
  NitroUnivMon burst(univmon_cfg(), cfg, 0x5eed);
  Pcg32 rng(split_seed, 9);
  std::vector<FlowKey> scratch;
  std::size_t i = 0;
  std::uint32_t bursts = 0;
  const std::size_t n = stream.size();
  while (i < n) {
    if (degrade && ++bursts % 16 == 0) {
      const std::uint32_t level = (bursts / 16) % 4;
      per_packet.apply_degradation(level);
      burst.apply_degradation(level);
    }
    std::size_t b = 1 + rng.next() % 256;
    if (b > n - i) b = n - i;
    const std::uint64_t ts = stream[i + b - 1].ts_ns;
    scratch.clear();
    for (std::size_t j = 0; j < b; ++j) {
      per_packet.update(stream[i + j].key, 1, ts);
      scratch.push_back(stream[i + j].key);
    }
    burst.update_burst(std::span<const FlowKey>(scratch), ts);
    i += b;
  }
  expect_same_univmon(per_packet, burst);
  std::uint64_t ts = stream.empty() ? 0 : stream.back().ts_ns;
  for (int k = 0; k < 2000; ++k) {
    const FlowKey key = flow_key_for_rank(k % 97, 3);
    ts += 25;
    per_packet.update(key, 1, ts);
    burst.update(key, 1, ts);
  }
  expect_same_univmon(per_packet, burst);
}

NitroConfig univmon_fixed_cfg(double p) {
  NitroConfig cfg;
  cfg.mode = Mode::kFixedRate;
  cfg.probability = p;
  return cfg;
}

TEST(BurstEquivalence, UnivMonFixedRate) {
  run_univmon_equivalence(univmon_fixed_cfg(0.05), zipf_stream(40000, 3000, 31), 41);
}

TEST(BurstEquivalence, UnivMonFixedRateProbabilityOne) {
  // p = 1: every member of every level is sampled on all rows.
  run_univmon_equivalence(univmon_fixed_cfg(1.0), zipf_stream(10000, 1000, 32), 42);
}

TEST(BurstEquivalence, UnivMonFixedRateWithDegradation) {
  run_univmon_equivalence(univmon_fixed_cfg(0.1), zipf_stream(40000, 3000, 33), 43,
                          /*degrade=*/true);
}

TEST(BurstEquivalence, UnivMonVanilla) {
  NitroConfig cfg;
  cfg.mode = Mode::kVanilla;
  run_univmon_equivalence(cfg, zipf_stream(15000, 1500, 34), 44);
}

TEST(BurstEquivalence, UnivMonAlwaysCorrectLevelsConvergeMidBurst) {
  // Per-level detectors flip at different points of the stream, mostly
  // inside a burst; deeper levels stay exact.
  NitroConfig cfg;
  cfg.mode = Mode::kAlwaysCorrect;
  cfg.probability = 0.25;
  cfg.epsilon = 0.5;
  cfg.convergence_check_interval = 500;
  const auto stream = zipf_stream(60000, 2000, 35);
  run_univmon_equivalence(cfg, stream, 45);
  NitroUnivMon probe(univmon_cfg(), cfg, 0x5eed);
  for (const auto& p : stream) probe.update(p.key, 1, p.ts_ns);
  EXPECT_TRUE(probe.level_converged(1)) << "levels must converge mid-stream to bite";
  EXPECT_FALSE(probe.level_converged(univmon_cfg().levels - 1))
      << "some level must stay exact to cover the mixed regime";
}

TEST(BurstEquivalence, UnivMonAlwaysLineRate) {
  // 1 ms controller epochs over caida_like timestamps: the controller
  // retunes every sampler many times, each retune firing inside an
  // update_burst call (bursts share one timestamp, so it lands on a
  // burst's first packet).
  NitroConfig cfg;
  cfg.mode = Mode::kAlwaysLineRate;
  cfg.probability = 1.0 / 128.0;
  cfg.rate_epoch_ns = 1'000'000;
  cfg.target_sampled_rate_pps = 625000.0;
  const auto stream = zipf_stream(60000, 2000, 36);
  run_univmon_equivalence(cfg, stream, 46);
  NitroUnivMon probe(univmon_cfg(), cfg, 0x5eed);
  for (const auto& p : stream) probe.update(p.key, 1, p.ts_ns);
  EXPECT_LT(probe.level_probability(0), 1.0) << "the controller must retune in-stream";
}

// --- ShardGroup dispatch -----------------------------------------------------

/// Minimal shard instance: records the keys its worker applies, in order.
struct KeyRecorder {
  std::vector<FlowKey> keys;
  void update(const FlowKey& key, std::int64_t, std::uint64_t) { keys.push_back(key); }
};

TEST(BurstEquivalence, ShardGroupBurstDispatchRoutesLikePerKeyUpdate) {
  // Burst lengths are never multiples of 16, so every dispatch ends in a
  // partial digest group (the x8 and scalar tails of flow_digests).
  const auto stream = zipf_stream(20000, 3000, 37);
  shard::ShardGroup<KeyRecorder> per_key(3, [](std::uint32_t) { return KeyRecorder{}; });
  shard::ShardGroup<KeyRecorder> burst(3, [](std::uint32_t) { return KeyRecorder{}; });
  Pcg32 rng(47, 5);
  std::vector<FlowKey> scratch;
  std::size_t i = 0;
  while (i < stream.size()) {
    std::size_t b = 1 + rng.next() % 150;
    if (b % 16 == 0) ++b;
    if (b > stream.size() - i) b = stream.size() - i;
    scratch.clear();
    for (std::size_t j = 0; j < b; ++j) {
      per_key.update(stream[i + j].key);
      scratch.push_back(stream[i + j].key);
    }
    burst.update_burst(std::span<const FlowKey>(scratch));
    i += b;
  }
  ASSERT_TRUE(per_key.drain());
  ASSERT_TRUE(burst.drain());
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(burst.shard_packets(s), per_key.shard_packets(s)) << "shard " << s;
    const auto& got = burst.instance(s).keys;
    ASSERT_EQ(got.size(), per_key.instance(s).keys.size()) << "shard " << s;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(burst.shard_of(got[k]), s) << "shard " << s << " item " << k;
      ASSERT_EQ(got[k], per_key.instance(s).keys[k]) << "shard " << s << " item " << k;
    }
  }
}

TEST(RowSamplerBurst, SampleBurstMatchesPerPacketDraws) {
  // Direct sampler-level check: identical seeds, one walked per packet,
  // one in bursts — the selected (packet, row) slots and the final skip
  // position must agree for every split.
  for (const double p : {1.0, 0.5, 0.1, 0.01}) {
    RowSampler a(5, p, 99);
    RowSampler b(5, p, 99);
    Pcg32 rng(4242, 1);
    std::vector<BurstSlot> burst_slots;
    std::uint32_t base_packet = 0;
    for (int round = 0; round < 200; ++round) {
      const std::uint32_t m = 1 + rng.next() % 64;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;
      for (std::uint32_t q = 0; q < m; ++q) {
        std::uint32_t rows[64];
        const std::uint32_t n = a.rows_for_packet(rows);
        for (std::uint32_t i = 0; i < n; ++i) expected.emplace_back(q, rows[i]);
      }
      b.sample_burst(m, burst_slots);
      ASSERT_EQ(burst_slots.size(), expected.size()) << "round " << round << " p " << p;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(burst_slots[i].packet, expected[i].first);
        EXPECT_EQ(burst_slots[i].row, expected[i].second);
      }
      base_packet += m;
    }
    EXPECT_EQ(a.packets_until_next_sample(), b.packets_until_next_sample());
  }
}

TEST(FlowDigestBatch, MatchesScalarOnPatterns) {
  // Structured edge patterns: all-zero, all-ones, per-field extremes.
  std::vector<FlowKey> keys;
  keys.push_back(FlowKey{});
  keys.push_back(FlowKey{0xffffffffu, 0xffffffffu, 0xffff, 0xffff, 0xff});
  keys.push_back(FlowKey{0x01020304u, 0, 0, 0, 0});
  keys.push_back(FlowKey{0, 0xa0b0c0d0u, 0, 0, 0});
  keys.push_back(FlowKey{0, 0, 0x8000, 0, 0});
  keys.push_back(FlowKey{0, 0, 0, 0x0001, 0});
  keys.push_back(FlowKey{0, 0, 0, 0, 17});
  keys.push_back(FlowKey{0x80000000u, 0x00000001u, 0x00ff, 0xff00, 0x7f});
  ASSERT_EQ(keys.size(), 8u);
  std::uint64_t out[8];
  flow_digest_x8(keys.data(), out);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], flow_digest(keys[i])) << "pattern " << i;
  }
}

TEST(FlowDigestBatch, MatchesScalarOnRandomKeys) {
  Pcg32 rng(777, 3);
  std::vector<FlowKey> keys(8);
  for (int round = 0; round < 2000; ++round) {
    for (auto& k : keys) {
      k.src_ip = rng.next();
      k.dst_ip = rng.next();
      k.src_port = static_cast<std::uint16_t>(rng.next());
      k.dst_port = static_cast<std::uint16_t>(rng.next());
      k.proto = static_cast<std::uint8_t>(rng.next());
    }
    std::uint64_t out[8];
    flow_digest_x8(keys.data(), out);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(out[i], flow_digest(keys[i])) << "round " << round << " lane " << i;
    }
  }
}

TEST(FlowDigestBatch, ArbitrarySeedMatchesScalarXxhash64) {
  Pcg32 rng(778, 3);
  std::vector<FlowKey> keys(8);
  for (auto& k : keys) {
    k.src_ip = rng.next();
    k.dst_ip = rng.next();
  }
  for (const std::uint64_t seed : {0ull, 1ull, 0xdeadbeefdeadbeefull}) {
    std::uint64_t out[8];
    xxhash64_x8_flowkeys(keys.data(), seed, out);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], xxhash64(&keys[i], sizeof(FlowKey), seed)) << "lane " << i;
    }
  }
}

TEST(SpscRingBulk, PushPopRoundTripAcrossWraparound) {
  SpscRing<int> ring(8);  // capacity rounds to 15 usable slots
  int buf[16];
  int next = 0;
  int expect = 0;
  for (int round = 0; round < 100; ++round) {
    int items[6];
    for (int i = 0; i < 6; ++i) items[i] = next++;
    ASSERT_EQ(ring.try_push_bulk(items, 6), 6u);
    ASSERT_EQ(ring.try_pop_bulk(buf, 16), 6u);
    for (int i = 0; i < 6; ++i) ASSERT_EQ(buf[i], expect++);
  }
}

TEST(SpscRingBulk, PartialPushWhenNearlyFull) {
  SpscRing<int> ring(8);  // 15 usable
  int items[12];
  for (int i = 0; i < 12; ++i) items[i] = i;
  ASSERT_EQ(ring.try_push_bulk(items, 12), 12u);
  // 3 slots left: a 12-item push must accept exactly the prefix that fits.
  EXPECT_EQ(ring.try_push_bulk(items, 12), 3u);
  EXPECT_EQ(ring.try_push_bulk(items, 12), 0u);
  int buf[16];
  EXPECT_EQ(ring.try_pop_bulk(buf, 16), 15u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(buf[i], i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(buf[12 + i], i);
  EXPECT_EQ(ring.try_pop_bulk(buf, 16), 0u);
}

TEST(SpscRingBulk, InteroperatesWithScalarOps) {
  SpscRing<int> ring(16);
  ASSERT_TRUE(ring.try_push(1));
  int items[2] = {2, 3};
  ASSERT_EQ(ring.try_push_bulk(items, 2), 2u);
  int v = 0;
  ASSERT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 1);
  int buf[4];
  ASSERT_EQ(ring.try_pop_bulk(buf, 4), 2u);
  EXPECT_EQ(buf[0], 2);
  EXPECT_EQ(buf[1], 3);
}

}  // namespace
}  // namespace nitro::core
