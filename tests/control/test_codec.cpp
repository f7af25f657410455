#include "control/codec.hpp"

#include "sketch/count_min.hpp"
#include "sketch/kary.hpp"

#include <gtest/gtest.h>

#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::control {
namespace {

using trace::flow_key_for_rank;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 8;
  cfg.depth = 5;
  cfg.top_width = 1024;
  cfg.min_width = 256;
  cfg.heap_capacity = 100;
  return cfg;
}

TEST(ByteIo, RoundTripsScalars) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_key(flow_key_for_rank(7, 1));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_key(), flow_key_for_rank(7, 1));
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIo, ReaderThrowsOnTruncation) {
  ByteWriter w;
  w.put_u32(1);
  ByteReader r(w.bytes());
  (void)r.get_u32();
  EXPECT_THROW((void)r.get_u64(), std::out_of_range);
}

TEST(MatrixCodec, RoundTripsCounters) {
  sketch::CounterMatrix src(3, 64, 9, true);
  sketch::CounterMatrix dst(3, 64, 9, true);
  for (int i = 0; i < 500; ++i) src.update_row_digest(i % 3, flow_digest(flow_key_for_rank(i, 2)), i);
  ByteWriter w;
  write_matrix(w, src);
  ByteReader r(w.bytes());
  read_matrix_into(r, dst);
  for (std::uint32_t row = 0; row < 3; ++row) {
    const auto a = src.row(row);
    const auto b = dst.row(row);
    for (std::uint32_t c = 0; c < 64; ++c) EXPECT_EQ(a[c], b[c]);
  }
}

TEST(MatrixCodec, RejectsShapeMismatch) {
  sketch::CounterMatrix src(3, 64, 9, true);
  sketch::CounterMatrix wrong_width(3, 32, 9, true);
  sketch::CounterMatrix wrong_sign(3, 64, 9, false);
  ByteWriter w;
  write_matrix(w, src);
  {
    ByteReader r(w.bytes());
    EXPECT_THROW(read_matrix_into(r, wrong_width), std::invalid_argument);
  }
  {
    ByteReader r(w.bytes());
    EXPECT_THROW(read_matrix_into(r, wrong_sign), std::invalid_argument);
  }
}

TEST(HeapCodec, RoundTripsEntries) {
  sketch::TopKHeap src(8), dst(8);
  for (int i = 0; i < 20; ++i) src.offer(flow_key_for_rank(i, 3), 100 + i);
  ByteWriter w;
  write_heap(w, src);
  ByteReader r(w.bytes());
  read_heap_into(r, dst);
  const auto a = src.entries_sorted();
  const auto b = dst.entries_sorted();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].estimate, b[i].estimate);
  }
}

TEST(UnivMonSnapshot, ReplicaAnswersIdenticalQueries) {
  sketch::UnivMon dataplane(um_config(), 77);
  trace::WorkloadSpec spec;
  spec.packets = 50000;
  spec.flows = 5000;
  spec.seed = 4;
  const auto stream = trace::caida_like(spec);
  for (const auto& p : stream) dataplane.update(p.key);

  const auto bytes = snapshot_univmon(dataplane);
  sketch::UnivMon replica(um_config(), 77);  // same seed: hashes match
  load_univmon(bytes, replica);

  EXPECT_EQ(replica.total(), dataplane.total());
  for (int i = 0; i < 200; ++i) {
    const FlowKey k = flow_key_for_rank(i, 4);
    EXPECT_EQ(replica.query(k), dataplane.query(k));
  }
  EXPECT_DOUBLE_EQ(replica.estimate_entropy(), dataplane.estimate_entropy());
  EXPECT_DOUBLE_EQ(replica.estimate_distinct(), dataplane.estimate_distinct());
}

TEST(UnivMonSnapshot, RejectsLevelMismatch) {
  sketch::UnivMon dataplane(um_config(), 77);
  const auto bytes = snapshot_univmon(dataplane);
  auto other = um_config();
  other.levels = 4;
  sketch::UnivMon replica(other, 77);
  EXPECT_THROW(load_univmon(bytes, replica), std::invalid_argument);
}

TEST(UnivMonSnapshot, RejectsCorruptMagic) {
  sketch::UnivMon dataplane(um_config(), 77);
  auto bytes = snapshot_univmon(dataplane);
  bytes[0] ^= 0xff;
  sketch::UnivMon replica(um_config(), 77);
  EXPECT_THROW(load_univmon(bytes, replica), std::invalid_argument);
}

TEST(Collector, IngestsEpochsAndTracksCount) {
  sketch::UnivMon dataplane(um_config(), 31);
  UnivMonCollector collector(um_config(), 31);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 10000; ++i) {
      dataplane.update(flow_key_for_rank(i % 100, 5));
    }
    collector.ingest(snapshot_univmon(dataplane));
    EXPECT_EQ(collector.view().total(), dataplane.total());
    dataplane.clear();
  }
  EXPECT_EQ(collector.epochs_ingested(), 3u);
}

TEST(SketchSnapshot, CountMinRoundTrip) {
  sketch::CountMinSketch src(5, 1024, 41), dst(5, 1024, 41);
  for (int i = 0; i < 5000; ++i) src.update(flow_key_for_rank(i % 300, 6));
  const auto bytes = snapshot_sketch(src);
  load_sketch(bytes, dst);
  for (int i = 0; i < 300; ++i) {
    const FlowKey k = flow_key_for_rank(i, 6);
    EXPECT_EQ(dst.query(k), src.query(k));
  }
}

TEST(SketchSnapshot, KAryRestoresTotalForUnbiasedEstimator) {
  sketch::KArySketch src(8, 2048, 43), dst(8, 2048, 43);
  for (int i = 0; i < 10000; ++i) src.update(flow_key_for_rank(i % 100, 7));
  const auto bytes = snapshot_sketch(src);
  load_sketch(bytes, dst);
  EXPECT_EQ(dst.total(), src.total());
  for (int i = 0; i < 100; ++i) {
    const FlowKey k = flow_key_for_rank(i, 7);
    EXPECT_NEAR(dst.query(k), src.query(k), 1e-9);
  }
}

TEST(SketchSnapshot, CountSketchL2Preserved) {
  sketch::CountSketch src(5, 4096, 47), dst(5, 4096, 47);
  for (int i = 0; i < 20000; ++i) src.update(flow_key_for_rank(i % 1000, 8));
  load_sketch(snapshot_sketch(src), dst);
  EXPECT_DOUBLE_EQ(dst.l2_squared_estimate(), src.l2_squared_estimate());
}

TEST(SketchSnapshot, RejectsWrongShape) {
  sketch::CountMinSketch src(5, 1024, 41);
  sketch::CountMinSketch wrong(5, 2048, 41);
  EXPECT_THROW(load_sketch(snapshot_sketch(src), wrong), std::invalid_argument);
}

// --- Frame fuzzing ----------------------------------------------------------
//
// Every corruption mode of the CRC frame must be *rejected with a distinct
// error*, never loaded as a silently wrong sketch (DESIGN.md §10).

std::string open_error(std::span<const std::uint8_t> bytes) {
  try {
    (void)open_frame(bytes);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";  // opened cleanly
}

std::vector<std::uint8_t> fuzz_frame() {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 100; ++i) payload.push_back(static_cast<std::uint8_t>(i * 7));
  return seal_frame(payload);
}

TEST(FrameFuzz, SealOpenRoundTripsIncludingEmptyPayload) {
  const auto frame = fuzz_frame();
  const auto view = open_frame(frame);
  ASSERT_EQ(view.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(view[i], static_cast<std::uint8_t>(i * 7));
  // A zero-length payload is legitimate (empty checkpoint), distinct from a
  // zero-length *buffer*.
  const auto empty = seal_frame(std::span<const std::uint8_t>{});
  EXPECT_EQ(open_frame(empty).size(), 0u);
}

TEST(FrameFuzz, ZeroLengthBufferIsRejected) {
  EXPECT_EQ(open_error({}), "frame: zero-length buffer");
}

TEST(FrameFuzz, EveryHeaderTruncationIsRejected) {
  const auto frame = fuzz_frame();
  for (std::size_t n = 1; n < kFrameHeaderBytes; ++n) {
    EXPECT_EQ(open_error(std::span(frame).first(n)), "frame: truncated header")
        << "length " << n;
  }
}

TEST(FrameFuzz, EveryPayloadTruncationIsRejected) {
  const auto frame = fuzz_frame();
  for (std::size_t n = kFrameHeaderBytes; n < frame.size(); ++n) {
    EXPECT_EQ(open_error(std::span(frame).first(n)), "frame: truncated payload")
        << "length " << n;
  }
}

TEST(FrameFuzz, TrailingGarbageIsRejected) {
  auto frame = fuzz_frame();
  frame.push_back(0x00);
  EXPECT_EQ(open_error(frame), "frame: trailing bytes after payload");
}

TEST(FrameFuzz, UnsupportedVersionIsRejectedByNumber) {
  auto frame = fuzz_frame();
  frame[4] = 9;  // version field (little-endian u32 after the magic)
  EXPECT_EQ(open_error(frame), "frame: unsupported version 9");
}

TEST(FrameFuzz, EverySingleBitFlipIsCaught) {
  const auto pristine = fuzz_frame();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto frame = pristine;
      frame[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(open_error(frame), "")
          << "flip at byte " << byte << " bit " << bit << " opened cleanly";
    }
  }
}

TEST(FrameFuzz, SketchLoadSurvivesRandomGarbageWithoutCrashing) {
  // Random byte soup must always surface as invalid_argument /
  // out_of_range — never UB, never a half-loaded replica.
  sketch::CountMinSketch pristine(5, 1024, 41);
  for (int i = 0; i < 100; ++i) pristine.update(flow_key_for_rank(i, 6));
  const auto good = snapshot_sketch(pristine);

  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = good;
    const std::size_t flips = 1 + next() % 16;
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[next() % bytes.size()] ^= static_cast<std::uint8_t>(1 + next() % 255);
    }
    sketch::CountMinSketch replica(5, 1024, 41);
    try {
      load_sketch(bytes, replica);
      // Astronomically unlikely (CRC forgery); acceptable only if the
      // payload still parsed to the right shape.
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(UnivMonSnapshot, SizeIsDominatedByCounters) {
  sketch::UnivMon um(um_config(), 1);
  const auto bytes = snapshot_univmon(um);
  std::size_t counter_bytes = 0;
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    counter_bytes += um.level_sketch(j).memory_bytes();
  }
  EXPECT_GE(bytes.size(), counter_bytes);
  EXPECT_LT(bytes.size(), counter_bytes + 64 * 1024);
}

}  // namespace
}  // namespace nitro::control
