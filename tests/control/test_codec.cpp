#include "control/codec.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

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
  sketch::UnivMon pristine(um_config(), 41);
  for (int i = 0; i < 100; ++i) pristine.update(flow_key_for_rank(i, 6));
  const auto good = snapshot_univmon(pristine);

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
    sketch::UnivMon replica(um_config(), 41);
    try {
      load_univmon(bytes, replica);
      // Astronomically unlikely (CRC forgery); acceptable only if the
      // payload still parsed to the right shape.
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(UnivMonSnapshot, SizeIsDominatedByCounters) {
  // Counters travel as sparse cells, so the size follows the non-zero
  // count.  With every counter non-zero (values whose zig-zag varint
  // takes 7 bytes, plus a 1-byte gap) a snapshot still costs at least the
  // dense int64 array; an empty sketch costs a few bytes per row.
  sketch::UnivMon um(um_config(), 1);
  std::size_t counter_bytes = 0;
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    counter_bytes += um.level_sketch(j).memory_bytes();
  }
  EXPECT_LT(snapshot_univmon(um).size(), 4u * 1024);

  std::int64_t v = std::int64_t{1} << 45;
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    auto& m = um.level_sketch_mut(j).matrix();
    for (std::uint32_t r = 0; r < m.depth(); ++r) {
      for (auto& c : m.row_mut(r)) c = (v++ % 2 == 0) ? v : -v;
    }
  }
  const auto bytes = snapshot_univmon(um);
  EXPECT_GE(bytes.size(), counter_bytes);
  EXPECT_LT(bytes.size(), counter_bytes + 64 * 1024);
}

// --- Sparse counter spans ---------------------------------------------------

TEST(MatrixCodec, SparseRoundTripsExtremeValuesAtTheRowEdges) {
  sketch::CounterMatrix src(2, 100, 9, true);
  sketch::CounterMatrix dst(2, 100, 9, true);
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  auto r0 = src.row_mut(0);
  r0[0] = kMin;
  r0[1] = -1;
  r0[50] = std::int64_t{1} << 62;
  r0[99] = kMax;
  auto r1 = src.row_mut(1);
  r1[99] = -(std::int64_t{1} << 62);
  for (std::uint32_t row = 0; row < 2; ++row) dst.row_mut(row)[7] = 123;  // overwritten
  ByteWriter w;
  write_matrix(w, src);
  ByteReader r(w.bytes());
  read_matrix_into(r, dst);
  EXPECT_TRUE(r.exhausted());
  for (std::uint32_t row = 0; row < 2; ++row) {
    for (std::uint32_t c = 0; c < 100; ++c) EXPECT_EQ(src.row(row)[c], dst.row(row)[c]);
  }
}

TEST(MatrixCodec, DenseRowCostsNoMoreThanItsInt64Array) {
  // The bound that makes a dense fallback unnecessary: |v| < 2^48 costs
  // at most 8 bytes a pair, even with every cell non-zero.
  sketch::CounterMatrix m(1, 1000, 9, true);
  std::int64_t v = (std::int64_t{1} << 48) - 1;
  for (auto& c : m.row_mut(0)) c = (v-- % 2 == 0) ? v : -v;
  ByteWriter w;
  write_matrix(w, m);
  EXPECT_LE(w.size(), 13u + 2u + 1000u * 8u);  // header + count varint + pairs
}

/// A UnivMon snapshot payload for um_config() whose level-0 row-0 span is
/// `span` verbatim and every other span empty.  With `complete` false the
/// payload ends right after `span` (truncation cases).
std::vector<std::uint8_t> forged_snapshot(const std::vector<std::uint8_t>& span,
                                          bool complete = true) {
  const auto cfg = um_config();
  ByteWriter w;
  w.put_u32(0x4e554d31u);  // "NUM1"
  w.put_u32(cfg.levels);
  w.put_i64(0);
  for (std::uint32_t j = 0; j < cfg.levels; ++j) {
    w.put_u32(0x4e4d5458u);  // "NMTX"
    w.put_u32(cfg.depth);
    w.put_u32(cfg.width_at(j));
    w.put_u8(1);
    for (std::uint32_t r = 0; r < cfg.depth; ++r) {
      if (j == 0 && r == 0) {
        for (std::uint8_t b : span) w.put_u8(b);
        if (!complete) return seal_frame(w.bytes());
      } else {
        w.put_varint(0);
      }
    }
    w.put_u32(0x4e484150u);  // "NHAP"
    w.put_u32(0);
  }
  return seal_frame(w.bytes());
}

std::vector<std::uint8_t> varints(std::initializer_list<std::uint64_t> values) {
  ByteWriter w;
  for (std::uint64_t v : values) w.put_varint(v);
  return std::move(w).take();
}

/// What load_univmon throws for `bytes` ("" when it loads), and whether
/// the pre-populated replica came through untouched.
struct LoadOutcome {
  std::string error;
  bool untouched = false;
};

LoadOutcome load_outcome(const std::vector<std::uint8_t>& bytes) {
  static const sketch::UnivMon populated = [] {
    sketch::UnivMon um(um_config(), 77);
    for (int i = 0; i < 2000; ++i) um.update(flow_key_for_rank(i % 300, 4));
    return um;
  }();
  static const auto before = snapshot_univmon(populated);
  sketch::UnivMon replica = populated;
  LoadOutcome out;
  try {
    load_univmon(bytes, replica);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.untouched = snapshot_univmon(replica) == before;
  return out;
}

TEST(SparseFrame, VarintRoundTripsTheWholeRange) {
  const std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384, (1ULL << 63) - 1,
                                  1ULL << 63, ~0ULL};
  ByteWriter w;
  for (std::uint64_t v : values) w.put_varint(v);
  ByteReader r(w.bytes());
  for (std::uint64_t v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(SparseFrame, ForgedSpanBaselineLoads) {
  // The forging helper itself produces a loadable frame.
  const auto out = load_outcome(forged_snapshot(varints({2, 5, 3, 0, 4})));
  EXPECT_EQ(out.error, "");
}

TEST(SparseFrame, EachMalformedSpanIsRejectedByNameAndLeavesTheReplicaUntouched) {
  const std::uint32_t width = um_config().width_at(0);
  const std::string past = "snapshot: sparse cell index past the end of the span";
  struct Case {
    const char* what;
    std::vector<std::uint8_t> bytes;
    std::string error;
  };
  std::vector<std::uint8_t> overlong = varints({1, 0});
  overlong.push_back(0x82);  // value 1 padded to two bytes
  overlong.push_back(0x00);
  std::vector<std::uint8_t> overflow = varints({1, 0});
  for (int i = 0; i < 9; ++i) overflow.push_back(0xff);
  overflow.push_back(0x02);  // bit 64 set
  std::vector<std::uint8_t> truncated = varints({1, 0});
  truncated.push_back(0x80);  // continuation bit, then the payload ends
  const std::vector<Case> cases = {
      {"index wrap", varints({2, 5, 2, ~0ULL, 2}), past},
      {"past-width index", varints({1, width, 2}), past},
      {"past-width after a cell", varints({2, width - 1, 2, 0, 2}), past},
      {"explicit zero", varints({1, 3, 0}),
       "snapshot: sparse cell with an explicit zero value"},
      {"count above width", varints({width + 1}),
       "snapshot: sparse cell count exceeds the span"},
      {"overlong varint", overlong, "snapshot: overlong varint"},
      {"overflowing varint", overflow, "snapshot: varint overflows 64 bits"},
  };
  for (const Case& c : cases) {
    const auto out = load_outcome(forged_snapshot(c.bytes));
    EXPECT_EQ(out.error, c.error) << c.what;
    EXPECT_TRUE(out.untouched) << c.what;
  }
  const auto out = load_outcome(forged_snapshot(truncated, /*complete=*/false));
  EXPECT_EQ(out.error, "ByteReader: truncated varint");
  EXPECT_TRUE(out.untouched);
}

TEST(SparseFrame, RandomSpansUnderAValidCrcNeverCrash) {
  // CRC-blessed garbage in the sparse cells: every payload either loads
  // or throws, and a throw leaves the replica as it was.
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int loaded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> span;
    const std::uint64_t count = next() % 6;
    span = varints({count});
    for (std::uint64_t i = 0; i < count + next() % 2; ++i) {
      const std::uint64_t gap = next() % 4 == 0 ? next() : next() % 300;
      const std::uint64_t value = next() % 8 == 0 ? 0 : next() >> (next() % 64);
      for (std::uint8_t b : varints({gap, value})) span.push_back(b);
    }
    const std::size_t noise = next() % 3;
    for (std::size_t i = 0; i < noise; ++i) span.push_back(static_cast<std::uint8_t>(next()));
    const bool complete = next() % 4 != 0;
    const auto out = load_outcome(forged_snapshot(span, complete));
    if (out.error.empty()) {
      ++loaded;
    } else {
      EXPECT_TRUE(out.untouched) << out.error;
    }
  }
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace nitro::control
