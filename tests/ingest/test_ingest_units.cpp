// Unit coverage for the ingest building blocks: the frame codec, the
// hugepage frame pool ladder, the run-to-completion loop's packet
// budgeting, mmap'd file access, and backend construction from specs.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "ingest/factory.hpp"
#include "ingest/frame.hpp"
#include "ingest/frame_pool.hpp"
#include "ingest/ingest_loop.hpp"
#include "ingest/mmap_file.hpp"
#include "ingest/mmap_replay.hpp"
#include "ingest/synth_backend.hpp"
#include "switchsim/measurement.hpp"
#include "switchsim/packet.hpp"
#include "trace/workloads.hpp"
#include "support/temp_path.hpp"

namespace nitro::ingest {
namespace {

TEST(FrameCodec, RoundTripsFlowKey) {
  for (int rank = 0; rank < 100; ++rank) {
    trace::PacketRecord rec;
    rec.key = trace::flow_key_for_rank(rank, 7);
    rec.wire_bytes = static_cast<std::uint16_t>(64 + rank);
    std::uint8_t frame[kFrameHeaderBytes];
    write_frame(rec, frame);
    FlowKey key;
    ASSERT_TRUE(decode_frame(frame, sizeof frame, key));
    EXPECT_EQ(key, rec.key) << rank;
  }
}

TEST(FrameCodec, MatchesSwitchsimMakeRawByteForByte) {
  // The whole equivalence story rests on this: a frame the ingest layer
  // fabricates must be indistinguishable from the switch substrate's.
  trace::WorkloadSpec spec;
  spec.packets = 500;
  spec.flows = 50;
  spec.seed = 13;
  for (const auto& rec : trace::caida_like(spec)) {
    const auto raw = switchsim::make_raw(rec);
    std::uint8_t frame[kFrameHeaderBytes];
    write_frame(rec, frame);
    ASSERT_EQ(std::memcmp(frame, raw.header.data(), kFrameHeaderBytes), 0);
  }
}

TEST(FrameCodec, RejectsShortFrames) {
  trace::PacketRecord rec;
  rec.key = trace::flow_key_for_rank(0, 0);
  std::uint8_t frame[kFrameHeaderBytes];
  write_frame(rec, frame);
  FlowKey key;
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_FALSE(decode_frame(frame, len, key)) << len;
  }
}

TEST(FrameCodec, RejectsNonIpv4) {
  trace::PacketRecord rec;
  rec.key = trace::flow_key_for_rank(3, 1);
  std::uint8_t frame[kFrameHeaderBytes];
  FlowKey key;

  write_frame(rec, frame);
  frame[12] = 0x08;
  frame[13] = 0x06;  // ARP EtherType
  EXPECT_FALSE(decode_frame(frame, sizeof frame, key));

  write_frame(rec, frame);
  frame[14] = 0x65;  // IPv6 version nibble in the IPv4 slot
  EXPECT_FALSE(decode_frame(frame, sizeof frame, key));
}

TEST(FramePool, AllocatesAndAddressesFrames) {
  FramePool pool(64, 2048);
  EXPECT_EQ(pool.frame_count(), 64u);
  EXPECT_EQ(pool.frame_size(), 2048u);
  // The rung is environment-dependent; whatever it is, it must be one of
  // the ladder's three and the memory must be writable end to end.
  const std::string backing = pool.backing();
  EXPECT_TRUE(backing == "hugetlb" || backing == "thp" || backing == "pages")
      << backing;
  for (std::size_t i = 0; i < pool.frame_count(); ++i) {
    std::memset(pool.frame(i), static_cast<int>(i & 0xff), pool.frame_size());
  }
  EXPECT_EQ(pool.frame(63)[0], 63);
  EXPECT_EQ(pool.frame(1) - pool.frame(0), 2048);
}

TEST(FramePool, RejectsNonPowerOfTwoFrameSize) {
  EXPECT_THROW(FramePool(16, 1500), std::runtime_error);
}

TEST(MmapFileTest, MapsAndReadsWholeFile) {
  const auto path = nitro::testing::unique_temp_path("nitro_mmap_unit.bin");
  std::vector<std::uint8_t> content(8192);
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<std::uint8_t>(i * 31);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
  }
  {
    MmapFile map(path);
    const auto bytes = map.bytes();
    ASSERT_EQ(bytes.size(), content.size());
    EXPECT_EQ(std::memcmp(bytes.data(), content.data(), content.size()), 0);
  }
  std::filesystem::remove(path);
}

TEST(MmapFileTest, ThrowsOnMissingAndEmptyFiles) {
  EXPECT_THROW(MmapFile("/nonexistent/nope.bin"), std::runtime_error);
  const auto path = nitro::testing::unique_temp_path("nitro_mmap_empty.bin");
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW(MmapFile m(path), std::runtime_error);
  std::filesystem::remove(path);
}

class CountingMeasurement final : public switchsim::Measurement {
 public:
  void on_packet(const FlowKey&, std::uint16_t, std::uint64_t) override {
    ++packets_;
  }
  void on_burst(const FlowKey*, const std::uint16_t* wire, std::size_t n,
                std::uint64_t ts_ns) override {
    packets_ += n;
    ++bursts_;
    last_ts_ = ts_ns;
    for (std::size_t i = 0; i < n; ++i) bytes_ += wire[i];
    burst_sizes_.push_back(n);
  }
  std::uint64_t packets_ = 0, bytes_ = 0, bursts_ = 0, last_ts_ = 0;
  std::vector<std::size_t> burst_sizes_;
};

trace::Trace small_trace(std::size_t n) {
  trace::WorkloadSpec spec;
  spec.packets = n;
  spec.flows = 16;
  spec.seed = 9;
  return trace::caida_like(spec);
}

TEST(IngestLoopTest, BudgetStopsExactlyMidBurst) {
  const auto stream = small_trace(1000);
  SynthReplayBackend backend(stream);
  CountingMeasurement meas;
  IngestLoop loop(backend, meas, 32);

  // 100 = 3 full bursts of 32 + a budget-shrunken burst of 4.
  EXPECT_EQ(loop.run(100), 100u);
  EXPECT_EQ(meas.packets_, 100u);
  ASSERT_EQ(meas.burst_sizes_.size(), 4u);
  EXPECT_EQ(meas.burst_sizes_.back(), 4u);

  // The next run resumes at packet 100 — nothing skipped or replayed.
  EXPECT_EQ(loop.run(), 900u);
  EXPECT_EQ(meas.packets_, 1000u);
  EXPECT_EQ(loop.stats().packets, 1000u);
  EXPECT_EQ(loop.run(), 0u);  // EOF is sticky
}

TEST(IngestLoopTest, AccountsBytesAndTimestamps) {
  const auto stream = small_trace(333);
  SynthReplayBackend backend(stream);
  CountingMeasurement meas;
  IngestLoop loop(backend, meas, 32);
  loop.run();
  std::uint64_t want_bytes = 0;
  for (const auto& r : stream) want_bytes += r.wire_bytes;
  EXPECT_EQ(loop.stats().bytes, want_bytes);
  EXPECT_EQ(meas.bytes_, want_bytes);
  // Bursts are stamped with their last packet's timestamp.
  EXPECT_EQ(meas.last_ts_, stream.back().ts_ns);
}

TEST(IngestLoopTest, ZeroBudgetDeliversNothing) {
  const auto stream = small_trace(10);
  SynthReplayBackend backend(stream);
  CountingMeasurement meas;
  IngestLoop loop(backend, meas);
  EXPECT_EQ(loop.run(0), 0u);
  EXPECT_EQ(meas.packets_, 0u);
}

TEST(SynthBackend, LoopsAndReportsSizeHint) {
  const auto stream = small_trace(50);
  SynthReplayBackend backend(stream, /*loop=*/4);
  EXPECT_EQ(backend.size_hint(), 200u);
  PacketView views[64];
  std::uint64_t total = 0;
  std::size_t n;
  while ((n = backend.next_burst(views, 64)) != 0) total += n;
  EXPECT_EQ(total, 200u);
}

TEST(SynthBackend, EmptyTraceIsImmediateEof) {
  trace::Trace empty;
  SynthReplayBackend backend(empty, 3);
  PacketView views[8];
  EXPECT_EQ(backend.next_burst(views, 8), 0u);
}

TEST(Factory, UnknownSpecThrows) {
  const auto stream = small_trace(10);
  EXPECT_THROW(make_backend("dpdk", stream), std::runtime_error);
  EXPECT_THROW(make_backend("", stream), std::runtime_error);
  EXPECT_THROW(make_backend("pcap:/nonexistent/x.pcap", stream),
               std::runtime_error);
}

TEST(Factory, SpecsResolveToNamedBackends) {
  const auto stream = small_trace(10);
  EXPECT_STREQ(make_backend("synth", stream)->name(), "synth");
  EXPECT_STREQ(make_backend("shim", stream)->name(), "shim");
}

TEST(SampleCapture, CheckedInFixtureReplaysCleanly) {
  // tests/data/sample_caida512.pcap is a committed artifact (made with
  // tools/make_pcap --workload caida --packets 512 --flows 64 --seed 7);
  // this pins the on-disk format so a parser or writer change that would
  // orphan existing captures fails loudly.
  const std::string path =
      std::string(NITRO_TEST_DATA_DIR) + "/sample_caida512.pcap";
  MmapReplayBackend backend(path);
  EXPECT_STREQ(backend.name(), "pcap");
  EXPECT_EQ(backend.size_hint(), 512u);
  CountingMeasurement meas;
  IngestLoop loop(backend, meas, 32);
  EXPECT_EQ(loop.run(), 512u);
  EXPECT_EQ(backend.parse_errors(), 0u);
  EXPECT_EQ(meas.packets_, 512u);
  EXPECT_GT(meas.last_ts_, 0u);
}

}  // namespace
}  // namespace nitro::ingest
