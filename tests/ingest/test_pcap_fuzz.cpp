// Adversarial inputs for the pcap parser (satellite of ROADMAP item 1).
//
// The parser's contract: every malformed capture is rejected with a loud
// std::runtime_error naming the offending offset, and no input — however
// mangled — makes it read outside the byte span.  The structured cases
// below pin each validation branch; the mutation sweep at the end drives
// thousands of random corruptions through the cursor and relies on ASan
// (tier-1 runs this suite under NITRO_SANITIZE=address in CI) to catch
// any out-of-bounds access.
#include "ingest/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/rng.hpp"
#include "ingest/frame.hpp"
#include "ingest/mmap_replay.hpp"
#include "trace/workloads.hpp"
#include "support/temp_path.hpp"

namespace nitro::ingest {
namespace {

class Bytes {
 public:
  explicit Bytes(bool big_endian = false) : big_(big_endian) {}

  Bytes& u16(std::uint16_t v) {
    if (big_) {
      data_.push_back(static_cast<std::uint8_t>(v >> 8));
      data_.push_back(static_cast<std::uint8_t>(v));
    } else {
      data_.push_back(static_cast<std::uint8_t>(v));
      data_.push_back(static_cast<std::uint8_t>(v >> 8));
    }
    return *this;
  }
  Bytes& u32(std::uint32_t v) {
    if (big_) {
      for (int s = 24; s >= 0; s -= 8)
        data_.push_back(static_cast<std::uint8_t>(v >> s));
    } else {
      for (int s = 0; s <= 24; s += 8)
        data_.push_back(static_cast<std::uint8_t>(v >> s));
    }
    return *this;
  }
  Bytes& raw(const std::uint8_t* p, std::size_t n) {
    data_.insert(data_.end(), p, p + n);
    return *this;
  }
  Bytes& fill(std::size_t n, std::uint8_t b) {
    data_.insert(data_.end(), n, b);
    return *this;
  }

  /// Standard global header with the given magic/snaplen/linktype.
  Bytes& global_header(std::uint32_t magic, std::uint32_t snaplen = 65535,
                       std::uint32_t linktype = kPcapLinktypeEthernet) {
    return u32(magic).u16(2).u16(4).u32(0).u32(0).u32(snaplen).u32(linktype);
  }

  std::span<const std::uint8_t> span() const { return data_; }
  std::vector<std::uint8_t>& vec() { return data_; }

 private:
  std::vector<std::uint8_t> data_;
  bool big_;
};

std::uint8_t sample_frame_bytes[kFrameHeaderBytes];

trace::PacketRecord sample_record() {
  trace::PacketRecord rec;
  rec.key = trace::flow_key_for_rank(1, 2);
  rec.wire_bytes = 512;
  rec.ts_ns = 3'000'000'123ull;
  return rec;
}

TEST(PcapFuzz, EmptyInputThrows) {
  EXPECT_THROW(parse_pcap_header({}), std::runtime_error);
}

TEST(PcapFuzz, TruncatedGlobalHeaderThrowsAtEveryLength) {
  Bytes b;
  b.global_header(kPcapMagicNanos);
  for (std::size_t len = 0; len < kPcapGlobalHeaderBytes; ++len) {
    EXPECT_THROW(parse_pcap_header(b.span().subspan(0, len)), std::runtime_error)
        << len;
  }
  EXPECT_NO_THROW(parse_pcap_header(b.span()));
}

TEST(PcapFuzz, UnknownMagicThrows) {
  for (std::uint32_t magic : {0u, 0xdeadbeefu, 0xa1b2c3d5u, 0x0a0d0d0au}) {
    Bytes b;
    b.global_header(magic);
    EXPECT_THROW(parse_pcap_header(b.span()), std::runtime_error) << magic;
  }
}

TEST(PcapFuzz, AllFourMagicVariantsParse) {
  struct Case {
    std::uint32_t magic;
    bool big;
    bool want_swapped;
    bool want_nanos;
  };
  // A little-endian host reads a big-endian-written file as "swapped".
  const Case cases[] = {
      {kPcapMagicMicros, false, false, false},
      {kPcapMagicNanos, false, false, true},
      {kPcapMagicMicros, true, true, false},
      {kPcapMagicNanos, true, true, true},
  };
  for (const auto& c : cases) {
    Bytes b(c.big);
    b.global_header(c.magic, 4096);
    const auto info = parse_pcap_header(b.span());
    EXPECT_EQ(info.swapped, c.want_swapped) << c.magic;
    EXPECT_EQ(info.nanos, c.want_nanos) << c.magic;
    EXPECT_EQ(info.snaplen, 4096u);
    EXPECT_EQ(info.linktype, kPcapLinktypeEthernet);
  }
}

TEST(PcapFuzz, NonEthernetLinkTypesThrow) {
  // 101 = RAW, 113 = LINUX_SLL, 127 = IEEE802_11_RADIOTAP, 0xffffffff.
  for (std::uint32_t lt : {0u, 101u, 113u, 127u, 0xffffffffu}) {
    Bytes b;
    b.global_header(kPcapMagicMicros, 65535, lt);
    EXPECT_THROW(parse_pcap_header(b.span()), std::runtime_error) << lt;
  }
}

TEST(PcapFuzz, TruncatedRecordHeaderThrows) {
  write_frame(sample_record(), sample_frame_bytes);
  for (std::size_t partial = 1; partial < kPcapRecordHeaderBytes; ++partial) {
    Bytes b;
    b.global_header(kPcapMagicNanos);
    b.fill(partial, 0x01);  // a few bytes of a record header, then EOF
    PcapCursor cur(b.span());
    PcapRecord rec;
    EXPECT_THROW((void)cur.next(rec), std::runtime_error) << partial;
  }
}

TEST(PcapFuzz, CaplenAboveSnaplenThrows) {
  Bytes b;
  b.global_header(kPcapMagicNanos, /*snaplen=*/64);
  b.u32(0).u32(0).u32(65).u32(65);  // caplen 65 > snaplen 64
  b.fill(65, 0xaa);                 // payload actually present
  PcapCursor cur(b.span());
  PcapRecord rec;
  EXPECT_THROW((void)cur.next(rec), std::runtime_error);
}

TEST(PcapFuzz, RecordStraddlingEndOfCaptureThrows) {
  // Record header claims 1000 payload bytes but the capture ends after 10.
  Bytes b;
  b.global_header(kPcapMagicNanos);
  b.u32(1).u32(2).u32(1000).u32(1000);
  b.fill(10, 0xbb);
  PcapCursor cur(b.span());
  PcapRecord rec;
  EXPECT_THROW((void)cur.next(rec), std::runtime_error);
}

TEST(PcapFuzz, HugeCaplenDoesNotWrapBoundsCheck) {
  // 0xffffffff caplen must not overflow the arithmetic in the straddle
  // check into a false "fits".
  Bytes b;
  b.global_header(kPcapMagicNanos, /*snaplen=*/0xffffffffu);
  b.u32(0).u32(0).u32(0xffffffffu).u32(0xffffffffu);
  PcapCursor cur(b.span());
  PcapRecord rec;
  EXPECT_THROW((void)cur.next(rec), std::runtime_error);
}

TEST(PcapFuzz, SwappedFileRecordsDecodeCorrectly) {
  // A big-endian-written capture: every header field byte-swapped, frame
  // bytes as-is (they're defined big-endian on the wire already).
  const auto rec_in = sample_record();
  write_frame(rec_in, sample_frame_bytes);
  Bytes b(/*big_endian=*/true);
  b.global_header(kPcapMagicNanos);
  b.u32(3).u32(123).u32(kFrameHeaderBytes).u32(rec_in.wire_bytes);
  b.raw(sample_frame_bytes, kFrameHeaderBytes);

  PcapCursor cur(b.span());
  ASSERT_TRUE(cur.info().swapped);
  PcapRecord rec;
  ASSERT_TRUE(cur.next(rec));
  EXPECT_EQ(rec.caplen, kFrameHeaderBytes);
  EXPECT_EQ(rec.orig_len, rec_in.wire_bytes);
  EXPECT_EQ(rec.ts_ns, rec_in.ts_ns);
  FlowKey key;
  ASSERT_TRUE(decode_frame(rec.data, rec.caplen, key));
  EXPECT_EQ(key, rec_in.key);
  EXPECT_FALSE(cur.next(rec));
}

TEST(PcapFuzz, MicrosecondTimestampsScaleToNanos) {
  Bytes b;
  b.global_header(kPcapMagicMicros);
  b.u32(7).u32(250'000).u32(0).u32(0);  // 7.25s, empty frame
  PcapCursor cur(b.span());
  PcapRecord rec;
  ASSERT_TRUE(cur.next(rec));
  EXPECT_EQ(rec.ts_ns, 7'250'000'000ull);
}

TEST(PcapFuzz, WritePcapRoundTripsThroughCursor) {
  trace::WorkloadSpec spec;
  spec.packets = 200;
  spec.flows = 20;
  spec.seed = 11;
  const auto stream = trace::caida_like(spec);
  const auto path = nitro::testing::unique_temp_path("nitro_fuzz_roundtrip.pcap");
  write_pcap(path, stream);

  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  PcapCursor cur(bytes);
  EXPECT_TRUE(cur.info().nanos);
  PcapRecord rec;
  std::size_t i = 0;
  while (cur.next(rec)) {
    ASSERT_LT(i, stream.size());
    EXPECT_EQ(rec.caplen, kFrameHeaderBytes);
    EXPECT_EQ(rec.orig_len, stream[i].wire_bytes);
    EXPECT_EQ(rec.ts_ns, stream[i].ts_ns);
    FlowKey key;
    ASSERT_TRUE(decode_frame(rec.data, rec.caplen, key));
    EXPECT_EQ(key, stream[i].key);
    ++i;
  }
  EXPECT_EQ(i, stream.size());
  std::filesystem::remove(path);
}

TEST(PcapFuzz, MmapReplayRejectsMalformedFilesAtConstruction) {
  namespace fs = std::filesystem;
  auto write_file = [&](const char* name, const std::vector<std::uint8_t>& v) {
    const auto p = nitro::testing::unique_temp_path(name);
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size()));
    return p;
  };

  Bytes garbage;
  garbage.fill(100, 0x5a);
  Bytes truncated;
  truncated.global_header(kPcapMagicNanos);
  truncated.u32(0).u32(0).u32(500).u32(500);  // straddles: no payload
  Bytes raw_linktype;
  raw_linktype.global_header(kPcapMagicMicros, 65535, /*linktype=*/101);

  const auto p1 = write_file("nitro_fuzz_garbage.pcap", garbage.vec());
  const auto p2 = write_file("nitro_fuzz_straddle.pcap", truncated.vec());
  const auto p3 = write_file("nitro_fuzz_linktype.pcap", raw_linktype.vec());
  EXPECT_THROW(MmapReplayBackend b(p1), std::runtime_error);
  EXPECT_THROW(MmapReplayBackend b(p2), std::runtime_error);
  EXPECT_THROW(MmapReplayBackend b(p3), std::runtime_error);
  EXPECT_THROW(MmapReplayBackend b(nitro::testing::unique_temp_path("nitro_fuzz_missing.pcap")),
               std::runtime_error);
  for (const auto& p : {p1, p2, p3}) fs::remove(p);
}

TEST(PcapFuzz, RandomMutationsNeverEscapeTheSpan) {
  // Deterministic mutation sweep: corrupt a valid capture (byte flips,
  // truncations, field stomps) and walk it to completion or first throw.
  // The assertion is implicit — under ASan any out-of-bounds read aborts
  // the test binary.
  trace::WorkloadSpec spec;
  spec.packets = 64;
  spec.flows = 8;
  spec.seed = 3;
  const auto stream = trace::caida_like(spec);
  Bytes valid;
  valid.global_header(kPcapMagicNanos);
  for (const auto& r : stream) {
    std::uint8_t frame[kFrameHeaderBytes];
    write_frame(r, frame);
    valid.u32(static_cast<std::uint32_t>(r.ts_ns / 1'000'000'000ull))
        .u32(static_cast<std::uint32_t>(r.ts_ns % 1'000'000'000ull))
        .u32(kFrameHeaderBytes)
        .u32(r.wire_bytes)
        .raw(frame, kFrameHeaderBytes);
  }

  Pcg32 rng(0xf22d);
  std::size_t clean = 0, rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::uint8_t> mut = valid.vec();
    // 1-8 byte stomps anywhere in the capture.
    const std::uint32_t stomps = 1 + rng.next_below(8);
    for (std::uint32_t s = 0; s < stomps; ++s) {
      mut[rng.next_below(static_cast<std::uint32_t>(mut.size()))] =
          static_cast<std::uint8_t>(rng.next());
    }
    // Half the rounds also truncate at a random point.
    if (rng.next_below(2) == 0) {
      mut.resize(rng.next_below(static_cast<std::uint32_t>(mut.size()) + 1));
    }
    try {
      PcapCursor cur(mut);
      PcapRecord rec;
      FlowKey key;
      while (cur.next(rec)) {
        // Touch every byte the parser handed out — this is where an OOB
        // pointer would trip ASan.
        (void)decode_frame(rec.data, rec.caplen, key);
        std::uint64_t sum = 0;
        for (std::uint32_t i = 0; i < rec.caplen; ++i) sum += rec.data[i];
        (void)sum;
      }
      ++clean;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace nitro::ingest
