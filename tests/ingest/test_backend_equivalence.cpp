// Backend equivalence: the property the whole ingest layer hangs off.
//
// The same trace driven through the synth wrapper, the mmap'd capture
// replay (pcap and NTR1), and the burst-RX shim must leave bit-identical
// sketch state — same counters, same packet and sample tallies.  The
// backends may differ in how bytes reach the consumer (materialized
// records, an mmap'd capture, hugepage frames behind an SPSC ring) but
// every one of them must deliver the identical decoded packet sequence,
// and the update path downstream of next_burst() is already bit-exact
// (update_burst identity, PR 2).  Also covered: epoch budgets that cut
// mid-burst, and mid-stream kDegrade probability drops — both must land
// on the same packet for every backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/nitro_sketch.hpp"
#include "ingest/factory.hpp"
#include "ingest/ingest_loop.hpp"
#include "ingest/mmap_replay.hpp"
#include "ingest/pcap.hpp"
#include "ingest/shim.hpp"
#include "ingest/synth_backend.hpp"
#include "sketch/count_min.hpp"
#include "switchsim/measurement.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"
#include "support/temp_path.hpp"

namespace nitro::ingest {
namespace {

using Nitro = core::NitroSketch<sketch::CountMinSketch>;

core::NitroConfig nitro_config() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.05;
  return cfg;
}

Nitro make_nitro() { return Nitro(sketch::CountMinSketch(5, 2048, 31), nitro_config()); }

trace::Trace test_trace(std::size_t packets = 50'000) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 2'000;
  spec.seed = 23;
  return trace::caida_like(spec);
}

std::string temp_file(const char* name) { return nitro::testing::unique_temp_path(name); }

/// Drive `backend` to EOF through the run-to-completion loop, optionally
/// splitting at the given packet offsets (epoch boundaries: flush +
/// finish between segments) and applying kDegrade level bumps at them.
void drive(IngestBackend& backend, Nitro& nitro,
           const std::vector<std::uint64_t>& epoch_splits = {},
           bool degrade_at_splits = false) {
  switchsim::InlineMeasurement<Nitro> meas(nitro);
  IngestLoop loop(backend, meas);
  std::uint64_t cursor = 0;
  for (const auto split : epoch_splits) {
    ASSERT_GE(split, cursor);
    loop.run(split - cursor);
    meas.finish();
    nitro.flush();  // epoch barrier: queries observe every packet
    if (degrade_at_splits) nitro.apply_degradation(1);
    cursor = split;
  }
  loop.run();
  meas.finish();
  nitro.flush();
}

void expect_identical(const Nitro& a, const Nitro& b, const char* label) {
  EXPECT_EQ(a.packets(), b.packets()) << label;
  EXPECT_EQ(a.sampled_updates(), b.sampled_updates()) << label;
  const auto& ma = a.base().matrix();
  const auto& mb = b.base().matrix();
  ASSERT_EQ(ma.depth(), mb.depth()) << label;
  for (std::uint32_t r = 0; r < ma.depth(); ++r) {
    const auto ra = ma.row(r);
    const auto rb = mb.row(r);
    ASSERT_EQ(ra.size(), rb.size()) << label;
    for (std::size_t c = 0; c < ra.size(); ++c) {
      ASSERT_EQ(ra[c], rb[c]) << label << " row " << r << " col " << c;
    }
  }
}

class BackendEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = test_trace();
    pcap_path_ = temp_file("nitro_equiv.pcap");
    ntr_path_ = temp_file("nitro_equiv.ntr");
    write_pcap(pcap_path_, stream_);
    trace::save_trace(ntr_path_, stream_);
  }
  void TearDown() override {
    std::filesystem::remove(pcap_path_);
    std::filesystem::remove(ntr_path_);
  }

  /// Synth is the reference; every other backend must match it bit-exactly.
  void run_all(const std::vector<std::uint64_t>& splits = {},
               bool degrade = false) {
    Nitro ref = make_nitro();
    {
      SynthReplayBackend synth(stream_);
      drive(synth, ref, splits, degrade);
    }
    {
      Nitro n = make_nitro();
      MmapReplayBackend pcap(pcap_path_);
      EXPECT_STREQ(pcap.name(), "pcap");
      drive(pcap, n, splits, degrade);
      EXPECT_EQ(pcap.parse_errors(), 0u);
      expect_identical(ref, n, "pcap");
    }
    {
      Nitro n = make_nitro();
      MmapReplayBackend ntr(ntr_path_);
      EXPECT_STREQ(ntr.name(), "ntr");
      drive(ntr, n, splits, degrade);
      expect_identical(ref, n, "ntr");
    }
    {
      Nitro n = make_nitro();
      BurstRxShim shim(stream_);
      drive(shim, n, splits, degrade);
      EXPECT_EQ(shim.parse_errors(), 0u);
      expect_identical(ref, n, "shim");
    }
  }

  trace::Trace stream_;
  std::string pcap_path_;
  std::string ntr_path_;
};

TEST_F(BackendEquivalence, SingleEpochBitIdenticalAcrossAllBackends) {
  run_all();
}

TEST_F(BackendEquivalence, MidBurstEpochBoundariesPreserveIdentity) {
  // Splits deliberately off any burst multiple (32): boundaries land
  // mid-burst, forcing the loop's budget-shrunken bursts.  Identity must
  // survive the different flush cadence.
  run_all({7, 12'345, 33'333});
}

TEST_F(BackendEquivalence, DegradationAtEpochBoundariesPreservesIdentity) {
  // kDegrade drops the geometric sampler's probability mid-stream.  The
  // resample must happen at the same packet for every backend, so state
  // stays identical even though the sampling schedule changed twice.
  run_all({10'000, 30'001}, /*degrade_at_splits=*/true);
}

TEST_F(BackendEquivalence, ReplayLoopMatchesConcatenatedTrace) {
  // --replay-loop 3 over the file == synth replay of the trace appended
  // three times.
  trace::Trace tripled;
  for (int i = 0; i < 3; ++i)
    tripled.insert(tripled.end(), stream_.begin(), stream_.end());
  Nitro ref = make_nitro();
  {
    SynthReplayBackend synth(tripled);
    drive(synth, ref);
  }
  ReplayOptions opts;
  opts.loop = 3;
  {
    Nitro n = make_nitro();
    MmapReplayBackend pcap(pcap_path_, opts);
    EXPECT_EQ(pcap.size_hint(), tripled.size());
    drive(pcap, n);
    expect_identical(ref, n, "pcap loop=3");
  }
  {
    Nitro n = make_nitro();
    ShimOptions sopts;
    sopts.loop = 3;
    BurstRxShim shim(stream_, sopts);
    drive(shim, n);
    expect_identical(ref, n, "shim loop=3");
  }
}

TEST_F(BackendEquivalence, FactorySpecsResolveToSameState) {
  Nitro ref = make_nitro();
  {
    auto b = make_backend("synth", stream_);
    drive(*b, ref);
  }
  for (const std::string& spec :
       {std::string("shim"), "pcap:" + pcap_path_, "file:" + ntr_path_}) {
    Nitro n = make_nitro();
    auto b = make_backend(spec, stream_);
    drive(*b, n);
    expect_identical(ref, n, spec.c_str());
  }
}

TEST(BackendEquivalenceUnits, TimestampsSurviveEveryBackend) {
  // The epoch driver stamps bursts with the last packet's ts_ns; pcap
  // (nanosecond magic) and the shim must both carry timestamps through
  // without truncation.
  auto stream = test_trace(1'000);
  const auto pcap_path = temp_file("nitro_equiv_ts.pcap");
  write_pcap(pcap_path, stream);

  auto collect = [](IngestBackend& b) {
    std::vector<std::uint64_t> ts;
    PacketView views[64];
    for (;;) {
      const std::size_t n = b.next_burst(views, 64);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) ts.push_back(views[i].ts_ns);
    }
    return ts;
  };

  std::vector<std::uint64_t> want;
  for (const auto& r : stream) want.push_back(r.ts_ns);
  {
    SynthReplayBackend synth(stream);
    EXPECT_EQ(collect(synth), want);
  }
  {
    MmapReplayBackend pcap(pcap_path);
    EXPECT_EQ(collect(pcap), want);
  }
  {
    BurstRxShim shim(stream);
    EXPECT_EQ(collect(shim), want);
  }
  std::filesystem::remove(pcap_path);
}

}  // namespace
}  // namespace nitro::ingest
