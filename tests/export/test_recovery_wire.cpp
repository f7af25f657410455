// Rejoin handshake (DESIGN.md §15): recover-request/response codec round
// trips and adversarial fuzzing (truncations, bit flips, forged version
// tags, nonsense field combinations), the collector's
// recovery_snapshot(), the request_recovery() client against a live
// CollectorServer — including retries through injected request drops and
// connection kills — and the exporter's set_next_seq rejoin hook.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "control/codec.hpp"
#include "core/nitro_univmon.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "export/recovery.hpp"
#include "export/wire.hpp"
#include "fault/fault.hpp"
#include "support/wire_errors.hpp"
#include "telemetry/registry.hpp"
#include "trace/workloads.hpp"

namespace nitro::xport {
namespace {

using testing::error_of;
using testing::unsupported_version;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 256;
  cfg.min_width = 128;
  cfg.heap_capacity = 32;
  return cfg;
}

constexpr std::uint64_t kSeed = 7;

core::NitroConfig vanilla_config() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  return cfg;
}

RecoverResponse sample_response() {
  RecoverResponse resp;
  resp.source_id = 7;
  resp.found = true;
  resp.last_seq = 5;
  resp.span = {0, 4};
  resp.packets = 12345;
  core::NitroUnivMon um(um_config(), vanilla_config(), kSeed);
  for (int i = 0; i < 200; ++i) um.update(trace::flow_key_for_rank(i % 9, 1));
  resp.snapshot = control::snapshot_univmon(um.univmon());
  return resp;
}

// --- Codec round trips and fuzzing ------------------------------------------

TEST(RecoverWire, RequestRoundTrip) {
  RecoverRequest req;
  req.source_id = 42;
  const RecoverRequest out = decode_recover_request(encode_recover_request(req));
  EXPECT_EQ(out.source_id, 42u);
}

TEST(RecoverWire, ResponseRoundTripFoundAndNotFound) {
  const RecoverResponse resp = sample_response();
  const RecoverResponse out = decode_recover_response(encode_recover_response(resp));
  EXPECT_EQ(out.source_id, resp.source_id);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.last_seq, resp.last_seq);
  EXPECT_EQ(out.span, resp.span);
  EXPECT_EQ(out.packets, resp.packets);
  EXPECT_EQ(out.snapshot, resp.snapshot);

  RecoverResponse missing;
  missing.source_id = 9;
  const RecoverResponse out2 =
      decode_recover_response(encode_recover_response(missing));
  EXPECT_FALSE(out2.found);
  EXPECT_TRUE(out2.snapshot.empty());
}

/// Hand-craft a recover frame with an arbitrary wire-version tag.  The
/// recover messages did not exist before v3, so an older tag is forged;
/// every tag but kWireVersion must be rejected by name.
std::vector<std::uint8_t> recover_request_with_version(std::uint32_t version) {
  control::ByteWriter w;
  w.put_u32(kRecoverReqMagic);
  w.put_u32(version);
  w.put_u64(7);
  return control::seal_frame(w.bytes());
}

std::vector<std::uint8_t> recover_response_with(
    std::uint32_t version, bool found, std::uint64_t last_seq,
    core::EpochSpan span) {
  control::ByteWriter w;
  w.put_u32(kRecoverRespMagic);
  w.put_u32(version);
  w.put_u64(7);
  w.put_u8(found ? 1 : 0);
  w.put_u64(last_seq);
  w.put_u64(span.first);
  w.put_u64(span.last);
  w.put_i64(100);
  w.put_u64(0);  // seed_gen
  w.put_blob({});
  return control::seal_frame(w.bytes());
}

TEST(RecoverWire, PreV3VersionTagsAreForgedAndRejected) {
  for (std::uint32_t v : {0u, 1u, 2u, 3u, kWireVersion + 1}) {
    EXPECT_EQ(error_of(decode_recover_request, recover_request_with_version(v)),
              unsupported_version("recover req", v));
    EXPECT_EQ(error_of(decode_recover_response,
                       recover_response_with(v, true, 3, {0, 2})),
              unsupported_version("recover resp", v));
  }
  // The genuine version still decodes — the gate is the tag, not the shape.
  EXPECT_EQ(error_of(decode_recover_request,
                     recover_request_with_version(kWireVersion)), "");
  EXPECT_EQ(error_of(decode_recover_response,
                     recover_response_with(kWireVersion, true, 3, {0, 2})), "");
}

TEST(RecoverWire, NonsenseResponseFieldsAreRejected) {
  // found with a zero settled seq: the collector can only have "found" a
  // source it applied at least one message from.
  EXPECT_THROW((void)decode_recover_response(
                   recover_response_with(kWireVersion, true, 0, {0, 2})),
               std::invalid_argument);
  // Inverted epoch span.
  EXPECT_THROW((void)decode_recover_response(
                   recover_response_with(kWireVersion, true, 3, {5, 2})),
               std::invalid_argument);
}

TEST(RecoverWire, EveryTruncationPointIsRejected) {
  const auto req = encode_recover_request({.source_id = 7});
  for (std::size_t n = 0; n < req.size(); ++n) {
    EXPECT_THROW((void)decode_recover_request(std::span(req).first(n)),
                 std::invalid_argument)
        << "request truncated at " << n;
  }
  const auto resp = encode_recover_response(sample_response());
  for (std::size_t n = 0; n < resp.size(); ++n) {
    EXPECT_THROW((void)decode_recover_response(std::span(resp).first(n)),
                 std::invalid_argument)
        << "response truncated at " << n;
  }
}

TEST(RecoverWire, SingleBitFlipsNeverDecode) {
  const auto pristine = encode_recover_response(sample_response());
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    auto frame = pristine;
    frame[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    EXPECT_THROW((void)decode_recover_response(frame), std::invalid_argument)
        << "flip at byte " << byte;
  }
}

// --- CollectorCore::recovery_snapshot ---------------------------------------

/// One applied epoch message for `source`: `packets` packets over a
/// deterministic flow set, seq/span `seq`.  The message carries the
/// *epoch's own* sketch (the collector merges them additively); `accum`
/// mirrors the cumulative state the collector should end up with.
EpochMessage epoch_msg(std::uint64_t source, std::uint64_t seq, int packets,
                       core::NitroUnivMon& accum) {
  core::NitroUnivMon epoch_sketch(um_config(), vanilla_config(), kSeed);
  for (int i = 0; i < packets; ++i) {
    const FlowKey key = trace::flow_key_for_rank(i % 13, source);
    epoch_sketch.update(key);
    accum.update(key);
  }
  EpochMessage msg;
  msg.source_id = source;
  msg.seq_first = msg.seq_last = seq;
  msg.span = core::EpochSpan::single(seq - 1);
  msg.packets = epoch_sketch.total();
  msg.snapshot = control::snapshot_univmon(epoch_sketch.univmon());
  return msg;
}

TEST(RecoverCore, SnapshotReflectsExactlyTheAppliedState) {
  CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  CollectorCore core(ccfg);

  core::NitroUnivMon accum(um_config(), vanilla_config(), kSeed);
  ASSERT_EQ(core.ingest(epoch_msg(7, 1, 300, accum), 1), CollectorCore::Ingest::kApplied);
  ASSERT_EQ(core.ingest(epoch_msg(7, 2, 200, accum), 2), CollectorCore::Ingest::kApplied);

  const RecoverResponse rec = core.recovery_snapshot(7);
  ASSERT_TRUE(rec.found);
  EXPECT_EQ(rec.source_id, 7u);
  EXPECT_EQ(rec.last_seq, 2u);
  EXPECT_EQ(rec.span, (core::EpochSpan{0, 1}));
  EXPECT_EQ(rec.packets, 500);

  // The replica is the collector's cumulative view of the source — equal,
  // counter for counter, to the monitor-side accumulator it mirrors
  // (vanilla counters merge additively and exactly; heaps are
  // re-estimated, so the comparison is totals + per-key queries).
  sketch::UnivMon replica(um_config(), kSeed);
  control::load_univmon(rec.snapshot, replica);
  EXPECT_EQ(replica.total(), accum.univmon().total());
  for (int i = 0; i < 13; ++i) {
    const FlowKey key = trace::flow_key_for_rank(i, 7);
    EXPECT_EQ(replica.query(key), accum.univmon().query(key)) << "rank " << i;
  }

  EXPECT_FALSE(core.recovery_snapshot(12345).found) << "unknown source";
}

// --- request_recovery against a live server ---------------------------------

struct LiveCollector {
  CollectorConfig ccfg;
  CollectorCore core;
  CollectorServer server;
  telemetry::Registry registry;

  LiveCollector()
      : ccfg([] {
          CollectorConfig c;
          c.um_cfg = um_config();
          c.seed = kSeed;
          return c;
        }()),
        core(ccfg),
        server(core, *parse_endpoint("tcp:127.0.0.1:0")) {
    server.attach_telemetry(registry, "nitro_collector");
    EXPECT_TRUE(server.start());
  }
  ~LiveCollector() { server.stop(); }
};

TEST(RecoverClient, FetchesTheReplicaFromALiveCollector) {
  LiveCollector lc;
  core::NitroUnivMon accum(um_config(), vanilla_config(), kSeed);
  ASSERT_EQ(lc.core.ingest(epoch_msg(7, 1, 400, accum), 1),
            CollectorCore::Ingest::kApplied);

  const RecoveryResult got = request_recovery(lc.server.endpoint(), 7, 2000);
  ASSERT_TRUE(got.ok) << got.error;
  ASSERT_TRUE(got.resp.found);
  EXPECT_EQ(got.resp.last_seq, 1u);
  EXPECT_EQ(got.resp.packets, 400);

  // A source the collector has never heard from: valid response, found
  // false — the monitor then starts fresh, it does not hang or error.
  const RecoveryResult none = request_recovery(lc.server.endpoint(), 99, 2000);
  ASSERT_TRUE(none.ok) << none.error;
  EXPECT_FALSE(none.resp.found);

  EXPECT_GE(lc.registry.counter("nitro_collector_recover_requests_total").value(), 2u);
  // The server counts a response as served once its send returns, which
  // can be just after the client has read it: wait for the count.
  const auto& served = lc.registry.counter("nitro_collector_recover_served_total");
  for (int i = 0; i < 2000 && served.value() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(served.value(), 2u);
}

TEST(RecoverClient, RetriesThroughDroppedRequestsAndKilledConnections) {
  // Attempt 1: the collector "loses" the request (no response — the
  // client must time out, not hang).  Attempt 2: the connection is killed
  // outright.  Attempt 3 succeeds.
  fault::Schedule plan;
  plan.drop_recover_request(/*at_hit=*/1, /*every=*/0, /*lane=*/7);
  plan.kill_recover_conn(/*at_hit=*/2, /*lane=*/7);
  fault::ScopedFaultInjection scoped(plan);

  LiveCollector lc;
  core::NitroUnivMon accum(um_config(), vanilla_config(), kSeed);
  ASSERT_EQ(lc.core.ingest(epoch_msg(7, 1, 100, accum), 1),
            CollectorCore::Ingest::kApplied);

  const RecoveryResult got =
      request_recovery(lc.server.endpoint(), 7, /*timeout_ms=*/500, /*attempts=*/4);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.resp.found);
  EXPECT_GE(plan.fired(fault::Site::kRecoverServe), 2u);
  EXPECT_GE(lc.registry.counter("nitro_collector_injected_recover_drops_total").value(),
            1u);
  EXPECT_GE(lc.registry.counter("nitro_collector_recover_requests_total").value(), 3u);
}

TEST(RecoverClient, ReportsFailureWhenEveryAttemptIsDropped) {
  fault::Schedule plan;
  plan.drop_recover_request(/*at_hit=*/1, /*every=*/1, /*lane=*/7);  // all of them
  fault::ScopedFaultInjection scoped(plan);

  LiveCollector lc;
  const RecoveryResult got =
      request_recovery(lc.server.endpoint(), 7, /*timeout_ms=*/200, /*attempts=*/2);
  EXPECT_FALSE(got.ok);
  EXPECT_FALSE(got.error.empty());
  EXPECT_GE(plan.fired(fault::Site::kRecoverServe), 2u);
}

// --- Exporter rejoin hook ---------------------------------------------------

TEST(ExporterSeq, SetNextSeqControlsTheFirstPublishedSequence) {
  ExporterConfig ecfg;
  ecfg.endpoint = *parse_endpoint("tcp:127.0.0.1:1");  // never started
  ecfg.source_id = 7;
  EpochExporter exporter(ecfg, univmon_coalescer(um_config(), kSeed));
  exporter.set_next_seq(6);  // rejoin: collector settled seqs 1..5

  core::NitroUnivMon um(um_config(), vanilla_config(), kSeed);
  um.update(trace::flow_key_for_rank(0, 1));
  exporter.publish(core::EpochSpan::single(5), um.total(),
                   control::snapshot_univmon(um.univmon()));
  exporter.publish(core::EpochSpan::single(6), um.total(),
                   control::snapshot_univmon(um.univmon()));

  const auto pending = exporter.pending_messages();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].seq_first, 6u);
  EXPECT_EQ(pending[0].seq_last, 6u);
  EXPECT_EQ(pending[1].seq_first, 7u);
}

TEST(ExporterSeq, ZeroClampsToOneBecauseSequencesAreOneBased) {
  ExporterConfig ecfg;
  ecfg.endpoint = *parse_endpoint("tcp:127.0.0.1:1");
  EpochExporter exporter(ecfg, univmon_coalescer(um_config(), kSeed));
  exporter.set_next_seq(0);
  core::NitroUnivMon um(um_config(), vanilla_config(), kSeed);
  exporter.publish(core::EpochSpan::single(0), 0,
                   control::snapshot_univmon(um.univmon()));
  const auto pending = exporter.pending_messages();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].seq_first, 1u);
}

}  // namespace
}  // namespace nitro::xport
