// Cross-thread contract of the versioned network view (DESIGN.md §13):
// a writer pool applies epochs (one source per writer, exercising the
// per-source locks) while a reader pool pulls snapshot generations
// lock-free.  Every observed generation must satisfy the conservation
// invariant — the merged sketch's total equals the view's packet count
// equals the sum of the live sources' packets recorded IN THAT VIEW —
// and generations must be monotonic per reader.  Labelled `tsan`: run
// under -DNITRO_SANITIZE=thread this is the data-race proof for the
// lock-free serving plane.
#include "export/collector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "control/codec.hpp"
#include "export/query_server.hpp"
#include "trace/workloads.hpp"

namespace nitro::xport {
namespace {

using trace::flow_key_for_rank;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 256;
  cfg.min_width = 128;
  cfg.heap_capacity = 64;
  return cfg;
}

EpochMessage make_message(std::uint64_t source, std::uint64_t seq, int salt,
                          std::int64_t count) {
  sketch::UnivMon um(um_config(), 7);
  for (int i = 0; i < 20; ++i) um.update(flow_key_for_rank(i, salt), count);
  EpochMessage msg;
  msg.source_id = source;
  msg.seq_first = msg.seq_last = seq;
  msg.span = core::EpochSpan::single(seq - 1);
  msg.packets = 20 * count;
  msg.snapshot = control::snapshot_univmon(um);
  return msg;
}

TEST(CollectorConcurrency, ReadersObserveConservedMonotonicGenerations) {
  constexpr int kWriters = 4;
  constexpr int kEpochsPerWriter = 25;
  constexpr int kReaders = 4;
  constexpr std::int64_t kPacketsPerEpoch = 20;

  CollectorConfig cfg;
  cfg.um_cfg = um_config();
  cfg.seed = 7;
  cfg.staleness_ns = ~0ULL >> 1;  // nothing goes stale mid-test

  CollectorCore core(cfg);

  // Pre-build every message so writer threads only ingest (decode is part
  // of ingest; building snapshots needs no synchronization anyway).
  std::vector<std::vector<EpochMessage>> msgs(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int e = 1; e <= kEpochsPerWriter; ++e) {
      msgs[w].push_back(make_message(static_cast<std::uint64_t>(w + 1),
                                     static_cast<std::uint64_t>(e),
                                     /*salt=*/w + 3, /*count=*/1));
    }
  }

  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> clock{1};
  std::atomic<int> conservation_failures{0};
  std::atomic<int> monotonicity_failures{0};

  auto check_view = [&](const CollectorCore::ViewPtr& v,
                        std::uint64_t& last_generation) {
    if (v->generation < last_generation) monotonicity_failures.fetch_add(1);
    last_generation = v->generation;
    std::int64_t live_sum = 0;
    for (const auto& s : v->sources) {
      if (!s.stale) live_sum += s.packets;
    }
    if (v->merged.total() != v->packets || v->packets != live_sum) {
      conservation_failures.fetch_add(1);
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_generation = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        check_view(core.view(clock.load(std::memory_order_relaxed)),
                   last_generation);
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const auto& msg : msgs[w]) {
        const std::uint64_t now = clock.fetch_add(1, std::memory_order_relaxed);
        ASSERT_EQ(core.ingest(msg, now), CollectorCore::Ingest::kApplied);
      }
    });
  }
  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(conservation_failures.load(), 0);
  EXPECT_EQ(monotonicity_failures.load(), 0);

  // The final generation holds everything exactly once.
  const auto final_view = core.view(clock.load());
  EXPECT_EQ(final_view->packets,
            kPacketsPerEpoch * kWriters * kEpochsPerWriter);
  EXPECT_EQ(final_view->merged.total(), final_view->packets);
  EXPECT_EQ(core.epochs_applied(),
            static_cast<std::uint64_t>(kWriters * kEpochsPerWriter));
}

std::string flow_target(const FlowKey& k) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "/flow?src=%u.%u.%u.%u&dst=%u.%u.%u.%u&sport=%u&dport=%u&proto=%u",
                (k.src_ip >> 24) & 0xff, (k.src_ip >> 16) & 0xff,
                (k.src_ip >> 8) & 0xff, k.src_ip & 0xff, (k.dst_ip >> 24) & 0xff,
                (k.dst_ip >> 16) & 0xff, (k.dst_ip >> 8) & 0xff, k.dst_ip & 0xff,
                k.src_port, k.dst_port, k.proto);
  return buf;
}

TEST(CollectorConcurrency, QueryHandlersRaceWritersSafely) {
  // The HTTP seam under concurrent ingest: handler threads render from
  // whatever generation they resolve while writers keep applying.  TSan
  // validates the cache + history locking AND the sketch read path: /flow
  // and /change call CountSketch::query on the SAME shared immutable
  // generation from several threads at once (each thread queries a
  // distinct flow, so the per-generation cache never coalesces the
  // renders), which requires query() to use only local scratch.
  CollectorConfig cfg;
  cfg.um_cfg = um_config();
  cfg.seed = 7;
  cfg.staleness_ns = ~0ULL >> 1;
  CollectorCore core(cfg);
  QueryServer qs(core, *parse_endpoint("tcp:127.0.0.1:0"));  // never started

  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> clock{1};

  std::vector<std::thread> handlers;
  for (int r = 0; r < 3; ++r) {
    handlers.emplace_back([&, r] {
      const std::string flow = flow_target(flow_key_for_rank(r, /*salt=*/9));
      while (!writers_done.load(std::memory_order_acquire)) {
        const std::uint64_t now = clock.load(std::memory_order_relaxed);
        std::string resp = qs.handle("GET", "/view", now);
        EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
        EXPECT_NE(resp.find("\"generation\":"), std::string::npos);

        resp = qs.handle("GET", flow, now);
        EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
        EXPECT_NE(resp.find("\"estimate\":"), std::string::npos);

        // 404 until a second generation is retained, 200 after.
        resp = qs.handle("GET", "/change", now);
        EXPECT_TRUE(resp.find("HTTP/1.1 200") != std::string::npos ||
                    resp.find("HTTP/1.1 404") != std::string::npos);
      }
    });
  }

  std::thread writer([&] {
    for (int e = 1; e <= 40; ++e) {
      const auto msg =
          make_message(1, static_cast<std::uint64_t>(e), /*salt=*/9, 1);
      const std::uint64_t now = clock.fetch_add(1, std::memory_order_relaxed);
      ASSERT_EQ(core.ingest(msg, now), CollectorCore::Ingest::kApplied);
    }
  });
  writer.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& t : handlers) t.join();

  EXPECT_EQ(core.view(clock.load())->packets, 40 * 20);
}

}  // namespace
}  // namespace nitro::xport
