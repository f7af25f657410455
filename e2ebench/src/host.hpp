// The collector side of the benchmark, hosted in-process: an
// xport::CollectorServer and an xport::QueryServer configured the way
// nitro_collector configures them, plus two benchmark threads:
//
//  * a view refresher that calls CollectorCore::view() every millisecond
//    and records each new generation's built_at_ns next to the newest
//    applied epoch's close stamp (both on the host's steady clock), and
//  * one query reader: an open loop on one keep-alive HTTP connection that
//    issues /heavy-hitters on a fixed schedule and times each query from
//    when it was due.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "export/collector.hpp"
#include "export/query_server.hpp"
#include "export/transport.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"

namespace e2ebench {

/// Minimal HTTP/1.1 keep-alive GET client over the repo's bounded-timeout
/// socket layer.
class HttpClient {
 public:
  bool connect(std::uint16_t port, int timeout_ms);
  /// Returns the status code, or 0 on a transport failure (the connection
  /// is then closed; connect() again to retry).
  int get(const std::string& target, std::string& body, int timeout_ms);
  bool connected() const { return sock_.valid(); }
  void close() { sock_.close(); }

 private:
  nitro::xport::Socket sock_;
  std::string buf_;
};

/// nitro_collector's defaults: the monitor's sketch geometry, --seed 1
/// (nitro_monitor's default too), --hh-threshold 0.0005, --top 10,
/// --staleness-ms 10000, --min-refresh-ms 5.
nitro::xport::CollectorConfig collector_config();
nitro::xport::QueryServerConfig query_config();

struct QueryLog {
  std::vector<double> latency_ms;  // from due time, answered queries only
  std::uint64_t sent = 0;
  std::uint64_t answered_in_time = 0;  // HTTP 200 within the deadline
};

class CollectorHost {
 public:
  /// The reader's schedule: one query every kQueryPeriodMs; an answer is
  /// in time when it is a 200 within kQueryDeadlineMs of its due time.
  /// 400 queries/s lets one 3.5 s fresh run alone collect the 1000
  /// samples p99 needs under the ten-samples-beyond rule, so each run is
  /// its own p99 group; it is a tenth of the load micro_collector_query's
  /// readers put on the same query plane.  250 ms is five times that
  /// bench's 50 ms p99 service-time gate and five fresh epoch periods, so
  /// only a stalled answer counts as failed.  README.md has the figures.
  static constexpr double kQueryPeriodMs = 2.5;
  static constexpr double kQueryDeadlineMs = 250.0;

  CollectorHost();
  ~CollectorHost();
  CollectorHost(const CollectorHost&) = delete;
  CollectorHost& operator=(const CollectorHost&) = delete;

  /// Bind both servers on 127.0.0.1 (kernel-chosen ports) and start the
  /// refresher and the reader.  Throws when a listener cannot bind.
  void start();
  /// Stop the reader, the refresher and both servers.  Idempotent.
  void stop();

  std::uint16_t export_port() const;
  nitro::xport::CollectorCore& core() { return server_.core(); }
  nitro::xport::QueryServer& query_server() { return query_; }

  /// Wait until a generation showing `epochs` applied epochs of source 1
  /// has been published; false on timeout.
  bool wait_visible(std::uint64_t epochs, int timeout_ms);

  /// Generations observed by the refresher (source 1 only), oldest first.
  std::vector<GenerationStamp> stamps() const;
  QueryLog queries() const;

 private:
  void refresh_loop();
  void read_loop();

  nitro::telemetry::Registry registry_;
  nitro::xport::CollectorServer server_;
  nitro::xport::QueryServer query_;
  bool started_ = false;

  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;  // guards stamps_ and log_
  std::vector<GenerationStamp> stamps_;
  QueryLog log_;
  std::thread refresher_;
  std::thread reader_;
};

}  // namespace e2ebench
