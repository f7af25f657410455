#include "host.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "proc.hpp"

namespace e2ebench {

namespace {

nitro::xport::Endpoint loopback_any() {
  return *nitro::xport::parse_endpoint("tcp:127.0.0.1:0");
}

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

// --- HttpClient --------------------------------------------------------------

bool HttpClient::connect(std::uint16_t port, int timeout_ms) {
  nitro::xport::Endpoint ep = loopback_any();
  ep.port = port;
  sock_ = nitro::xport::connect_endpoint(ep, timeout_ms);
  buf_.clear();
  return sock_.valid();
}

int HttpClient::get(const std::string& target, std::string& body, int timeout_ms) {
  if (!sock_.valid()) return 0;
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (!sock_.send_all(std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(req.data()), req.size()),
                      timeout_ms)) {
    sock_.close();
    return 0;
  }
  std::uint8_t chunk[16 * 1024];
  std::size_t head_end = std::string::npos;
  std::size_t need = 0;
  int status = 0;
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buf_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        status = std::atoi(buf_.c_str() + buf_.find(' ') + 1);
        const auto cl = buf_.find("Content-Length:");
        if (cl == std::string::npos || cl > head_end) {
          sock_.close();
          return 0;
        }
        need = head_end + 4 + std::strtoull(buf_.c_str() + cl + 15, nullptr, 10);
      }
    }
    if (head_end != std::string::npos && buf_.size() >= need) {
      body.assign(buf_, head_end + 4, need - head_end - 4);
      buf_.erase(0, need);
      return status;
    }
    std::size_t got = 0;
    if (sock_.recv_some(chunk, sizeof chunk, timeout_ms, &got) !=
        nitro::xport::Socket::RecvResult::kData) {
      sock_.close();
      return 0;
    }
    buf_.append(reinterpret_cast<const char*>(chunk), got);
  }
}

// --- CollectorHost -----------------------------------------------------------

nitro::xport::CollectorConfig collector_config() {
  nitro::xport::CollectorConfig cfg;
  cfg.um_cfg.levels = 16;
  cfg.um_cfg.depth = 5;
  cfg.um_cfg.top_width = 10000;
  cfg.um_cfg.heap_capacity = 1000;
  cfg.seed = 1;
  cfg.staleness_ns = 10'000ULL * 1'000'000ULL;
  cfg.min_refresh_interval_ns = 5ULL * 1'000'000ULL;
  return cfg;
}

nitro::xport::QueryServerConfig query_config() {
  nitro::xport::QueryServerConfig q;
  q.default_hh_threshold = 0.0005;
  q.default_top = 10;
  return q;
}

CollectorHost::CollectorHost()
    : server_(collector_config(), loopback_any()),
      query_(server_.core(), loopback_any(), query_config()) {
  server_.attach_telemetry(registry_, "nitro_collector");
  query_.attach_telemetry(registry_, "nitro_collector_query");
  query_.serve_stats_from(&registry_);
}

CollectorHost::~CollectorHost() { stop(); }

void CollectorHost::start() {
  if (!server_.start()) throw std::runtime_error("collector: cannot listen");
  if (!query_.start()) {
    server_.stop();
    throw std::runtime_error("query server: cannot listen");
  }
  started_ = true;
  stop_.store(false);
  refresher_ = std::thread([this] { refresh_loop(); });
  reader_ = std::thread([this] { read_loop(); });
}

void CollectorHost::stop() {
  if (!started_) return;
  stop_.store(true);
  if (reader_.joinable()) reader_.join();
  if (refresher_.joinable()) refresher_.join();
  query_.stop();
  server_.stop();
  started_ = false;
}

std::uint16_t CollectorHost::export_port() const { return server_.endpoint().port; }

std::vector<GenerationStamp> CollectorHost::stamps() const {
  std::lock_guard lk(mu_);
  return stamps_;
}

QueryLog CollectorHost::queries() const {
  std::lock_guard lk(mu_);
  return log_;
}

bool CollectorHost::wait_visible(std::uint64_t epochs, int timeout_ms) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ULL;
  while (now_ns() < deadline) {
    {
      std::lock_guard lk(mu_);
      if (!stamps_.empty() && stamps_.back().applied_through >= epochs) return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

void CollectorHost::refresh_loop() {
  std::uint64_t last_generation = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const auto view = server_.core().view(now_ns());
    if (view->generation != last_generation) {
      last_generation = view->generation;
      for (const auto& s : view->sources) {
        if (s.source_id != 1 || s.epochs_applied == 0) continue;
        std::lock_guard lk(mu_);
        stamps_.push_back({view->built_at_ns, s.span.last + 1, s.last_epoch_close_ns});
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void CollectorHost::read_loop() {
  HttpClient client;
  const auto port = query_.endpoint().port;
  const auto period_ns = static_cast<std::uint64_t>(kQueryPeriodMs * 1e6);
  const auto deadline_ns = static_cast<std::uint64_t>(kQueryDeadlineMs * 1e6);
  const int io_timeout_ms = static_cast<int>(kQueryDeadlineMs) + 1000;
  std::string body;
  std::uint64_t due = now_ns();
  while (!stop_.load(std::memory_order_relaxed)) {
    sleep_until_ns(due);
    if (stop_.load(std::memory_order_relaxed)) break;
    // One keep-alive connection; reconnect only after a transport failure.
    if (!client.connected()) client.connect(port, io_timeout_ms);
    const int status = client.get("/heavy-hitters", body, io_timeout_ms);
    const std::uint64_t done = now_ns();
    {
      std::lock_guard lk(mu_);
      ++log_.sent;
      if (status == 200) {
        log_.latency_ms.push_back(static_cast<double>(done - due) / 1e6);
        if (done - due <= deadline_ns) ++log_.answered_in_time;
      }
    }
    due += period_ns;
  }
  client.close();
}

}  // namespace e2ebench
