#include "capture.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "ingest/factory.hpp"
#include "ingest/pcap.hpp"
#include "trace/workloads.hpp"

namespace e2ebench {

Capture make_capture(const std::string& path, const CaptureSpec& spec) {
  if (spec.packets == 0 || spec.epochs < 1) {
    throw std::invalid_argument("capture: need packets and epochs");
  }
  {
    nitro::trace::WorkloadSpec ws;
    ws.packets = spec.packets;
    ws.flows = 100'000;
    ws.zipf_s = 1.0;
    ws.mean_packet_bytes = 714.0;
    ws.rate_pps = spec.rate_pps;
    ws.seed = spec.seed;
    nitro::ingest::write_pcap(path, nitro::trace::caida_like(ws));
  }

  Capture cap;
  cap.path = path;
  cap.spec = spec;
  cap.file_bytes = std::filesystem::file_size(path);

  const std::uint64_t per_epoch = spec.packets / static_cast<std::uint64_t>(spec.epochs);
  std::vector<std::uint64_t> last_index(static_cast<std::size_t>(spec.epochs));
  for (int e = 0; e < spec.epochs; ++e) {
    last_index[static_cast<std::size_t>(e)] =
        e == spec.epochs - 1 ? spec.packets - 1
                             : static_cast<std::uint64_t>(e + 1) * per_epoch - 1;
  }
  cap.epoch_due_ns.assign(last_index.size(), 0);

  const nitro::trace::Trace unused;
  auto backend = nitro::ingest::make_backend("pcap:" + path, unused);
  nitro::ingest::PacketView views[256];
  std::uint64_t first_ts = 0;
  std::size_t next_epoch = 0;
  cap.counts.reserve(150'000);
  for (;;) {
    const std::size_t n = backend->next_burst(views, 256);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = views[i];
      if (cap.packets == 0) first_ts = v.ts_ns;
      if (next_epoch < last_index.size() && cap.packets == last_index[next_epoch]) {
        cap.epoch_due_ns[next_epoch++] = v.ts_ns - first_ts;
      }
      ++cap.counts[v.key];
      cap.wire_bytes += v.wire_bytes;
      ++cap.packets;
    }
  }
  if (cap.packets != spec.packets || backend->parse_errors() != 0 ||
      next_epoch != last_index.size()) {
    throw std::runtime_error("capture: read back " + std::to_string(cap.packets) +
                             " of " + std::to_string(spec.packets) + " packets (" +
                             std::to_string(backend->parse_errors()) +
                             " parse errors) from " + path);
  }
  return cap;
}

std::vector<std::pair<nitro::FlowKey, std::int64_t>> true_heavy_hitters(
    const Capture& cap, double frac) {
  const auto threshold =
      static_cast<std::int64_t>(frac * static_cast<double>(cap.packets));
  std::vector<std::pair<nitro::FlowKey, std::int64_t>> out;
  for (const auto& [key, count] : cap.counts) {
    if (count >= threshold) out.emplace_back(key, count);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace e2ebench
