// The benchmark's own arithmetic: percentiles, freshness and lateness from
// clock stamps, heavy-hitter recall and relative error, and parsing of
// /proc/<pid>/status.  Pure functions, unit-tested in
// tests/test_stats.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace e2ebench {

/// Linear interpolation between order statistics (numpy's default
/// "linear" method).  `q` in [0, 1].  NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The ten-samples-beyond rule: a percentile is reported only when at
/// least ten samples lie above it.
inline bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

/// A percentile over the samples of several runs.  Consecutive runs are
/// grouped, each group just large enough to support `q` under the
/// ten-samples-beyond rule (a short tail joins the last group), and the
/// median of the per-group percentiles is reported, so one disturbed run
/// moves at most one group.  With a single group this is the pooled
/// percentile; when even all runs together are too few, the pooled value
/// is still reported and marked.
struct RunsPercentile {
  double value = 0.0;
  std::size_t groups = 0;  // 0: the pooled runs do not support q
};

inline RunsPercentile percentile_over_runs(const std::vector<std::vector<double>>& runs,
                                           double q) {
  std::vector<std::vector<double>> groups;
  std::vector<double> open, pooled;
  for (const auto& r : runs) {
    open.insert(open.end(), r.begin(), r.end());
    pooled.insert(pooled.end(), r.begin(), r.end());
    if (percentile_supported(open.size(), q)) {
      groups.push_back(std::move(open));
      open.clear();
    }
  }
  if (groups.empty()) return {quantile(pooled, q), 0};
  groups.back().insert(groups.back().end(), open.begin(), open.end());
  std::vector<double> per_group;
  for (const auto& g : groups) per_group.push_back(quantile(g, q));
  return {median(per_group), groups.size()};
}

/// One observed collector view generation, as seen for one source.
struct GenerationStamp {
  std::uint64_t built_at_ns = 0;    // NetworkView::built_at_ns
  std::uint64_t applied_through = 0;  // epochs applied so far (span.last + 1)
  std::uint64_t last_close_ns = 0;  // close stamp of epoch applied_through - 1
};

struct Freshness {
  std::vector<double> ms;          // one sample per stamped epoch, in order
  std::uint64_t epochs_seen = 0;   // epochs that became visible
  std::uint64_t unstamped = 0;     // visible epochs whose own close stamp
                                   // was never observed (coalesced away)
};

/// Per epoch: time from the epoch's close stamp to the first generation
/// that contains it.  A generation that makes several epochs visible at
/// once carries only the newest one's close stamp; the older ones are
/// counted as unstamped rather than guessed.
inline Freshness freshness_from(const std::vector<GenerationStamp>& gens) {
  Freshness f;
  std::uint64_t through = 0;
  for (const auto& g : gens) {
    if (g.applied_through <= through) continue;
    const std::uint64_t fresh = g.applied_through - through;
    f.epochs_seen += fresh;
    f.unstamped += fresh - 1;
    if (g.last_close_ns != 0 && g.built_at_ns >= g.last_close_ns) {
      f.ms.push_back(static_cast<double>(g.built_at_ns - g.last_close_ns) / 1e6);
    } else {
      ++f.unstamped;
    }
    through = g.applied_through;
  }
  return f;
}

/// How far an epoch's close stamp falls behind its due time.  The schedule
/// is anchored at the start of epoch 0 (`anchor_ns`, when the first packet
/// may be released) and an epoch is due when the capture's own timestamps
/// say its last packet arrives: `due_offset_ns` after the first packet.
inline double lateness_ms(std::uint64_t close_ns, std::uint64_t anchor_ns,
                          std::uint64_t due_offset_ns) {
  const double due = static_cast<double>(anchor_ns) + static_cast<double>(due_offset_ns);
  return (static_cast<double>(close_ns) - due) / 1e6;
}

/// Share of the true heavy hitters that `reported` contains.  1 when
/// there is no true heavy hitter.
template <typename Key>
double hh_recall(const std::vector<Key>& truth, const std::vector<Key>& reported) {
  if (truth.empty()) return 1.0;
  std::unordered_set<Key> got(reported.begin(), reported.end());
  std::size_t hit = 0;
  for (const auto& k : truth) hit += got.count(k) != 0 ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

/// Mean of |estimate - true| / true over the true heavy hitters.  A flow
/// missing from `estimates` counts as estimate 0 (relative error 1).
template <typename Key>
double hh_are(const std::vector<std::pair<Key, std::int64_t>>& truth,
              const std::unordered_map<Key, std::int64_t>& estimates) {
  if (truth.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [key, count] : truth) {
    const auto it = estimates.find(key);
    const double est = it == estimates.end() ? 0.0 : static_cast<double>(it->second);
    sum += std::fabs(est - static_cast<double>(count)) / static_cast<double>(count);
  }
  return sum / static_cast<double>(truth.size());
}

/// The `RssAnon:` line of /proc/<pid>/status, in KiB.  nullopt when the
/// line is missing or malformed (a process that already exited).
inline std::optional<std::uint64_t> parse_rss_anon_kib(const std::string& status) {
  static constexpr std::string_view kTag = "RssAnon:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t eol = status.find('\n', pos);
    if (eol == std::string::npos) eol = status.size();
    const std::string_view line(status.data() + pos, eol - pos);
    pos = eol + 1;
    if (!line.starts_with(kTag)) continue;
    std::size_t i = kTag.size();
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t digits_at = i;
    std::uint64_t kib = 0;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
      kib = kib * 10 + static_cast<std::uint64_t>(line[i] - '0');
      ++i;
    }
    if (i == digits_at || line.substr(i) != " kB") return std::nullopt;
    return kib;
  }
  return std::nullopt;
}

}  // namespace e2ebench
