// Unit tests for the benchmark's own arithmetic (src/stats.hpp).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "stats.hpp"

using namespace e2ebench;

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({5, 1, 4, 2, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({5, 1, 4, 2, 3}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.99), 7.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(199, 0.95));
  EXPECT_TRUE(percentile_supported(200, 0.95));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));

  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  EXPECT_EQ(percentile_over_runs({v}, 0.95).groups, 0u);
  v.push_back(200);
  const auto p95 = percentile_over_runs({v}, 0.95);
  EXPECT_EQ(p95.groups, 1u);
  EXPECT_NEAR(p95.value, 190.05, 1e-9);
}

TEST(Percentile, MedianOfRunsWhenEveryRunSupportsIt) {
  // Three runs of 20 samples each support p50; one disturbed run cannot
  // move the median of the per-run medians.
  std::vector<std::vector<double>> runs(3);
  for (int i = 0; i < 20; ++i) {
    runs[0].push_back(10.0);
    runs[1].push_back(11.0);
    runs[2].push_back(1000.0);
  }
  const auto p = percentile_over_runs(runs, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 11.0);
  EXPECT_EQ(p.groups, 3u);
}

TEST(Percentile, GroupsRunsUntilEachGroupSupportsIt) {
  // Runs of 70 samples: p95 needs 200, so runs 1-3 and 4-6 form groups and
  // run 7 joins the second.  The disturbed run 2 moves only the first.
  std::vector<std::vector<double>> runs(7, std::vector<double>(70, 5.0));
  runs[1].assign(70, 500.0);
  const auto p = percentile_over_runs(runs, 0.95);
  EXPECT_EQ(p.groups, 2u);
  EXPECT_DOUBLE_EQ(p.value, (500.0 + 5.0) / 2.0);
}

TEST(Percentile, PoolsWhenAllRunsTogetherAreTooFew) {
  // 150 + 60 samples support p95 only together: one group, the pool.
  std::vector<std::vector<double>> runs(2);
  for (int i = 1; i <= 150; ++i) runs[0].push_back(i);
  for (int i = 151; i <= 210; ++i) runs[1].push_back(i);
  const auto p = percentile_over_runs(runs, 0.95);
  EXPECT_NEAR(p.value, 199.55, 1e-9);
  EXPECT_EQ(p.groups, 1u);
  const auto tiny = percentile_over_runs({{1.0, 2.0}}, 0.99);
  EXPECT_EQ(tiny.groups, 0u);
  EXPECT_DOUBLE_EQ(tiny.value, 1.99);
}

TEST(Freshness, OneSamplePerStampedEpoch) {
  // Epoch 0 closes at 100 and shows at 130; generation 2 repeats it;
  // epoch 1 closes at 200 and shows at 205.
  const std::vector<GenerationStamp> gens = {
      {130, 1, 100}, {150, 1, 100}, {205, 2, 200}};
  const Freshness f = freshness_from(gens);
  ASSERT_EQ(f.ms.size(), 2u);
  EXPECT_DOUBLE_EQ(f.ms[0], 30e-6);
  EXPECT_DOUBLE_EQ(f.ms[1], 5e-6);
  EXPECT_EQ(f.epochs_seen, 2u);
  EXPECT_EQ(f.unstamped, 0u);
}

TEST(Freshness, CoalescedEpochsAreCountedNotGuessed) {
  // Epochs 1..3 become visible together, carrying only epoch 3's stamp.
  const std::vector<GenerationStamp> gens = {{1'000'000, 1, 500'000},
                                             {9'000'000, 4, 8'000'000}};
  const Freshness f = freshness_from(gens);
  ASSERT_EQ(f.ms.size(), 2u);
  EXPECT_DOUBLE_EQ(f.ms[0], 0.5);
  EXPECT_DOUBLE_EQ(f.ms[1], 1.0);
  EXPECT_EQ(f.epochs_seen, 4u);
  EXPECT_EQ(f.unstamped, 2u);
}

TEST(Freshness, MissingCloseStampIsUnstamped) {
  const Freshness f = freshness_from({{1000, 1, 0}});
  EXPECT_TRUE(f.ms.empty());
  EXPECT_EQ(f.unstamped, 1u);
}

TEST(Lateness, FromStampsAnchoredAtEpochZero) {
  // Loop starts at 10 ms, the last epoch is due 50 ms later on the
  // capture's clock and closes at 63 ms: 3 ms late.
  EXPECT_DOUBLE_EQ(lateness_ms(63'000'000, 10'000'000, 50'000'000), 3.0);
  // Closing ahead of the schedule reads negative.
  EXPECT_DOUBLE_EQ(lateness_ms(55'000'000, 10'000'000, 50'000'000), -5.0);
}

TEST(HeavyHitters, RecallOnAHandBuiltCase) {
  const std::vector<std::string> truth = {"a", "b", "c", "d"};
  EXPECT_DOUBLE_EQ(hh_recall(truth, std::vector<std::string>{"a", "c", "x"}), 0.5);
  EXPECT_DOUBLE_EQ(hh_recall(truth, truth), 1.0);
  EXPECT_DOUBLE_EQ(hh_recall(std::vector<std::string>{}, truth), 1.0);
}

TEST(HeavyHitters, AreOnAHandBuiltCase) {
  const std::vector<std::pair<std::string, std::int64_t>> truth = {
      {"a", 100}, {"b", 200}, {"c", 50}};
  // |110-100|/100 = 0.1, |150-200|/200 = 0.25, c missing -> 1.0.
  const std::unordered_map<std::string, std::int64_t> est = {{"a", 110}, {"b", 150}};
  EXPECT_DOUBLE_EQ(hh_are(truth, est), (0.1 + 0.25 + 1.0) / 3.0);
}

TEST(ProcStatus, ParsesAnonymousRss) {
  const std::string status =
      "Name:\tnitro_monitor\nVmRSS:\t  512000 kB\nRssAnon:\t    8744 kB\n"
      "RssFile:\t  503256 kB\nThreads:\t3\n";
  ASSERT_TRUE(parse_rss_anon_kib(status).has_value());
  EXPECT_EQ(*parse_rss_anon_kib(status), 8744u);
  EXPECT_EQ(*parse_rss_anon_kib("RssAnon: 12 kB"), 12u);
}

TEST(ProcStatus, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(parse_rss_anon_kib("Name:\tzombie\nState:\tZ (zombie)\n").has_value());
  EXPECT_FALSE(parse_rss_anon_kib("RssAnon:\t kB\n").has_value());
  EXPECT_FALSE(parse_rss_anon_kib("RssAnon:\t12 MB\n").has_value());
  EXPECT_FALSE(parse_rss_anon_kib("XRssAnon:\t12 kB\n").has_value());
}
