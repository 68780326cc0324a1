// Tests for the benchmark's own helpers (percentiles, seeded schedules and
// inputs, metric names, result line, span self times).
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "src/report.h"
#include "src/spans.h"
#include "src/stats.h"
#include "src/workload_common.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, ReportsOnlyWithTenSamplesBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10);
  ASSERT_TRUE(TailPercentile(Iota(100), 0.90).has_value());
  EXPECT_DOUBLE_EQ(*TailPercentile(Iota(100), 0.90), 90.0);
  EXPECT_FALSE(TailPercentile(Iota(100), 0.95).has_value());
  // p99 needs 1000 samples; 999 leave only 9 beyond.
  ASSERT_TRUE(TailPercentile(Iota(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*TailPercentile(Iota(1000), 0.99), 990.0);
  EXPECT_FALSE(TailPercentile(Iota(999), 0.99).has_value());
  // Every reported percentile has at least kMinTailSamples beyond it.
  for (int n : {1, 9, 10, 19, 20, 21, 57, 200, 1234}) {
    for (double q : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
      const std::vector<double> samples = Iota(n);
      const std::optional<double> p = TailPercentile(samples, q);
      if (!p) continue;
      int beyond = 0;
      for (double s : samples) beyond += s > *p;
      EXPECT_GE(beyond, kMinTailSamples) << "n=" << n << " q=" << q;
    }
  }
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(PercentileTest, ReportsLowPercentileOnlyWithTenSamplesBelow) {
  // 110 samples: p10 is rank 11, with exactly 10 below; 100 leave only 9.
  EXPECT_EQ(SamplesBelow(110, 0.10), 10);
  ASSERT_TRUE(LowPercentile(Iota(110), 0.10).has_value());
  EXPECT_DOUBLE_EQ(*LowPercentile(Iota(110), 0.10), 11.0);
  EXPECT_FALSE(LowPercentile(Iota(100), 0.10).has_value());
  for (int n : {1, 9, 10, 11, 57, 109, 200, 1234}) {
    for (double q : {0.01, 0.05, 0.1, 0.25, 0.5}) {
      const std::vector<double> samples = Iota(n);
      const std::optional<double> p = LowPercentile(samples, q);
      EXPECT_EQ(p.has_value(), SamplesBelow(n, q) >= kMinTailSamples);
      if (!p) continue;
      int below = 0;
      for (double s : samples) below += s < *p;
      EXPECT_GE(below, kMinTailSamples) << "n=" << n << " q=" << q;
    }
  }
  EXPECT_FALSE(LowPercentile({}, 0.1).has_value());
}

TEST(PercentileTest, Median) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(ScheduleTest, PoissonArrivalsAreReproducible) {
  const std::vector<double> a = PoissonArrivals(42, 300.0, 5.0);
  EXPECT_EQ(a, PoissonArrivals(42, 300.0, 5.0));
  EXPECT_NE(a, PoissonArrivals(43, 300.0, 5.0));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 5.0);
  // 1500 expected arrivals; a Poisson count is within 5 sigma (~194).
  EXPECT_NEAR(static_cast<double>(a.size()), 1500.0, 194.0);
}

std::vector<int> Draw(RequestMix mix, int count) {
  std::vector<int> docs;
  for (int i = 0; i < count; ++i) docs.push_back(mix.Next());
  return docs;
}

TEST(ScheduleTest, RequestMixIsReproducibleAndMixed) {
  const std::vector<int> s = Draw(RequestMix(7, 3000, 16, 0.2), 20000);
  EXPECT_EQ(s, Draw(RequestMix(7, 3000, 16, 0.2), 20000));
  EXPECT_NE(s, Draw(RequestMix(8, 3000, 16, 0.2), 20000));
  int hot = 0;
  for (int d : s) {
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 3000);
    hot += d < 16;
  }
  EXPECT_NEAR(hot / 20000.0, 0.2, 0.02);
}

TEST(ScheduleTest, DerivedSeedsDifferByPurposeAndSeed) {
  EXPECT_EQ(DeriveSeed(1, "dataset"), DeriveSeed(1, "dataset"));
  EXPECT_NE(DeriveSeed(1, "dataset"), DeriveSeed(1, "model"));
  EXPECT_NE(DeriveSeed(1, "dataset"), DeriveSeed(2, "dataset"));
}

bool SameCorpus(const text::BowCorpus& a, const text::BowCorpus& b) {
  if (a.num_docs() != b.num_docs() || a.vocab_size() != b.vocab_size()) {
    return false;
  }
  for (int d = 0; d < a.num_docs(); ++d) {
    const auto& ea = a.doc(d).entries;
    const auto& eb = b.doc(d).entries;
    if (ea.size() != eb.size()) return false;
    for (size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].word_id != eb[i].word_id || ea[i].count != eb[i].count) {
        return false;
      }
    }
  }
  return true;
}

TEST(InputsTest, DocumentGenerationIsReproducible) {
  const Dataset a = GenerateDataset();
  const Dataset b = GenerateDataset();
  EXPECT_TRUE(SameCorpus(a.data.train, b.data.train));
  EXPECT_TRUE(SameCorpus(a.data.test, b.data.test));
  EXPECT_EQ(a.data.train.num_docs(), 1800);
  EXPECT_EQ(a.data.test.num_docs(), 1200);
  EXPECT_EQ(a.data.train.vocab_size(), 1422);

  // Request documents and the test-split order follow the run's seed.
  EXPECT_TRUE(SameCorpus(RequestCorpus(a, 5), RequestCorpus(b, 5)));
  EXPECT_FALSE(SameCorpus(RequestCorpus(a, 5), RequestCorpus(a, 6)));
  EXPECT_TRUE(SameCorpus(ShuffledCorpus(a.data.test, 5),
                         ShuffledCorpus(b.data.test, 5)));
  EXPECT_FALSE(SameCorpus(ShuffledCorpus(a.data.test, 5),
                          ShuffledCorpus(a.data.test, 6)));
}

TEST(MetricNameTest, Pattern) {
  EXPECT_TRUE(ValidMetricName("p50_ms"));
  EXPECT_TRUE(ValidMetricName("serve.gen_late_p99_ms"));
  EXPECT_TRUE(ValidMetricName("a-b.c_1"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("p50 ms"));
  EXPECT_FALSE(ValidMetricName("latency/ms"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, BenchmarkJsonNamesAreValid) {
  std::ifstream file(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
  ASSERT_TRUE(file) << "BENCHMARK.json not found";
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    EXPECT_TRUE(ValidMetricName(name)) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_GT(names.size(), 10u);
}

TEST(ReportTest, ResultLineCarriesEveryDigit) {
  Outcome outcome;
  outcome.attempted = 3;
  outcome.Set("p50_ms", 1.0 / 3.0, "ms");
  EXPECT_EQ(ResultJson(outcome),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,"
            "\"metrics\":{\"p50_ms\":{\"value\":0.33333333333333331,"
            "\"unit\":\"ms\"}}}");
  outcome.Set("bad name", 1.0, "ms");
  EXPECT_FALSE(outcome.correct);
}

TEST(SpanTest, SelfTimeExcludesChildCoverage) {
  SpanLog& log = SpanLog::Get();
  log.Clear();
  log.Enable(true);
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  log.Add("a.parent", at(0), at(10), -1, -1);
  // Two overlapping children cover [2, 6) of the parent: 4 ms.
  log.Add("b.child", at(2), at(5), 0, 1);
  log.Add("b.child", at(3), at(6), 0, 2);
  log.Enable(false);
  const auto totals = log.Totals();
  EXPECT_NEAR(totals.at("a.parent").self_s, 0.006, 1e-9);
  EXPECT_EQ(totals.at("b.child").count, 2);
  EXPECT_NEAR(totals.at("b.child").total_s, 0.006, 1e-9);
  log.Clear();
}

}  // namespace
}  // namespace perfbench
