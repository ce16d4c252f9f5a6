// Tests of the benchmark's own logic: the percentile rule, the open-loop
// schedule, failure accounting, and agreement with BENCHMARK.json.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/json.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(TailLevel, KeepsTenSamplesBeyondThePercentile) {
  EXPECT_EQ(tail_level(10000), 99.9);
  EXPECT_EQ(tail_level(9999), 99.0);
  EXPECT_EQ(tail_level(1000), 99.0);
  EXPECT_EQ(tail_level(999), 95.0);
  EXPECT_EQ(tail_level(200), 95.0);
  EXPECT_EQ(tail_level(199), 90.0);
  EXPECT_EQ(tail_level(40), 75.0);
  EXPECT_EQ(tail_level(39), 50.0);
  EXPECT_EQ(tail_level(5), 50.0);
}

TEST(Distribution, ReportsMedianAndCappedTail) {
  std::vector<double> v(10000);
  std::iota(v.begin(), v.end(), 1.0);
  const Distribution d = distribution(v);
  EXPECT_EQ(d.count, 10000u);
  EXPECT_EQ(d.median, 5000.0);
  EXPECT_EQ(d.tail_level, 99.0);  // 99.9 qualifies but the key names p99
  EXPECT_EQ(d.tail, 9900.0);
  const Distribution small = distribution(std::span<const double>(v).first(199));
  EXPECT_EQ(small.tail_level, 90.0);
  EXPECT_EQ(small.tail, 180.0);
}

TEST(PoissonSchedule, BitIdenticalForASeed) {
  const auto a = poisson_schedule(7, 1000.0, 3.0);
  const auto b = poisson_schedule(7, 1000.0, 3.0);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_NE(poisson_schedule(8, 1000.0, 3.0), a);
}

TEST(PoissonSchedule, HasTheRequestedRate) {
  const auto a = poisson_schedule(11, 1000.0, 20.0);
  // 20000 expected arrivals; five standard deviations is about 700.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 700.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 20.0);
}

TEST(FailureAccounting, InjectedFailuresAreCounted) {
  ServeWaves waves(3, ServeWaves::kWaveJobs);
  waves.build_engine([](const portabench::serve::JobDesc& d) { return d.id % 7 == 0; });
  (void)waves.compute_oracle();
  const Phase ph = waves.run(0.0, 2, nullptr);
  ASSERT_EQ(ph.attempted, 2 * ServeWaves::kWaveJobs);
  std::uint64_t injected = 0;
  for (std::uint64_t id = 0; id < ph.attempted; ++id) injected += id % 7 == 0 ? 1 : 0;
  EXPECT_EQ(ph.failed, injected);
  std::uint64_t delivered = 0;
  for (const Block& b : ph.blocks) delivered += b.latency_ms.count;
  EXPECT_EQ(delivered, ph.attempted - injected);
  EXPECT_FALSE(ph.errors.empty());
}

TEST(FailureAccounting, CleanRunHasNoFailures) {
  ServeWaves waves(3, ServeWaves::kWaveJobs);
  waves.build_engine();
  (void)waves.compute_oracle();
  const Phase ph = waves.run(0.0, 2, nullptr);
  EXPECT_EQ(ph.attempted, 2 * ServeWaves::kWaveJobs);
  EXPECT_EQ(ph.failed, 0u);
}

// Runs are judged by the metric names and units BENCHMARK.json lists;
// the program must print exactly those.
TEST(BenchmarkJson, MatchesTheProgram) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const auto parsed = portabench::parse_json(text.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& root = parsed.value;

  const auto check = [](const portabench::JsonValue* list,
                         const std::vector<MetricSpec>& specs) {
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->as_array().size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(list->as_array()[i].string_at("name"), specs[i].name);
      EXPECT_EQ(list->as_array()[i].string_at("unit"), specs[i].unit);
    }
  };
  check(root.find("end_to_end"), end_to_end_specs());
  check(root.find("per_layer"), layer_specs());

  const auto* workloads = root.find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_FALSE(workloads->as_array().empty());
  for (const auto& w : workloads->as_array()) {
    const auto name = w.string_at("name");
    ASSERT_TRUE(name.has_value());
    EXPECT_NE(make_workload(*name, 1), nullptr) << *name;
  }
}

}  // namespace
}  // namespace perfbench
