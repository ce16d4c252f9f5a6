// Runtime dispatch tunables: env parsing round-trips through an
// injected lookup (no real-environment mutation), setters clamp and
// round-trip, reset restores defaults — and the load-bearing contract,
// pinned bitwise: every tunable setting changes ONLY scheduling, so
// parallel_for / parallel_reduce results are byte-identical across the
// whole knob matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "simrt/parallel.hpp"
#include "simrt/tunables.hpp"

namespace {

using namespace portabench;
using namespace portabench::simrt;

/// Injected environment: a map standing in for getenv.
EnvLookup fake_env(const std::map<std::string, std::string>& vars) {
  return [vars](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  };
}

TEST(ParseTunableSize, AcceptsNonNegativeIntegersOnly) {
  std::size_t v = 77;
  EXPECT_FALSE(parse_tunable_size(nullptr, &v));
  EXPECT_FALSE(parse_tunable_size("", &v));
  EXPECT_FALSE(parse_tunable_size("-5", &v));
  EXPECT_FALSE(parse_tunable_size("abc", &v));
  EXPECT_FALSE(parse_tunable_size("12abc", &v));
  EXPECT_FALSE(parse_tunable_size("4.5", &v));
  EXPECT_FALSE(parse_tunable_size("99999999999999999999999999", &v));  // overflow
  EXPECT_EQ(v, 77u) << "failed parses must leave *out untouched";

  EXPECT_TRUE(parse_tunable_size("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_tunable_size("4096", &v));
  EXPECT_EQ(v, 4096u);
}

TEST(DispatchEnv, RoundTripThroughInjectedLookup) {
  const DispatchTunables base;  // defaults
  const DispatchTunables t = parse_dispatch_env(
      base, fake_env({{"PORTABENCH_TUNE_FORK_CUTOFF", "1024"},
                      {"PORTABENCH_TUNE_CHUNK", "16"},
                      {"PORTABENCH_TUNE_MIN_GRAIN", "4"}}));
  EXPECT_EQ(t.fork_cutoff, 1024u);
  EXPECT_EQ(t.chunks_per_thread, 16u);
  EXPECT_EQ(t.min_grain, 4u);
}

TEST(DispatchEnv, UnsetAndGarbageKeepBaseValues) {
  DispatchTunables base;
  base.fork_cutoff = 2048;
  base.chunks_per_thread = 12;
  base.min_grain = 3;
  const DispatchTunables untouched = parse_dispatch_env(base, fake_env({}));
  EXPECT_EQ(untouched.fork_cutoff, 2048u);
  EXPECT_EQ(untouched.chunks_per_thread, 12u);
  EXPECT_EQ(untouched.min_grain, 3u);

  const DispatchTunables garbage = parse_dispatch_env(
      base, fake_env({{"PORTABENCH_TUNE_FORK_CUTOFF", "fast"},
                      {"PORTABENCH_TUNE_CHUNK", "-1"},
                      {"PORTABENCH_TUNE_MIN_GRAIN", "8"}}));
  EXPECT_EQ(garbage.fork_cutoff, 2048u);    // unparseable: base kept
  EXPECT_EQ(garbage.chunks_per_thread, 12u);
  EXPECT_EQ(garbage.min_grain, 8u);         // the one valid var applies
}

/// Setter tests mutate process-global knobs; restore defaults afterwards
/// (the real PORTABENCH_TUNE_* vars are cleared first so "reset" means
/// "back to compile-time defaults" in this process).
class TunablesRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* var :
         {"PORTABENCH_TUNE_FORK_CUTOFF", "PORTABENCH_TUNE_CHUNK", "PORTABENCH_TUNE_MIN_GRAIN"}) {
      ::unsetenv(var);
    }
  }
  void TearDown() override { reset_dispatch_tunables(); }
};

TEST_F(TunablesRoundTrip, DispatchSetterRoundTripsAndClamps) {
  DispatchTunables t;
  t.fork_cutoff = 0;        // 0 = always fork: legal
  t.chunks_per_thread = 0;  // clamped to 1
  t.min_grain = 0;          // clamped to 1
  set_dispatch_tunables(t);
  const DispatchTunables got = dispatch_tunables();
  EXPECT_EQ(got.fork_cutoff, 0u);
  EXPECT_EQ(got.chunks_per_thread, 1u);
  EXPECT_EQ(got.min_grain, 1u);
  EXPECT_EQ(dispatch_fork_cutoff(), 0u);

  reset_dispatch_tunables();
  const DispatchTunables def = dispatch_tunables();
  EXPECT_EQ(def.fork_cutoff, kDefaultForkCutoff);
  EXPECT_EQ(def.chunks_per_thread, kDefaultChunksPerThread);
  EXPECT_EQ(def.min_grain, kDefaultMinGrain);
}

// --- the bitwise contract --------------------------------------------------
//
// Every (fork_cutoff, chunks_per_thread, min_grain) point — including the
// degenerate always-fork / always-inline extremes — must produce byte-
// identical parallel_for output and a byte-identical non-associative
// parallel_reduce sum, because lane decomposition and partial-join order
// depend only on the thread count.

struct ForReduceResult {
  std::vector<double> cells;
  double sum = 0.0;
};

ForReduceResult run_workload() {
  constexpr std::size_t kExtent = 4097;  // odd, not a chunk multiple
  ThreadsSpace space(4);
  ForReduceResult r;
  r.cells.assign(kExtent, 0.0);
  parallel_for(space, RangePolicy(0, kExtent, Schedule::kDynamic, 0),
               [&](std::size_t i) {
                 r.cells[i] = 1.0 / (1.0 + static_cast<double>(i * i % 97));
               });
  parallel_reduce(space, RangePolicy(0, kExtent),
                  [](std::size_t i, double& acc) {
                    acc += 1.0 / (1.0 + static_cast<double>(i));
                  },
                  r.sum);
  return r;
}

TEST_F(TunablesRoundTrip, ResultsAreBitwiseInvariantAcrossTheKnobMatrix) {
  reset_dispatch_tunables();
  const ForReduceResult baseline = run_workload();

  for (const std::size_t cutoff : {std::size_t{0}, std::size_t{64}, std::size_t{1u << 20}}) {
    for (const std::size_t chunks : {std::size_t{1}, std::size_t{2}, std::size_t{32}}) {
      for (const std::size_t grain : {std::size_t{1}, std::size_t{16}}) {
        DispatchTunables t;
        t.fork_cutoff = cutoff;
        t.chunks_per_thread = chunks;
        t.min_grain = grain;
        set_dispatch_tunables(t);
        const ForReduceResult got = run_workload();
        ASSERT_EQ(std::memcmp(got.cells.data(), baseline.cells.data(),
                              baseline.cells.size() * sizeof(double)),
                  0)
            << "parallel_for bytes changed at cutoff=" << cutoff
            << " chunks=" << chunks << " grain=" << grain;
        ASSERT_EQ(std::memcmp(&got.sum, &baseline.sum, sizeof(double)), 0)
            << "reduce bytes changed at cutoff=" << cutoff << " chunks=" << chunks
            << " grain=" << grain;
      }
    }
  }
}

}  // namespace
