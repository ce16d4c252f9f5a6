// Search-harness contracts on synthetic objectives: exhaustive
// enumeration finds the optimum, hill-climb finds it on spaces too big
// to enumerate, a flat/noisy objective keeps the default (the harness
// can never hand back something worse), frozen parameters never move,
// and the wall-clock budget is honored.  Plus registry sanity: the
// spaces dispatch and the benches key on actually exist with valid
// defaults and the GEMM KC stays frozen.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "tune/params.hpp"
#include "tune/search.hpp"

namespace {

using namespace portabench::tune;

SpaceDesc synthetic_space() {
  SpaceDesc s;
  s.name = "synthetic";
  s.what = "test space";
  s.params = {
      ParamSpec{"a", {1, 2, 4, 8}, 4, false, ""},
      ParamSpec{"b", {16, 32, 64}, 32, false, ""},
  };
  return s;
}

SearchOptions modeled() {
  SearchOptions o;
  o.deterministic = true;  // modeled cost: 1 rep, zero noise floor
  return o;
}

TEST(Search, ExhaustiveFindsGlobalOptimum) {
  const SpaceDesc space = synthetic_space();  // 12 combos < exhaustive_limit
  const Objective obj = [](const Config& c) {
    // unique minimum at a=2, b=64
    return std::abs(static_cast<double>(c.at("a")) - 2.0) +
           std::abs(static_cast<double>(c.at("b")) - 64.0) / 16.0;
  };
  const TuneResult r = tune_space(space, obj, modeled());
  EXPECT_EQ(r.best.at("a"), 2);
  EXPECT_EQ(r.best.at("b"), 64);
  EXPECT_TRUE(r.improved);
  EXPECT_EQ(r.evaluated, combinations(space));
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_TRUE(config_valid(space, r.best));
}

TEST(Search, HillClimbFindsOptimumOnLargeSpace) {
  // 6^4 = 1296 combos >> exhaustive_limit forces the hill-climb path.
  SpaceDesc space;
  space.name = "big";
  for (const char* n : {"p", "q", "r", "s"}) {
    space.params.push_back(ParamSpec{n, {1, 2, 3, 4, 5, 6}, 1, false, ""});
  }
  ASSERT_GT(combinations(space), SearchOptions{}.exhaustive_limit);
  // Separable convex bowl with minimum at (3, 4, 2, 5): coordinate
  // descent from any start converges.
  const Objective obj = [](const Config& c) {
    const double d1 = static_cast<double>(c.at("p")) - 3.0;
    const double d2 = static_cast<double>(c.at("q")) - 4.0;
    const double d3 = static_cast<double>(c.at("r")) - 2.0;
    const double d4 = static_cast<double>(c.at("s")) - 5.0;
    return d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4;
  };
  const TuneResult r = tune_space(space, obj, modeled());
  EXPECT_EQ(r.best.at("p"), 3);
  EXPECT_EQ(r.best.at("q"), 4);
  EXPECT_EQ(r.best.at("r"), 2);
  EXPECT_EQ(r.best.at("s"), 5);
  EXPECT_TRUE(r.improved);
  EXPECT_LT(r.evaluated, combinations(space));  // did not enumerate
}

TEST(Search, FlatObjectiveRetainsDefault) {
  const SpaceDesc space = synthetic_space();
  const Objective obj = [](const Config&) { return 1.0; };
  const TuneResult r = tune_space(space, obj, modeled());
  EXPECT_FALSE(r.improved);
  EXPECT_EQ(r.best, default_config(space));  // ties go to the default
  EXPECT_DOUBLE_EQ(r.best_ms, r.default_ms);
}

TEST(Search, NoisyObjectiveBelowFloorRetainsDefault) {
  // Timed mode (deterministic=false): +-1% jitter around a flat cost must
  // not clear the IQR/2% noise floor, so no challenger is adopted.
  const SpaceDesc space = synthetic_space();
  unsigned state = 12345;
  const Objective obj = [&state](const Config&) {
    state = state * 1664525u + 1013904223u;
    return 1.0 + 0.01 * (static_cast<double>(state % 1000) / 1000.0 - 0.5);
  };
  SearchOptions o;
  o.reps = 5;
  o.warmup = 1;
  const TuneResult r = tune_space(space, obj, o);
  EXPECT_FALSE(r.improved);
  EXPECT_EQ(r.best, default_config(space));
  EXPECT_GT(r.noise_ms, 0.0);
}

TEST(Search, FrozenParamIsPinnedToDefault) {
  SpaceDesc space = synthetic_space();
  // Freeze "a" at its default 4; the objective begs for a=1.
  space.params[0].frozen = true;
  const Objective obj = [](const Config& c) {
    return static_cast<double>(c.at("a")) + std::abs(static_cast<double>(c.at("b")) - 64.0);
  };
  const TuneResult r = tune_space(space, obj, modeled());
  EXPECT_EQ(r.best.at("a"), 4);   // frozen: never moved off the default
  EXPECT_EQ(r.best.at("b"), 64);  // free param still tuned
  EXPECT_EQ(r.evaluated, combinations(space));
  EXPECT_EQ(combinations(space), 3u);  // frozen param counts as 1
}

TEST(Search, BudgetExhaustionStopsEarlyAndStaysValid) {
  SpaceDesc space;
  space.name = "slow";
  space.params = {ParamSpec{"x", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0, false, ""}};
  const Objective obj = [](const Config& c) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return 10.0 - static_cast<double>(c.at("x"));
  };
  SearchOptions o;
  o.reps = 1;
  o.warmup = 0;
  o.budget_ms = 12.0;  // enough for the default + a couple of candidates
  const TuneResult r = tune_space(space, obj, o);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_LT(r.evaluated, 10u);
  EXPECT_GE(r.evaluated, 1u);  // the default is always measured
  EXPECT_TRUE(config_valid(space, r.best));
}

TEST(Search, MeasureReportsMedianAndSpread) {
  int call = 0;
  const Measurement m = measure(
      [&call]() {
        // warmup sample is a 100ms outlier; steady samples 1..5 ms
        ++call;
        return call == 1 ? 100.0 : static_cast<double>(call - 1);
      },
      5, 1);
  EXPECT_DOUBLE_EQ(m.median_ms, 3.0);  // median of {1,2,3,4,5}; outlier dropped
  EXPECT_GT(m.noise_ms, 0.0);
}

// --- registry sanity -------------------------------------------------------

TEST(Registry, DispatchFacingSpacesExistWithValidDefaults) {
  for (const char* name :
       {"gemm-tile", "dispatch", "serve-batch", "gpu-unroll", "gpu-block"}) {
    const SpaceDesc* s = find_space(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_FALSE(s->params.empty()) << name;
    EXPECT_TRUE(config_valid(*s, default_config(*s))) << name;
    EXPECT_GE(combinations(*s), 1u) << name;
    for (const ParamSpec& p : s->params) {
      EXPECT_FALSE(p.choices.empty()) << name << "." << p.name;
      EXPECT_NE(std::find(p.choices.begin(), p.choices.end(), p.def), p.choices.end())
          << name << "." << p.name << ": default not among choices";
    }
  }
  EXPECT_EQ(find_space("no-such-space"), nullptr);
  // Retired spaces whose winners no code path applied: gpusim launches
  // read the dispatch knobs, every served tile comes from gemm-tile, and
  // the primitives' schedules are call parameters.
  for (const char* retired :
       {"launch", "gemm-tile-gcd", "primitives-radix", "primitives-scan"}) {
    EXPECT_EQ(find_space(retired), nullptr) << retired;
  }
}

TEST(Registry, GemmKcIsFrozenOrderAffecting) {
  const SpaceDesc* s = find_space("gemm-tile");
  ASSERT_NE(s, nullptr);
  bool saw_kc = false, saw_free = false;
  for (const ParamSpec& p : s->params) {
    if (p.name == "kc") {
      saw_kc = true;
      EXPECT_TRUE(p.frozen) << "kc changes fp accumulation order; must stay frozen";
    } else {
      saw_free |= !p.frozen;
    }
  }
  EXPECT_TRUE(saw_kc);
  EXPECT_TRUE(saw_free) << "gemm-tile must keep at least one searchable knob";
}

TEST(Registry, ConfigValueFallsBackToSpaceDefault) {
  const SpaceDesc* s = find_space("dispatch");
  ASSERT_NE(s, nullptr);
  const Config empty;
  for (const ParamSpec& p : s->params) {
    EXPECT_EQ(config_value(*s, empty, p.name), p.def) << p.name;
  }
  Config partial = {{s->params.front().name, s->params.front().choices.back()}};
  EXPECT_EQ(config_value(*s, partial, s->params.front().name),
            s->params.front().choices.back());
}

}  // namespace
