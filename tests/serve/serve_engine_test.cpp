// Property tests for the serving layer: for every (shards x batch x
// precision x frontend) point, results streamed through ServeEngine are
// bitwise-identical to serve::run_serial — including under backpressure
// rejects, fail injection, and the portacheck permutation scheduler (the
// sanitized tier re-runs this whole suite under three seeds).
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <vector>

#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace portabench::serve {
namespace {

/// Collects completions keyed by id.  The engine delivers from shard
/// flush threads, so the sink takes a lock (tests are exempt from the
/// raw-thread lint rule).
class ResultSink {
 public:
  void operator()(const JobResult& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    results_[r.id] = r;
  }

  [[nodiscard]] std::map<std::uint64_t, JobResult> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return results_;
  }

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, JobResult> results_;
};

std::vector<JobDesc> make_trace(const TraceConfig& cfg, std::size_t jobs) {
  TraceGen gen(cfg);
  std::vector<JobDesc> trace;
  trace.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) trace.push_back(gen.next());
  return trace;
}

/// Submit with bounded retry on backpressure; fails the test if a job is
/// rejected for any non-queue-full reason.
void submit_all(ServeEngine& engine, const std::vector<JobDesc>& trace) {
  for (const auto& d : trace) {
    AdmitError e = engine.try_submit(d);
    while (e == AdmitError::kQueueFull) e = engine.try_submit(d);
    ASSERT_EQ(e, AdmitError::kNone) << "job " << d.id << " rejected: " << name(e);
  }
}

void expect_bitwise_identical(const std::vector<JobDesc>& trace,
                              const std::map<std::uint64_t, JobResult>& results) {
  for (const auto& d : trace) {
    const auto it = results.find(d.id);
    ASSERT_NE(it, results.end()) << "job " << d.id << " never completed";
    EXPECT_EQ(it->second.status, JobStatus::kOk);
    const JobResult oracle = run_serial(d);
    EXPECT_EQ(it->second.checksum, oracle.checksum)
        << name(d.kind) << "/" << name(d.frontend) << " n=" << d.n
        << " seed=" << d.seed;
  }
}

TEST(ServeEngineTest, BitwiseIdenticalAcrossShardAndBatchGrid) {
  TraceConfig tcfg;
  tcfg.seed = 7;
  tcfg.min_n = 5;
  tcfg.max_n = 24;
  const auto trace = make_trace(tcfg, 120);

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (std::size_t batch : {std::size_t{4}, std::size_t{32}}) {
      ResultSink sink;
      ServeConfig cfg;
      cfg.shards = shards;
      cfg.batch_jobs = batch;
      cfg.on_complete = std::ref(sink);
      ServeEngine engine(cfg);
      submit_all(engine, trace);
      engine.drain();
      SCOPED_TRACE("shards=" + std::to_string(shards) + " batch=" + std::to_string(batch));
      expect_bitwise_identical(trace, sink.take());
      const ServeStats st = engine.stats();
      EXPECT_EQ(st.accepted, trace.size());
      EXPECT_EQ(st.completed, trace.size());
      EXPECT_EQ(st.failed, 0u);
      EXPECT_GE(st.batches, 1u);
    }
  }
}

TEST(ServeEngineTest, EveryGemmFrontendAndPrecisionBucketMatchesSerial) {
  constexpr Frontend kFronts[] = {Frontend::kOpenMP, Frontend::kKokkos, Frontend::kJulia,
                                  Frontend::kNumba, Frontend::kTiled};
  constexpr Precision kPrecs[] = {Precision::kDouble, Precision::kSingle,
                                  Precision::kHalfIn};
  std::vector<JobDesc> trace;
  std::uint64_t id = 0;
  for (Frontend f : kFronts) {
    for (Precision p : kPrecs) {
      for (std::uint32_t n : {3u, 8u, 17u}) {
        JobDesc d;
        d.id = id++;
        d.kind = JobKind::kGemm;
        d.frontend = f;
        d.precision = p;
        d.n = n;
        d.seed = 0xACE0ull + id;
        trace.push_back(d);
      }
    }
  }

  ResultSink sink;
  ServeConfig cfg;
  cfg.shards = 3;
  cfg.batch_jobs = 8;
  cfg.on_complete = std::ref(sink);
  ServeEngine engine(cfg);
  submit_all(engine, trace);
  engine.drain();
  expect_bitwise_identical(trace, sink.take());
}

TEST(ServeEngineTest, SpmvAndStencilBucketsMatchSerial) {
  std::vector<JobDesc> trace;
  std::uint64_t id = 0;
  for (Frontend f : {Frontend::kOpenMP, Frontend::kKokkos, Frontend::kNumba}) {
    for (Precision p : {Precision::kDouble, Precision::kSingle}) {
      for (std::uint32_t n : {1u, 7u, 33u}) {
        trace.push_back({id++, JobKind::kSpmv, f, p, n, 0xBEEFull + id});
      }
    }
  }
  for (Frontend f : {Frontend::kOpenMP, Frontend::kKokkos, Frontend::kTiled}) {
    // n = 2 pins the degenerate no-interior sweep (output stays zero).
    for (std::uint32_t n : {2u, 9u, 20u}) {
      trace.push_back({id++, JobKind::kStencil, f, Precision::kDouble, n, 0xF00Dull + id});
    }
  }

  ResultSink sink;
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.batch_jobs = 5;
  cfg.on_complete = std::ref(sink);
  ServeEngine engine(cfg);
  submit_all(engine, trace);
  engine.drain();
  expect_bitwise_identical(trace, sink.take());
}

TEST(ServeEngineTest, BackpressureShedsAreTypedAndSurvivorsStayBitwise) {
  TraceConfig tcfg;
  tcfg.seed = 11;
  tcfg.min_n = 4;
  tcfg.max_n = 16;
  const auto trace = make_trace(tcfg, 400);

  ResultSink sink;
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;  // tiny bound: force queue-full sheds
  cfg.batch_jobs = 64;     // flush trigger rarely fires before the queue fills
  cfg.on_complete = std::ref(sink);
  ServeEngine engine(cfg);

  std::vector<JobDesc> accepted;
  std::uint64_t shed = 0;
  for (const auto& d : trace) {
    const AdmitError e = engine.try_submit(d);  // no retry: sheds are expected
    if (e == AdmitError::kNone) {
      accepted.push_back(d);
    } else {
      ASSERT_EQ(e, AdmitError::kQueueFull);
      ++shed;
    }
  }
  engine.drain();

  const ServeStats st = engine.stats();
  EXPECT_GT(shed, 0u) << "queue bound never engaged; shrink queue_capacity";
  EXPECT_EQ(st.accepted, accepted.size());
  EXPECT_EQ(st.completed, accepted.size());
  EXPECT_EQ(st.rejected_total, shed);
  EXPECT_EQ(st.rejected_by[static_cast<std::size_t>(AdmitError::kQueueFull)], shed);

  // Sheds leave the engine untouched: every accepted job is still
  // bitwise-identical to its serial replay.
  expect_bitwise_identical(accepted, sink.take());
}

TEST(ServeEngineTest, ReplayOfSameTraceIsDeterministic) {
  TraceConfig tcfg;
  tcfg.seed = 23;
  tcfg.min_n = 6;
  tcfg.max_n = 20;
  const auto trace = make_trace(tcfg, 150);
  ASSERT_EQ(make_trace(tcfg, 150), trace) << "TraceGen must be pure in its config";

  const auto run_once = [&] {
    ResultSink sink;
    ServeConfig cfg;
    cfg.shards = 4;
    cfg.batch_jobs = 16;
    cfg.on_complete = std::ref(sink);
    ServeEngine engine(cfg);
    submit_all(engine, trace);
    engine.drain();
    return sink.take();
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [id, r] : first) {
    const auto it = second.find(id);
    ASSERT_NE(it, second.end());
    EXPECT_EQ(r.checksum, it->second.checksum) << "job " << id;
  }
}

TEST(ServeEngineTest, FailInjectionMarksJobsFailedAndSparesTheRest) {
  TraceConfig tcfg;
  tcfg.seed = 31;
  tcfg.min_n = 4;
  tcfg.max_n = 12;
  const auto trace = make_trace(tcfg, 96);

  ResultSink sink;
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.batch_jobs = 8;
  cfg.on_complete = std::ref(sink);
  cfg.fail_injection = [](const JobDesc& d) { return d.id % 7 == 0; };
  ServeEngine engine(cfg);
  submit_all(engine, trace);
  engine.drain();

  const auto results = sink.take();
  std::vector<JobDesc> healthy;
  std::uint64_t injected = 0;
  for (const auto& d : trace) {
    const auto it = results.find(d.id);
    ASSERT_NE(it, results.end());
    if (d.id % 7 == 0) {
      EXPECT_EQ(it->second.status, JobStatus::kFailed);
      ++injected;
    } else {
      healthy.push_back(d);
    }
  }
  expect_bitwise_identical(healthy, results);

  const ServeStats st = engine.stats();
  EXPECT_EQ(st.failed, injected);
  EXPECT_EQ(st.completed, trace.size() - injected);
  EXPECT_GE(st.batch_errors, 1u) << "injected batches must surface as batch errors";
}

TEST(ServeEngineTest, EqualDescsLandInOneBucketAndAgree) {
  // Identical jobs (same kind/frontend/precision/size class/seed) must
  // produce identical checksums regardless of which batch slot they fill.
  std::vector<JobDesc> trace;
  for (std::uint64_t id = 0; id < 24; ++id) {
    trace.push_back({id, JobKind::kGemm, Frontend::kTiled, Precision::kSingle, 12,
                     0x5EEDull});
  }
  ResultSink sink;
  ServeConfig cfg;
  cfg.shards = 1;
  cfg.batch_jobs = 24;
  cfg.on_complete = std::ref(sink);
  ServeEngine engine(cfg);
  submit_all(engine, trace);
  engine.drain();

  const auto results = sink.take();
  ASSERT_EQ(results.size(), trace.size());
  const double expected = run_serial(trace.front()).checksum;
  for (const auto& [id, r] : results) {
    EXPECT_EQ(r.checksum, expected) << "job " << id;
  }
}

TEST(ServeEngineTest, MultiDeviceTopologyRoutesShardsAndStaysBitwise) {
  TraceConfig tcfg;
  tcfg.seed = 29;
  tcfg.min_n = 5;
  tcfg.max_n = 20;
  const auto trace = make_trace(tcfg, 160);

  ResultSink sink;
  ServeConfig cfg;
  cfg.shards = 4;
  cfg.batch_jobs = 8;
  cfg.on_complete = std::ref(sink);
  cfg.topology = gpusim::TopologyConfig::wombat_node(2);
  cfg.topology.workers_per_device = 2;  // keep the suite light under ctest -j
  ServeEngine engine(cfg);

  // Shards deal round-robin across the two devices, each with its own
  // private engine (not the process-shared one).
  ASSERT_EQ(engine.topology().devices(), 2u);
  EXPECT_EQ(engine.device_of(0), 0u);
  EXPECT_EQ(engine.device_of(1), 1u);
  EXPECT_EQ(engine.device_of(2), 0u);
  EXPECT_EQ(engine.device_of(3), 1u);
  EXPECT_NE(&engine.topology().engine(0), &engine.topology().engine(1));
  EXPECT_NE(&engine.topology().engine(0), &gpusim::LaunchEngine::shared());

  submit_all(engine, trace);
  engine.drain();
  expect_bitwise_identical(trace, sink.take());

  // Both devices actually ran work: the fill/launch counters tally per
  // device, so each context must have seen launches.
  EXPECT_GT(engine.topology().context(0).counters().kernel_launches, 0u);
  EXPECT_GT(engine.topology().context(1).counters().kernel_launches, 0u);
}

TEST(ServeEngineTest, SkewedShardsDrainBitwise) {
  // Skew the shard mix: every job's id hashes to shards 1-3, so shard 0
  // never sees a job and the others hold uneven bucket mixes.  drain()
  // must still flush every queued job, each bitwise-equal to run_serial,
  // and replays must agree.
  TraceConfig tcfg;
  tcfg.seed = 37;
  tcfg.min_n = 4;
  tcfg.max_n = 16;
  auto trace = make_trace(tcfg, 90);
  std::uint64_t next_id = 1;
  for (auto& d : trace) {
    d.id = next_id;  // ids 1,2,3, 5,6,7, ... — never 0 mod 4
    next_id = (next_id + 1) % 4 == 0 ? next_id + 2 : next_id + 1;
  }

  for (int run = 0; run < 3; ++run) {
    ResultSink sink;
    ServeConfig cfg;
    cfg.on_complete = std::ref(sink);
    ServeEngine engine(cfg);
    submit_all(engine, trace);
    engine.drain();
    const ServeStats st = engine.stats();
    EXPECT_EQ(st.accepted, trace.size()) << "run " << run;
    EXPECT_EQ(st.completed, trace.size()) << "run " << run;
    EXPECT_EQ(st.failed, 0u) << "run " << run;
    expect_bitwise_identical(trace, sink.take());
  }
}

}  // namespace
}  // namespace portabench::serve
