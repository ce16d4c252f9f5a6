#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "gpusim/topology.hpp"
#include "layers.hpp"
#include "models/gpu_runners.hpp"
#include "models/runner.hpp"
#include "multigpu/gemm.hpp"
#include "multigpu/stencil.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernels.hpp"

namespace perfbench {

namespace serve = portabench::serve;
namespace gpusim = portabench::gpusim;
namespace models = portabench::models;
namespace multigpu = portabench::multigpu;
namespace simrt = portabench::simrt;
namespace stencil = portabench::stencil;
using portabench::Precision;

namespace {

constexpr std::size_t kMaxLoggedErrors = 5;

void note_failure(Phase& ph, std::string what) {
  ++ph.failed;
  if (ph.errors.size() < kMaxLoggedErrors) ph.errors.push_back(std::move(what));
}

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return 1e3 * seconds_between(t0, t1);
}

[[nodiscard]] double median_of(std::span<const double> v) { return percentile(v, 50.0); }

}  // namespace

Summary summarize(const Phase& ph) {
  Summary s;
  if (ph.blocks.empty()) {
    s.jobs_per_s = static_cast<double>(ph.ops) / ph.busy_s;
    s.latency_ms = distribution(ph.latency_ms);
    s.note = "pooled over " + std::to_string(ph.ops) + " operations in " +
             std::to_string(ph.busy_s) + " s";
    return s;
  }
  std::vector<double> rate, p50, tail;
  for (const Block& b : ph.blocks) {
    rate.push_back(static_cast<double>(b.ops) / b.busy_s);
    p50.push_back(b.latency_ms.median);
    tail.push_back(b.latency_ms.tail);
  }
  const Block& first = ph.blocks.front();
  s.jobs_per_s = median_of(rate);
  s.latency_ms.count = first.latency_ms.count;
  s.latency_ms.median = median_of(p50);
  s.latency_ms.tail_level = first.latency_ms.tail_level;
  s.latency_ms.tail = median_of(tail);
  s.note = "median over " + std::to_string(ph.blocks.size()) + " blocks of " +
           std::to_string(first.ops) + " operations";
  return s;
}

// ---------------------------------------------------------------------------
// serve-gemm: closed loop, one client, waves of 512 tiled small GEMMs.
// ---------------------------------------------------------------------------

struct ServeWaves::State {
  std::vector<serve::JobDesc> pool;
  std::vector<double> expected;
  std::unique_ptr<serve::ServeEngine> engine;
  // One slot per job of the wave in flight: ids are wave-aligned, so a
  // completion callback writes only slot id % kWaveJobs and drain()
  // orders those writes before the client reads them.
  std::vector<Clock::time_point> submitted = std::vector<Clock::time_point>(kWaveJobs);
  std::vector<Clock::time_point> done = std::vector<Clock::time_point>(kWaveJobs);
  std::vector<double> checksum = std::vector<double>(kWaveJobs);
  std::vector<std::uint8_t> status = std::vector<std::uint8_t>(kWaveJobs);
  std::uint64_t next_id = 0;
  // Engine state around the last run(), for the per-layer metrics.
  serve::ServeStats stats_before;
  serve::ServeStats stats_after;
  DeviceTally tally;
};

ServeWaves::ServeWaves(std::uint64_t seed, std::size_t pool_jobs)
    : state_(std::make_shared<State>()) {
  serve::TraceConfig tc;
  tc.seed = seed;
  tc.min_n = 32;
  tc.max_n = 80;
  tc.gemm_weight = 1;
  tc.spmv_weight = 0;
  tc.stencil_weight = 0;
  tc.tiled_only = true;
  serve::TraceGen gen(tc);
  state_->pool.reserve(pool_jobs);
  for (std::size_t i = 0; i < pool_jobs; ++i) state_->pool.push_back(gen.next());
}

void ServeWaves::build_engine(std::function<bool(const serve::JobDesc&)> fail_injection) {
  State* s = state_.get();
  s->engine.reset();
  serve::ServeConfig cfg;
  cfg.fail_injection = std::move(fail_injection);
  cfg.on_complete = [s](const serve::JobResult& r) {
    const std::size_t slot = r.id % kWaveJobs;
    s->done[slot] = Clock::now();
    s->checksum[slot] = r.checksum;
    s->status[slot] = r.status == serve::JobStatus::kOk ? 1 : 2;
  };
  s->engine = std::make_unique<serve::ServeEngine>(std::move(cfg));
}

double ServeWaves::compute_oracle() {
  State& s = *state_;
  s.expected.resize(s.pool.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < s.pool.size(); ++i) {
    s.expected[i] = serve::run_serial(s.pool[i]).checksum;
  }
  return static_cast<double>(s.pool.size()) / seconds_between(t0, Clock::now());
}

Phase ServeWaves::run(double seconds, std::size_t min_waves, Trace* trace) {
  State& s = *state_;
  serve::ServeEngine& engine = *s.engine;
  const std::size_t waves_per_block = std::max<std::size_t>(1, s.pool.size() / kWaveJobs);
  Phase ph;
  Block block;
  std::vector<double> block_latency;
  block_latency.reserve(waves_per_block * kWaveJobs);
  s.stats_before = engine.stats();
  s.tally.begin(engine.topology());
  for (std::size_t waves = 0;
       waves < min_waves || ph.busy_s < seconds || waves % waves_per_block != 0; ++waves) {
    const std::uint64_t base = s.next_id;
    s.next_id += kWaveJobs;
    std::fill(s.status.begin(), s.status.end(), std::uint8_t{0});

    const auto wave_start = Clock::now();
    for (std::size_t i = 0; i < kWaveJobs; ++i) {
      serve::JobDesc desc = s.pool[(base + i) % s.pool.size()];
      desc.id = base + i;
      s.submitted[i] = Clock::now();
      const serve::AdmitError err = engine.try_submit(desc);
      if (trace != nullptr) trace->add(Span::kSubmit, ms_since(s.submitted[i], Clock::now()));
      if (err != serve::AdmitError::kNone) s.status[i] = 3;
    }
    {
      ScopedSpan span(trace, Span::kDrain);
      engine.drain();
    }
    const double wave_s = seconds_between(wave_start, Clock::now());
    ph.busy_s += wave_s;
    ph.ops += kWaveJobs;
    block.busy_s += wave_s;
    block.ops += kWaveJobs;

    for (std::size_t i = 0; i < kWaveJobs; ++i) {
      ++ph.attempted;
      const std::size_t idx = (base + i) % s.pool.size();
      if (s.status[i] == 1 && same_bits(s.checksum[i], s.expected[idx])) {
        block_latency.push_back(ms_since(s.submitted[i], s.done[i]));
      } else {
        note_failure(ph, "serve-gemm job " + std::to_string(base + i) +
                             (s.status[i] == 3   ? " refused"
                              : s.status[i] == 2 ? " failed"
                              : s.status[i] == 0 ? " never completed"
                                                 : " checksum differs from run_serial"));
      }
    }
    if ((waves + 1) % waves_per_block == 0) {
      block.latency_ms = distribution(block_latency);
      ph.blocks.push_back(block);
      block = {};
      block_latency.clear();
    }
  }
  s.stats_after = engine.stats();
  s.tally.end(engine.topology());
  return ph;
}

void ServeWaves::layers(const Phase& phase, const Trace& trace, LayerTable& table,
                        const std::string& note) const {
  set_serve_layers(table, state_->stats_before, state_->stats_after, trace, note);
  table.set_counters(state_->tally, phase.ops, note);
}

namespace {

class ServeGemm final : public Workload {
 public:
  explicit ServeGemm(std::uint64_t seed) : waves_(seed, kPoolJobs) {}

  double setup() override {
    const auto t0 = Clock::now();
    waves_.build_engine();
    return seconds_between(t0, Clock::now());
  }

  void prepare() override {
    serial_jobs_per_s_ = waves_.compute_oracle();
    // Warm-up: the first waves run far slower than the steady state
    // (arena growth, first-touch, engine worker spin-up).
    (void)waves_.run(kWarmupSeconds, 1, nullptr);
  }

  Phase run(double seconds, Trace* trace) override {
    last_ = waves_.run(seconds, 1, trace);
    return last_;
  }

  [[nodiscard]] std::vector<Metric> extras() const override {
    return {{"serial_jobs_per_s", serial_jobs_per_s_, "1/s",
             "serve::run_serial replay, the base of jobs_per_s"}};
  }

  void layers(const Trace& trace, LayerTable& table) const override {
    waves_.layers(last_, trace, table, "workload");
    table.set("serve.serial_jobs_per_s", serial_jobs_per_s_, "workload oracle replay");
  }

 private:
  static constexpr std::size_t kPoolJobs = 4096;
  static constexpr double kWarmupSeconds = 3.0;
  ServeWaves waves_;
  double serial_jobs_per_s_ = 0.0;
  Phase last_;
};

// ---------------------------------------------------------------------------
// serve-mixed: open loop, Poisson arrivals at a fixed rate, full taxonomy.
// ---------------------------------------------------------------------------

class ServeMixed final : public Workload {
 public:
  static constexpr double kRate = 1000.0;  // jobs per second, never adapted
  static constexpr double kWarmSeconds = 1.0;
  static constexpr double kCoolSeconds = 0.5;
  // client.late_ms_p99 bound of a valid run: 20 ms behind schedule is 20
  // delayed arrivals at kRate, so the offered load is no longer the schedule.
  static constexpr double kMaxLateMs = 20.0;

  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {
    serve::TraceConfig tc;
    tc.seed = seed;
    tc.min_n = 32;
    tc.max_n = 80;
    serve::TraceGen gen(tc);
    pool_.reserve(kPoolJobs);
    for (std::size_t i = 0; i < kPoolJobs; ++i) pool_.push_back(gen.next());
  }

  double setup() override {
    engine_.reset();
    const auto t0 = Clock::now();
    serve::ServeConfig cfg;
    cfg.on_complete = [this](const serve::JobResult& r) {
      const std::size_t slot = r.id - base_;
      done_[slot] = Clock::now();
      checksum_[slot] = r.checksum;
      status_[slot] = r.status == serve::JobStatus::kOk ? 1 : 2;
    };
    engine_ = std::make_unique<serve::ServeEngine>(std::move(cfg));
    return seconds_between(t0, Clock::now());
  }

  void prepare() override {
    expected_.resize(pool_.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      expected_[i] = serve::run_serial(pool_[i]).checksum;
    }
    serial_jobs_per_s_ = static_cast<double>(pool_.size()) / seconds_between(t0, Clock::now());
  }

  Phase run(double seconds, Trace* trace) override {
    // Warm-up and cool-down arrivals bracket the measured window so every
    // counted job sees a steady flow of arrivals behind it.
    const std::vector<double> arrival =
        poisson_schedule(seed_ ^ 0x9E3779B97F4A7C15ULL, kRate,
                         kWarmSeconds + seconds + kCoolSeconds);
    const std::size_t jobs = arrival.size();
    base_ = next_id_;
    next_id_ += jobs;
    done_.assign(jobs, Clock::time_point{});
    checksum_.assign(jobs, 0.0);
    status_.assign(jobs, 0);
    late_ms_.clear();
    late_ms_.reserve(jobs);

    Phase ph;
    stats_before_ = engine_->stats();
    tally_.begin(engine_->topology());
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < jobs; ++i) {
      const Clock::time_point now = wait_until(start, arrival[i]);
      late_ms_.push_back(1e3 * (seconds_between(start, now) - arrival[i]));
      serve::JobDesc desc = pool_[i % pool_.size()];
      desc.id = base_ + i;
      // A refused job is a failed request: it is never retried.
      const serve::AdmitError err = engine_->try_submit(desc);
      if (trace != nullptr) trace->add(Span::kSubmit, ms_since(now, Clock::now()));
      if (err != serve::AdmitError::kNone) status_[i] = 3;
    }
    {
      ScopedSpan span(trace, Span::kDrain);
      engine_->drain();
    }
    stats_after_ = engine_->stats();
    tally_.end(engine_->topology());

    for (std::size_t i = 0; i < jobs; ++i) {
      ++ph.attempted;
      const bool ok = status_[i] == 1 && same_bits(checksum_[i], expected_[i % pool_.size()]);
      if (!ok) {
        note_failure(ph, "serve-mixed job " + std::to_string(base_ + i) +
                             (status_[i] == 3 ? " refused"
                                              : " failed or differs from run_serial"));
        continue;
      }
      if (arrival[i] >= kWarmSeconds && arrival[i] < kWarmSeconds + seconds) {
        ph.latency_ms.push_back(1e3 * (seconds_between(start, done_[i]) - arrival[i]));
        ++ph.ops;
      }
    }
    // A generator that fell behind its schedule offered a different load:
    // the run is invalid.
    const double late = percentile(late_ms_, 99.0);
    if (late > kMaxLateMs) {
      note_failure(ph, "open-loop generator ran " + std::to_string(late) +
                           " ms late at p99, above the " + std::to_string(kMaxLateMs) +
                           " ms bound");
    }
    ph.busy_s = seconds;
    last_ = ph;
    return ph;
  }

  [[nodiscard]] std::vector<Metric> extras() const override {
    return {{"offered_rate", kRate, "1/s", "Poisson arrivals, fixed"}};
  }

  void layers(const Trace& trace, LayerTable& table) const override {
    set_serve_layers(table, stats_before_, stats_after_, trace, "workload");
    table.set_counters(tally_, last_.ops, "workload");
    table.set("client.late_ms_p99", percentile(late_ms_, 99.0), "workload");
    table.set("serve.serial_jobs_per_s", serial_jobs_per_s_, "workload oracle replay");
  }

 private:
  static constexpr std::size_t kPoolJobs = 2048;
  std::uint64_t seed_;
  std::vector<serve::JobDesc> pool_;
  std::vector<double> expected_;
  std::unique_ptr<serve::ServeEngine> engine_;
  // Written by the client before it submits the run's first job and read
  // by completion callbacks only after that job was admitted.
  std::uint64_t base_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Clock::time_point> done_;
  std::vector<double> checksum_;
  std::vector<std::uint8_t> status_;
  std::vector<double> late_ms_;
  double serial_jobs_per_s_ = 0.0;
  serve::ServeStats stats_before_;
  serve::ServeStats stats_after_;
  DeviceTally tally_;
  Phase last_;
};

// ---------------------------------------------------------------------------
// study: every supported (platform, family, precision) ModelRunner::run at
// n = 256 with verification, then Jacobi solves on a ThreadsSpace.
// ---------------------------------------------------------------------------

class Study final : public Workload {
 public:
  explicit Study(std::uint64_t seed) : seed_(seed) {}

  double setup() override {
    configs_.clear();
    runners_.clear();
    space_.reset();
    const auto t0 = Clock::now();
    for (const auto p : portabench::perfmodel::kAllPlatforms) {
      for (const auto f : portabench::perfmodel::kAllFamilies) {
        if (auto r = models::make_runner(p, f)) runners_.push_back(std::move(r));
      }
    }
    space_ = std::make_unique<simrt::ThreadsSpace>(host_threads());
    const double s = seconds_between(t0, Clock::now());
    for (auto& r : runners_) {
      for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
        if (r->supports(p)) configs_.push_back({r.get(), p, std::nullopt});
      }
    }
    return s;
  }

  void prepare() override {
    // Warm-up: one call per runner at its cheapest supported precision,
    // which also brings up the shared launch engine, then one solve that
    // fixes the reference sweep count and field.
    for (auto& r : runners_) {
      models::RunConfig rc = run_config(r->supports(Precision::kSingle) ? Precision::kSingle
                                                                        : Precision::kDouble);
      (void)r->run(rc);
    }
    reference_solve_ = jacobi_solve(*space_, seed_, nullptr);
  }

  Phase run(double seconds, Trace* trace) override {
    Phase ph;
    sweep_s_.clear();
    kernel_s_.clear();
    solve_s_.clear();
    tally_ = {};
    wall_sum_ = 0.0;
    host_sum_ = 0.0;
    const auto caches_before = launch_cache_totals();
    while (ph.busy_s < seconds) {
      double sweep = 0.0;
      double kernel = 0.0;
      for (auto& cfg : configs_) {
        const models::RunConfig rc = run_config(cfg.precision);
        const auto t0 = Clock::now();
        const models::RunResult res = cfg.runner->run(rc);
        const double wall = seconds_between(t0, Clock::now());
        sweep += wall;
        kernel += res.host_seconds;
        wall_sum_ += wall;
        host_sum_ += res.host_seconds;
        ph.latency_ms.push_back(1e3 * wall);
        ++ph.ops;
        ++ph.attempted;
        tally_.add(res.gpu);
        if (trace != nullptr) {
          const bool gpu = portabench::perfmodel::is_gpu(cfg.runner->platform());
          trace->add(gpu ? Span::kGpuKernel : Span::kCpuKernel, 1e3 * res.host_seconds);
        }
        if (!cfg.checksum) cfg.checksum = res.checksum;
        if (!res.verified || !same_bits(res.checksum, *cfg.checksum)) {
          note_failure(ph, std::string(cfg.runner->name()) + " precision " +
                               std::string(portabench::name(cfg.precision)) +
                               (res.verified ? ": checksum changed between runs"
                                             : ": failed verification"));
        }
      }
      sweep_s_.push_back(sweep);
      kernel_s_.push_back(kernel);
      ph.busy_s += sweep;
      for (std::size_t k = 0; k < kSolvesPerSweep; ++k) {
        const auto t0 = Clock::now();
        const JacobiResult sol = jacobi_solve(*space_, seed_, trace);
        const double wall = seconds_between(t0, Clock::now());
        solve_s_.push_back(wall);
        ph.busy_s += wall;
        ph.latency_ms.push_back(1e3 * wall);
        ++ph.ops;
        ++ph.attempted;
        sweeps_ = sol.sweeps;
        if (sol.sweeps != reference_solve_.sweeps ||
            !same_bits(sol.interior_sum, reference_solve_.interior_sum)) {
          note_failure(ph, "Jacobi solve: " + std::to_string(sol.sweeps) + " sweeps vs " +
                               std::to_string(reference_solve_.sweeps) + " in the reference");
        }
      }
    }
    const auto caches_after = launch_cache_totals();
    tally_.cache_hits = caches_after.hits - caches_before.hits;
    tally_.cache_misses = caches_after.misses - caches_before.misses;
    ops_ = ph.ops;
    return ph;
  }

  [[nodiscard]] std::vector<Metric> extras() const override {
    return {{"sweep_s", median_of(sweep_s_), "s",
             "median verified runner sweep of " + std::to_string(configs_.size()) +
                 " calls, n=" + std::to_string(sweep_s_.size())},
            {"kernel_s", median_of(kernel_s_), "s", "sum of RunResult::host_seconds per sweep"},
            {"solve_s", median_of(solve_s_), "s",
             "median Jacobi solve, n=" + std::to_string(solve_s_.size())}};
  }

  void layers(const Trace& trace, LayerTable& table) const override {
    table.set("models.cpu_kernel_ms_p50", median_of(trace.samples(Span::kCpuKernel)),
              "workload");
    table.set("models.gpu_kernel_ms_p50", median_of(trace.samples(Span::kGpuKernel)),
              "workload");
    table.set("models.verify_share", 1.0 - host_sum_ / wall_sum_, "workload");
    set_stencil_layers(table, trace, sweeps_, "workload");
    table.set_counters(tally_, ops_, "workload");
  }

 private:
  static constexpr std::size_t kStudyN = 256;
  static constexpr std::size_t kSolvesPerSweep = 5;

  struct Config {
    models::ModelRunner* runner;
    Precision precision;
    std::optional<double> checksum;  ///< first result; later runs must repeat it
  };

  [[nodiscard]] static std::size_t host_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
  }

  [[nodiscard]] models::RunConfig run_config(Precision prec) const {
    models::RunConfig rc;
    rc.n = kStudyN;
    rc.precision = prec;
    rc.seed = seed_;
    rc.verify = true;
    rc.host_threads = host_threads();
    return rc;
  }

  /// Launch-cache counters of every GPU runner's device.
  [[nodiscard]] gpusim::LaunchCacheStats launch_cache_totals() const {
    gpusim::LaunchCacheStats total;
    for (const auto& r : runners_) {
      if (auto* gpu = dynamic_cast<models::detail::GpuRunnerBase*>(r.get())) {
        const auto s = gpu->device().launch_cache_stats();
        total.hits += s.hits;
        total.misses += s.misses;
      }
    }
    return total;
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<models::ModelRunner>> runners_;
  std::vector<Config> configs_;
  std::unique_ptr<simrt::ThreadsSpace> space_;
  JacobiResult reference_solve_;
  std::vector<double> sweep_s_;
  std::vector<double> kernel_s_;
  std::vector<double> solve_s_;
  double wall_sum_ = 0.0;
  double host_sum_ = 0.0;
  std::size_t sweeps_ = 0;
  DeviceTally tally_;
  std::uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------------
// node: crusher_node(4) running FP64 gemm_sharded and stencil_sharded.
// ---------------------------------------------------------------------------

class Node final : public Workload {
 public:
  static constexpr std::size_t kGemmN = 512;
  static constexpr std::size_t kGrid = 1024;
  static constexpr std::size_t kStencilIterations = 50;

  explicit Node(std::uint64_t seed) : seed_(seed) {}

  double setup() override {
    topo_.reset();
    const auto t0 = Clock::now();
    topo_ = std::make_unique<gpusim::DeviceTopology>(gpusim::TopologyConfig::crusher_node(4));
    return seconds_between(t0, Clock::now());
  }

  void prepare() override {
    make_gemm_inputs(seed_, kGemmN, a_, b_);
    c_.assign(kGemmN * kGemmN, 0.0);
    c_oracle_.assign(kGemmN * kGemmN, 0.0);
    multigpu::gemm_sharded_oracle<double>(view(a_), view(b_), out_view(c_oracle_));
    portabench::Xoshiro256 rng(seed_ ^ 0x5713C11ULL);
    grid0_.resize(kGrid * kGrid);
    portabench::fill_uniform(std::span<double>(grid0_), rng);
    grid_oracle_ = multigpu::stencil_iterated_oracle(grid0_, kGrid, kGrid, kStencilIterations);
    for (int i = 0; i < 2; ++i) {
      const Step s = step();
      if (!s.gemm_ok || !s.stencil_ok) {
        throw std::runtime_error("node warm-up output differs from its oracle");
      }
    }
  }

  Phase run(double seconds, Trace*) override {
    Phase ph;
    gemm_ms_.clear();
    stencil_ms_.clear();
    tally_.begin(*topo_);
    while (ph.busy_s < seconds) {
      const Step s = step();
      ph.attempted += 2;
      if (!s.gemm_ok) note_failure(ph, "gemm_sharded output differs from gemm_sharded_oracle");
      if (!s.stencil_ok) {
        note_failure(ph, "stencil_sharded output differs from stencil_iterated_oracle");
      }
      gemm_ms_.push_back(s.gemm_ms);
      stencil_ms_.push_back(s.stencil_ms);
      ph.latency_ms.push_back(s.gemm_ms + s.stencil_ms);
      ph.busy_s += 1e-3 * (s.gemm_ms + s.stencil_ms);
      ++ph.ops;
      modeled_s_ = s.modeled_s;
    }
    tally_.end(*topo_);
    ops_ = ph.ops;
    return ph;
  }

  [[nodiscard]] std::vector<Metric> extras() const override {
    const auto g = distribution(gemm_ms_);
    const auto s = distribution(stencil_ms_);
    return {{"gemm_call_ms", g.median, "ms", tail_note(g)},
            {"stencil_call_ms", s.median, "ms", tail_note(s)}};
  }

  void layers(const Trace&, LayerTable& table) const override {
    table.set("multigpu.modeled_ms", 1e3 * modeled_s_, "node step, simulated time");
    table.set("multigpu.max_device_block_share", tally_.max_device_block_share(), "node step");
    table.set_counters(tally_, ops_, "workload");
  }

 private:
  [[nodiscard]] static simrt::RawView2<const double> view(const std::vector<double>& v) {
    return {v.data(), kGemmN, kGemmN};
  }
  [[nodiscard]] static simrt::RawView2<double> out_view(std::vector<double>& v) {
    return {v.data(), kGemmN, kGemmN};
  }

  struct Step {
    double gemm_ms = 0.0;
    double stencil_ms = 0.0;
    double modeled_s = 0.0;
    bool gemm_ok = false;
    bool stencil_ok = false;
  };

  /// One gemm_sharded and one stencil_sharded call, each checked with
  /// memcmp against its oracle after the timed call returns.
  Step step() {
    Step s;
    std::fill(c_.begin(), c_.end(), -1.0);
    auto t0 = Clock::now();
    const auto gs = multigpu::gemm_sharded<double>(*topo_, view(a_), view(b_), out_view(c_));
    s.gemm_ms = ms_since(t0, Clock::now());
    s.gemm_ok = std::memcmp(c_.data(), c_oracle_.data(), c_.size() * sizeof(double)) == 0;

    grid_ = grid0_;
    multigpu::StencilShardOptions opt;
    opt.iterations = kStencilIterations;
    t0 = Clock::now();
    const auto ss = multigpu::stencil_sharded(*topo_, grid_, kGrid, kGrid, opt);
    s.stencil_ms = ms_since(t0, Clock::now());
    s.stencil_ok =
        std::memcmp(grid_.data(), grid_oracle_.data(), grid_.size() * sizeof(double)) == 0;
    s.modeled_s = gs.modeled_s + ss.modeled_s;
    return s;
  }

  std::uint64_t seed_;
  std::unique_ptr<gpusim::DeviceTopology> topo_;
  std::vector<double> a_, b_, c_, c_oracle_;
  std::vector<double> grid0_, grid_, grid_oracle_;
  std::vector<double> gemm_ms_, stencil_ms_;
  double modeled_s_ = 0.0;
  DeviceTally tally_;
  std::uint64_t ops_ = 0;
};

}  // namespace

JacobiResult jacobi_solve(const simrt::ThreadsSpace& space, std::uint64_t seed, Trace* trace) {
  constexpr std::size_t kSide = 128;
  constexpr double kTolerance = 1e-4;
  constexpr std::size_t kMaxSweeps = 100000;
  stencil::Grid2D grid(kSide, kSide);
  grid.set_hot_top(1.0);
  portabench::Xoshiro256 rng(seed ^ 0x1AC0B1ULL);
  for (std::size_t i = 1; i + 1 < kSide; ++i) {
    for (std::size_t j = 1; j + 1 < kSide; ++j) grid.front()(i, j) = 0.01 * rng.uniform();
  }
  JacobiResult r;
  if (trace == nullptr) {
    r.sweeps = stencil::solve_jacobi(space, grid, kTolerance, kMaxSweeps);
  } else {
    // solve_jacobi's loop, with each call timed.
    for (r.sweeps = 1; r.sweeps <= kMaxSweeps; ++r.sweeps) {
      {
        ScopedSpan span(trace, Span::kStencilSweep);
        stencil::sweep_simd(space, grid.front(), grid.back());
      }
      double residual = 0.0;
      {
        ScopedSpan span(trace, Span::kStencilResidual);
        residual = stencil::residual_max(space, grid.front(), grid.back());
      }
      grid.swap();
      if (residual < kTolerance) break;
    }
    r.sweeps = std::min(r.sweeps, kMaxSweeps);
  }
  r.interior_sum = grid.interior_sum();
  return r;
}

void make_gemm_inputs(std::uint64_t seed, std::size_t n, std::vector<double>& a,
                      std::vector<double>& b) {
  portabench::Xoshiro256 rng(seed ^ 0x6E44ULL);
  a.resize(n * n);
  b.resize(n * n);
  portabench::fill_uniform(std::span<double>(a), rng);
  portabench::fill_uniform(std::span<double>(b), rng);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"serve-gemm", "serve-mixed", "study", "node"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "serve-gemm") return std::make_unique<ServeGemm>(seed);
  if (name == "serve-mixed") return std::make_unique<ServeMixed>(seed);
  if (name == "study") return std::make_unique<Study>(seed);
  if (name == "node") return std::make_unique<Node>(seed);
  return nullptr;
}

}  // namespace perfbench
