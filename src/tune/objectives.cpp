#include "objectives.hpp"

#include <memory>
#include <thread>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gemm/kernels_tiled.hpp"
#include "gpusim/engine.hpp"
#include "serve/engine.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "simrt/tunables.hpp"
#include "tuned.hpp"

namespace portabench::tune {

namespace {

std::size_t knob(const Config& cfg, const char* knob_name, std::size_t fallback) {
  const auto it = cfg.find(knob_name);
  if (it == cfg.end() || it->second < 1) return fallback;
  return static_cast<std::size_t>(it->second);
}

template <class T, class Acc>
Objective make_gemm_objective(std::size_t n) {
  struct State {
    explicit State(std::size_t size)
        : space(std::max<std::size_t>(2, std::thread::hardware_concurrency())),
          a(size * size),
          b(size * size),
          c(size * size),
          n(size) {}
    simrt::ThreadsSpace space;
    std::vector<T> a, b;
    std::vector<Acc> c;
    std::size_t n;
  };
  auto st = std::make_shared<State>(n);
  Xoshiro256 rng(42);
  for (std::size_t i = 0; i < n * n; ++i) {
    st->a[i] = static_cast<T>(rng.uniform() - 0.5);
    st->b[i] = static_cast<T>(rng.uniform() - 0.5);
  }
  return [st](const Config& cfg) -> double {
    const gemm::TileConfig tc = tile_config_of(cfg);
    std::fill(st->c.begin(), st->c.end(), Acc{});
    const simrt::RawView2<const T> A(st->a.data(), st->n, st->n);
    const simrt::RawView2<const T> B(st->b.data(), st->n, st->n);
    simrt::RawView2<Acc> C(st->c.data(), st->n, st->n);
    Timer timer;
    gemm::gemm_tiled<Acc>(st->space, A, B, C, tc);
    return timer.seconds() * 1e3;
  };
}

}  // namespace

Objective gemm_tile_objective(Precision p, std::size_t n) {
  switch (p) {
    case Precision::kDouble: return make_gemm_objective<double, double>(n);
    case Precision::kSingle: return make_gemm_objective<float, float>(n);
    case Precision::kHalfIn: return make_gemm_objective<half, float>(n);
  }
  return make_gemm_objective<double, double>(n);
}

Objective dispatch_objective(std::size_t extent) {
  struct State {
    explicit State(std::size_t size)
        : space(std::max<std::size_t>(2, std::thread::hardware_concurrency())),
          data(size, 1.0) {}
    simrt::ThreadsSpace space;
    std::vector<double> data;
  };
  auto st = std::make_shared<State>(extent);
  return [st, extent](const Config& cfg) -> double {
    const simrt::DispatchTunables prev = simrt::dispatch_tunables();
    simrt::DispatchTunables t = prev;
    t.fork_cutoff = knob(cfg, "fork_cutoff", prev.fork_cutoff);
    t.chunks_per_thread = knob(cfg, "chunks_per_thread", prev.chunks_per_thread);
    t.min_grain = knob(cfg, "min_grain", prev.min_grain);
    simrt::set_dispatch_tunables(t);

    double* const data = st->data.data();
    Timer timer;
    // Many small trivial regions: the fork-vs-inline decision IS the
    // cost here (same regime bench/micro_dispatch measures).  Writes are
    // per-index disjoint, so the result is schedule-invariant.
    constexpr int kStaticIters = 48;
    for (int it = 0; it < kStaticIters; ++it) {
      simrt::parallel_for(st->space, simrt::RangePolicy(0, extent),
                          [data](std::size_t i) {
                            data[i] = data[i] * 0.999999 + static_cast<double>(i & 7);
                          });
    }
    constexpr int kDynamicIters = 16;
    simrt::RangePolicy dynamic_policy(0, extent);
    dynamic_policy.schedule = simrt::Schedule::kDynamic;
    for (int it = 0; it < kDynamicIters; ++it) {
      simrt::parallel_for(st->space, dynamic_policy, [data](std::size_t i) {
        data[i] = data[i] * 0.999999 + 1.0;
      });
    }
    const double ms = timer.seconds() * 1e3;
    simrt::set_dispatch_tunables(prev);
    return ms;
  };
}

Objective launch_objective(std::size_t blocks, std::size_t block_threads) {
  struct State {
    explicit State(std::size_t nblocks) : sink(nblocks, 0.0) {}
    std::vector<double> sink;
  };
  auto st = std::make_shared<State>(blocks);
  return [st, blocks, block_threads](const Config& cfg) -> double {
    const simrt::DispatchTunables prev = simrt::dispatch_tunables();
    simrt::DispatchTunables t = prev;
    t.fork_cutoff = knob(cfg, "fork_cutoff", prev.fork_cutoff);
    t.chunks_per_thread = knob(cfg, "chunks_per_thread", prev.chunks_per_thread);
    simrt::set_dispatch_tunables(t);

    gpusim::LaunchEngine& engine = gpusim::LaunchEngine::shared();
    double* const sink = st->sink.data();
    Timer timer;
    constexpr int kIters = 24;
    for (int it = 0; it < kIters; ++it) {
      engine.run_blocks(blocks, blocks * block_threads,
                        [sink](std::size_t, std::size_t b) { sink[b] += 1.0; });
    }
    const double ms = timer.seconds() * 1e3;
    simrt::set_dispatch_tunables(prev);
    return ms;
  };
}

Objective serve_batch_objective(std::size_t jobs, std::uint32_t n) {
  return [jobs, n](const Config& cfg) -> double {
    serve::ServeConfig sc;
    sc.batch_jobs = knob(cfg, "batch_jobs", 32);
    sc.queue_capacity = jobs + 1;
    serve::ServeEngine engine(sc);
    Timer timer;
    for (std::size_t i = 0; i < jobs; ++i) {
      serve::JobDesc d;
      d.id = i;
      d.kind = serve::JobKind::kGemm;
      d.frontend = serve::Frontend::kTiled;
      d.precision = Precision::kDouble;
      d.n = n;
      d.seed = i * 2654435761u + 17;
      (void)engine.try_submit(d);
    }
    engine.drain();
    return timer.seconds() * 1e3;
  };
}

}  // namespace portabench::tune
