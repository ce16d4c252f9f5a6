// Layer probes of traced runs.
//
// Some per-layer metrics are single-layer measurements by definition (a
// launch, a stream round trip, a copy, a fork-join, the reference GEMM,
// the one-GCD GEMM).  The rest come from the workload's own calls; when
// a workload does not call a layer, a small fixed probe of that layer
// measures it instead, and the printed note says "probe".
#include <algorithm>
#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "gemm/kernels_tiled.hpp"
#include "gemm/reference.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/topology.hpp"
#include "models/runner.hpp"
#include "multigpu/gemm.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "simrt/reducers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gpusim = portabench::gpusim;
namespace gemm = portabench::gemm;
namespace models = portabench::models;
namespace multigpu = portabench::multigpu;
namespace simrt = portabench::simrt;
using portabench::Precision;

namespace {

/// Median milliseconds of `reps` timed calls after `warm` untimed ones.
template <class F>
double median_ms(std::size_t warm, std::size_t reps, F&& f) {
  for (std::size_t i = 0; i < warm; ++i) f();
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  return percentile(ms, 50.0);
}

[[nodiscard]] std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One gemm_tiled_batched launch on a flush-sized bucket (the default
/// serve batch of 32 FP64 GEMMs at n = 64) through the shared engine.
void probe_launch(LayerTable& table) {
  constexpr std::size_t kItems = 32;
  constexpr std::size_t kN = 64;
  std::vector<double> a(kItems * kN * kN);
  std::vector<double> b(a.size());
  std::vector<double> c(a.size());
  portabench::Xoshiro256 rng(0x1A0C4ULL);
  portabench::fill_uniform(std::span<double>(a), rng);
  portabench::fill_uniform(std::span<double>(b), rng);
  std::vector<gemm::GemmBatchItem<double, double>> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    items[i] = {a.data() + i * kN * kN, b.data() + i * kN * kN, c.data() + i * kN * kN, kN};
  }
  gpusim::LaunchEngine& engine = gpusim::LaunchEngine::shared();
  const double ms = median_ms(5, 50, [&] {
    gemm::gemm_tiled_batched<double, double>(
        engine, std::span<const gemm::GemmBatchItem<double, double>>(items));
  });
  table.set("gpusim.launch_ms_p50", ms, "probe: 32 x n=64 FP64 batch, shared engine");
  const double flops = static_cast<double>(kItems) * 2.0 * kN * kN * kN;
  table.set("gemm.tiled_gflops", flops / (1e-3 * ms) / 1e9,
            "computed from the sizes over gpusim.launch_ms_p50");
}

void probe_stream_and_copy(LayerTable& table) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  {
    gpusim::Stream stream(ctx, gpusim::StreamMode::kAsync);
    const double ms = median_ms(20, 500, [&] {
      stream.enqueue(0.0, [] {});
      stream.synchronize();
    });
    table.set("gpusim.stream_roundtrip_us_p50", 1e3 * ms, "probe: empty op on a kAsync stream");
  }
  constexpr std::size_t kElems = 256 * 256;  // one study-size FP64 matrix
  std::vector<double> host(kElems, 1.0);
  gpusim::DeviceBuffer<double> dev(ctx, kElems);
  const double ms =
      median_ms(5, 50, [&] { dev.copy_from_host(std::span<const double>(host)); });
  table.set("gpusim.copy_gbps", kElems * sizeof(double) / (1e-3 * ms) / 1e9,
            "probe: DeviceBuffer H2D of one 256 x 256 FP64 matrix");
}

void probe_simrt(LayerTable& table) {
  const simrt::ThreadsSpace space(host_threads());
  const double fork_ms = median_ms(20, 500, [&] {
    simrt::parallel_for(space, simrt::RangePolicy(0, 1 << 14), [](std::size_t) {});
  });
  table.set("simrt.fork_join_us_p50", 1e3 * fork_ms, "probe: empty parallel_for over 16384");
  std::vector<double> v(1 << 16, 0.5);
  double sum = 0.0;
  const double reduce_ms = median_ms(20, 500, [&] {
    simrt::parallel_reduce(
        space, simrt::RangePolicy(0, v.size()),
        [&](std::size_t i, double& acc) { acc += v[i]; }, sum);
  });
  table.set("simrt.reduce_us_p50", 1e3 * reduce_ms, "probe: sum of 65536 doubles");
}

void probe_reference(LayerTable& table) {
  constexpr std::size_t kN = 256;
  simrt::View2<double, simrt::LayoutLeft> a(kN, kN);
  simrt::View2<double, simrt::LayoutLeft> b(kN, kN);
  simrt::View2<double, simrt::LayoutLeft> c(kN, kN);
  portabench::Xoshiro256 rng(0x4EFULL);
  for (std::size_t j = 0; j < kN; ++j) {
    for (std::size_t i = 0; i < kN; ++i) {
      a(i, j) = rng.uniform();
      b(i, j) = rng.uniform();
    }
  }
  const double ms = median_ms(1, 3, [&] { gemm::reference_gemm<double>(a, b, c); });
  table.set("gemm.reference_ms_p50", ms, "probe: FP64 reference GEMM at the study's n = 256");
}

/// The node workload's GEMM on a one-GCD crusher topology: the base of
/// the 4-GCD scaling ratio.
void probe_one_gcd(std::uint64_t seed, LayerTable& table, std::vector<std::string>& errors) {
  constexpr std::size_t kN = 512;
  std::vector<double> a, b;
  make_gemm_inputs(seed, kN, a, b);
  std::vector<double> c(kN * kN), oracle(kN * kN);
  const simrt::RawView2<const double> A(a.data(), kN, kN);
  const simrt::RawView2<const double> B(b.data(), kN, kN);
  multigpu::gemm_sharded_oracle<double>(A, B, simrt::RawView2<double>(oracle.data(), kN, kN));
  gpusim::DeviceTopology topo(gpusim::TopologyConfig::crusher_node(1));
  bool identical = true;
  const double ms = median_ms(1, 5, [&] {
    (void)multigpu::gemm_sharded<double>(topo, A, B, simrt::RawView2<double>(c.data(), kN, kN));
    identical =
        identical && std::memcmp(c.data(), oracle.data(), c.size() * sizeof(double)) == 0;
  });
  if (!identical) errors.push_back("one-GCD gemm_sharded differs from gemm_sharded_oracle");
  table.set("multigpu.one_gcd_gemm_call_ms", ms, "probe: the node GEMM on crusher_node(1)");
}

void probe_serve(std::uint64_t seed, LayerTable& table, std::vector<std::string>& errors) {
  ServeWaves waves(seed, ServeWaves::kWaveJobs);
  waves.build_engine();
  const double serial = waves.compute_oracle();
  (void)waves.run(0.0, 4, nullptr);
  Trace trace;
  const Phase ph = waves.run(0.0, 8, &trace);
  for (const auto& e : ph.errors) errors.push_back("serve probe: " + e);
  // Device counters stay with the workload's own calls.
  LayerTable probe;
  waves.layers(ph, trace, probe, "probe: 8 serve-gemm waves");
  table.copy_from(probe, "serve.");
  table.set("serve.serial_jobs_per_s", serial, "probe: run_serial over one wave");
}

void probe_models(std::uint64_t seed, LayerTable& table, std::vector<std::string>& errors) {
  models::RunConfig rc;
  rc.n = 256;
  rc.seed = seed;
  rc.host_threads = host_threads();
  double wall = 0.0;
  double host = 0.0;
  const auto kernel_ms = [&](models::ModelRunner& r) {
    std::vector<double> ms;
    (void)r.run(rc);
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const models::RunResult res = r.run(rc);
      wall += seconds_between(t0, Clock::now());
      host += res.host_seconds;
      ms.push_back(1e3 * res.host_seconds);
      if (!res.verified) {
        errors.push_back("models probe: " + std::string(r.name()) + " unverified");
      }
    }
    return percentile(ms, 50.0);
  };
  const auto cpu = models::make_runner(models::Platform::kCrusherCpu, models::Family::kVendor);
  const auto gpu = models::make_runner(models::Platform::kWombatGpu, models::Family::kVendor);
  table.set("models.cpu_kernel_ms_p50", kernel_ms(*cpu), "probe: Crusher C/OpenMP FP64");
  table.set("models.gpu_kernel_ms_p50", kernel_ms(*gpu), "probe: Wombat CUDA FP64");
  table.set("models.verify_share", 1.0 - host / wall, "probe: the two runners above");
}

void probe_stencil(std::uint64_t seed, LayerTable& table) {
  const simrt::ThreadsSpace space(host_threads());
  Trace trace;
  const JacobiResult r = jacobi_solve(space, seed, &trace);
  set_stencil_layers(table, trace, r.sweeps, "probe: one study Jacobi solve");
}

/// One step of the node workload, for the multigpu metrics of workloads
/// that do not shard.
void probe_node(std::uint64_t seed, LayerTable& table, std::vector<std::string>& errors) {
  const std::unique_ptr<Workload> node = make_workload("node", seed);
  (void)node->setup();
  node->prepare();
  const Phase ph = node->run(1e-3, nullptr);
  for (const auto& e : ph.errors) errors.push_back("node probe: " + e);
  LayerTable probe;
  node->layers(Trace{}, probe);
  table.copy_from(probe, "multigpu.");
}

/// The open-loop pacer alone: 1000 arrivals at serve-mixed's rate with
/// nothing to submit, so the lateness is the host's wake-up jitter.
void probe_pacer(std::uint64_t seed, LayerTable& table) {
  const std::vector<double> arrival = poisson_schedule(seed, 1000.0, 1.0);
  std::vector<double> late;
  late.reserve(arrival.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (const double a : arrival) {
    late.push_back(1e3 * (seconds_between(start, wait_until(start, a)) - a));
  }
  table.set("client.late_ms_p99", percentile(late, 99.0), "probe: pacer with no load");
}

}  // namespace

void run_layer_probes(std::uint64_t seed, LayerTable& table, std::vector<std::string>& errors) {
  probe_launch(table);
  probe_stream_and_copy(table);
  probe_simrt(table);
  probe_reference(table);
  probe_one_gcd(seed, table, errors);
  if (!table.has("serve.submit_us_p50")) probe_serve(seed, table, errors);
  if (!table.has("models.cpu_kernel_ms_p50")) probe_models(seed, table, errors);
  if (!table.has("stencil.sweeps")) probe_stencil(seed, table);
  if (!table.has("multigpu.modeled_ms")) probe_node(seed, table, errors);
  if (!table.has("client.late_ms_p99")) probe_pacer(seed, table);
}

}  // namespace perfbench
