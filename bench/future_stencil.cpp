// Future-work workload: 5-point Jacobi stencil.
//
// Completes the three-point roofline coverage (SpMV ~0.12, stencil ~0.25,
// GEMM >1 flop/byte): a structured-grid solver run through the same
// substrates as the study, with the naive-vs-tiled device ablation and
// the convergence behaviour a PDE user actually cares about.
#include <iostream>

#include "common/table.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernels.hpp"
#include "stencil/model.hpp"

int main() {
  using namespace portabench;
  using namespace portabench::stencil;

  std::cout << "=== Future-work workload: 5-point Jacobi (FP64) ===\n\n";

  // Functional study: the hot-plate problem to convergence.
  std::cout << "hot-plate convergence (tolerance 1e-6, host substrate):\n";
  Table conv({"grid", "sweeps to converge", "interior mean", "top/bottom gradient"});
  simrt::ThreadsSpace space(4);
  for (std::size_t n : {16u, 32u, 64u}) {
    Grid2D grid(n, n);
    grid.set_hot_top(1.0);
    const std::size_t sweeps = solve_jacobi(space, grid, 1e-6, 200000);
    const double mean =
        grid.interior_sum() / static_cast<double>((n - 2) * (n - 2));
    conv.add_row({std::to_string(n) + "x" + std::to_string(n), std::to_string(sweeps),
                  Table::num(mean, 4),
                  Table::num(grid.front()(1, n / 2) / grid.front()(n - 2, n / 2), 1)});
  }
  std::cout << conv.to_markdown();

  // Device equivalence: naive vs shared-memory tiled sweep.
  std::cout << "\ndevice sweep equivalence (64x96 grid): ";
  {
    gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
    constexpr std::size_t kRows = 64;
    constexpr std::size_t kCols = 96;
    std::vector<double> in(kRows * kCols);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<double>((i * 7919) % 997) / 997.0;
    }
    std::vector<double> naive = in;
    std::vector<double> tiled = in;
    sweep_gpu_naive(ctx, in.data(), naive.data(), kRows, kCols);
    sweep_gpu_tiled(ctx, in.data(), tiled.data(), kRows, kCols);
    bool same = true;
    for (std::size_t i = 0; i < in.size(); ++i) same = same && naive[i] == tiled[i];
    std::cout << (same ? "bitwise identical" : "MISMATCH") << "\n";
    if (!same) return 1;
  }

  // Modeled rates at production scale.
  std::cout << "\nmodeled sweep rates, 8192x8192 grid:\n";
  Table model({"platform", "AI (flop/byte)", "GFLOP/s", "sweeps/s", "note"});
  {
    const auto epyc = predict_stencil_cpu(perfmodel::CpuSpec::epyc_7a53(), 8192, 8192);
    model.add_row({"Crusher EPYC 7A53", Table::num(epyc.arithmetic_intensity, 3),
                   Table::num(epyc.gflops, 1), Table::num(epyc.sweeps_per_second, 1), "-"});
    const auto altra = predict_stencil_cpu(perfmodel::CpuSpec::ampere_altra(), 8192, 8192);
    model.add_row({"Wombat Ampere Altra", Table::num(altra.arithmetic_intensity, 3),
                   Table::num(altra.gflops, 1), Table::num(altra.sweeps_per_second, 1), "-"});
    for (bool tiled : {false, true}) {
      const auto a100 =
          predict_stencil_gpu(perfmodel::GpuSpec::a100(), 8192, 8192, tiled);
      model.add_row({"Wombat A100", Table::num(a100.arithmetic_intensity, 3),
                     Table::num(a100.gflops, 1), Table::num(a100.sweeps_per_second, 1),
                     tiled ? "shared-memory tiled" : "naive"});
    }
    const auto mi =
        predict_stencil_gpu(perfmodel::GpuSpec::mi250x_gcd(), 8192, 8192, true);
    model.add_row({"Crusher MI250X (GCD)", Table::num(mi.arithmetic_intensity, 3),
                   Table::num(mi.gflops, 1), Table::num(mi.sweeps_per_second, 1),
                   "shared-memory tiled"});
  }
  std::cout << model.to_markdown();
  std::cout << "\nTakeaway: at ~0.2-0.25 flop/byte the stencil sits between SpMV and\n"
               "GEMM on every roofline; shared-memory tiling buys the modeled ~1.6x\n"
               "on GPUs, and the tiled kernel is bitwise-equal to the naive one on\n"
               "the simulator — the cooperative-kernel machinery carries a real\n"
               "optimization, not just the paper's lower-bound kernels.\n";
  return 0;
}
