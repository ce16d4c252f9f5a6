// Future-work workload: sparse matrix-vector multiplication.
//
// Section VI: "Future work should continue to explore their use in more
// complex HPC workloads."  This bench runs the SpMV extension end to
// end: functional kernels per programming-model convention (CSR
// row-parallel for C/OpenMP/Kokkos/Numba, CSC columns for Julia, scalar
// and vector GPU kernels), cross-validated, profiled nvprof-style, with
// the memory-bound roofline model supplying the modeled rates — the
// opposite corner of the roofline from the paper's GEMM.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "gpusim/profiler.hpp"
#include "spmv/kernels.hpp"
#include "spmv/model.hpp"

int main() {
  using namespace portabench;
  using namespace portabench::spmv;

  std::cout << "=== Future-work workload: SpMV (FP64) ===\n\n";

  // Functional study at host-tractable size.
  constexpr std::size_t kRows = 2000;
  constexpr std::size_t kNnzPerRow = 16;
  const auto A = random_csr<double>(kRows, kRows, kNnzPerRow, 99);
  A.validate();
  std::vector<double> x(kRows);
  Xoshiro256 rng(100);
  fill_uniform(std::span<double>(x), rng);

  std::vector<double> reference(kRows);
  spmv_reference<double>(A, x, std::span<double>(reference));

  auto max_diff = [&](std::span<const double> y) {
    double worst = 0.0;
    for (std::size_t i = 0; i < kRows; ++i) {
      worst = std::max(worst, std::abs(y[i] - reference[i]));
    }
    return worst;
  };

  Table func({"kernel", "convention", "max error", "status"});
  {
    simrt::ThreadsSpace space(4);
    std::vector<double> y(kRows);
    spmv_csr_row_parallel<double>(space, A, x, std::span<double>(y));
    func.add_row({"row-parallel (C/OpenMP, Kokkos, Numba)", "CSR",
                  Table::num(max_diff(y), 14), max_diff(y) < 1e-10 ? "OK" : "FAILED"});

    const auto csc = csr_to_csc(A);
    std::vector<double> y2(kRows);
    spmv_csc_column_parallel<double>(space, csc, x, std::span<double>(y2));
    func.add_row({"column-parallel + privatized y (Julia)", "CSC",
                  Table::num(max_diff(y2), 14), max_diff(y2) < 1e-10 ? "OK" : "FAILED"});
  }

  gpusim::Profiler prof;
  {
    gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
    gpusim::DeviceBuffer<double> dx(ctx, kRows);
    gpusim::DeviceBuffer<double> dy(ctx, kRows);
    dx.copy_from_host(x);
    prof.record_transfer(gpusim::TransferRecord::Direction::kH2D, kRows * sizeof(double));

    spmv_gpu_scalar<double>(ctx, A, dx, dy);
    prof.record_launch("spmv_scalar(row/thread)", {gpusim::blocks_for(kRows, 128), 1, 1},
                       {128, 1, 1});
    std::vector<double> y(kRows);
    dy.copy_to_host(std::span<double>(y));
    prof.record_transfer(gpusim::TransferRecord::Direction::kD2H, kRows * sizeof(double));
    func.add_row({"GPU scalar (CUDA/Numba shape)", "CSR", Table::num(max_diff(y), 14),
                  max_diff(y) < 1e-10 ? "OK" : "FAILED"});

    spmv_gpu_vector<double>(ctx, A, dx, dy);
    prof.record_launch("spmv_vector(warp/row)", {kRows, 1, 1},
                       {ctx.spec().warp_size, 1, 1});
    dy.copy_to_host(std::span<double>(y));
    func.add_row({"GPU vector (warp per row)", "CSR", Table::num(max_diff(y), 14),
                  max_diff(y) < 1e-10 ? "OK" : "FAILED"});
  }
  std::cout << func.to_markdown();
  std::cout << "\n" << prof.report() << "\n";

  // Modeled rates at production scale.
  std::cout << "modeled SpMV rates, 1M rows x 64 nnz/row (memory-bound roofline):\n";
  Table model({"platform", "AI (flop/byte)", "modeled GFLOP/s", "% of FP64 peak"});
  const std::size_t rows = 1 << 20;
  const std::size_t nnz = rows * 64;
  {
    const auto epyc = perfmodel::CpuSpec::epyc_7a53();
    const auto p = predict_spmv_cpu(epyc, rows, nnz);
    model.add_row({"Crusher EPYC 7A53", Table::num(p.arithmetic_intensity, 3),
                   Table::num(p.gflops, 1),
                   Table::num(100.0 * p.gflops / epyc.peak_gflops(Precision::kDouble), 1)});
    const auto altra = perfmodel::CpuSpec::ampere_altra();
    const auto q = predict_spmv_cpu(altra, rows, nnz);
    model.add_row({"Wombat Ampere Altra", Table::num(q.arithmetic_intensity, 3),
                   Table::num(q.gflops, 1),
                   Table::num(100.0 * q.gflops / altra.peak_gflops(Precision::kDouble), 1)});
    const auto mi = perfmodel::GpuSpec::mi250x_gcd();
    const auto r = predict_spmv_gpu(mi, rows, nnz);
    model.add_row({"Crusher MI250X (GCD)", Table::num(r.arithmetic_intensity, 3),
                   Table::num(r.gflops, 1), Table::num(100.0 * r.gflops / mi.peak_fp64_gflops, 1)});
    const auto a100 = perfmodel::GpuSpec::a100();
    const auto s = predict_spmv_gpu(a100, rows, nnz);
    model.add_row({"Wombat A100", Table::num(s.arithmetic_intensity, 3),
                   Table::num(s.gflops, 1),
                   Table::num(100.0 * s.gflops / a100.peak_fp64_gflops, 1)});
  }
  std::cout << model.to_markdown();
  std::cout << "\nTakeaway: at ~0.1 flop/byte every platform runs at a few percent of\n"
               "peak — programming-model codegen differences (the GEMM story) fade\n"
               "and memory-system quality dominates, which is why portability\n"
               "studies need workloads from both ends of the roofline.\n";
  return 0;
}
