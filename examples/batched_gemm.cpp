// Batched GEMM mini-app: the "more complex HPC workload" direction the
// paper's conclusion points at, built entirely from the library's public
// API.
//
// A batch of small matrices (the deep-learning / block-sparse shape GEMM
// dominates in practice) is multiplied three ways:
//   1. host, Julia-convention rank-3 views (A[:, :, b]) with the Fig. 2c
//      kernel per slice;
//   2. host, hierarchical TeamPolicy kernel (one team per output row);
//   3. device, per-batch kernels pipelined over a stream with modeled
//      H2D/compute/D2H overlap (the Section II transfer-overlap theme).
// All three validate against the blocked reference, and the overlap
// schedule's modeled makespan is compared against the serial schedule.
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "gemm/kernels_cpu.hpp"
#include "gemm/kernels_gpu.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"
#include "gpusim/stream.hpp"
#include "perfmodel/interconnect.hpp"
#include "simrt/view3.hpp"

int main() {
  using namespace portabench;
  using simrt::LayoutLeft;
  using simrt::View2;
  using simrt::View3;

  constexpr std::size_t kBatch = 12;
  constexpr std::size_t kN = 48;
  std::cout << "batched GEMM: " << kBatch << " batches of " << kN << "x" << kN
            << " (FP64)\n\n";

  // Julia convention: batch along the last axis of a rank-3 array.
  View3<double, LayoutLeft> A(kN, kN, kBatch);
  View3<double, LayoutLeft> B(kN, kN, kBatch);
  View3<double, LayoutLeft> C_slice(kN, kN, kBatch);
  View3<double, LayoutLeft> C_team(kN, kN, kBatch);
  Xoshiro256 rng(777);
  fill_uniform(std::span<double>(A.data(), A.size()), rng);
  fill_uniform(std::span<double>(B.data(), B.size()), rng);

  simrt::ThreadsSpace space(4);

  // 1. Per-slice Julia-style kernels over rank-3 slices.
  for (std::size_t b = 0; b < kBatch; ++b) {
    auto Ab = A.slice(b);
    auto Bb = B.slice(b);
    auto Cb = C_slice.slice(b);
    gemm::gemm_julia_style<double>(space, Ab, Bb, Cb);
  }

  // 2. Hierarchical team kernel per slice.
  for (std::size_t b = 0; b < kBatch; ++b) {
    auto Ab = A.slice(b);
    auto Bb = B.slice(b);
    auto Cb = C_team.slice(b);
    gemm::gemm_team_style<double>(space, Ab, Bb, Cb);
  }

  // Validate both against the reference.
  double worst_slice = 0.0;
  double worst_team = 0.0;
  for (std::size_t b = 0; b < kBatch; ++b) {
    auto Ab = A.slice(b);
    auto Bb = B.slice(b);
    View2<double, LayoutLeft> C_ref(kN, kN);
    gemm::reference_gemm<double>(Ab, Bb, C_ref);
    auto Cs = C_slice.slice(b);
    auto Ct = C_team.slice(b);
    worst_slice = std::max(worst_slice, gemm::max_abs_diff(Cs, C_ref));
    worst_team = std::max(worst_team, gemm::max_abs_diff(Ct, C_ref));
  }
  const double tol = gemm::gemm_tolerance(Precision::kDouble, kN);
  std::cout << "host slice kernel  max error " << worst_slice << (worst_slice <= tol ? "  OK" : "  FAILED")
            << "\nhost team kernel   max error " << worst_team << (worst_team <= tol ? "  OK" : "  FAILED")
            << "\n\n";

  // 3. Device path: per-batch kernel launches pipelined on a stream.
  const auto gcd = gpusim::GpuSpec::mi250x_gcd();
  gpusim::DeviceContext ctx(gcd);
  const perfmodel::GpuMachineModel machine(gcd);
  const auto link = perfmodel::Link::infinity_fabric();
  const auto e2e = perfmodel::end_to_end_gemm(machine, link, Precision::kDouble, kN, kBatch);

  // Functional run of every batch on the simulator, verifying one slice.
  bool device_ok = true;
  for (std::size_t b = 0; b < kBatch; ++b) {
    std::vector<double> hA(kN * kN);
    std::vector<double> hB(kN * kN);
    auto Ab = A.slice(b);
    auto Bb = B.slice(b);
    for (std::size_t j = 0; j < kN; ++j) {
      for (std::size_t i = 0; i < kN; ++i) {
        hA[i + j * kN] = Ab(i, j);
        hB[i + j * kN] = Bb(i, j);
      }
    }
    gpusim::DeviceBuffer<double> dA(ctx, kN * kN);
    gpusim::DeviceBuffer<double> dB(ctx, kN * kN);
    gpusim::DeviceBuffer<double> dC(ctx, kN * kN);
    dA.copy_from_host(hA);
    dB.copy_from_host(hB);
    gemm::gemm_julia_gpu_style<double>(ctx, gemm::GpuLaunchConfig{}, dA, dB, dC, kN, kN, kN);
    std::vector<double> hC(kN * kN);
    dC.copy_to_host(std::span<double>(hC));
    auto Cs = C_slice.slice(b);
    for (std::size_t j = 0; j < kN && device_ok; ++j) {
      for (std::size_t i = 0; i < kN; ++i) {
        if (std::abs(hC[i + j * kN] - Cs(i, j)) > tol) device_ok = false;
      }
    }
  }
  std::cout << "device batch       " << (device_ok ? "all batches match host  OK" : "MISMATCH")
            << "\n";
  std::cout << "device counters: " << ctx.counters().kernel_launches << " launches, "
            << ctx.counters().bytes_h2d / 1024 << " KiB H2D\n\n";

  Table t({"schedule", "modeled makespan (ms)"});
  t.add_row({"serial (H2D; kernel; D2H per batch)", Table::num(e2e.serial_s * 1e3, 3)});
  t.add_row({"double-buffered pipeline", Table::num(e2e.overlapped_s * 1e3, 3)});
  std::cout << t.to_markdown();
  std::cout << "\npipeline speedup: " << Table::num(e2e.serial_s / e2e.overlapped_s, 2)
            << "x — small batched problems are transfer-bound, exactly where\n"
               "stream overlap (and the high-level models' access to it) matters.\n";

  return (worst_slice <= tol && worst_team <= tol && device_ok) ? 0 : 1;
}
