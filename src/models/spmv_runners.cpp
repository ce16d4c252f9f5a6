#include "spmv_runners.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/timer.hpp"
#include "perfmodel/predict.hpp"
#include "spmv/kernels.hpp"
#include "spmv/model.hpp"

namespace portabench::models {

namespace {

using spmv::CsrMatrix;

double vendor_spmv_gflops(Platform p, std::size_t rows, std::size_t nnz) {
  if (perfmodel::is_gpu(p)) {
    return spmv::predict_spmv_gpu(perfmodel::gpu_model_for(p).spec(), rows, nnz).gflops;
  }
  return spmv::predict_spmv_cpu(perfmodel::cpu_model_for(p).spec(), rows, nnz).gflops;
}

/// Shared run logic: build the matrix, execute via `execute`, verify.
template <class Execute>
SpmvRunResult run_spmv(Platform platform, Family family, const SpmvRunConfig& config,
                       Execute&& execute) {
  PB_EXPECTS(config.rows > 0 && config.nnz_per_row > 0);
  const auto A = spmv::random_csr<double>(config.rows, config.rows, config.nnz_per_row,
                                          config.seed);
  std::vector<double> x(config.rows);
  Xoshiro256 rng(config.seed + 1);
  fill_uniform(std::span<double>(x), rng);
  std::vector<double> y(config.rows, -1.0);

  SpmvRunResult result;
  Timer timer;
  execute(A, std::span<const double>(x), std::span<double>(y), result);
  result.host_seconds = timer.seconds();
  for (double v : y) result.checksum += v;

  if (config.verify) {
    std::vector<double> reference(config.rows);
    spmv::spmv_reference<double>(A, std::span<const double>(x),
                                 std::span<double>(reference));
    double worst = 0.0;
    for (std::size_t i = 0; i < config.rows; ++i) {
      worst = std::max(worst, std::abs(y[i] - reference[i]));
    }
    result.max_error = worst;
    result.verified = worst <= 1e-12 * static_cast<double>(config.rows);
  }

  result.model_gflops = vendor_spmv_gflops(platform, A.rows, A.nnz()) *
                        SpmvRunner::family_bandwidth_factor(family);
  return result;
}

/// Host frontends: CSR row-parallel (vendor/Kokkos/Numba) or CSC
/// column-parallel (Julia).
class CpuSpmvRunner final : public SpmvRunner {
 public:
  CpuSpmvRunner(Platform platform, Family family) : platform_(platform), family_(family) {}
  [[nodiscard]] Family family() const noexcept override { return family_; }
  [[nodiscard]] Platform platform() const noexcept override { return platform_; }

  SpmvRunResult run(const SpmvRunConfig& config) override {
    return run_spmv(platform_, family_, config,
                    [&](const CsrMatrix<double>& A, std::span<const double> x,
                        std::span<double> y, SpmvRunResult&) {
                      simrt::ThreadsSpace space(config.host_threads);
                      if (family_ == Family::kJulia) {
                        const auto csc = spmv::csr_to_csc(A);
                        spmv::spmv_csc_column_parallel<double>(space, csc, x, y);
                      } else {
                        spmv::spmv_csr_row_parallel<double>(space, A, x, y);
                      }
                    });
  }

 private:
  Platform platform_;
  Family family_;
};

/// Device frontends: scalar kernel (vendor/Numba) or warp-per-row vector
/// kernel (Julia/Kokkos).
class GpuSpmvRunner final : public SpmvRunner {
 public:
  GpuSpmvRunner(Platform platform, Family family)
      : device_(perfmodel::gpu_model_for(platform).spec()),
        platform_(platform),
        family_(family) {}
  [[nodiscard]] Family family() const noexcept override { return family_; }
  [[nodiscard]] Platform platform() const noexcept override { return platform_; }

  SpmvRunResult run(const SpmvRunConfig& config) override {
    device_.reset_counters();
    auto result = run_spmv(
        platform_, family_, config,
        [&](const CsrMatrix<double>& A, std::span<const double> x, std::span<double> y,
            SpmvRunResult&) {
          gpusim::DeviceBuffer<double> dx(device_, A.cols);
          gpusim::DeviceBuffer<double> dy(device_, A.rows);
          std::vector<double> hx(x.begin(), x.end());
          dx.copy_from_host(hx);
          if (family_ == Family::kJulia || family_ == Family::kKokkos) {
            spmv::spmv_gpu_vector<double>(device_, A, dx, dy);
          } else {
            spmv::spmv_gpu_scalar<double>(device_, A, dx, dy);
          }
          dy.copy_to_host(y);
        });
    result.gpu = device_.counters();
    return result;
  }

 private:
  gpusim::DeviceContext device_;
  Platform platform_;
  Family family_;
};

}  // namespace

double SpmvRunner::family_bandwidth_factor(Family f) {
  switch (f) {
    case Family::kVendor: return 1.00;
    case Family::kKokkos: return 0.97;  // dispatch overhead only
    case Family::kJulia: return 0.95;   // CSC transpose-access pattern
    case Family::kNumba: return 0.80;   // checked gathers + residual interpreter cost
  }
  return 0.0;
}

std::unique_ptr<SpmvRunner> make_spmv_runner(Platform p, Family f) {
  if (f == Family::kNumba && p == Platform::kCrusherGpu) return nullptr;
  if (perfmodel::is_gpu(p)) return std::make_unique<GpuSpmvRunner>(p, f);
  return std::make_unique<CpuSpmvRunner>(p, f);
}

}  // namespace portabench::models
