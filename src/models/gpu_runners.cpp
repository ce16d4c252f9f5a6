#include "gpu_runners.hpp"

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"
#include "perfmodel/predict.hpp"
#include "portacheck/portacheck.hpp"
#include "simrt/mdarray.hpp"

namespace portabench::models {

namespace detail {

GpuRunnerBase::GpuRunnerBase(Platform platform)
    : device_(perfmodel::gpu_model_for(platform).spec()), platform_(platform) {
  PB_EXPECTS(perfmodel::is_gpu(platform));
}

RunResult GpuRunnerBase::run(const RunConfig& config) {
  PB_EXPECTS(config.n > 0);
  PB_EXPECTS(supports(config.precision));

  RunResult result;
  if (!jit_warmed_) {
    result.jit_seconds = jit_cost_s();
    jit_warmed_ = true;
  }

  device_.reset_counters();
  execute(config, config.precision, result);
  result.gpu = device_.counters();

  if (auto pred = perfmodel::predict(platform(), family(), config.precision, config.n)) {
    result.model_gflops = pred->gflops * model_rate_factor();
  }
  return result;
}

namespace {

/// Host-side preparation + device round trip + verification for a GPU
/// GEMM.  `column_major` selects the Julia storage convention; `kernel`
/// has signature kernel(ctx, cfg, dA, dB, dC, m, n, k).
template <class T, class Acc, class Kernel>
void run_gpu_gemm(gpusim::DeviceContext& device, const gemm::GpuLaunchConfig& cfg,
                  const RunConfig& config, bool column_major, bool fill_ones,
                  Kernel&& kernel, RunResult& result) {
  const std::size_t n = config.n;
  const std::size_t elems = n * n;

  // Host matrices in the model's layout (linearized).
  std::vector<T> hA(elems);
  std::vector<T> hB(elems);
  std::vector<Acc> hC(elems, Acc{});

  Xoshiro256 rng(config.seed);
  if (fill_ones) {
    fill_constant(std::span<T>(hA), T(1.0f));
    fill_constant(std::span<T>(hB), T(1.0f));
  } else {
    fill_uniform(std::span<T>(hA), rng);
    fill_uniform(std::span<T>(hB), rng);
  }

  gpusim::DeviceBuffer<T> dA(device, elems);
  gpusim::DeviceBuffer<T> dB(device, elems);
  gpusim::DeviceBuffer<Acc> dC(device, elems);

  Timer timer;
  dA.copy_from_host(hA);
  dB.copy_from_host(hB);
  if (portacheck::active()) {
    // Sanitized run: device accesses go through shadow buffers so the
    // launch's SIMT lanes are race- and bounds-checked.
    portacheck::ShadowDeviceBuffer<T> sA(dA, "dA");
    portacheck::ShadowDeviceBuffer<T> sB(dB, "dB");
    portacheck::ShadowDeviceBuffer<Acc> sC(dC, "dC");
    kernel(device, cfg, sA, sB, sC, n, n, n);
  } else {
    kernel(device, cfg, dA, dB, dC, n, n, n);
  }
  dC.copy_to_host(std::span<Acc>(hC));
  result.host_seconds = timer.seconds();
  result.checksum = gemm::checksum(std::span<const Acc>(hC));

  if (config.verify) {
    // Reference GEMM on the same flat inputs, viewed in the kernel's own
    // layout; C_ref shares hC's layout, so the buffers compare flat.
    std::vector<Acc> C_ref(elems, Acc{});
    auto reference_in = [&]<class Layout>(Layout) {
      gemm::reference_gemm<Acc>(simrt::RawView2<const T, Layout>(hA.data(), n, n),
                                simrt::RawView2<const T, Layout>(hB.data(), n, n),
                                simrt::RawView2<Acc, Layout>(C_ref.data(), n, n));
    };
    if (column_major) {
      reference_in(simrt::LayoutLeft{});
    } else {
      reference_in(simrt::LayoutRight{});
    }
    result.max_error =
        gemm::max_abs_diff(std::span<const Acc>(hC), std::span<const Acc>(C_ref));
    result.tolerance = gemm::gemm_tolerance(config.precision, n);
    result.verified = result.max_error <= result.tolerance;
  }
}

/// Precision dispatch shared by the GPU frontends.
template <class Body>
void dispatch_gpu_precision(Precision prec, Body&& body) {
  switch (prec) {
    case Precision::kDouble: body.template operator()<double, double>(); break;
    case Precision::kSingle: body.template operator()<float, float>(); break;
    case Precision::kHalfIn: body.template operator()<half, float>(); break;
  }
}

}  // namespace

}  // namespace detail

void VendorGpuRunner::execute(const RunConfig& config, Precision prec, RunResult& result) {
  detail::dispatch_gpu_precision(prec, [&]<class T, class Acc>() {
    detail::run_gpu_gemm<T, Acc>(
        device_, launch_config(), config, /*column_major=*/false, /*fill_ones=*/false,
        [](auto& ctx, const auto& cfg, const auto& dA, const auto& dB, auto& dC,
           std::size_t m, std::size_t n, std::size_t k) {
          gemm::gemm_cuda_style<Acc>(ctx, cfg, dA, dB, dC, m, n, k);
        },
        result);
  });
}

void KokkosGpuRunner::execute(const RunConfig& config, Precision prec, RunResult& result) {
  detail::dispatch_gpu_precision(prec, [&]<class T, class Acc>() {
    detail::run_gpu_gemm<T, Acc>(
        device_, launch_config(), config, /*column_major=*/false, /*fill_ones=*/false,
        [](auto& ctx, const auto& cfg, const auto& dA, const auto& dB, auto& dC,
           std::size_t m, std::size_t n, std::size_t k) {
          // Kokkos' MDRange lowering: first index on the fast thread
          // dimension (transposed vs Fig. 3a) with a template-chosen flat
          // block — the coalescing penalty the A100 numbers reflect.
          gemm::gemm_kokkos_gpu_style<Acc>(ctx, cfg, dA, dB, dC, m, n, k);
        },
        result);
  });
}

void JuliaGpuRunner::execute(const RunConfig& config, Precision prec, RunResult& result) {
  detail::dispatch_gpu_precision(prec, [&]<class T, class Acc>() {
    detail::run_gpu_gemm<T, Acc>(
        device_, launch_config(), config, /*column_major=*/true, /*fill_ones=*/false,
        [](auto& ctx, const auto& cfg, const auto& dA, const auto& dB, auto& dC,
           std::size_t m, std::size_t n, std::size_t k) {
          gemm::gemm_julia_gpu_style<Acc>(ctx, cfg, dA, dB, dC, m, n, k);
        },
        result);
  });
}

void KernelAbstractionsRunner::execute(const RunConfig& config, Precision prec,
                                       RunResult& result) {
  // KernelAbstractions lowers to the same vendor back end kernels as
  // CUDA.jl/AMDGPU.jl (column-major device arrays, @index(Global) thread
  // mapping), so the functional path is identical; the modeled rate pays
  // the abstraction's dispatch cost.
  detail::dispatch_gpu_precision(prec, [&]<class T, class Acc>() {
    detail::run_gpu_gemm<T, Acc>(
        device_, launch_config(), config, /*column_major=*/true, /*fill_ones=*/false,
        [](auto& ctx, const auto& cfg, const auto& dA, const auto& dB, auto& dC,
           std::size_t m, std::size_t n, std::size_t k) {
          gemm::gemm_julia_gpu_style<Acc>(ctx, cfg, dA, dB, dC, m, n, k);
        },
        result);
  });
}

void NumbaGpuRunner::execute(const RunConfig& config, Precision prec, RunResult& result) {
  const bool ones = prec == Precision::kHalfIn;  // numpy Float16 RNG gap
  detail::dispatch_gpu_precision(prec, [&]<class T, class Acc>() {
    detail::run_gpu_gemm<T, Acc>(
        device_, launch_config(), config, /*column_major=*/false, ones,
        [](auto& ctx, const auto& cfg, const auto& dA, const auto& dB, auto& dC,
           std::size_t m, std::size_t n, std::size_t k) {
          gemm::gemm_numba_cuda_style<Acc>(ctx, cfg, dA, dB, dC, m, n, k);
        },
        result);
  });
}

}  // namespace portabench::models
