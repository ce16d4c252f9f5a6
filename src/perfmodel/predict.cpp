#include "predict.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace portabench::perfmodel {

std::vector<std::size_t> standard_sizes(Platform p) {
  std::vector<std::size_t> sizes;
  if (is_gpu(p)) {
    for (std::size_t n = 4096; n <= 20480; n += 1024) sizes.push_back(n);
  } else {
    for (std::size_t n = 1024; n <= 16384; n += 1024) sizes.push_back(n);
  }
  return sizes;
}

CpuMachineModel cpu_model_for(Platform p) {
  PB_EXPECTS(!is_gpu(p));
  if (p == Platform::kCrusherCpu) return CpuMachineModel(CpuSpec::epyc_7a53());
  return CpuMachineModel(CpuSpec::ampere_altra());
}

GpuMachineModel gpu_model_for(Platform p) {
  PB_EXPECTS(is_gpu(p));
  if (p == Platform::kCrusherGpu) return GpuMachineModel(GpuSpec::mi250x_gcd());
  return GpuMachineModel(GpuSpec::a100());
}

namespace {

/// Position of n within the standard sweep, in [0, 1].
double sweep_position(Platform p, std::size_t n) {
  const auto sizes = standard_sizes(p);
  const double lo = static_cast<double>(sizes.front());
  const double hi = static_cast<double>(sizes.back());
  return std::clamp((static_cast<double>(n) - lo) / (hi - lo), 0.0, 1.0);
}

/// Effective efficiency at size n: plateau value, linear sweep drift
/// (zero-mean), and the largest-size dip.
double efficiency_at(Platform p, const ModelTraits& t, std::size_t n) {
  const double pos = sweep_position(p, n);
  double eff = t.rel_eff * (1.0 + t.sweep_slope * (pos - 0.5));
  if (n >= standard_sizes(p).back()) eff *= t.largest_size_factor;
  return eff;
}

TimeBreakdown reference_breakdown(Platform p, Precision prec, std::size_t n) {
  if (is_gpu(p)) {
    return gpu_model_for(p).reference_time(prec, n);
  }
  const CpuMachineModel model = cpu_model_for(p);
  return model.reference_time(prec, n, model.spec().cores, simrt::BindPolicy::kClose);
}

}  // namespace

std::optional<Prediction> predict(Platform p, Family f, Precision prec, std::size_t n) {
  PB_EXPECTS(n > 0);
  const auto traits = traits_for(p, f, prec);
  if (!traits) return std::nullopt;

  // FP16: no vendor reference exists; anchor to the family's own FP32
  // curve and apply the calibrated FP16-vs-FP32 factor (Section IV).
  if (prec == Precision::kHalfIn) {
    auto fp32 = predict(p, f, Precision::kSingle, n);
    if (!fp32) return std::nullopt;
    Prediction out = *fp32;
    out.gflops = fp32->gflops * fp16_vs_fp32_factor(p, f);
    out.ref_gflops = fp32->ref_gflops;
    out.efficiency = out.gflops / out.ref_gflops;
    out.reference = reference_breakdown(p, Precision::kHalfIn, n);
    return out;
  }

  Prediction out;
  out.reference = reference_breakdown(p, prec, n);
  out.ref_gflops = out.reference.gflops;

  const double eff = efficiency_at(p, *traits, n);
  const double flops = gemm_flops(n, n, n);
  const double ref_time = out.reference.total_s;
  // Model time: reference scaled by efficiency plus the model's fixed
  // dispatch overhead.
  const double model_time = ref_time / eff + traits->overhead_us * 1.0e-6;
  out.gflops = gflops(flops, model_time);
  out.efficiency = out.gflops / out.ref_gflops;
  return out;
}

std::vector<Prediction> predict_sweep(Platform p, Family f, Precision prec) {
  std::vector<Prediction> out;
  for (std::size_t n : standard_sizes(p)) {
    auto pt = predict(p, f, prec, n);
    if (!pt) return {};
    out.push_back(*pt);
  }
  return out;
}

}  // namespace portabench::perfmodel
