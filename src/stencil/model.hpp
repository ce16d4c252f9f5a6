// Stencil roofline: the middle of the arithmetic-intensity spectrum.
//
// A 5-point Jacobi sweep does 4 flops per point against ~2 doubles of
// streaming traffic (read in once — neighbours come from cache — write
// out once): AI ~ 0.25 flop/byte, between SpMV (~0.12) and cached GEMM
// (>1).  Completes the three-workload roofline coverage.
#pragma once

#include <cstddef>

#include "perfmodel/device_specs.hpp"

namespace portabench::stencil {

struct StencilPrediction {
  double flops = 0.0;
  double bytes = 0.0;
  double seconds = 0.0;
  double gflops = 0.0;
  double arithmetic_intensity = 0.0;
  double sweeps_per_second = 0.0;
};

/// Model one sweep over an rows x cols grid of FP64 values.
/// `cache_resident_rows` models the rolling window of `in` rows the cache
/// retains (3 rows needed for full reuse; below that, neighbours re-hit
/// DRAM).
[[nodiscard]] StencilPrediction predict_stencil_cpu(const perfmodel::CpuSpec& cpu,
                                                    std::size_t rows, std::size_t cols);

[[nodiscard]] StencilPrediction predict_stencil_gpu(const perfmodel::GpuSpec& gpu,
                                                    std::size_t rows, std::size_t cols,
                                                    bool tiled = false);

}  // namespace portabench::stencil
