// SpMV performance model: the memory-bound counterpart of the GEMM
// roofline.  SpMV moves ~(value + index) bytes per FMA with essentially
// no reuse of A, so every platform lands deep in the bandwidth-bound
// regime — a deliberately different roofline placement from GEMM that
// widens the reproduction's workload coverage.
#pragma once

#include <cstddef>

#include "perfmodel/device_specs.hpp"

namespace portabench::spmv {

struct SpmvPrediction {
  double bytes = 0.0;     ///< modeled DRAM traffic
  double flops = 0.0;     ///< 2 * nnz
  double seconds = 0.0;
  double gflops = 0.0;
  double arithmetic_intensity = 0.0;
};

/// Traffic model: A streams once (values + column indices + row pointers),
/// y writes once; x gathers cost `x_reuse` in (0, 1]: 1 = every gather
/// from DRAM, ->0 = x cache-resident.  The default assumes x fits in LLC
/// (the common case for nnz_per_row << rows).
[[nodiscard]] SpmvPrediction predict_spmv_cpu(const perfmodel::CpuSpec& cpu,
                                              std::size_t rows, std::size_t nnz,
                                              std::size_t value_bytes = 8,
                                              std::size_t index_bytes = 8,
                                              double x_dram_fraction = 0.05);

[[nodiscard]] SpmvPrediction predict_spmv_gpu(const perfmodel::GpuSpec& gpu,
                                              std::size_t rows, std::size_t nnz,
                                              std::size_t value_bytes = 8,
                                              std::size_t index_bytes = 8,
                                              double x_dram_fraction = 0.10);

}  // namespace portabench::spmv
