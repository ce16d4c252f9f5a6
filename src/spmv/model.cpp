#include "model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace portabench::spmv {

namespace {

SpmvPrediction predict(double peak_gflops, double bw_gbs, double kernel_bw_eff,
                       std::size_t rows, std::size_t nnz, std::size_t value_bytes,
                       std::size_t index_bytes, double x_dram_fraction) {
  PB_EXPECTS(rows > 0 && nnz > 0);
  PB_EXPECTS(x_dram_fraction >= 0.0 && x_dram_fraction <= 1.0);
  SpmvPrediction p;
  const double dnnz = static_cast<double>(nnz);
  const double drows = static_cast<double>(rows);
  p.flops = 2.0 * dnnz;
  p.bytes = dnnz * static_cast<double>(value_bytes + index_bytes)  // A values + col idx
            + drows * static_cast<double>(index_bytes)             // row pointers
            + drows * static_cast<double>(value_bytes)             // y write
            + dnnz * static_cast<double>(value_bytes) * x_dram_fraction;  // x gathers
  p.arithmetic_intensity = p.flops / p.bytes;

  const double mem_s = p.bytes / (bw_gbs * 1.0e9 * kernel_bw_eff);
  const double compute_s = p.flops / (peak_gflops * 1.0e9);
  p.seconds = std::max(mem_s, compute_s);
  p.gflops = p.flops / p.seconds / 1.0e9;
  return p;
}

}  // namespace

SpmvPrediction predict_spmv_cpu(const perfmodel::CpuSpec& cpu, std::size_t rows,
                                std::size_t nnz, std::size_t value_bytes,
                                std::size_t index_bytes, double x_dram_fraction) {
  return predict(cpu.peak_gflops(Precision::kDouble), cpu.mem_bw_gbs, 0.80, rows, nnz,
                 value_bytes, index_bytes, x_dram_fraction);
}

SpmvPrediction predict_spmv_gpu(const perfmodel::GpuSpec& gpu, std::size_t rows,
                                std::size_t nnz, std::size_t value_bytes,
                                std::size_t index_bytes, double x_dram_fraction) {
  return predict(gpu.peak_fp64_gflops, gpu.mem_bw_gbs, 0.70, rows, nnz, value_bytes,
                 index_bytes, x_dram_fraction);
}

}  // namespace portabench::spmv
