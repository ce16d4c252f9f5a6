#include "model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace portabench::stencil {

namespace {

StencilPrediction predict(double peak_gflops, double bw_gbs, double bw_eff,
                          std::size_t rows, std::size_t cols, double bytes_per_point) {
  PB_EXPECTS(rows >= 3 && cols >= 3);
  StencilPrediction p;
  const double points = static_cast<double>(rows - 2) * static_cast<double>(cols - 2);
  p.flops = 4.0 * points;  // 3 adds + 1 multiply
  p.bytes = bytes_per_point * points;
  p.arithmetic_intensity = p.flops / p.bytes;
  const double mem_s = p.bytes / (bw_gbs * 1.0e9 * bw_eff);
  const double compute_s = p.flops / (peak_gflops * 1.0e9);
  p.seconds = std::max(mem_s, compute_s);
  p.gflops = p.flops / p.seconds / 1.0e9;
  p.sweeps_per_second = 1.0 / p.seconds;
  return p;
}

}  // namespace

StencilPrediction predict_stencil_cpu(const perfmodel::CpuSpec& cpu, std::size_t rows,
                                      std::size_t cols) {
  // Rolling 3-row window fits every cache of interest: in read once,
  // out written once (streaming stores still read-for-ownership: 3x8).
  return predict(cpu.peak_gflops(Precision::kDouble), cpu.mem_bw_gbs, 0.80, rows, cols,
                 3.0 * 8.0);
}

StencilPrediction predict_stencil_gpu(const perfmodel::GpuSpec& gpu, std::size_t rows,
                                      std::size_t cols, bool tiled) {
  // Naive: each input cell is loaded by up to 4 neighbouring threads;
  // L2 catches about half of that on a 2-D block.  Tiled: shared memory
  // restores the ideal 2 transfers per point.
  const double bytes_per_point = tiled ? 2.0 * 8.0 : 3.2 * 8.0;
  return predict(gpu.peak_fp64_gflops, gpu.mem_bw_gbs, 0.80, rows, cols, bytes_per_point);
}

}  // namespace portabench::stencil
