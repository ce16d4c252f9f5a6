// Tests for the SpMV roofline model.
#include "spmv/model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "perfmodel/machine_model.hpp"

namespace portabench::spmv {
namespace {

TEST(SpmvModel, DeepInTheMemoryBoundRegime) {
  const auto cpu = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 1 << 20, 16 << 20);
  // ~2 flops per 16+ bytes: AI far below any ridge point.
  EXPECT_LT(cpu.arithmetic_intensity, 0.2);
  EXPECT_GT(cpu.gflops, 0.0);
  // Bandwidth-bound: gflops ~ AI * BW * eff, nowhere near peak.
  EXPECT_LT(cpu.gflops, 0.05 * perfmodel::CpuSpec::epyc_7a53().peak_gflops(Precision::kDouble));
}

TEST(SpmvModel, GpuBandwidthAdvantageCarriesOver) {
  const std::size_t rows = 1 << 20;
  const std::size_t nnz = 16 << 20;
  const auto cpu = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), rows, nnz);
  const auto gpu = predict_spmv_gpu(perfmodel::GpuSpec::mi250x_gcd(), rows, nnz);
  // HBM2e vs DDR4: roughly the bandwidth ratio (~8x), damped by the
  // lower GPU bandwidth efficiency on gathers.
  EXPECT_GT(gpu.gflops / cpu.gflops, 4.0);
  EXPECT_LT(gpu.gflops / cpu.gflops, 12.0);
}

TEST(SpmvModel, TrafficComposition) {
  const auto p = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 1000, 16000, 8, 8, 0.0);
  // values+indices of A: 16000*16; row ptr: 1000*8; y: 1000*8.
  EXPECT_DOUBLE_EQ(p.bytes, 16000.0 * 16 + 1000.0 * 8 + 1000.0 * 8);
  EXPECT_DOUBLE_EQ(p.flops, 32000.0);
}

TEST(SpmvModel, XGatherFractionMatters) {
  const auto cached = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 1 << 18, 1 << 22, 8,
                                       8, 0.0);
  const auto streamed = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 1 << 18, 1 << 22,
                                         8, 8, 1.0);
  EXPECT_GT(streamed.bytes, cached.bytes);
  EXPECT_LT(streamed.gflops, cached.gflops);
}

TEST(SpmvModel, IndexWidthMatters) {
  // 4-byte indices (the common production choice) cut traffic ~25%.
  const auto wide = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 1 << 18, 1 << 22, 8, 8);
  const auto narrow = predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 1 << 18, 1 << 22, 8, 4);
  EXPECT_GT(wide.bytes, narrow.bytes);
}

TEST(SpmvModel, PreconditionsEnforced) {
  EXPECT_THROW(predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 0, 10), precondition_error);
  EXPECT_THROW(predict_spmv_cpu(perfmodel::CpuSpec::epyc_7a53(), 10, 10, 8, 8, 2.0),
               precondition_error);
}

}  // namespace
}  // namespace portabench::spmv
