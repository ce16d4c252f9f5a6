// Invariant tests for the analytical machine models.
#include "perfmodel/machine_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace portabench::perfmodel {
namespace {

using simrt::BindPolicy;

class CpuModelTest : public ::testing::Test {
 protected:
  CpuMachineModel epyc_{CpuSpec::epyc_7a53()};
  CpuMachineModel altra_{CpuSpec::ampere_altra()};
};

TEST_F(CpuModelTest, TimesArePositiveAndDecomposed) {
  for (std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    const auto t = epyc_.reference_time(Precision::kDouble, n, 64, BindPolicy::kClose);
    EXPECT_GT(t.compute_s, 0.0);
    EXPECT_GT(t.memory_s, 0.0);
    EXPECT_GT(t.overhead_s, 0.0);
    EXPECT_GE(t.total_s, std::max(t.compute_s, t.memory_s));
    EXPECT_GT(t.gflops, 0.0);
  }
}

TEST_F(CpuModelTest, TimeGrowsWithProblemSize) {
  double prev = 0.0;
  for (std::size_t n = 1024; n <= 16384; n *= 2) {
    const double t = epyc_.reference_time(Precision::kDouble, n, 64, BindPolicy::kClose).total_s;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(CpuModelTest, GflopsBelowPeak) {
  for (std::size_t n : {1024u, 8192u}) {
    for (Precision prec : {Precision::kDouble, Precision::kSingle}) {
      const auto t = epyc_.reference_time(prec, n, 64, BindPolicy::kClose);
      EXPECT_LT(t.gflops, epyc_.spec().peak_gflops(prec));
    }
  }
}

TEST_F(CpuModelTest, SinglePrecisionFasterThanDouble) {
  for (std::size_t n : {2048u, 8192u}) {
    const double d = epyc_.reference_time(Precision::kDouble, n, 64, BindPolicy::kClose).gflops;
    const double s = epyc_.reference_time(Precision::kSingle, n, 64, BindPolicy::kClose).gflops;
    EXPECT_GT(s, d);
  }
}

TEST_F(CpuModelTest, MoreThreadsFaster) {
  const double t16 = epyc_.reference_time(Precision::kDouble, 8192, 16, BindPolicy::kClose).total_s;
  const double t64 = epyc_.reference_time(Precision::kDouble, 8192, 64, BindPolicy::kClose).total_s;
  EXPECT_LT(t64, t16);
}

TEST_F(CpuModelTest, UnpinnedSlowerOnMultiNumaOnly) {
  // EPYC (4 NUMA): no binding costs bandwidth.  Altra (1 NUMA): no effect.
  const double epyc_pinned =
      epyc_.reference_time(Precision::kDouble, 16384, 64, BindPolicy::kClose).total_s;
  const double epyc_unpinned =
      epyc_.reference_time(Precision::kDouble, 16384, 64, BindPolicy::kNone).total_s;
  EXPECT_GE(epyc_unpinned, epyc_pinned);

  const double altra_pinned =
      altra_.reference_time(Precision::kDouble, 16384, 80, BindPolicy::kClose).total_s;
  const double altra_unpinned =
      altra_.reference_time(Precision::kDouble, 16384, 80, BindPolicy::kNone).total_s;
  EXPECT_DOUBLE_EQ(altra_unpinned, altra_pinned);
}

TEST_F(CpuModelTest, TrafficIncludesCompulsoryMinimum) {
  for (std::size_t n : {512u, 4096u}) {
    const double traffic = epyc_.dram_traffic_bytes(Precision::kDouble, n, 64);
    const double compulsory = static_cast<double>(n) * n * (2.0 * 8 + 2.0 * 8);
    EXPECT_GE(traffic, compulsory);
  }
}

TEST_F(CpuModelTest, CachedRegimeHasNoRestream) {
  // B (2048^2 * 8 = 32 MB) fits Epyc's 256 MB L3: traffic == compulsory.
  const double traffic = epyc_.dram_traffic_bytes(Precision::kDouble, 2048, 64);
  const double compulsory = 2048.0 * 2048.0 * 32.0;
  EXPECT_DOUBLE_EQ(traffic, compulsory);
  // On Altra's 32 MB LLC the same problem re-streams.
  EXPECT_GT(altra_.dram_traffic_bytes(Precision::kDouble, 2048, 80), compulsory);
}

TEST_F(CpuModelTest, UtilizationFullWithAmpleRows) {
  EXPECT_DOUBLE_EQ(epyc_.utilization(4096, 64), 1.0);
  EXPECT_LT(epyc_.utilization(16, 64), 1.0);  // fewer rows than threads
  EXPECT_GT(epyc_.utilization(16, 64), 0.0);
}

TEST_F(CpuModelTest, InvalidArgsRejected) {
  EXPECT_THROW(epyc_.reference_time(Precision::kDouble, 0, 64, BindPolicy::kClose),
               precondition_error);
  EXPECT_THROW(epyc_.reference_time(Precision::kDouble, 128, 0, BindPolicy::kClose),
               precondition_error);
}

class GpuModelTest : public ::testing::Test {
 protected:
  GpuMachineModel a100_{GpuSpec::a100()};
  GpuMachineModel mi250x_{GpuSpec::mi250x_gcd()};
};

TEST_F(GpuModelTest, TimesPositiveAndBelowPeak) {
  for (std::size_t n : {4096u, 10240u, 20480u}) {
    for (Precision prec : {Precision::kDouble, Precision::kSingle}) {
      const auto t = a100_.reference_time(prec, n);
      EXPECT_GT(t.total_s, 0.0);
      EXPECT_LT(t.gflops, a100_.spec().peak_gflops(prec));
    }
  }
}

TEST_F(GpuModelTest, CudaFp32MuchFasterThanFp64) {
  // Fig. 7b: "the performance of the vendor-provided CUDA implementation
  // increases significantly" at FP32 (2x peak ratio on the A100).
  const double d = a100_.reference_time(Precision::kDouble, 16384).gflops;
  const double s = a100_.reference_time(Precision::kSingle, 16384).gflops;
  EXPECT_GT(s / d, 1.5);
}

TEST_F(GpuModelTest, HipFp32FasterThanFp64) {
  // Fig. 6b: "all models provide an increase in performance" at FP32.
  const double d = mi250x_.reference_time(Precision::kDouble, 16384).gflops;
  const double s = mi250x_.reference_time(Precision::kSingle, 16384).gflops;
  EXPECT_GT(s, d);
}

TEST_F(GpuModelTest, SmallGridsUnderfillDevice) {
  // A 64x64 problem with 32x32 blocks is 4 blocks on a 108-SM device:
  // GFLOPS must be far below the large-problem rate.
  const double small = a100_.reference_time(Precision::kDouble, 64).gflops;
  const double large = a100_.reference_time(Precision::kDouble, 8192).gflops;
  EXPECT_LT(small * 5.0, large);
}

TEST_F(GpuModelTest, TrafficScalesWithCubeOverTile) {
  const double t32 = a100_.dram_traffic_bytes(Precision::kDouble, 8192, 32);
  const double t16 = a100_.dram_traffic_bytes(Precision::kDouble, 8192, 16);
  // Smaller tiles read B more often: strictly more traffic.
  EXPECT_GT(t16, t32);
}

TEST_F(GpuModelTest, LaunchOverheadVisibleAtTinySizes) {
  const auto t = a100_.reference_time(Precision::kDouble, 32);
  EXPECT_GT(t.overhead_s, 0.0);
  EXPECT_GT(t.overhead_s / t.total_s, 0.01);  // not negligible at n=32
}

TEST_F(GpuModelTest, InvalidArgsRejected) {
  EXPECT_THROW(a100_.reference_time(Precision::kDouble, 0), precondition_error);
  EXPECT_THROW(a100_.dram_traffic_bytes(Precision::kDouble, 128, 0), precondition_error);
}

}  // namespace
}  // namespace portabench::perfmodel
