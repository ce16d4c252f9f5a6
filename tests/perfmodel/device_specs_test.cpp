// Tests for the device specifications of Tables I/II.
#include "perfmodel/device_specs.hpp"

#include <gtest/gtest.h>

namespace portabench::perfmodel {
namespace {

TEST(CpuSpecs, EpycTopologyMatchesTable1) {
  const CpuSpec s = CpuSpec::epyc_7a53();
  EXPECT_EQ(s.cores, 64u);
  EXPECT_EQ(s.numa_domains, 4u);
  EXPECT_EQ(s.topology().cores_per_domain(), 16u);
  EXPECT_FALSE(s.native_fp16);
}

TEST(CpuSpecs, AltraTopologyMatchesTable1) {
  const CpuSpec s = CpuSpec::ampere_altra();
  EXPECT_EQ(s.cores, 80u);
  EXPECT_EQ(s.numa_domains, 1u);
  EXPECT_TRUE(s.native_fp16);  // Armv8.2 FP16
}

TEST(CpuSpecs, FlopsPerCycleDoublesAtSingle) {
  for (const CpuSpec& s : {CpuSpec::epyc_7a53(), CpuSpec::ampere_altra()}) {
    EXPECT_DOUBLE_EQ(s.flops_per_cycle(Precision::kSingle),
                     2.0 * s.flops_per_cycle(Precision::kDouble));
  }
}

TEST(CpuSpecs, EpycPeakFp64) {
  // 64 cores * 2.0 GHz * (2 pipes * 4 lanes * 2 flops) = 2048 GFLOP/s.
  EXPECT_DOUBLE_EQ(CpuSpec::epyc_7a53().peak_gflops(Precision::kDouble), 2048.0);
}

TEST(CpuSpecs, AltraPeakFp64) {
  // 80 cores * 3.0 GHz * (2 pipes * 2 lanes * 2 flops) = 1920 GFLOP/s.
  EXPECT_DOUBLE_EQ(CpuSpec::ampere_altra().peak_gflops(Precision::kDouble), 1920.0);
}

TEST(CpuSpecs, Fp16OnlyPaysOffWithNativeSupport) {
  const CpuSpec arm = CpuSpec::ampere_altra();
  const CpuSpec x86 = CpuSpec::epyc_7a53();
  EXPECT_GT(arm.peak_gflops(Precision::kHalfIn), arm.peak_gflops(Precision::kSingle));
  EXPECT_LE(x86.peak_gflops(Precision::kHalfIn), x86.peak_gflops(Precision::kSingle));
}

TEST(GpuSpecs, A100Peaks) {
  const GpuSpec s = GpuSpec::a100();
  EXPECT_DOUBLE_EQ(s.peak_gflops(Precision::kDouble), 9700.0);
  EXPECT_DOUBLE_EQ(s.peak_gflops(Precision::kSingle), 19500.0);
  EXPECT_GT(s.peak_gflops(Precision::kHalfIn), s.peak_gflops(Precision::kSingle));
  EXPECT_EQ(s.warp_size, 32u);
}

TEST(GpuSpecs, Mi250xGcdPeaks) {
  const GpuSpec s = GpuSpec::mi250x_gcd();
  EXPECT_DOUBLE_EQ(s.peak_gflops(Precision::kDouble), 23950.0);
  EXPECT_GT(s.peak_gflops(Precision::kSingle), s.peak_gflops(Precision::kDouble));
  EXPECT_EQ(s.warp_size, 64u);
  EXPECT_GT(s.mem_bw_gbs, GpuSpec::a100().mem_bw_gbs);  // HBM2e per GCD
}

TEST(SpecTables, Table1HasSoftwareStackRows) {
  const auto rows = table1_rows();
  ASSERT_GE(rows.size(), 10u);
  bool found_julia = false;
  bool found_kokkos_arch = false;
  for (const auto& r : rows) {
    if (r.item == "Julia") {
      found_julia = true;
      EXPECT_EQ(r.wombat, "v1.7.2");
      EXPECT_EQ(r.crusher, "v1.8.0-rc1");
    }
    if (r.item == "KOKKOS_ARCH") {
      found_kokkos_arch = true;
      EXPECT_EQ(r.wombat, "Armv8-TX2");
      EXPECT_EQ(r.crusher, "Zen 3");
    }
  }
  EXPECT_TRUE(found_julia);
  EXPECT_TRUE(found_kokkos_arch);
}

TEST(SpecTables, Table2MarksNumbaUnsupportedOnAmd) {
  const auto rows = table2_rows();
  bool found = false;
  for (const auto& r : rows) {
    if (r.item == "Numba") {
      found = true;
      EXPECT_EQ(r.crusher, "Not supported");
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace portabench::perfmodel
