// Tests for the multi-device scaling model.
#include "perfmodel/multigpu.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace portabench::perfmodel {
namespace {

class MultiGpuTest : public ::testing::Test {
 protected:
  GpuMachineModel model_{GpuSpec::mi250x_gcd()};
  Link link_ = Link::infinity_fabric();
};

TEST_F(MultiGpuTest, OneDeviceIsBaseline) {
  const auto strong = strong_scaling_gemm(model_, link_, Precision::kDouble, 8192, 1);
  ASSERT_EQ(strong.size(), 1u);
  EXPECT_DOUBLE_EQ(strong[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(strong[0].efficiency, 1.0);
}

TEST_F(MultiGpuTest, StrongScalingSpeedsUpButSubLinearly) {
  // Crusher: 8 GCDs per node.
  const auto sweep = strong_scaling_gemm(model_, link_, Precision::kDouble, 16384, 8);
  ASSERT_EQ(sweep.size(), 8u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].speedup, sweep[i - 1].speedup) << i;   // still gains
    EXPECT_LT(sweep[i].efficiency, 1.0 + 1e-12) << i;          // never superlinear
  }
  // Full-B broadcast + link contention erode efficiency visibly by G=8.
  EXPECT_LT(sweep[7].efficiency, 0.95);
  EXPECT_GT(sweep[7].speedup, 3.0);  // but scaling is far from broken
}

TEST_F(MultiGpuTest, KernelTimeSplitsExactly) {
  const auto sweep = strong_scaling_gemm(model_, link_, Precision::kDouble, 8192, 4);
  EXPECT_NEAR(sweep[3].kernel_s, sweep[0].kernel_s / 4.0, 1e-12);
}

TEST_F(MultiGpuTest, WeakScalingEfficiencyDropsOnlyViaLink) {
  const auto sweep = weak_scaling_gemm(model_, link_, Precision::kDouble, 8192, 8);
  ASSERT_EQ(sweep.size(), 8u);
  // Kernel time constant; only staging contends.
  for (const auto& p : sweep) EXPECT_DOUBLE_EQ(p.kernel_s, sweep[0].kernel_s);
  EXPECT_GE(sweep[7].transfer_s, sweep[0].transfer_s);
  // Large kernels dominate: weak efficiency stays high (the 170 GB/s
  // host ceiling shared by 8 links costs ~17% at this size).
  EXPECT_GT(sweep[7].efficiency, 0.75);
  EXPECT_LT(sweep[7].efficiency, 0.95);
}

TEST_F(MultiGpuTest, HostBandwidthCapsContention) {
  // With a host ceiling equal to a single link, 4 devices stage at 1/4
  // the rate each: transfer time ~4x the single-device time.
  const auto capped =
      weak_scaling_gemm(model_, link_, Precision::kDouble, 4096, 4, link_.bw_gbs);
  EXPECT_NEAR(capped[3].transfer_s / capped[0].transfer_s, 4.0, 0.2);
  // With an unlimited host, staging stays flat.
  const auto uncapped =
      weak_scaling_gemm(model_, link_, Precision::kDouble, 4096, 4, 1.0e6);
  EXPECT_NEAR(uncapped[3].transfer_s, uncapped[0].transfer_s, 1e-9);
}

TEST_F(MultiGpuTest, A100PairMatchesWombat) {
  // Wombat: 2 A100s.
  GpuMachineModel a100(GpuSpec::a100());
  const auto sweep =
      strong_scaling_gemm(a100, Link::pcie4_x16(), Precision::kDouble, 16384, 2);
  EXPECT_GT(sweep[1].speedup, 1.5);
}

TEST_F(MultiGpuTest, InvalidArgsRejected) {
  EXPECT_THROW(strong_scaling_gemm(model_, link_, Precision::kDouble, 0, 2),
               precondition_error);
  EXPECT_THROW(weak_scaling_gemm(model_, link_, Precision::kDouble, 128, 0),
               precondition_error);
}

TEST_F(MultiGpuTest, ShardedPipelineScalesMonotonically) {
  // 16384 like the strong-scaling sweep: large enough that compute
  // dominates the contended B broadcast through the full 8-GCD node.
  ShardedGemmParams params;
  params.n = 16384;
  params.panel_rows = 1024;
  const auto sweep = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                           Precision::kDouble, params, 8);
  ASSERT_EQ(sweep.size(), 8u);
  EXPECT_DOUBLE_EQ(sweep[0].speedup, 1.0);
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_GT(sweep[i].speedup, sweep[i - 1].speedup) << i;
  }
  for (const auto& p : sweep) EXPECT_LT(p.efficiency, 1.0 + 1e-12) << p.devices;
  // The compute-dominated regime scales well...
  EXPECT_GT(sweep[7].speedup, 3.5);
  // ...but the unhidden, host-contended B broadcast grows linearly once
  // the aggregate link draw passes the host ceiling, while the kernel
  // share keeps shrinking: the model predicts saturation at the full
  // node (the broadcast overtakes the per-device kernel by G=8).
  EXPECT_LT(sweep[7].speedup, sweep[6].speedup);
  EXPECT_GT(sweep[7].broadcast_s, sweep[3].broadcast_s);
}

TEST_F(MultiGpuTest, NumaAwareStagingBeatsDomainZeroStaging) {
  ShardedGemmParams local;
  local.n = 4096;
  local.panel_rows = 256;
  ShardedGemmParams remote = local;
  remote.numa_aware_staging = false;
  const auto aware = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                           Precision::kDouble, local, 8);
  const auto naive = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                           Precision::kDouble, remote, 8);
  // One device always stages locally; with 8 devices on 4 domains, six
  // of the eight ride the remote link when everything stages from
  // domain 0 — a strictly slower node.
  EXPECT_EQ(aware[7].remote_devices, 0u);
  EXPECT_EQ(naive[7].remote_devices, 6u);
  EXPECT_DOUBLE_EQ(aware[0].total_s, naive[0].total_s);  // g=1: domain 0 IS local
  EXPECT_GT(naive[7].total_s, aware[7].total_s);
  // Wombat's single domain makes staging placement a no-op.
  const auto wa = sharded_pipeline_gemm(model_, NodeSpec::wombat(),
                                        Precision::kDouble, local, 2);
  const auto wn = sharded_pipeline_gemm(model_, NodeSpec::wombat(),
                                        Precision::kDouble, remote, 2);
  EXPECT_DOUBLE_EQ(wa[1].total_s, wn[1].total_s);
}

TEST_F(MultiGpuTest, OverlapNeverSlowerThanStrictOrder) {
  ShardedGemmParams over;
  over.n = 4096;
  over.panel_rows = 256;
  ShardedGemmParams strict = over;
  strict.overlap = false;
  for (std::size_t g : {1u, 2u, 4u, 8u}) {
    const auto o = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                         Precision::kDouble, over, g);
    const auto s = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                         Precision::kDouble, strict, g);
    EXPECT_LE(o.back().total_s, s.back().total_s + 1e-12) << g;
  }
  // With several panels in flight the pipeline must actually hide time.
  const auto o = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                       Precision::kDouble, over, 2);
  const auto s = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                       Precision::kDouble, strict, 2);
  EXPECT_LT(o[1].total_s, s[1].total_s);
}

TEST_F(MultiGpuTest, RanksAgreeHandlesOrderAndTies) {
  EXPECT_TRUE(ranks_agree({3.0, 2.0, 1.0}, {30.0, 20.0, 10.0}));
  EXPECT_FALSE(ranks_agree({3.0, 2.0, 1.0}, {10.0, 20.0, 30.0}));
  EXPECT_FALSE(ranks_agree({1.0, 2.0, 3.0}, {1.0, 3.0, 2.0}));
  EXPECT_TRUE(ranks_agree({1.0, 1.0, 3.0}, {2.0, 1.0, 9.0}));  // tie: any order
  EXPECT_FALSE(ranks_agree({1.0, 2.0}, {1.0}));                // length mismatch
  EXPECT_TRUE(ranks_agree({}, {}));
}

TEST_F(MultiGpuTest, ShardedPipelineRanksMatchStrongScalingShape) {
  // The two models disagree in absolute terms but must rank the bench's
  // device counts (1, 2, 4 — the BENCH_multigpu sweep) the same way on
  // a compute-dominated problem.  (At the full node they legitimately
  // diverge: only the pipeline model leaves the B broadcast unhidden.)
  ShardedGemmParams params;
  params.n = 16384;
  params.panel_rows = 1024;
  const auto pipe = sharded_pipeline_gemm(model_, NodeSpec::crusher(),
                                          Precision::kDouble, params, 8);
  const auto strong = strong_scaling_gemm(model_, link_, Precision::kDouble, 16384, 8);
  std::vector<double> a;
  std::vector<double> b;
  for (std::size_t i : {0u, 1u, 3u}) {
    a.push_back(pipe[i].total_s);
    b.push_back(strong[i].total_s);
  }
  EXPECT_TRUE(ranks_agree(a, b));
}

}  // namespace
}  // namespace portabench::perfmodel
