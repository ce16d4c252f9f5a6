// Multi-device sharding: bitwise replay contract and edge cases.
//
// The load-bearing assertions are EXPECT_EQ on doubles: every sharded
// result must be *bit-identical* to the single-device serial oracle for
// every device count, overlap mode and per-device tile choice.  Plus the
// edge cases ISSUE 9 calls out: the one-device degenerate topology runs
// through LaunchEngine::shared() exactly as before, Events order work
// across devices, peer copies reject OOB ranges and dead buffers
// eagerly, and per-device counters tally / reset independently.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/copy.hpp"
#include "gpusim/pipeline.hpp"
#include "multigpu/gemm.hpp"
#include "multigpu/shard.hpp"
#include "multigpu/spmv.hpp"
#include "multigpu/stencil.hpp"
#include "spmv/sparse.hpp"

namespace portabench::multigpu {
namespace {

using gpusim::DeviceTopology;
using gpusim::TopologyConfig;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  fill_uniform(std::span<double>(v), rng);
  return v;
}

/// Small-worker Crusher-shaped topology: private engines, pinned
/// placement, but few workers so the suite stays fast under ctest -j.
TopologyConfig small_crusher(std::size_t devices) {
  TopologyConfig cfg = TopologyConfig::crusher_node(devices);
  cfg.workers_per_device = 2;
  return cfg;
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlan, PanelsAreGlobalDisjointAndContiguous) {
  const ShardPlan plan = ShardPlan::rows(1000, 96, 3);
  ASSERT_EQ(plan.devices(), 3u);
  // ceil(1000/96) = 11 panels; global decomposition independent of devices.
  ASSERT_EQ(plan.panels.size(), 11u);
  std::size_t next = 0;
  for (const Panel& p : plan.panels) {
    EXPECT_EQ(p.begin, next);
    next = p.end;
  }
  EXPECT_EQ(next, 1000u);
  // Devices own contiguous runs covering every panel exactly once.
  EXPECT_EQ(plan.panels_of(0) + plan.panels_of(1) + plan.panels_of(2), 11u);
  EXPECT_EQ(plan.global_panel(1, 0), plan.first_panel[1]);
  // Leading devices take the remainder: 4 + 4 + 3.
  EXPECT_EQ(plan.panels_of(0), 4u);
  EXPECT_EQ(plan.panels_of(2), 3u);
}

TEST(ShardPlan, DeviceCountDoesNotChangePanelBoundaries) {
  const ShardPlan one = ShardPlan::rows(517, 64, 1);
  const ShardPlan four = ShardPlan::rows(517, 64, 4);
  ASSERT_EQ(one.panels.size(), four.panels.size());
  for (std::size_t p = 0; p < one.panels.size(); ++p) {
    EXPECT_EQ(one.panels[p].begin, four.panels[p].begin);
    EXPECT_EQ(one.panels[p].end, four.panels[p].end);
  }
}

TEST(ShardPlan, MoreDevicesThanPanelsLeavesTrailingDevicesEmpty) {
  const ShardPlan plan = ShardPlan::rows(10, 8, 4);  // 2 panels, 4 devices
  EXPECT_EQ(plan.panels_of(0), 1u);
  EXPECT_EQ(plan.panels_of(1), 1u);
  EXPECT_EQ(plan.panels_of(2), 0u);
  EXPECT_EQ(plan.panels_of(3), 0u);
}

// --- GEMM --------------------------------------------------------------------

class GemmSharded : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = random_vector(m_ * k_, 11);
    b_ = random_vector(k_ * n_, 12);
    oracle_.resize(m_ * n_);
    gemm_sharded_oracle<double>({a_.data(), m_, k_}, {b_.data(), k_, n_},
                                {oracle_.data(), m_, n_});
  }

  void expect_bitwise(std::span<const double> c) {
    for (std::size_t i = 0; i < oracle_.size(); ++i) {
      ASSERT_EQ(c[i], oracle_[i]) << "element " << i;
    }
  }

  // Ragged on purpose: m not divisible by panel, panels not by devices.
  const std::size_t m_ = 147, k_ = 53, n_ = 31;
  std::vector<double> a_, b_, oracle_;
};

TEST_F(GemmSharded, BitwiseIdenticalAcrossDeviceCounts) {
  for (std::size_t devices : {1u, 2u, 3u, 4u}) {
    DeviceTopology topo(small_crusher(devices));
    std::vector<double> c(m_ * n_, -1.0);
    GemmShardOptions opt;
    opt.panel_rows = 32;
    const auto stats = gemm_sharded<double>(topo, {a_.data(), m_, k_},
                                            {b_.data(), k_, n_}, {c.data(), m_, n_}, opt);
    EXPECT_EQ(stats.panels, (m_ + 31) / 32);
    expect_bitwise(c);
  }
}

TEST_F(GemmSharded, OverlapOffAndRemoteStagingStayBitwise) {
  DeviceTopology topo(small_crusher(2));
  for (const bool overlap : {false, true}) {
    std::vector<double> c(m_ * n_, -1.0);
    GemmShardOptions opt;
    opt.panel_rows = 48;
    opt.overlap = overlap;
    opt.numa_aware_staging = false;  // everything staged from domain 0
    gemm_sharded<double>(topo, {a_.data(), m_, k_}, {b_.data(), k_, n_},
                         {c.data(), m_, n_}, opt);
    expect_bitwise(c);
  }
}

TEST_F(GemmSharded, DegenerateTopologyUsesSharedEngine) {
  // Default one-device config: no private engine, no pinning — the
  // exact single-device path that existed before this layer.
  TopologyConfig cfg;
  cfg.pin_workers = false;
  DeviceTopology topo(cfg);
  EXPECT_EQ(&topo.engine(0), &gpusim::LaunchEngine::shared());
  std::vector<double> c(m_ * n_, -1.0);
  gemm_sharded<double>(topo, {a_.data(), m_, k_}, {b_.data(), k_, n_},
                       {c.data(), m_, n_});
  expect_bitwise(c);
}

// --- SpMV --------------------------------------------------------------------

TEST(SpmvSharded, BitwiseIdenticalAcrossDeviceCounts) {
  const auto A = spmv::random_csr<double>(977, 611, 9, 7);
  const std::vector<double> x = random_vector(A.cols, 8);
  std::vector<double> reference(A.rows);
  spmv::spmv_reference<double>(A, x, std::span<double>(reference));

  for (std::size_t devices : {1u, 2u, 4u}) {
    DeviceTopology topo(small_crusher(devices));
    std::vector<double> y(A.rows, -1.0);
    SpmvShardOptions opt;
    opt.panel_rows = 128;
    opt.rows_per_block = 37;  // ragged blocks inside ragged panels
    spmv_sharded<double>(topo, A, x, std::span<double>(y), opt);
    for (std::size_t r = 0; r < A.rows; ++r) {
      ASSERT_EQ(y[r], reference[r]) << "row " << r << " devices " << devices;
    }
  }
}

TEST(SpmvSharded, BandedMatrixNonOverlapPath) {
  const auto A = spmv::banded_csr<double>(300, 5, 21);
  const std::vector<double> x = random_vector(A.cols, 22);
  std::vector<double> reference(A.rows);
  spmv::spmv_reference<double>(A, x, std::span<double>(reference));

  DeviceTopology topo(small_crusher(3));
  std::vector<double> y(A.rows, -1.0);
  SpmvShardOptions opt;
  opt.panel_rows = 64;
  opt.overlap = false;
  spmv_sharded<double>(topo, A, x, std::span<double>(y), opt);
  for (std::size_t r = 0; r < A.rows; ++r) {
    ASSERT_EQ(y[r], reference[r]) << "row " << r;
  }
}

// --- Stencil -----------------------------------------------------------------

TEST(StencilSharded, BitwiseIdenticalAcrossDeviceCountsAndIterations) {
  const std::size_t rows = 83, cols = 41;  // slabs of ~20 rows at 4 devices
  const std::vector<double> init = random_vector(rows * cols, 31);

  for (std::size_t devices : {1u, 2u, 3u, 4u}) {
    for (std::size_t iters : {1u, 2u, 5u}) {
      const std::vector<double> expect =
          stencil_iterated_oracle(init, rows, cols, iters);
      DeviceTopology topo(small_crusher(devices));
      std::vector<double> grid = init;
      StencilShardOptions opt;
      opt.iterations = iters;
      const auto stats = stencil_sharded(topo, std::span<double>(grid), rows, cols, opt);
      EXPECT_EQ(stats.panels, devices * iters);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(grid[i], expect[i])
            << "cell " << i << " devices " << devices << " iters " << iters;
      }
    }
  }
}

TEST(StencilSharded, MoreDevicesThanInteriorRows) {
  // 4 rows -> 2 interior rows across 4 devices: some devices own no
  // computed rows and must neither deadlock nor corrupt the halos.
  const std::size_t rows = 4, cols = 9;
  const std::vector<double> init = random_vector(rows * cols, 41);
  const std::vector<double> expect = stencil_iterated_oracle(init, rows, cols, 3);
  DeviceTopology topo(small_crusher(4));
  std::vector<double> grid = init;
  StencilShardOptions opt;
  opt.iterations = 3;
  stencil_sharded(topo, std::span<double>(grid), rows, cols, opt);
  for (std::size_t i = 0; i < grid.size(); ++i) ASSERT_EQ(grid[i], expect[i]);
}

// --- Cross-device events -----------------------------------------------------

TEST(CrossDeviceEvents, WaitOrdersWorkAcrossDevices) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream s0(topo.context(0), gpusim::StreamMode::kAsync);
  gpusim::Stream s1(topo.context(1), gpusim::StreamMode::kAsync);

  std::atomic<int> step{0};
  // Device 0 produces (slowly); device 1 must observe the produced value.
  s0.enqueue(0.0, [&] { step.store(1, std::memory_order_release); });
  gpusim::Event produced;
  s0.record(produced);
  s1.wait(produced);
  int observed = -1;
  s1.enqueue(0.0, [&] { observed = step.load(std::memory_order_acquire); });
  s1.synchronize();
  EXPECT_EQ(observed, 1);

  // Modeled clocks joined too: s1's clock jumped to at least s0's.
  s0.enqueue(2.0);
  gpusim::Event late;
  s0.record(late);
  s1.wait(late);
  EXPECT_GE(s1.now(), s0.now());
  s0.synchronize();
  s1.synchronize();
}

// --- Peer copy negative paths ------------------------------------------------

TEST(PeerCopyNegative, RejectsOutOfBoundsAndDeadBuffersEagerly) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream s(topo.context(0), gpusim::StreamMode::kAsync);
  gpusim::DeviceBuffer<double> a(topo.context(0), 64);
  gpusim::DeviceBuffer<double> b(topo.context(1), 32);

  // OOB destination range, OOB source range, and offset past the end.
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 0, a, 0, 33), precondition_error);
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 0, a, 40, 32), precondition_error);
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 33, a, 0, 0), precondition_error);

  // Overlapping self-copy rejected; disjoint self-copy fine.
  EXPECT_THROW(gpusim::peer_copy_async(s, a, 8, a, 0, 16), precondition_error);
  EXPECT_NO_THROW(gpusim::peer_copy_async(s, a, 32, a, 0, 16));

  // Freed (moved-from) buffers on either endpoint throw at the call
  // site, not at some later synchronize().
  gpusim::DeviceBuffer<double> stolen = std::move(a);
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 0, a, 0, 8), precondition_error);
  EXPECT_THROW(gpusim::peer_copy_async(s, a, 0, b, 0, 8), precondition_error);
  std::vector<double> host(8);
  EXPECT_THROW(
      gpusim::copy_to_device_async(s, a, 0, std::span<const double>(host.data(), 8)),
      precondition_error);
  EXPECT_THROW(gpusim::copy_to_host_async(s, std::span<double>(host), a, 0),
               precondition_error);
  s.synchronize();
}

TEST(PeerCopyNegative, StreamMustBelongToH2DEndpointContext) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream wrong(topo.context(1), gpusim::StreamMode::kAsync);
  gpusim::DeviceBuffer<double> a(topo.context(0), 8);
  std::vector<double> host(8);
  EXPECT_THROW(
      gpusim::copy_to_device_async(wrong, a, 0, std::span<const double>(host.data(), 8)),
      precondition_error);
  wrong.synchronize();
}

// --- Per-device counters -----------------------------------------------------

TEST(DeviceCounters, PerDeviceTransferTalliesAndReset) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream s0(topo.context(0), gpusim::StreamMode::kAsync);
  gpusim::Stream s1(topo.context(1), gpusim::StreamMode::kAsync);
  gpusim::DeviceBuffer<double> a(topo.context(0), 16);
  gpusim::DeviceBuffer<double> b(topo.context(1), 16);
  std::vector<double> host(16, 1.0);

  gpusim::copy_to_device_async(s0, a, 0, std::span<const double>(host.data(), 16));
  gpusim::peer_copy_async(s0, b, 0, a, 0, 16);
  gpusim::copy_to_host_async(s1, std::span<double>(host), b, 0);
  s0.synchronize();
  s1.synchronize();

  const auto c0 = topo.context(0).counters();
  const auto c1 = topo.context(1).counters();
  EXPECT_EQ(c0.bytes_h2d, 16 * sizeof(double));
  EXPECT_EQ(c0.bytes_d2d_out, 16 * sizeof(double));
  EXPECT_EQ(c0.bytes_d2d_in, 0u);
  EXPECT_EQ(c0.bytes_d2h, 0u);
  EXPECT_EQ(c1.bytes_d2d_in, 16 * sizeof(double));
  EXPECT_EQ(c1.bytes_d2d_out, 0u);
  EXPECT_EQ(c1.bytes_d2h, 16 * sizeof(double));
  EXPECT_EQ(c1.bytes_h2d, 0u);

  // Reset is per device: device 1 keeps its tallies until its own reset.
  topo.context(0).reset_counters();
  EXPECT_EQ(topo.context(0).counters().bytes_h2d, 0u);
  EXPECT_EQ(topo.context(0).counters().bytes_d2d_out, 0u);
  EXPECT_EQ(topo.context(1).counters().bytes_d2d_in, 16 * sizeof(double));
  topo.context(1).reset_counters();
  EXPECT_EQ(topo.context(1).counters().bytes_d2d_in, 0u);
  EXPECT_EQ(topo.context(1).counters().bytes_d2h, 0u);
}

// --- Topology shape ----------------------------------------------------------

TEST(Topology, CrusherShapeDomainsPackagesAndLinks) {
  DeviceTopology topo(TopologyConfig::crusher_node(8));
  EXPECT_EQ(topo.devices(), 8u);
  // GCD g is fed from domain g/2 (Table II cabling).
  for (std::size_t g = 0; g < 8; ++g) EXPECT_EQ(topo.numa_domain_of(g), g / 2);
  // Same staging domain: local link; other domain: remote link.
  EXPECT_GT(topo.h2d_link(0, 0).bw_gbs, topo.h2d_link(0, 3).bw_gbs);
  // MCM pair (0,1) rides the wide fabric; (0,2) crosses packages.
  EXPECT_GT(topo.d2d_link(0, 1).bw_gbs, topo.d2d_link(0, 2).bw_gbs);
  EXPECT_LT(topo.d2d_seconds(0, 1, 1 << 20), topo.d2d_seconds(0, 2, 1 << 20));
}

TEST(Topology, PinnedPlacementLandsInDeviceDomain) {
  TopologyConfig cfg = TopologyConfig::crusher_node(4);
  cfg.workers_per_device = 4;
  DeviceTopology topo(cfg);
  for (std::size_t d = 0; d < 4; ++d) {
    const simrt::Placement& p = topo.engine(d).placement();
    ASSERT_TRUE(p.pinned());
    const std::size_t cpd = cfg.node.host.cores_per_domain();
    for (const std::size_t core : p.core_of_thread) {
      EXPECT_EQ(core / cpd, topo.numa_domain_of(d)) << "device " << d;
    }
  }
}

// --- Pipeline modeled clock --------------------------------------------------

TEST(Pipeline, OverlapShortensModeledMakespan) {
  // Pure modeled-clock test (no payload): 8 panels, transfer 1s + 1s,
  // compute 2s.  Serial: 8 * 4s = 32s.  Overlapped steady state is
  // compute-bound: ~2s/panel.
  gpusim::DeviceContext ctx{gpusim::GpuSpec::mi250x_gcd()};
  const auto stage = [](double cost) {
    return [cost](gpusim::Stream& s, std::size_t, std::size_t) { s.enqueue(cost); };
  };
  gpusim::PipelineOptions serial{.slots = 2, .overlap = false};
  gpusim::PipelineOptions overlapped{.slots = 2, .overlap = true};
  const auto ref = gpusim::run_pipeline(ctx, 8, serial, stage(1.0), stage(2.0), stage(1.0));
  const auto ovl =
      gpusim::run_pipeline(ctx, 8, overlapped, stage(1.0), stage(2.0), stage(1.0));
  EXPECT_DOUBLE_EQ(ref.modeled_s, 32.0);
  EXPECT_LT(ovl.modeled_s, ref.modeled_s);
  EXPECT_GE(ovl.modeled_s, 16.0);  // cannot beat the compute lower bound
}

}  // namespace
}  // namespace portabench::multigpu
