// Contract of the single hardware description: the simulator's topology,
// the sharded-pipeline model and the end-to-end transfer model charge the
// same seconds for the same bytes over the same physical link.
#include "common/hardware.hpp"

#include <gtest/gtest.h>

#include "gpusim/topology.hpp"
#include "perfmodel/interconnect.hpp"
#include "perfmodel/multigpu.hpp"

namespace portabench {
namespace {

// The FP16 end-to-end GEMM uploads A and B (2 * n^2 * 2 bytes); the FP32
// sharded pipeline broadcasts B once (n^2 * 4 bytes): the same bytes.
constexpr std::size_t kN = 1024;
constexpr double kBytes = 4.0 * kN * kN;

/// Seconds each consumer charges for kBytes over one device's local H2D
/// link, with the node, link and GPU each consumer is normally built from.
void expect_one_h2d_link(gpusim::TopologyConfig cfg, const hw::NodeSpec& node,
                         const hw::Link& link, const hw::GpuSpec& gpu) {
  cfg.workers_per_device = 1;
  const gpusim::DeviceTopology topo(cfg);
  const double simulated = topo.h2d_link(0, topo.numa_domain_of(0)).seconds(kBytes);

  const perfmodel::GpuMachineModel model(gpu);
  perfmodel::ShardedGemmParams params;
  params.n = kN;
  const double sharded =
      perfmodel::sharded_pipeline_gemm(model, node, Precision::kSingle, params, 1)[0]
          .broadcast_s;
  const double end_to_end =
      perfmodel::end_to_end_gemm(model, link, Precision::kHalfIn, kN).h2d_s;

  EXPECT_EQ(simulated, sharded);
  EXPECT_EQ(simulated, end_to_end);
}

TEST(HardwareContract, CrusherH2dIsOneLink) {
  expect_one_h2d_link(gpusim::TopologyConfig::crusher_node(1), hw::NodeSpec::crusher(),
                      hw::Link::infinity_fabric(), hw::GpuSpec::mi250x_gcd());
}

TEST(HardwareContract, WombatH2dIsOneLink) {
  expect_one_h2d_link(gpusim::TopologyConfig::wombat_node(1), hw::NodeSpec::wombat(),
                      hw::Link::pcie4_x16(), hw::GpuSpec::a100());
}

TEST(HardwareContract, WombatPeerTrafficRidesPcie) {
  gpusim::TopologyConfig cfg = gpusim::TopologyConfig::wombat_node(2);
  cfg.workers_per_device = 1;
  const gpusim::DeviceTopology topo(cfg);
  EXPECT_EQ(topo.d2d_seconds(0, 1, 1 << 20), hw::Link::pcie4_x16().seconds(1 << 20));
}

}  // namespace
}  // namespace portabench
