// Multi-device topology: N simulated GCDs behind one node.
//
// The paper benchmarks Crusher's MI250X as a single GCD fed from a
// single NUMA domain, but the real node is 8 GCDs behind a 4-NUMA-domain
// EPYC 7A53 (Table II): GCD g is cabled to domain g/2, two GCDs share an
// MCM package with wide Infinity Fabric between them, and cross-package
// hops are narrower.  DeviceTopology models exactly that shape on the
// simulator: it owns one DeviceContext (memory arena + counters) and one
// LaunchEngine per device, pins each device's workers to the NUMA domain
// that feeds it (simrt::domain_placement through the engine's
// ThreadPool), and carries per-link bandwidth/latency for NUMA-local vs
// remote H2D/D2H and near (same-package) vs far (cross-package) D2D.
//
// Links are *modeled* by default — transfer calls account modeled
// seconds on the stream clock, host memcpy runs at host speed — and can
// be *throttled* (cfg.throttle_links) so the modeled time is enforced in
// wall time on the stream worker.  Throttled links are what make the
// transfer-overlap benches honest: an H2D/compute/D2H pipeline can only
// demonstrate real overlap if the transfers occupy real time.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "device.hpp"
#include "engine.hpp"
#include "simrt/affinity.hpp"

namespace portabench::gpusim {

using hw::Link;
using hw::NodeSpec;

/// A simulated node: the hardware description's node record (GPU,
/// device count, host CPU, links) plus the simulator's runtime knobs.
struct TopologyConfig {
  NodeSpec node;

  /// Host workers each device's LaunchEngine forks to.  0 resolves to
  /// node.host.cores / node.devices (at least 1) so the simulated node's
  /// compute splits evenly, matching one EPYC L3 complex driving each GCD.
  std::size_t workers_per_device = 0;

  /// Pin each device's workers to the device's NUMA domain
  /// (domain_placement).  Off: workers float, like OMP_PROC_BIND=false.
  bool pin_workers = true;

  /// Enforce modeled link time in wall time on the stream worker (spin
  /// after the host memcpy until the modeled seconds elapsed).  Benches
  /// measuring overlap turn this on; tests leave it off.
  bool throttle_links = false;

  /// Crusher node: `devices` MI250X GCDs (8 = full node) behind the EPYC.
  [[nodiscard]] static TopologyConfig crusher_node(std::size_t devices = 8) {
    return {.node = NodeSpec::crusher(devices)};
  }
  /// Wombat node: `devices` A100s behind the single-domain Altra.
  [[nodiscard]] static TopologyConfig wombat_node(std::size_t devices = 2) {
    return {.node = NodeSpec::wombat(devices)};
  }
};

/// N simulated devices with per-device contexts, engines and links.
///
/// Device d is fed from NUMA domain `d * host.numa_domains / devices`
/// (Crusher: GCD g -> domain g/2) and its engine's workers are pinned
/// there when cfg.pin_workers.  The degenerate single-device topology
/// with default worker count and no pinning installs *no* private
/// engine, so context(0) launches through LaunchEngine::shared() —
/// bit-for-bit and engine-for-engine today's single-device behavior.
class DeviceTopology {
 public:
  explicit DeviceTopology(TopologyConfig cfg);
  DeviceTopology(const DeviceTopology&) = delete;
  DeviceTopology& operator=(const DeviceTopology&) = delete;

  [[nodiscard]] const TopologyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t devices() const noexcept { return contexts_.size(); }
  [[nodiscard]] std::size_t workers_per_device() const noexcept { return workers_per_device_; }

  [[nodiscard]] DeviceContext& context(std::size_t device) const {
    PB_EXPECTS(device < contexts_.size());
    return *contexts_[device];
  }
  /// The engine device `device` launches through (private per-device
  /// engine, or the process-wide shared one in the degenerate topology).
  [[nodiscard]] LaunchEngine& engine(std::size_t device) const {
    return context(device).engine();
  }

  /// NUMA domain that feeds a device (Crusher: GCD g -> domain g/2).
  [[nodiscard]] std::size_t numa_domain_of(std::size_t device) const {
    return cfg_.node.numa_domain_of(device);
  }
  /// Link a host<->device transfer rides, given the host buffer's home
  /// domain: local when it matches the device's feeding domain.
  [[nodiscard]] const Link& h2d_link(std::size_t device, std::size_t host_domain) const {
    return cfg_.node.h2d(device, host_domain);
  }
  /// Device-to-device link: wide in-package fabric for an MCM pair,
  /// narrow cross-package hop otherwise.
  [[nodiscard]] const Link& d2d_link(std::size_t src, std::size_t dst) const {
    return cfg_.node.d2d(src, dst);
  }
  [[nodiscard]] double d2d_seconds(std::size_t src, std::size_t dst, std::size_t bytes) const {
    return d2d_link(src, dst).seconds(static_cast<double>(bytes));
  }

 private:
  TopologyConfig cfg_;
  std::size_t workers_per_device_ = 1;
  std::vector<std::unique_ptr<DeviceContext>> contexts_;
};

}  // namespace portabench::gpusim
