#include "topology.hpp"

namespace portabench::gpusim {

DeviceTopology::DeviceTopology(TopologyConfig cfg) : cfg_(std::move(cfg)) {
  const NodeSpec& node = cfg_.node;
  PB_EXPECTS(node.devices >= 1);
  PB_EXPECTS(node.host.numa_domains >= 1 && node.host.cores >= node.host.numa_domains);

  const bool degenerate =
      node.devices == 1 && cfg_.workers_per_device == 0 && !cfg_.pin_workers;
  workers_per_device_ = cfg_.workers_per_device != 0
                            ? cfg_.workers_per_device
                            : std::max<std::size_t>(1, node.host.cores / node.devices);

  contexts_.reserve(node.devices);
  for (std::size_t d = 0; d < node.devices; ++d) {
    contexts_.push_back(std::make_unique<DeviceContext>(node.gpu));
    if (degenerate) continue;  // leave engine() on LaunchEngine::shared()
    simrt::Placement placement;
    if (cfg_.pin_workers) {
      placement = simrt::domain_placement(node.host, workers_per_device_, node.numa_domain_of(d));
    }
    contexts_.back()->set_engine(
        std::make_shared<LaunchEngine>(workers_per_device_, std::move(placement)));
  }
}

}  // namespace portabench::gpusim
