// The metric lists BENCHMARK.json mirrors, and the per-layer table of
// traced runs with the helpers that fill it from a layer's own counters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/topology.hpp"
#include "measure.hpp"
#include "serve/engine.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();
/// Every per-layer metric, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& layer_specs();

/// Device activity of one measured phase, summed over devices.
struct DeviceTally {
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t d2d = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<std::uint64_t> blocks_per_device;

  /// Snapshot every device of `topo`; end() turns the snapshot into deltas.
  void begin(const portabench::gpusim::DeviceTopology& topo);
  void end(const portabench::gpusim::DeviceTopology& topo);
  /// Add one run's counters (runners reset their device per run).
  void add(const portabench::gpusim::DeviceCounters& c);
  /// Largest share of blocks executed by one device; 0 without blocks.
  [[nodiscard]] double max_device_block_share() const;

 private:
  std::vector<portabench::gpusim::DeviceCounters> counters_before_;
  std::vector<portabench::gpusim::LaunchCacheStats> caches_before_;
};

/// Per-layer metric values and where each came from.  Unset metrics are
/// filled by the layer probes; what is still unset reads 0.
class LayerTable {
 public:
  LayerTable();
  void set(std::string_view name, double value, std::string note = {});
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// Take every set metric of `probe` whose name starts with `prefix`,
  /// its note prefixed with "probe: ".
  void copy_from(const LayerTable& probe, std::string_view prefix);

  /// The gpusim.* counter metrics, per operation of the phase.
  void set_counters(const DeviceTally& tally, std::uint64_t ops, const std::string& note);

 private:
  std::vector<Metric> metrics_;
  std::vector<bool> set_;
};

/// The serve.* metrics of one phase: engine stats around it plus the
/// submit and drain spans.
void set_serve_layers(LayerTable& table, const portabench::serve::ServeStats& before,
                      const portabench::serve::ServeStats& after, const Trace& trace,
                      const std::string& note);

/// The stencil.* metrics of traced Jacobi solves.
void set_stencil_layers(LayerTable& table, const Trace& trace, std::size_t sweeps,
                        const std::string& note);

}  // namespace perfbench
