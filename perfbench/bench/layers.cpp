#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace gpusim = portabench::gpusim;
namespace serve = portabench::serve;

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"jobs_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& layer_specs() {
  static const std::vector<MetricSpec> specs{
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p99", "us"},
      {"serve.refused_share", "share"},
      {"serve.jobs_per_batch", "count"},
      {"serve.drain_ms_p50", "ms"},
      {"serve.arena_grow_events", "count"},
      {"serve.arena_high_water_bytes", "bytes"},
      {"serve.serial_jobs_per_s", "1/s"},
      {"gpusim.launch_ms_p50", "ms"},
      {"gpusim.stream_roundtrip_us_p50", "us"},
      {"gpusim.kernel_launches", "count/op"},
      {"gpusim.blocks_executed", "count/op"},
      {"gpusim.bytes_h2d", "bytes/op"},
      {"gpusim.bytes_d2h", "bytes/op"},
      {"gpusim.bytes_d2d", "bytes/op"},
      {"gpusim.launch_cache_hit_share", "share"},
      {"gpusim.copy_gbps", "GB/s"},
      {"gemm.tiled_gflops", "GFLOP/s"},
      {"gemm.reference_ms_p50", "ms"},
      {"models.cpu_kernel_ms_p50", "ms"},
      {"models.gpu_kernel_ms_p50", "ms"},
      {"models.verify_share", "share"},
      {"simrt.fork_join_us_p50", "us"},
      {"simrt.reduce_us_p50", "us"},
      {"stencil.sweep_ms_p50", "ms"},
      {"stencil.residual_ms_p50", "ms"},
      {"stencil.sweeps", "count"},
      {"multigpu.modeled_ms", "sim_ms"},
      {"multigpu.one_gcd_gemm_call_ms", "ms"},
      {"multigpu.max_device_block_share", "share"},
      {"client.late_ms_p99", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return specs;
}

void DeviceTally::begin(const gpusim::DeviceTopology& topo) {
  *this = DeviceTally{};
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    counters_before_.push_back(topo.context(d).counters());
    caches_before_.push_back(topo.context(d).launch_cache_stats());
  }
}

void DeviceTally::end(const gpusim::DeviceTopology& topo) {
  if (counters_before_.size() != topo.devices()) {
    throw std::logic_error("DeviceTally::end without a matching begin");
  }
  blocks_per_device.assign(topo.devices(), 0);
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    const gpusim::DeviceCounters now = topo.context(d).counters();
    const gpusim::DeviceCounters& was = counters_before_[d];
    launches += now.kernel_launches - was.kernel_launches;
    blocks_per_device[d] = now.blocks_executed - was.blocks_executed;
    blocks += blocks_per_device[d];
    h2d += now.bytes_h2d - was.bytes_h2d;
    d2h += now.bytes_d2h - was.bytes_d2h;
    d2d += now.bytes_d2d_in - was.bytes_d2d_in;
    const gpusim::LaunchCacheStats cache = topo.context(d).launch_cache_stats();
    cache_hits += cache.hits - caches_before_[d].hits;
    cache_misses += cache.misses - caches_before_[d].misses;
  }
}

void DeviceTally::add(const gpusim::DeviceCounters& c) {
  launches += c.kernel_launches;
  blocks += c.blocks_executed;
  h2d += c.bytes_h2d;
  d2h += c.bytes_d2h;
  d2d += c.bytes_d2d_in;
}

double DeviceTally::max_device_block_share() const {
  if (blocks == 0 || blocks_per_device.empty()) return 0.0;
  const std::uint64_t most =
      *std::max_element(blocks_per_device.begin(), blocks_per_device.end());
  return static_cast<double>(most) / static_cast<double>(blocks);
}

LayerTable::LayerTable() {
  for (const MetricSpec& s : layer_specs()) {
    metrics_.push_back({s.name, 0.0, s.unit, "not called"});
  }
  set_.assign(metrics_.size(), false);
}

void LayerTable::set(std::string_view name, double value, std::string note) {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      metrics_[i].value = value;
      metrics_[i].note = std::move(note);
      set_[i] = true;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + std::string(name));
}

bool LayerTable::has(std::string_view name) const {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) return set_[i];
  }
  return false;
}

void LayerTable::copy_from(const LayerTable& probe, std::string_view prefix) {
  for (std::size_t i = 0; i < probe.metrics_.size(); ++i) {
    const Metric& m = probe.metrics_[i];
    if (probe.set_[i] && m.name.starts_with(prefix)) {
      set(m.name, m.value, m.note.starts_with("probe") ? m.note : "probe: " + m.note);
    }
  }
}

void LayerTable::set_counters(const DeviceTally& t, std::uint64_t ops,
                              const std::string& note) {
  const double per = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  set("gpusim.kernel_launches", static_cast<double>(t.launches) * per, note);
  set("gpusim.blocks_executed", static_cast<double>(t.blocks) * per, note);
  set("gpusim.bytes_h2d", static_cast<double>(t.h2d) * per, note);
  set("gpusim.bytes_d2h", static_cast<double>(t.d2h) * per, note);
  set("gpusim.bytes_d2d", static_cast<double>(t.d2d) * per, note);
  const double probes = static_cast<double>(t.cache_hits + t.cache_misses);
  set("gpusim.launch_cache_hit_share",
      probes == 0 ? 0.0 : static_cast<double>(t.cache_hits) / probes, note);
}

void set_serve_layers(LayerTable& table, const serve::ServeStats& before,
                      const serve::ServeStats& after, const Trace& trace,
                      const std::string& note) {
  const auto submit = trace.samples(Span::kSubmit);
  table.set("serve.submit_us_p50", 1e3 * percentile(submit, 50.0), note);
  table.set("serve.submit_us_p99", 1e3 * percentile(submit, 99.0), note);
  const auto full = static_cast<std::size_t>(serve::AdmitError::kQueueFull);
  const double refused =
      static_cast<double>(after.rejected_by[full] - before.rejected_by[full]);
  const double attempts = static_cast<double>((after.accepted - before.accepted) +
                                              (after.rejected_total - before.rejected_total));
  table.set("serve.refused_share", attempts == 0 ? 0.0 : refused / attempts, note);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double jobs = static_cast<double>((after.completed - before.completed) +
                                          (after.failed - before.failed));
  table.set("serve.jobs_per_batch", batches == 0 ? 0.0 : jobs / batches, note);
  table.set("serve.drain_ms_p50", percentile(trace.samples(Span::kDrain), 50.0), note);
  table.set("serve.arena_grow_events",
            static_cast<double>(after.arena_grow_events - before.arena_grow_events), note);
  table.set("serve.arena_high_water_bytes", static_cast<double>(after.arena_high_water), note);
}

void set_stencil_layers(LayerTable& table, const Trace& trace, std::size_t sweeps,
                        const std::string& note) {
  table.set("stencil.sweep_ms_p50", percentile(trace.samples(Span::kStencilSweep), 50.0), note);
  table.set("stencil.residual_ms_p50", percentile(trace.samples(Span::kStencilResidual), 50.0),
            note);
  table.set("stencil.sweeps", static_cast<double>(sweeps), note);
}

}  // namespace perfbench
