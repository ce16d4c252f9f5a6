#include "multigpu.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace portabench::perfmodel {

namespace {

/// Each device's link when `devices` stage concurrently: every device has
/// its own link, but all links drain the same host memory, capping the
/// aggregate bandwidth at host_bw_gbs.
Link contended(Link link, std::size_t devices, double host_bw_gbs) {
  const double aggregate = std::min(link.bw_gbs * static_cast<double>(devices), host_bw_gbs);
  link.bw_gbs = aggregate / static_cast<double>(devices);
  return link;
}

MultiGpuPoint make_point(std::size_t devices, double kernel_s, double transfer_s,
                         double base_total) {
  MultiGpuPoint p;
  p.devices = devices;
  p.kernel_s = kernel_s;
  p.transfer_s = transfer_s;
  p.total_s = kernel_s + transfer_s;
  p.speedup = base_total / p.total_s;
  p.efficiency = p.speedup / static_cast<double>(devices);
  return p;
}

}  // namespace

std::vector<MultiGpuPoint> strong_scaling_gemm(const GpuMachineModel& model,
                                               const Link& link, Precision prec,
                                               std::size_t n, std::size_t max_devices,
                                               double host_bw_gbs) {
  PB_EXPECTS(n > 0 && max_devices >= 1);
  std::vector<MultiGpuPoint> out;
  const double nn = static_cast<double>(n);
  const double in_b = static_cast<double>(input_bytes(prec));
  const double out_b = static_cast<double>(output_bytes(prec));

  double base_total = 0.0;
  for (std::size_t g = 1; g <= max_devices; ++g) {
    // Per-device block: m/G rows of A + all of B in, m/G rows of C out.
    const double rows = nn / static_cast<double>(g);
    const double bytes_in = rows * nn * in_b + nn * nn * in_b;  // A block + full B
    const double bytes_out = rows * nn * out_b;
    const double transfer = contended(link, g, host_bw_gbs).seconds(bytes_in + bytes_out);

    // Per-device kernel: an (n/G) x n x n GEMM.  Approximate its time by
    // scaling the full kernel's FLOP share while keeping the full kernel's
    // rate at this n (the row partition keeps the inner dimensions).
    const double full_kernel = model.reference_time(prec, n).total_s;
    const double kernel = full_kernel / static_cast<double>(g);

    if (g == 1) base_total = kernel + transfer;
    out.push_back(make_point(g, kernel, transfer, base_total));
  }
  return out;
}

std::vector<MultiGpuPoint> weak_scaling_gemm(const GpuMachineModel& model,
                                             const Link& link, Precision prec,
                                             std::size_t n, std::size_t max_devices,
                                             double host_bw_gbs) {
  PB_EXPECTS(n > 0 && max_devices >= 1);
  std::vector<MultiGpuPoint> out;
  const double nn = static_cast<double>(n);
  const double bytes_in = 2.0 * nn * nn * static_cast<double>(input_bytes(prec));
  const double bytes_out = nn * nn * static_cast<double>(output_bytes(prec));
  const double kernel = model.reference_time(prec, n).total_s;

  double base_total = 0.0;
  for (std::size_t g = 1; g <= max_devices; ++g) {
    const double transfer = contended(link, g, host_bw_gbs).seconds(bytes_in + bytes_out);
    if (g == 1) base_total = kernel + transfer;
    // Weak scaling: throughput metric — speedup counts problems solved.
    MultiGpuPoint p = make_point(g, kernel, transfer, base_total);
    p.speedup = static_cast<double>(g) * base_total / p.total_s;
    p.efficiency = p.speedup / static_cast<double>(g);
    out.push_back(p);
  }
  return out;
}

std::vector<ShardedPipelinePoint> sharded_pipeline_gemm(const GpuMachineModel& model,
                                                        const NodeSpec& node,
                                                        Precision prec,
                                                        const ShardedGemmParams& params,
                                                        std::size_t max_devices) {
  PB_EXPECTS(params.n > 0 && params.panel_rows > 0 && max_devices >= 1);
  const double nn = static_cast<double>(params.n);
  const double in_b = static_cast<double>(input_bytes(prec));
  const double out_b = static_cast<double>(output_bytes(prec));
  // Panel kernel time scales the full n^3 kernel by its row share: the
  // row partition keeps both inner dimensions, so the per-row rate holds.
  const double full_kernel = model.reference_time(prec, params.n).total_s;

  std::vector<ShardedPipelinePoint> out;
  double base_total = 0.0;
  for (std::size_t g = 1; g <= max_devices; ++g) {
    NodeSpec swept = node;
    swept.devices = g;  // the domain map follows the swept device count

    ShardedPipelinePoint p;
    p.devices = g;
    // Host-link contention: every device stages concurrently during the
    // fill, so scale each link's bandwidth by the aggregate ceiling.
    double aggregate = 0.0;
    for (std::size_t d = 0; d < g; ++d) {
      const std::size_t dom = params.numa_aware_staging ? swept.numa_domain_of(d) : 0;
      aggregate += swept.h2d(d, dom).bw_gbs;
    }
    const double share = aggregate > swept.host_bw_gbs ? swept.host_bw_gbs / aggregate : 1.0;

    double makespan = 0.0;
    for (std::size_t d = 0; d < g; ++d) {
      // Same near-even contiguous deal the sharded driver uses.
      const std::size_t lo = d * params.n / g;
      const std::size_t hi = (d + 1) * params.n / g;
      const std::size_t rows = hi - lo;
      if (rows == 0) continue;
      const std::size_t panels = (rows + params.panel_rows - 1) / params.panel_rows;

      const std::size_t dom = params.numa_aware_staging ? swept.numa_domain_of(d) : 0;
      if (dom != swept.numa_domain_of(d)) ++p.remote_devices;
      Link link = swept.h2d(d, dom);
      link.bw_gbs *= share;

      const double rows_per_panel = static_cast<double>(rows) / static_cast<double>(panels);
      const double h2d_panel = link.seconds(rows_per_panel * nn * in_b);
      const double d2h_panel = link.seconds(rows_per_panel * nn * out_b);
      const double kernel_panel = full_kernel * rows_per_panel / nn;
      const double broadcast = link.seconds(nn * nn * in_b);  // full B once

      const double kernel_d = kernel_panel * static_cast<double>(panels);
      const double xfer_d = (h2d_panel + d2h_panel) * static_cast<double>(panels);
      double total_d;
      if (params.overlap) {
        // Double-buffered: fill with the first panel's upload, steady
        // state runs at max(kernel, transfers) per panel, drain with the
        // last panel's download.
        total_d = broadcast + h2d_panel +
                  std::max(kernel_panel, h2d_panel + d2h_panel) *
                      static_cast<double>(panels - 1) +
                  kernel_panel + d2h_panel;
      } else {
        total_d = broadcast + kernel_d + xfer_d;
      }

      p.broadcast_s = std::max(p.broadcast_s, broadcast);
      p.kernel_s = std::max(p.kernel_s, kernel_d);
      p.transfer_s = std::max(p.transfer_s, xfer_d);
      makespan = std::max(makespan, total_d);
    }

    p.total_s = makespan;
    if (g == 1) base_total = makespan;
    p.speedup = base_total / p.total_s;
    p.efficiency = p.speedup / static_cast<double>(g);
    out.push_back(p);
  }
  return out;
}

bool ranks_agree(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  // Identical ranking <=> no discordant pair; ties in either accept both
  // orders, so only strict inversions count.
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if ((a[i] < a[j] && b[i] > b[j]) || (a[i] > a[j] && b[i] < b[j])) return false;
    }
  }
  return true;
}

}  // namespace portabench::perfmodel
