// The one hardware description of the paper's two nodes (Section III,
// Tables I and II).
//
// Crusher is a 4-NUMA EPYC 7A53 feeding MI250X GCDs over Infinity Fabric;
// Wombat is a single-domain Ampere Altra feeding A100s over PCIe 4.0.
// These records are pure data: the simulator (gpusim) and the analytical
// model (perfmodel) both read them, so each number lives in exactly one
// place and a modeled-vs-measured comparison can never compare models
// built from different constants.  docs/MULTIGPU.md tabulates the link
// values and why each was chosen.
#pragma once

#include <cstddef>
#include <string_view>

#include "common/error.hpp"
#include "common/precision.hpp"

namespace portabench::hw {

/// Host CPU topology: `cores` physical cores split evenly over
/// `numa_domains` domains.
struct CpuTopology {
  std::size_t cores = 1;
  std::size_t numa_domains = 1;

  [[nodiscard]] std::size_t cores_per_domain() const {
    PB_EXPECTS(numa_domains > 0 && cores % numa_domains == 0);
    return cores / numa_domains;
  }

  /// NUMA domain that owns a given core id.
  [[nodiscard]] std::size_t domain_of(std::size_t core) const {
    PB_EXPECTS(core < cores);
    return core / cores_per_domain();
  }
};

/// Host CPU: its topology plus the rates the CPU model consumes.
struct CpuSpec : CpuTopology {
  std::string_view name;  ///< static string: the records copy freely
  double freq_ghz = 1.0;
  std::size_t simd_bits = 128;       ///< vector width (AVX2: 256, NEON: 128)
  std::size_t fma_pipes = 2;         ///< FMA-capable pipes per core
  double mem_bw_gbs = 100.0;         ///< aggregate DRAM bandwidth
  double l3_bytes = 32.0e6;          ///< shared last-level cache
  double l2_per_core_bytes = 512e3;
  double fork_join_us = 15.0;        ///< parallel-region open/close cost
  bool native_fp16 = false;          ///< Arm has FP16 NEON; x86 Zen 3 does not

  [[nodiscard]] const CpuTopology& topology() const noexcept { return *this; }

  /// FLOPs per core per cycle at a precision (2 ops per FMA lane).
  [[nodiscard]] double flops_per_cycle(Precision prec) const {
    const double fma_lanes64 =
        2.0 * static_cast<double>(fma_pipes) * (static_cast<double>(simd_bits) / 64.0);
    switch (prec) {
      case Precision::kDouble: return fma_lanes64;
      case Precision::kSingle: return fma_lanes64 * 2.0;
      // With native FP16 the vector is twice as wide again; without it,
      // every element converts through FP32, so the rate is the FP32 rate
      // (conversion cost is modeled separately in the traits).
      case Precision::kHalfIn: return fma_lanes64 * (native_fp16 ? 8.0 : 4.0) / 2.0;
    }
    return 0.0;
  }
  /// Aggregate peak GFLOP/s at a precision.
  [[nodiscard]] double peak_gflops(Precision prec) const {
    return static_cast<double>(cores) * freq_ghz * flops_per_cycle(prec);
  }

  /// Crusher: 64-core Zen 3 "Trento", 4 NUMA domains.
  [[nodiscard]] static CpuSpec epyc_7a53() {
    CpuSpec s;
    s.name = "AMD EPYC 7A53 (Trento, Zen 3)";
    s.cores = 64;
    s.numa_domains = 4;
    s.freq_ghz = 2.0;
    s.simd_bits = 256;      // AVX2
    s.mem_bw_gbs = 205.0;   // 8-channel DDR4-3200
    s.l3_bytes = 256.0e6;
    s.fork_join_us = 18.0;  // 64 threads across 4 NUMA domains
    return s;
  }
  /// Wombat: 80-core Neoverse N1, one NUMA domain.
  [[nodiscard]] static CpuSpec ampere_altra() {
    CpuSpec s;
    s.name = "Ampere Altra (Neoverse N1)";
    s.cores = 80;
    s.numa_domains = 1;
    s.freq_ghz = 3.0;
    s.simd_bits = 128;     // 2x NEON
    s.mem_bw_gbs = 204.0;  // 8-channel DDR4-3200
    s.l3_bytes = 32.0e6;   // system-level cache
    s.l2_per_core_bytes = 1024e3;
    s.fork_join_us = 12.0;
    s.native_fp16 = true;  // Armv8.2 FP16 arithmetic
    return s;
  }
};

enum class Vendor { kNvidia, kAmd };

/// One GPU (or MI250X GCD): the SIMT shape and launch limits the
/// simulator validates against, and the rates the analytical model uses.
struct GpuSpec {
  std::string_view name;  ///< static string: the records copy freely
  Vendor vendor = Vendor::kNvidia;
  std::size_t warp_size = 32;           ///< 32 (NVIDIA warp) or 64 (AMD wavefront)
  std::size_t sm_count = 108;           ///< A100: 108 SMs; MI250X GCD: 110 CUs
  std::size_t max_threads_per_block = 1024;
  std::size_t max_threads_per_sm = 2048;
  std::size_t max_blocks_per_sm = 32;
  std::size_t registers_per_sm = 65536;
  std::size_t shared_mem_per_block = 48 * 1024;
  std::size_t shared_mem_per_sm = 164 * 1024;
  std::size_t global_mem_bytes = std::size_t{64} * 1024 * 1024 * 1024;
  double peak_fp64_gflops = 0.0;
  double peak_fp32_gflops = 0.0;
  double peak_fp16_gflops = 0.0;  ///< vector (non-tensor/matrix-core) rate
  double mem_bw_gbs = 0.0;
  double launch_latency_us = 5.0;
  double l2_bytes = 40e6;

  [[nodiscard]] double peak_gflops(Precision prec) const noexcept {
    switch (prec) {
      case Precision::kDouble: return peak_fp64_gflops;
      case Precision::kSingle: return peak_fp32_gflops;
      case Precision::kHalfIn: return peak_fp16_gflops;
    }
    return 0.0;
  }

  /// Wombat: NVIDIA A100 (SXM4, 40 GB).
  [[nodiscard]] static GpuSpec a100() {
    return {.name = "NVIDIA A100 (SXM4 40GB)",
            .vendor = Vendor::kNvidia,
            .global_mem_bytes = std::size_t{40} * 1024 * 1024 * 1024,
            .peak_fp64_gflops = 9700.0,
            .peak_fp32_gflops = 19500.0,
            .peak_fp16_gflops = 39000.0,  // no tensor cores in naive kernels
            .mem_bw_gbs = 1555.0,
            .launch_latency_us = 4.0};
  }
  /// Crusher: one GCD of an AMD MI250X (the paper's single-GPU runs use
  /// one GCD).  CDNA2 vector FP32 nominally matches FP64, but packed
  /// (v_pk) FP32 dual-issue lifts the achievable rate on multiply-add
  /// streams; the paper observes "all models provide an increase in
  /// performance" at FP32 on the MI250X, which this effective peak reflects.
  [[nodiscard]] static GpuSpec mi250x_gcd() {
    return {.name = "AMD MI250X (one GCD)",
            .vendor = Vendor::kAmd,
            .warp_size = 64,  // AMD wavefront
            .sm_count = 110,  // compute units per GCD
            .shared_mem_per_block = 64 * 1024,
            .shared_mem_per_sm = 64 * 1024,
            .peak_fp64_gflops = 23950.0,
            .peak_fp32_gflops = 35900.0,
            .peak_fp16_gflops = 47900.0,  // packed vector FP16
            .mem_bw_gbs = 1600.0,
            .launch_latency_us = 6.0,
            .l2_bytes = 8e6};
  }
};

/// One directed link: per-transfer latency plus sustained bandwidth.
struct Link {
  double bw_gbs = 16.0;     ///< GB/s (1e9 bytes per second), one direction
  double latency_us = 5.0;  ///< per-transfer setup cost
  bool duplex = true;       ///< H2D and D2H can proceed concurrently

  /// Seconds to move `bytes` one way.
  [[nodiscard]] constexpr double seconds(double bytes) const noexcept {
    return latency_us * 1e-6 + bytes / (bw_gbs * 1e9);
  }

  /// Crusher: host-attached Infinity Fabric, CPU to GCD.
  [[nodiscard]] static constexpr Link infinity_fabric() { return {36.0, 5.0}; }
  /// Wombat: PCIe 4.0 x16, sustained (of 32 GB/s theoretical).
  [[nodiscard]] static constexpr Link pcie4_x16() { return {26.0, 6.0}; }
};

/// Node shape: which GPU, how many, which host CPU stages their
/// transfers, and the four link classes between them (NUMA-local vs
/// remote H2D, near vs far D2D).  Defaults are the Crusher links behind a
/// one-core, one-domain host.
struct NodeSpec {
  GpuSpec gpu = GpuSpec::mi250x_gcd();
  std::size_t devices = 1;
  CpuSpec host;

  // A staging buffer in a remote domain crosses the socket fabric first
  // (roughly a third of the local rate); GCD pairs inside one MCM see the
  // wide in-package fabric, cross-package hops the narrow one.
  Link h2d_local = Link::infinity_fabric();
  Link h2d_remote{12.0, 8.0};
  Link d2d_near{200.0, 2.0};
  Link d2d_far{50.0, 3.0};
  double host_bw_gbs = 170.0;  ///< aggregate host-memory ceiling all links drain

  /// NUMA domain that feeds a device (Crusher: GCD g -> domain g/2).
  [[nodiscard]] std::size_t numa_domain_of(std::size_t device) const {
    PB_EXPECTS(device < devices);
    return device * host.numa_domains / devices;
  }
  /// MCM package of a device (two GCDs per MI250X package).
  [[nodiscard]] static constexpr std::size_t package_of(std::size_t device) noexcept {
    return device / 2;
  }
  /// Link a host<->device transfer rides, given the host buffer's home
  /// domain: local when it matches the device's feeding domain.  The
  /// links are duplex, so D2H rides the same link as H2D.
  [[nodiscard]] const Link& h2d(std::size_t device, std::size_t host_domain) const {
    return host_domain == numa_domain_of(device) ? h2d_local : h2d_remote;
  }
  /// Device-to-device link: in-package fabric or cross-package hop.
  [[nodiscard]] const Link& d2d(std::size_t src, std::size_t dst) const {
    PB_EXPECTS(src < devices && dst < devices);
    return package_of(src) == package_of(dst) ? d2d_near : d2d_far;
  }

  /// Crusher node: `devices` MI250X GCDs (8 = full node) behind the EPYC.
  [[nodiscard]] static NodeSpec crusher(std::size_t devices = 8) {
    NodeSpec s;
    s.devices = devices;
    s.host = CpuSpec::epyc_7a53();
    return s;
  }
  /// Wombat node: A100s behind the Altra.  H2D and peer traffic all ride
  /// PCIe 4.0 (peers bounce through it), so there is no NUMA or near/far
  /// asymmetry.
  [[nodiscard]] static NodeSpec wombat(std::size_t devices = 2) {
    NodeSpec s;
    s.gpu = GpuSpec::a100();
    s.devices = devices;
    s.host = CpuSpec::ampere_altra();
    s.h2d_local = s.h2d_remote = s.d2d_near = s.d2d_far = Link::pcie4_x16();
    s.host_bw_gbs = 150.0;
    return s;
  }
};

}  // namespace portabench::hw
