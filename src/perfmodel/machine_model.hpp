// Analytical machine model for the naive GEMM kernels.
//
// Produces the *vendor-reference* GFLOPS-vs-size curves (C/OpenMP on CPUs,
// CUDA/HIP on GPUs) from first principles: a roofline of peak FLOP rate
// vs. cache-aware DRAM traffic, plus fork-join / kernel-launch overheads
// and a small-problem utilization term.  Portable-model curves are then
// derived from these references through the calibrated ModelTraits
// (traits.hpp), mirroring how the paper reports portable models as
// efficiencies against the vendor implementation (Eq. 2).
#pragma once

#include <cstddef>

#include "common/precision.hpp"
#include "device_specs.hpp"
#include "simrt/affinity.hpp"

namespace portabench::perfmodel {

/// Decomposed prediction for one GEMM execution.
struct TimeBreakdown {
  double compute_s = 0.0;   ///< FLOP-limited time
  double memory_s = 0.0;    ///< DRAM-traffic-limited time
  double overhead_s = 0.0;  ///< fork-join / launch latency
  double total_s = 0.0;     ///< max(compute, memory) + overhead
  bool memory_bound = false;
  double gflops = 0.0;      ///< 2 n^3 / total
  double dram_bytes = 0.0;  ///< modeled DRAM traffic
};

/// Model of a CPU platform running the multithreaded naive GEMM of
/// Fig. 2 with the vendor C/OpenMP implementation.
class CpuMachineModel {
 public:
  /// @param kernel_compute_eff fraction of SIMD peak the vendor-compiled
  ///        naive axpy inner loop sustains (vectorized but untiled).
  /// @param kernel_bw_eff achieved fraction of STREAM bandwidth.
  CpuMachineModel(CpuSpec spec, double kernel_compute_eff = 0.55,
                  double kernel_bw_eff = 0.75)
      : spec_(std::move(spec)),
        compute_eff_(kernel_compute_eff),
        bw_eff_(kernel_bw_eff) {}

  [[nodiscard]] const CpuSpec& spec() const noexcept { return spec_; }

  /// Modeled DRAM traffic (bytes) of an n^3 GEMM: compulsory 3 n^2 plus
  /// the un-cached share of B re-streamed once per round of `threads`
  /// output rows (threads progressing together share the B stream through
  /// the common last-level cache).
  [[nodiscard]] double dram_traffic_bytes(Precision prec, std::size_t n,
                                          std::size_t threads) const;

  /// Fraction of the thread team with useful work: row-parallel GEMM only
  /// feeds min(n, threads) threads, and very small per-thread slices lose
  /// additional efficiency to load imbalance.
  [[nodiscard]] double utilization(std::size_t n, std::size_t threads) const;

  /// Vendor-reference execution time at `threads` threads under `bind`.
  [[nodiscard]] TimeBreakdown reference_time(Precision prec, std::size_t n,
                                             std::size_t threads,
                                             simrt::BindPolicy bind) const;

 private:
  CpuSpec spec_;
  double compute_eff_;
  double bw_eff_;
};

/// Model of a GPU platform running the fine-granularity naive GEMM of
/// Fig. 3 (one thread per C element, 32x32 blocks) with the vendor
/// CUDA/HIP implementation.
class GpuMachineModel {
 public:
  GpuMachineModel(GpuSpec spec, double kernel_compute_eff = 0.45,
                  double kernel_bw_eff = 0.85)
      : spec_(std::move(spec)),
        compute_eff_(kernel_compute_eff),
        bw_eff_(kernel_bw_eff) {}

  [[nodiscard]] const GpuSpec& spec() const noexcept { return spec_; }

  /// Modeled DRAM traffic: per 32x32 output tile the block reads 32 rows
  /// of A and 32 columns of B (A reads are warp-broadcast, B reads are
  /// coalesced; reuse beyond the tile is captured by L2 only for the A
  /// panel), plus the C writeback.
  [[nodiscard]] double dram_traffic_bytes(
      Precision prec, std::size_t n,
      std::size_t tile = 32) const;  // portalint: tn-magic-tile-ok(the paper's hand-picked 32x32 reference tile)

  /// Vendor-reference execution time for an n^3 GEMM with `tile`^2 blocks.
  [[nodiscard]] TimeBreakdown reference_time(
      Precision prec, std::size_t n,
      std::size_t tile = 32) const;  // portalint: tn-magic-tile-ok(the paper's hand-picked 32x32 reference tile)

 private:
  GpuSpec spec_;
  double compute_eff_;
  double bw_eff_;
};

}  // namespace portabench::perfmodel
