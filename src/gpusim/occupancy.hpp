// Occupancy calculator (cudaOccupancyMaxActiveBlocksPerMultiprocessor
// analogue).
//
// The paper attributes Kokkos' A100 slowdown to block/thread configuration
// chosen by template-time heuristics ("select the appropriate values for a
// number of blocks and threads per block ... Templates set this kind of
// optimization").  The occupancy model quantifies exactly that effect and
// feeds the GPU performance model and the block-size ablation bench.
#pragma once

#include <cstddef>

#include "common/hardware.hpp"

namespace portabench::gpusim {

using hw::GpuSpec;

/// Per-kernel resource footprint.
struct KernelResources {
  std::size_t threads_per_block = 0;
  std::size_t registers_per_thread = 32;
  std::size_t shared_bytes_per_block = 0;
};

/// Result of the occupancy computation for one SM / CU.
struct Occupancy {
  std::size_t active_blocks_per_sm = 0;
  std::size_t active_threads_per_sm = 0;
  double fraction = 0.0;  ///< active threads / max threads per SM, in [0, 1]
  /// Which resource bound the result ("threads", "blocks", "registers",
  /// "shared", or "none" when the block itself is invalid).
  const char* limiter = "none";
};

/// Compute achievable occupancy of `kernel` on `spec`.
[[nodiscard]] Occupancy compute_occupancy(const GpuSpec& spec, const KernelResources& kernel);

/// Number of full waves needed to run `total_blocks` blocks, given the
/// per-SM active block count; the fractional tail models the partial last
/// wave ("tail effect").
[[nodiscard]] double waves_for(const GpuSpec& spec, const Occupancy& occ,
                               std::size_t total_blocks);

}  // namespace portabench::gpusim
