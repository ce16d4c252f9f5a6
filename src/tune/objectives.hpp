// Timed tuner objectives over the real kernels.
//
// Each factory returns an Objective closure that owns its workload state
// (matrices, sinks, an engine) so repeated evaluations measure the same
// work; one call = one timed evaluation in milliseconds.  The process-
// wide tunables an objective exercises (dispatch/launch) are set from
// the candidate config for the duration of the evaluation and restored
// afterwards — tuning measurements never leak scheduling state into the
// caller.
//
// These live in a separate library (portabench_tune_objectives) because
// the serve-batch objective needs the serving layer, and serve itself
// links the tune core — the split keeps the dependency graph acyclic.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/precision.hpp"
#include "search.hpp"

namespace portabench::tune {

/// Tiled-GEMM schedule objective: one n x n GEMM at precision `p` over a
/// persistent thread team; candidate configs name "mc"/"tier" (read
/// through tile_config_of, so the frozen "kc" never moves).
[[nodiscard]] Objective gemm_tile_objective(Precision p, std::size_t n);

/// simrt dispatch objective: small trivial-work parallel regions (static
/// + dynamic) of `extent` iterations — the regime where fork cost
/// dominates; candidates name "fork_cutoff"/"chunks_per_thread"/
/// "min_grain".
[[nodiscard]] Objective dispatch_objective(std::size_t extent = 8192);

/// gpusim launch objective: `blocks` trivial blocks of `block_threads`
/// simulated threads, run under the dispatch-space candidate's
/// "fork_cutoff"/"chunks_per_thread" (the knobs LaunchEngine reads).
[[nodiscard]] Objective launch_objective(std::size_t blocks = 512,
                                         std::size_t block_threads = 64);

/// Serving objective: stream `jobs` tiled-GEMM jobs of size `n` through
/// a fresh ServeEngine per evaluation; candidates name "batch_jobs".
[[nodiscard]] Objective serve_batch_objective(std::size_t jobs = 2048, std::uint32_t n = 48);

}  // namespace portabench::tune
