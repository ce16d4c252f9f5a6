// Runtime-configurable dispatch tunables.
//
// The fork-elision grain (ThreadPool::run_auto) and the dynamic-schedule
// chunk heuristic (detail::default_chunk) used to be translation-unit
// constants.  The paper's own cross-machine results (unroll-2 vs unroll-4
// winning on different GPUs) show the best scheduling point is
// machine-dependent, so these knobs are now process-global runtime values
// that the autotuner (src/tune, docs/TUNING.md) or the environment can
// override:
//
//   PORTABENCH_TUNE_FORK_CUTOFF   work items (simrt iterations, gpusim
//                                 simulated threads) below which a region
//                                 or launch runs inline instead of forking
//   PORTABENCH_TUNE_CHUNK         target chunks per thread for dynamic
//                                 schedules and gpusim block dealing
//   PORTABENCH_TUNE_MIN_GRAIN     minimum iterations per dynamic chunk
//
// Environment overrides are applied once, on first access; explicit
// set_dispatch_tunables() calls (the autotuner's path) win over the
// environment from that point on.  All values only change *scheduling* —
// lane decomposition and reduction join order are invariant, so results
// stay bitwise-identical across any setting (tunables_test pins this).
//
// Reads are relaxed atomics: a racing set_dispatch_tunables() simply means
// some in-flight region uses the old grain, which is benign by the same
// argument.
#pragma once

#include <cstddef>
#include <functional>

namespace portabench::simrt {

/// Compile-time defaults (the historical constants).  These live here —
/// the tuning surface — so every hard-coded scheduling literal has one
/// sanctioned home (portalint tn-magic-tile enforces this elsewhere).
inline constexpr std::size_t kDefaultForkCutoff = 4096;
inline constexpr std::size_t kDefaultChunksPerThread = 8;
inline constexpr std::size_t kDefaultMinGrain = 8;

/// Snapshot of the dispatch scheduling knobs.
struct DispatchTunables {
  std::size_t fork_cutoff = kDefaultForkCutoff;        ///< 0 = always fork
  std::size_t chunks_per_thread = kDefaultChunksPerThread;  ///< clamped >= 1
  std::size_t min_grain = kDefaultMinGrain;            ///< clamped >= 1
};

/// Current process-wide tunables (defaults + env on first access, or the
/// last set_dispatch_tunables()).
[[nodiscard]] DispatchTunables dispatch_tunables() noexcept;

/// Fast accessor for the hot run_auto() path: one relaxed atomic load.
[[nodiscard]] std::size_t dispatch_fork_cutoff() noexcept;

/// Install new tunables (clamped: chunks_per_thread/min_grain >= 1).
void set_dispatch_tunables(const DispatchTunables& t) noexcept;

/// Back to defaults, then re-apply environment overrides (test hook).
void reset_dispatch_tunables() noexcept;

/// Environment lookup signature (injectable for tests: the round-trip
/// regression feeds a fake environment instead of mutating the real one).
using EnvLookup = std::function<const char*(const char*)>;

/// `base` with any PORTABENCH_TUNE_{FORK_CUTOFF,CHUNK,MIN_GRAIN} values
/// from `lookup` applied on top.  Unparseable values are ignored.
[[nodiscard]] DispatchTunables parse_dispatch_env(const DispatchTunables& base,
                                                  const EnvLookup& lookup);

/// Parse a non-negative size from env text; false (and *out untouched) on
/// empty/garbage/negative input.
[[nodiscard]] bool parse_tunable_size(const char* text, std::size_t* out) noexcept;

}  // namespace portabench::simrt
