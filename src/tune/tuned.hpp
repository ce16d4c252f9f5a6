// Dispatch-facing tuned-configuration resolver.
//
// This is the piece the hot paths touch, so it is built for the warm
// case: resolving a tuned TileConfig for (precision, size bucket) is ONE
// acquire load of an atomic slot pointer — no lock, no allocation, no
// map.  The first lookup per slot walks the loaded cache (fingerprint-
// filtered), heap-allocates the resolved config once, and installs it
// with a CAS; a losing racer frees its copy and adopts the winner's, so
// concurrent first-use lookups from the serve shards race cleanly (the
// sanitized tier pins this).  Installed slots are never replaced or
// freed outside reset_for_testing(), which is why returning references
// into them is safe.
//
// Environment:
//   PORTABENCH_TUNE_CACHE    path of the persisted cache to consult
//   PORTABENCH_TUNE_DISABLE  "1" = ignore the cache, run pure defaults
//
// The process-wide scheduling knobs (simrt dispatch, which gpusim
// launches read too) are not per-call lookups; apply_process_tunables()
// pushes the cached winner into the simrt tunables once, with explicit
// PORTABENCH_TUNE_* env overrides keeping precedence over the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "cache.hpp"
#include "common/precision.hpp"
#include "gemm/kernels_tiled.hpp"

namespace portabench::tune {

/// The resolver's slow path (cache load + slot install) is genuinely
/// concurrent across serve shards and needs a real lock; the warm path
/// never touches it.
using TuneMutex = std::mutex;  // portalint: raw-thread-ok(first-use cache load races across serve shards; warm path is lock-free)

/// The tile schedule a "gemm-tile" config names.  Only the searchable
/// knobs are read (mc, tier); kc is frozen as order-affecting, so it is
/// always gemm::tiled::kKC whatever the config says.  Missing or
/// out-of-range knobs keep their TileConfig{} default.
[[nodiscard]] gemm::TileConfig tile_config_of(const Config& config) noexcept;

class Tuned {
 public:
  /// Process-wide instance (what dispatch consults).
  [[nodiscard]] static Tuned& instance();

  /// Tuned tiled-GEMM schedule for one (precision, serve size-class)
  /// bucket; TileConfig{} when the cache has no matching entry for this
  /// machine.  Warm calls: one acquire load, zero allocation.
  [[nodiscard]] const gemm::TileConfig& gemm_tile(Precision p,
                                                  std::uint32_t size_class) noexcept;

  /// Tuned ServeEngine batch size, or `fallback` when untuned.
  [[nodiscard]] std::size_t serve_batch_jobs(std::size_t fallback) noexcept;

  /// Tuned ServeEngine flush-sort kernel choice ("serve-batch" space,
  /// sort_radix knob), or `fallback` when untuned.
  [[nodiscard]] bool serve_sort_radix(bool fallback) noexcept;

  /// Push the cached "dispatch" winner into the simrt runtime tunables
  /// (simrt regions and gpusim launches).  Explicit PORTABENCH_TUNE_*
  /// environment variables win over the cache (a set variable blocks the
  /// cache for that knob).  Entries for spaces the registry no longer
  /// has are ignored.
  void apply_process_tunables() noexcept;

  // -- diagnostics / test hooks --------------------------------------

  /// Cache-load outcome (triggers the lazy load).
  [[nodiscard]] CacheLoadStatus load_status();
  [[nodiscard]] std::string load_warning();

  /// Slow-path slot installs so far: stable once warm — the soak-style
  /// no-steady-state-allocation check asserts this stops growing.
  [[nodiscard]] std::uint64_t slot_fills() const noexcept {
    return slot_fills_.load(std::memory_order_relaxed);
  }

  /// Drop all memoized slots and reload from `cache_path` (empty =
  /// PORTABENCH_TUNE_CACHE).  NOT safe against concurrent lookups; test
  /// and CLI use only.
  void reset_for_testing(const std::string& cache_path = {});

  ~Tuned();

 private:
  Tuned() = default;
  void ensure_loaded();
  void free_slots() noexcept;

  static constexpr std::size_t kNumPrecisions = 3;
  /// size_class is log2-bucketed from a uint32 job dimension, so < 32.
  static constexpr std::size_t kSizeClasses = 32;

  std::atomic<const gemm::TileConfig*> tile_slots_[kNumPrecisions * kSizeClasses] = {};
  std::atomic<std::uint64_t> slot_fills_{0};

  TuneMutex mutex_;  ///< guards the load + the fields below
  bool loaded_ = false;
  bool disabled_ = false;
  std::string explicit_path_;
  TuningCache cache_;
  std::uint64_t fingerprint_ = 0;
  CacheLoadResult load_result_;
};

}  // namespace portabench::tune
