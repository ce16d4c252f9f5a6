// Block-parallel execution engine for the SIMT simulator.
//
// The gpusim device executes kernels functionally on the host, and after
// the simrt dispatch overhaul the serial block walk in launch() became
// the slowest layer of the stack.  Blocks of a CUDA grid are independent
// by construction, so the engine runs them across the lock-free simrt
// ThreadPool: launch() and launch_blocks() hand the engine a per-block
// body, the engine deals contiguous block chunks to the pool workers
// through one relaxed fetch_add counter, and sub-cutoff grids skip the
// fork entirely.  Both scheduling choices read simrt's dispatch tunables
// (simrt/tunables.hpp): fork_cutoff is the same "too small to fork" line
// ThreadPool::run_auto uses, and chunks_per_thread sets how finely blocks
// are dealt — one setting per decision for every fork onto a host team.
//
// The engine also owns the two pieces of per-launch state that used to be
// reallocated on every launch:
//   - per-worker shared-memory arenas (BlockCtx scratch) that grow to the
//     high-water mark and are then reused — zero allocations on the
//     steady-state launch path;
//   - nothing else: the launch-configuration cache is per-DeviceContext
//     (validation depends on the GpuSpec) — see DeviceContext::
//     validate_launch_cached.
//
// One engine is shared process-wide by default (DeviceContext::engine()),
// so a test binary with dozens of DeviceContexts spawns one worker team,
// not dozens.  Concurrent launches (e.g. from two async Streams) are
// serialized on an internal mutex — the host is one simulated device, and
// real GPUs serialize kernels onto the same SMs just the same — while a
// launch issued from *inside* an engine region (a kernel launching a
// kernel, or a sub-cutoff launch on a pool worker) degrades to the serial
// inline walk instead of deadlocking on the non-reentrant pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/buffer.hpp"
#include "simrt/thread_pool.hpp"
#include "simrt/tunables.hpp"

namespace portabench::gpusim {

class LaunchEngine {
 public:
  /// `threads == 0` resolves to PORTABENCH_GPUSIM_THREADS or, failing
  /// that, the host's hardware concurrency.  Workers are spawned lazily
  /// on the first launch that actually forks, so constructing an engine
  /// (or a DeviceContext) stays cheap.  A non-empty `placement` is
  /// handed to the worker pool when it spawns, pinning workers to host
  /// cores — DeviceTopology uses this to keep each simulated GCD's
  /// workers inside the NUMA domain that feeds the device.
  explicit LaunchEngine(std::size_t threads = 0, simrt::Placement placement = {});

  LaunchEngine(const LaunchEngine&) = delete;
  LaunchEngine& operator=(const LaunchEngine&) = delete;

  /// The process-wide default engine (what DeviceContext::engine()
  /// returns unless an explicit engine was installed).
  [[nodiscard]] static LaunchEngine& shared();

  /// Worker count the engine forks to (without spawning the pool).
  [[nodiscard]] std::size_t workers() const noexcept { return num_workers_; }

  /// The placement workers will be (or were) pinned with; empty when the
  /// engine leaves scheduling to the OS.
  [[nodiscard]] const simrt::Placement& placement() const noexcept { return placement_; }

  /// True while the current thread is executing inside an engine region
  /// (used by launch() to degrade nested launches to the serial walk).
  [[nodiscard]] static bool in_region() noexcept;

  /// Worker id the serial (non-forked) path reports: tells the caller
  /// the block is NOT running on a pool worker, so per-worker state
  /// (arena slots) must not be indexed with it.
  static constexpr std::size_t kSerialWorker = static_cast<std::size_t>(-1);

  /// Run body(worker, block) for every block in [0, num_blocks).
  /// Forks across the pool when `total_threads` (the launch's simulated
  /// thread count) reaches the dispatch fork_cutoff and the caller is not
  /// already inside a region; otherwise runs serially on the caller with
  /// worker id kSerialWorker.  Blocks are dealt to workers in contiguous
  /// chunks via a shared counter, so guard-trimmed edge blocks
  /// load-balance.
  template <class Body>
  void run_blocks(std::size_t num_blocks, std::size_t total_threads, Body&& body) {
    if (num_blocks == 0) return;
    const simrt::DispatchTunables dt = simrt::dispatch_tunables();
    if (total_threads < dt.fork_cutoff || num_workers_ <= 1 || in_region()) {
      for (std::size_t b = 0; b < num_blocks; ++b) body(kSerialWorker, b);
      return;
    }
    std::lock_guard<std::mutex> lock(launch_mutex_);
    simrt::ThreadPool& pool = ensure_pool();
    const std::size_t nt = pool.size();
    // ~chunks_per_thread chunks per worker bounds the counter traffic
    // (block dealing only — per-block results are unaffected).  The
    // setter clamps chunks_per_thread to >= 1.
    const std::size_t chunk = std::max<std::size_t>(1, num_blocks / (nt * dt.chunks_per_thread));
    std::atomic<std::size_t> next{0};
    pool.run([&](std::size_t t) {
      const RegionScope scope;
      for (;;) {
        const std::size_t start = next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= num_blocks) return;
        const std::size_t stop = std::min(start + chunk, num_blocks);
        for (std::size_t b = start; b < stop; ++b) body(t, b);
      }
    });
  }

  /// Zero-filled per-worker scratch of at least `bytes`, valid until the
  /// worker's next acquire.  Arenas grow to the high-water mark and are
  /// then reused: the steady-state launch path performs no allocation.
  /// Only meaningful inside run_blocks (worker ids index the pool team).
  [[nodiscard]] std::span<std::byte> worker_arena(std::size_t worker, std::size_t bytes);

  /// The serial-path analogue of worker_arena: a thread-local pooled
  /// arena, so concurrent serial launches (two async streams, say) never
  /// share scratch.
  [[nodiscard]] static std::span<std::byte> local_arena(std::size_t bytes);

  /// High-water mark of the largest arena ever handed out by this engine
  /// (worker arenas only; diagnostics for tests and the launch bench).
  [[nodiscard]] std::size_t arena_high_water() const noexcept {
    return arena_high_water_.load(std::memory_order_relaxed);
  }

 private:
  /// RAII thread_local region marker (see in_region()).
  struct RegionScope {
    RegionScope() noexcept;
    ~RegionScope();
    RegionScope(const RegionScope&) = delete;
    RegionScope& operator=(const RegionScope&) = delete;
  };

  /// Cache-line-padded per-worker arena: workers grow their own slot
  /// concurrently, so slots must not share lines.
  struct alignas(kCacheLineBytes) Arena {
    std::vector<std::byte> bytes;
  };

  simrt::ThreadPool& ensure_pool();  // callers hold launch_mutex_

  std::size_t num_workers_;
  simrt::Placement placement_;               // forwarded to the pool when it spawns
  std::unique_ptr<simrt::ThreadPool> pool_;  // created on first forked launch
  std::vector<Arena> arenas_;                // sized with the pool
  std::atomic<std::size_t> arena_high_water_{0};
  std::mutex launch_mutex_;
};

}  // namespace portabench::gpusim
