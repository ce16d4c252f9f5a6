#include "device.hpp"

#include "engine.hpp"

namespace portabench::gpusim {

DeviceContext::DeviceContext(GpuSpec spec) : spec_(std::move(spec)) {
  PB_EXPECTS(spec_.warp_size > 0 && spec_.max_threads_per_block > 0);
}

DeviceContext::~DeviceContext() = default;

void DeviceContext::validate_launch(const Dim3& grid, const Dim3& block) const {
  PB_EXPECTS(grid.volume() > 0);
  PB_EXPECTS(block.volume() > 0);
  PB_EXPECTS(block.volume() <= spec_.max_threads_per_block);
}

namespace {

std::size_t cache_slot(const Dim3& grid, const Dim3& block, std::size_t shared_bytes,
                       std::size_t slots) {
  // FNV-1a over the nine key words; slots is a power of two.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::size_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  mix(grid.x);
  mix(grid.y);
  mix(grid.z);
  mix(block.x);
  mix(block.y);
  mix(block.z);
  mix(shared_bytes);
  return static_cast<std::size_t>(h) & (slots - 1);
}

}  // namespace

const Occupancy& DeviceContext::validate_launch_cached(const Dim3& grid, const Dim3& block,
                                                       std::size_t shared_bytes) const {
  const std::size_t slot = cache_slot(grid, block, shared_bytes, kCacheSlots);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    CacheEntry& e = cache_[slot];
    if (e.valid && e.grid == grid && e.block == block && e.shared_bytes == shared_bytes) {
      ++cache_stats_.hits;
      return e.occupancy;
    }
  }
  // Miss: full validation outside the lock (it may throw), then install.
  validate_launch(grid, block);
  PB_EXPECTS(shared_bytes <= spec_.shared_mem_per_block);
  KernelResources res;
  res.threads_per_block = block.volume();
  res.shared_bytes_per_block = shared_bytes;
  const Occupancy occ = compute_occupancy(spec_, res);

  std::lock_guard<std::mutex> lock(cache_mutex_);
  CacheEntry& e = cache_[slot];
  e.valid = true;
  e.grid = grid;
  e.block = block;
  e.shared_bytes = shared_bytes;
  e.occupancy = occ;
  ++cache_stats_.misses;
  return e.occupancy;
}

LaunchCacheStats DeviceContext::launch_cache_stats() const noexcept {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_stats_;
}

LaunchEngine& DeviceContext::engine() const noexcept {
  return engine_ ? *engine_ : LaunchEngine::shared();
}

DeviceCounters DeviceContext::counters() const noexcept {
  DeviceCounters c;
  c.kernel_launches = kernel_launches_.load(std::memory_order_relaxed);
  c.blocks_executed = blocks_executed_.load(std::memory_order_relaxed);
  c.threads_executed = threads_executed_.load(std::memory_order_relaxed);
  c.bytes_h2d = bytes_h2d_.load(std::memory_order_relaxed);
  c.bytes_d2h = bytes_d2h_.load(std::memory_order_relaxed);
  c.bytes_d2d_in = bytes_d2d_in_.load(std::memory_order_relaxed);
  c.bytes_d2d_out = bytes_d2d_out_.load(std::memory_order_relaxed);
  c.bytes_allocated = bytes_allocated_.load(std::memory_order_relaxed);
  c.live_allocations = live_allocations_.load(std::memory_order_relaxed);
  c.peak_bytes_allocated = peak_bytes_allocated_.load(std::memory_order_relaxed);
  return c;
}

void DeviceContext::reset_counters() noexcept {
  kernel_launches_.store(0, std::memory_order_relaxed);
  blocks_executed_.store(0, std::memory_order_relaxed);
  threads_executed_.store(0, std::memory_order_relaxed);
  bytes_h2d_.store(0, std::memory_order_relaxed);
  bytes_d2h_.store(0, std::memory_order_relaxed);
  bytes_d2d_in_.store(0, std::memory_order_relaxed);
  bytes_d2d_out_.store(0, std::memory_order_relaxed);
  bytes_allocated_.store(0, std::memory_order_relaxed);
  // Live memory is not forgotten: bytes_in_use_ and live_allocations_
  // survive (zeroing the live count would make the next note_free
  // underflow its precondition), and the peak restarts from what is
  // still resident rather than from zero.
  peak_bytes_allocated_.store(bytes_in_use_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

void DeviceContext::note_alloc(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const std::size_t in_use = bytes_in_use_.load(std::memory_order_relaxed);
  PB_EXPECTS(in_use + bytes <= spec_.global_mem_bytes);  // device OOM
  bytes_in_use_.store(in_use + bytes, std::memory_order_relaxed);
  bytes_allocated_.fetch_add(bytes, std::memory_order_relaxed);
  live_allocations_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t peak = peak_bytes_allocated_.load(std::memory_order_relaxed);
  if (in_use + bytes > peak) {
    peak_bytes_allocated_.store(in_use + bytes, std::memory_order_relaxed);
  }
}

void DeviceContext::note_free(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const std::size_t in_use = bytes_in_use_.load(std::memory_order_relaxed);
  PB_EXPECTS(in_use >= bytes);
  PB_EXPECTS(live_allocations_.load(std::memory_order_relaxed) > 0);
  bytes_in_use_.store(in_use - bytes, std::memory_order_relaxed);
  live_allocations_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace portabench::gpusim
