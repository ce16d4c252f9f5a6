#include "engine.hpp"

#include <cstdlib>
#include <thread>

namespace portabench::gpusim {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("PORTABENCH_GPUSIM_THREADS")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

thread_local std::size_t tls_region_depth = 0;

}  // namespace

LaunchEngine::LaunchEngine(std::size_t threads, simrt::Placement placement)
    : num_workers_(resolve_threads(threads)), placement_(std::move(placement)) {
  PB_EXPECTS(placement_.core_of_thread.empty() ||
             placement_.core_of_thread.size() >= num_workers_);
}

LaunchEngine& LaunchEngine::shared() {
  static LaunchEngine engine;
  return engine;
}

bool LaunchEngine::in_region() noexcept { return tls_region_depth != 0; }

LaunchEngine::RegionScope::RegionScope() noexcept { ++tls_region_depth; }
LaunchEngine::RegionScope::~RegionScope() { --tls_region_depth; }

simrt::ThreadPool& LaunchEngine::ensure_pool() {
  if (!pool_) {
    pool_ = std::make_unique<simrt::ThreadPool>(num_workers_, placement_);
    arenas_.resize(num_workers_);
  }
  return *pool_;
}

std::span<std::byte> LaunchEngine::worker_arena(std::size_t worker, std::size_t bytes) {
  // Inside a forked region each worker touches only its own padded slot,
  // so growth is race-free.  A worker id this engine never dealt (nested
  // launch routed through a different engine) falls back to the
  // thread-local arena rather than racing on someone else's slot.
  if (worker >= arenas_.size()) return local_arena(bytes);
  Arena& arena = arenas_[worker];
  if (arena.bytes.size() < bytes) {
    arena.bytes.resize(bytes);
    // Monotonic high-water mark; relaxed is fine, this is diagnostics.
    std::size_t seen = arena_high_water_.load(std::memory_order_relaxed);
    while (seen < bytes && !arena_high_water_.compare_exchange_weak(
                               seen, bytes, std::memory_order_relaxed,
                               std::memory_order_relaxed)) {
    }
  }
  if (bytes != 0) std::memset(arena.bytes.data(), 0, bytes);  // data() may be null
  return {arena.bytes.data(), bytes};
}

std::span<std::byte> LaunchEngine::local_arena(std::size_t bytes) {
  thread_local std::vector<std::byte> arena;
  if (arena.size() < bytes) arena.resize(bytes);
  if (bytes != 0) std::memset(arena.data(), 0, bytes);  // data() may be null
  return {arena.data(), bytes};
}

}  // namespace portabench::gpusim
