#include "hooks.hpp"

#include <cstdlib>
#include <string>

namespace portabench::portacheck {

namespace detail {

constinit thread_local std::uint64_t tls_lane = 0;

namespace {

void init_from_env(Globals& g) noexcept {
  if (const char* v = std::getenv("PORTABENCH_CHECK")) {
    const std::string s(v);
    g.enabled.store(!s.empty() && s != "0" && s != "off", std::memory_order_relaxed);
  }
  if (const char* v = std::getenv("PORTABENCH_CHECK_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end != v) g.seed.store(parsed, std::memory_order_relaxed);
  }
}

}  // namespace

Globals& globals() noexcept {
  // Meyers singleton: env is read once, on first use, so tests can
  // override programmatically afterwards.
  static Globals g;
  static const bool initialized = (init_from_env(g), true);
  (void)initialized;
  return g;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::globals().enabled.store(on, std::memory_order_relaxed);
}

void set_seed(std::uint64_t seed) noexcept {
  detail::globals().seed.store(seed, std::memory_order_relaxed);
}

ScopedCheck::ScopedCheck(std::uint64_t seed) noexcept
    : prev_enabled_(active()), prev_seed_(order_seed()) {
  set_enabled(true);
  set_seed(seed);
}

ScopedCheck::~ScopedCheck() {
  set_enabled(prev_enabled_);
  set_seed(prev_seed_);
}

namespace {

/// splitmix64: tiny, seedable, no dependency on common/rng so the hook
/// layer stays leaf-level.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (seed == 0) return order;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace portabench::portacheck
