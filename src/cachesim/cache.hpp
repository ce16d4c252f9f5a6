// Set-associative cache simulator.
//
// The CPU machine model (perfmodel) *assumes* a traffic law: B re-streams
// from DRAM once per round of concurrent output rows unless it fits in
// the last-level cache.  This module provides the substrate to *check*
// that law: an LRU set-associative cache hierarchy that the instrumented
// GEMM walk drives address-by-address at reduced sizes, producing
// hit/miss counts the ablation bench compares against the analytical
// model's cached/uncached regimes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hardware.hpp"

namespace portabench::cachesim {

/// Outcome of one access at one level.
enum class Access { kHit, kMiss };

/// One cache level: set-associative, true-LRU replacement, write-allocate
/// write-back (the policy of the paper's CPUs' data caches).
class Cache {
 public:
  /// @param size_bytes total capacity; @param line_bytes cache-line size;
  /// @param ways associativity.  size must be divisible by line * ways.
  Cache(std::size_t size_bytes, std::size_t line_bytes, std::size_t ways);

  [[nodiscard]] std::size_t size_bytes() const noexcept { return sets_ * ways_ * line_; }
  [[nodiscard]] std::size_t line_bytes() const noexcept { return line_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }

  /// Access one byte address; loads the containing line on miss.
  Access access(std::uint64_t address);

  /// True when the line containing `address` is resident.
  [[nodiscard]] bool contains(std::uint64_t address) const;

  /// Drop all contents (not the statistics).
  void flush();

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }
  void reset_stats() noexcept {
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  std::size_t line_;
  std::size_t ways_;
  std::size_t sets_;
  std::vector<Way> entries_;  // sets_ x ways_, row-major
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// An inclusive multi-level hierarchy: access() tries each level in
/// order; a miss at every level counts as DRAM traffic (one line).
class Hierarchy {
 public:
  struct LevelStats {
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  void add_level(std::string level_name, std::size_t size_bytes, std::size_t line_bytes,
                 std::size_t ways);

  /// Access one address; returns the level index that hit (levels.size()
  /// means DRAM).
  std::size_t access(std::uint64_t address);

  [[nodiscard]] std::size_t levels() const noexcept { return caches_.size(); }
  [[nodiscard]] std::uint64_t dram_lines() const noexcept { return dram_lines_; }
  /// DRAM traffic in bytes (lines x innermost line size).
  [[nodiscard]] std::uint64_t dram_bytes() const;
  [[nodiscard]] std::vector<LevelStats> stats() const;
  void flush();

  /// The cache structure of one EPYC 7A53 core + its share of L3
  /// (32 KiB L1d / 512 KiB L2 / 256 MiB shared L3, scaled by `l3_share`,
  /// by default one core's share).
  static Hierarchy epyc_7a53_core(
      double l3_share = 1.0 / static_cast<double>(hw::CpuSpec::epyc_7a53().cores));
  /// Ampere Altra core: 64 KiB L1d / 1 MiB L2 / 32 MiB SLC share.
  static Hierarchy ampere_altra_core(
      double slc_share = 1.0 / static_cast<double>(hw::CpuSpec::ampere_altra().cores));

 private:
  std::vector<Cache> caches_;
  std::vector<std::string> names_;
  std::uint64_t dram_lines_ = 0;
};

}  // namespace portabench::cachesim
