// Thread-affinity policy model.
//
// The paper controls thread placement with OMP_PROC_BIND=true /
// OMP_PLACES=threads for C/OpenMP and JULIA_EXCLUSIVE=1 for Julia, and
// notes that Numba exposes *no* pinning mechanism — a difference it uses
// to explain part of Numba's CPU gap.  This header reproduces the
// placement computation: given a machine topology (cores, NUMA domains)
// and a bind policy, produce the core each thread lands on.  On the real
// systems this is what the OpenMP runtime computes; here it both drives
// the (simulated) pinning and feeds the NUMA-traffic term of the CPU
// performance model.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hardware.hpp"

namespace portabench::simrt {

/// How software threads are bound to hardware cores.
enum class BindPolicy {
  kNone,    ///< OS free to migrate (Numba's only option)
  kClose,   ///< pack threads onto consecutive cores (OMP_PROC_BIND=close / JULIA_EXCLUSIVE)
  kSpread,  ///< spread threads evenly across NUMA domains (OMP_PROC_BIND=spread)
};

[[nodiscard]] constexpr std::string_view name(BindPolicy p) noexcept {
  switch (p) {
    case BindPolicy::kNone: return "none";
    case BindPolicy::kClose: return "close";
    case BindPolicy::kSpread: return "spread";
  }
  return "?";
}

/// Host CPU topology (cores split evenly over NUMA domains); the
/// hardware description's CPU records derive from it.
using hw::CpuTopology;

/// Placement of `num_threads` threads: thread i runs on placement[i]
/// (a core id), or kUnpinned when the policy leaves it to the OS.
struct Placement {
  static constexpr std::size_t kUnpinned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> core_of_thread;

  [[nodiscard]] bool pinned() const noexcept {
    return !core_of_thread.empty() && core_of_thread.front() != kUnpinned;
  }
};

/// Compute thread placement under a bind policy.
/// - kNone: all threads unpinned.
/// - kClose: thread i -> core i % cores (consecutive packing).
/// - kSpread: threads round-robin across NUMA domains, packing within.
[[nodiscard]] Placement compute_placement(const CpuTopology& topo, std::size_t num_threads,
                                          BindPolicy policy);

/// Placement restricted to one NUMA domain: thread i -> core
/// `domain*cores_per_domain + i % cores_per_domain`.  This is the GCD
/// feeding pattern on Crusher (each MI250X GCD is driven from the EPYC
/// domain it is attached to); DeviceTopology uses it to pin each
/// device's workers close to that device's host staging memory.
[[nodiscard]] Placement domain_placement(const CpuTopology& topo, std::size_t num_threads,
                                         std::size_t domain);

/// Bind the calling thread to one OS CPU, best-effort.  Core ids wrap
/// modulo the host's actual CPU count, so a modeled 64-core EPYC
/// placement still yields a valid (if aliased) binding on a smaller
/// simulation host.  Returns true when the OS accepted the mask; false
/// where unsupported (non-Linux) or rejected — callers treat pinning as
/// advisory either way, matching the "applied where the host OS allows"
/// ThreadPool contract.
bool bind_current_thread(std::size_t core) noexcept;

/// Fraction of memory accesses that cross a NUMA boundary for a
/// first-touch-initialized array traversed by the given placement.
/// Unpinned threads are assumed to migrate, touching all domains evenly.
/// Returns 0 for single-domain machines.
[[nodiscard]] double remote_access_fraction(const CpuTopology& topo, const Placement& placement);

}  // namespace portabench::simrt
