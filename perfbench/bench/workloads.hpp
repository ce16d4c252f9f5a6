// The benchmark's workloads and layer probes.
//
// A workload builds its system under test (timed as setup_s), computes
// its oracles and warms up (untimed), then runs measured phases.  Every
// output of a phase is checked against its oracle after the timed call
// returns; a mismatch is a failed operation.  README.md in this
// directory says why each workload exists and what each metric means.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hpp"
#include "measure.hpp"
#include "serve/job.hpp"
#include "simrt/parallel.hpp"

namespace perfbench {

/// Statistics of one block of identical work inside a phase.
struct Block {
  std::uint64_t ops = 0;
  double busy_s = 0.0;
  Distribution latency_ms;
};

/// What one measured phase produced.  A phase that repeats one fixed
/// unit of work reports per-block statistics, and its end-to-end numbers
/// are medians over the blocks; otherwise they come from the pooled
/// latency samples.
struct Phase {
  std::uint64_t attempted = 0;  ///< operations whose output was checked
  std::uint64_t failed = 0;     ///< failed, refused or mismatched
  std::uint64_t ops = 0;        ///< operations counted by jobs_per_s
  double busy_s = 0.0;          ///< wall time those operations took
  std::vector<double> latency_ms;   ///< pooled samples (unblocked phases)
  std::vector<Block> blocks;
  std::vector<std::string> errors;  ///< first few failures, for the log
};

/// End-to-end view of a phase: jobs_per_s and the latency distribution.
struct Summary {
  double jobs_per_s = 0.0;
  Distribution latency_ms;
  std::string note;  ///< how the numbers were formed
};
[[nodiscard]] Summary summarize(const Phase& ph);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the system under test, replacing the previous one; returns
  /// the seconds construction took (setup_s).
  virtual double setup() = 0;
  /// Oracles and warm-up, outside every timed region.
  virtual void prepare() = 0;
  /// One measured phase of about `seconds`; `trace` is null when untraced.
  virtual Phase run(double seconds, Trace* trace) = 0;
  /// Workload-specific end-to-end numbers of the last run().
  [[nodiscard]] virtual std::vector<Metric> extras() const = 0;
  /// Per-layer numbers the last run() measured from its own calls.
  virtual void layers(const Trace& trace, LayerTable& table) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Closed-loop serving client: waves of kWaveJobs tiled GEMMs (n 32-80,
/// every precision) submitted to a ServeEngine, each wave drained before
/// the next.  One pass over the job pool is one block.  Shared by the
/// serve-gemm workload, the serve probe and the failure-accounting test.
class ServeWaves {
 public:
  static constexpr std::size_t kWaveJobs = 512;

  /// `pool_jobs` distinct jobs from `seed`; waves cycle through them.
  ServeWaves(std::uint64_t seed, std::size_t pool_jobs);

  /// Build a default-config engine; `fail_injection` is the ServeConfig
  /// test hook (empty in the benchmark).
  void build_engine(std::function<bool(const portabench::serve::JobDesc&)> fail_injection = {});
  /// Serial oracle over the pool; returns its jobs per second.
  double compute_oracle();
  /// Whole blocks until `seconds` of wave time elapsed (at least
  /// `min_waves` waves).
  Phase run(double seconds, std::size_t min_waves, Trace* trace);
  /// serve.* and gpusim counter metrics of the last run().
  void layers(const Phase& phase, const Trace& trace, LayerTable& table,
              const std::string& note) const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// A Jacobi solve of the study: a 128 x 128 plate, hot top edge, a small
/// interior perturbation drawn from `seed`, solved to a max-norm update
/// below 1e-4.  Traced, it runs solve_jacobi's loop itself to time each
/// sweep and residual.
struct JacobiResult {
  std::size_t sweeps = 0;
  double interior_sum = 0.0;
};
[[nodiscard]] JacobiResult jacobi_solve(const portabench::simrt::ThreadsSpace& space,
                                        std::uint64_t seed, Trace* trace);

/// Row-major n x n FP64 GEMM operands drawn from `seed`.
void make_gemm_inputs(std::uint64_t seed, std::size_t n, std::vector<double>& a,
                      std::vector<double>& b);

/// Probes of single layers, run after the workload in traced runs: they
/// fill every per-layer metric the workload did not measure itself.
void run_layer_probes(std::uint64_t seed, LayerTable& table, std::vector<std::string>& errors);

}  // namespace perfbench
