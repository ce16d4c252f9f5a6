// Measurement primitives of the benchmark: clocks, the percentile rule,
// the open-loop arrival schedule and the span recorder of traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The open-loop pacer: sleeps until `start + offset_s` unless that has
/// passed, and returns the wake-up time (its distance from the due time
/// is the generator's lateness).
[[nodiscard]] inline Clock::time_point wait_until(Clock::time_point start, double offset_s) {
  const auto due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(offset_s));
  Clock::time_point now = Clock::now();
  if (now < due) {
    std::this_thread::sleep_until(due);
    now = Clock::now();
  }
  return now;
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::span<const double> sample, double p);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least ten samples of `count` beyond it under the nearest-rank rule; 50
/// when even the median leaves fewer than ten.
[[nodiscard]] double tail_level(std::size_t count);

/// A timing reported as its median plus its tail: the percentile picked
/// by tail_level, but never above `cap` (the JSON key names p99).
struct Distribution {
  std::size_t count = 0;
  double median = 0.0;
  double tail_level = 0.0;
  double tail = 0.0;
};
[[nodiscard]] Distribution distribution(std::span<const double> sample, double cap = 99.0);
/// "p99 12.5 of n=3000": the tail beside a median, with the sample count.
[[nodiscard]] std::string tail_note(const Distribution& d);

/// Open-loop arrival offsets (seconds from the start) of a Poisson
/// process at `rate` per second over [0, duration): exponential gaps
/// drawn from Xoshiro256(seed), so one seed gives one schedule, bit for bit.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                                   double duration_s);

/// Spans the benchmark records around its calls into the layers.
enum class Span : std::size_t {
  kSubmit,      // ServeEngine::try_submit
  kDrain,       // ServeEngine::drain
  kCpuKernel,   // RunResult::host_seconds of a CPU ModelRunner::run
  kGpuKernel,   // RunResult::host_seconds of a GPU ModelRunner::run
  kStencilSweep,     // stencil::sweep_simd inside the Jacobi solve
  kStencilResidual,  // stencil::residual_max inside the Jacobi solve
  kCount
};

/// Span samples in milliseconds.  A workload holds a Trace* that is null
/// in untraced runs, so an untraced run reads no extra clocks.
class Trace {
 public:
  void add(Span s, double ms) { samples_[static_cast<std::size_t>(s)].push_back(ms); }
  [[nodiscard]] std::span<const double> samples(Span s) const {
    return samples_[static_cast<std::size_t>(s)];
  }

 private:
  std::array<std::vector<double>, static_cast<std::size_t>(Span::kCount)> samples_;
};

/// Times the enclosing scope into `trace` when it is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, Span span) : trace_(trace), span_(span) {
    if (trace_ != nullptr) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->add(span_, 1e3 * seconds_between(start_, Clock::now()));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  Span span_;
  Clock::time_point start_{};
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample count, source)
};

}  // namespace perfbench
