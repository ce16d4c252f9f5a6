#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace perfbench {

double percentile(std::span<const double> sample, double p) {
  return portabench::percentile_of(sample, p);
}

double tail_level(std::size_t count) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9));
    if (count >= rank + 10) return p;
  }
  return 50.0;
}

Distribution distribution(std::span<const double> sample, double cap) {
  Distribution d;
  d.count = sample.size();
  d.median = percentile(sample, 50.0);
  d.tail_level = std::min(cap, tail_level(sample.size()));
  d.tail = percentile(sample, d.tail_level);
  return d;
}

std::string tail_note(const Distribution& d) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%g %.6g of n=%zu", d.tail_level, d.tail, d.count);
  return buf;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double duration_s) {
  portabench::Xoshiro256 rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= duration_s) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace perfbench
