// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints the effective configuration, every metric by name and unit, and
// as its last line one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.  Exits 1 when any output failed
// its check, 2 on bad arguments or an unpinned environment.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "gpusim/engine.hpp"
#include "serve/engine.hpp"
#include "simrt/simd.hpp"
#include "tune/fingerprint.hpp"
#include "tune/tuned.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;
namespace tune = portabench::tune;

/// Constructions timed for setup_s, half before the warm-up and half
/// after the measured phase so that they see the host at two different
/// times; the median is reported.
constexpr int kSetups = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      continue;
    }
    if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (!(o.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      o.trace = val[0] == '1';
      continue;
    } else {
      return false;
    }
    if (end == val || *end != '\0') return false;
  }
  return argc % 2 == 1 && !o.workload.empty();
}

/// The benchmark measures the untuned, unsanitized program: refuse any
/// environment that would change what runs.
std::string environment_problem() {
  if (std::getenv("PORTABENCH_CHECK") != nullptr) {
    return "refusing to run under PORTABENCH_CHECK: the sanitized schedule is not what is "
           "measured";
  }
  const char* disable = std::getenv("PORTABENCH_TUNE_DISABLE");
  if (disable == nullptr || std::strcmp(disable, "1") != 0) {
    return "set PORTABENCH_TUNE_DISABLE=1: a tuning cache must not change what is measured";
  }
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    if (var.rfind("PORTABENCH_", 0) == 0 && var.rfind("PORTABENCH_TUNE_DISABLE=", 0) != 0) {
      return "unset " + var.substr(0, var.find('=')) + ": overrides change what is measured";
    }
  }
  return {};
}

std::string loadavg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f/%.2f/%.2f", l[0], l[1], l[2]);
  return buf;
}

/// Host-wide CPU time counters from /proc/stat: {steal, total} in ticks,
/// or zeros where the file is unavailable.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

void print_config(const Options& o) {
  auto& tuned = tune::Tuned::instance();
  std::cout << "config workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace << "\n"
            << "config host=\"" << tune::fingerprint_key(tune::local_fingerprint())
            << "\" nproc=" << std::thread::hardware_concurrency() << " simd_tier="
            << portabench::simrt::simd_tier_name(portabench::simrt::simd_dispatch_tier())
            << " launch_engine_workers=" << portabench::gpusim::LaunchEngine::shared().workers()
            << " tune_cache=disabled\n";
  const portabench::serve::ServeConfig serve_defaults;
  std::cout << "config serve shards=" << serve_defaults.shards
            << " queue_capacity=" << serve_defaults.queue_capacity
            << " batch_jobs=" << tuned.serve_batch_jobs(portabench::serve::kDefaultBatchJobs)
            << " flush_sort=" << (tuned.serve_sort_radix(false) ? "radix" : "std::sort")
            << "\n";
  for (const auto p : {portabench::Precision::kDouble, portabench::Precision::kSingle,
                       portabench::Precision::kHalfIn}) {
    // Size classes 5 and 6 hold the served GEMMs (n 32-80).
    for (const std::uint32_t cls : {5u, 6u}) {
      const auto& t = tuned.gemm_tile(p, cls);
      std::cout << "config tile precision=" << portabench::name(p) << " size_class=" << cls
                << " mc=" << t.mc << " kc=" << t.kc << " tier=" << t.tier << "\n";
    }
  }
}

void print_metric(const Metric& m) {
  std::printf("metric %-34s %.9g %s", m.name.c_str(), m.value, m.unit.c_str());
  if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
  std::printf("\n");
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int run(const Options& o) {
  const std::string load_before = loadavg();
  const auto ticks_before = cpu_ticks();
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  print_config(o);

  std::vector<double> setups;
  for (int i = 0; i < kSetups / 2; ++i) setups.push_back(w->setup());
  w->prepare();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  const auto account = [&](const Phase& ph) {
    attempted += ph.attempted;
    failed += ph.failed;
    errors.insert(errors.end(), ph.errors.begin(), ph.errors.end());
  };

  std::vector<Metric> reported;
  if (!o.trace) {
    const Phase ph = w->run(o.seconds, nullptr);
    account(ph);
    const Summary sum = summarize(ph);
    const double rss = peak_rss_mb();
    const std::vector<Metric> extras = w->extras();
    for (int i = kSetups / 2; i < kSetups; ++i) setups.push_back(w->setup());
    const double values[] = {percentile(setups, 50.0), rss, sum.jobs_per_s,
                             sum.latency_ms.median, sum.latency_ms.tail};
    const std::string notes[] = {"median of " + std::to_string(kSetups) + " constructions",
                                 "whole process", sum.note, sum.note,
                                 tail_note(sum.latency_ms) + ", " + sum.note};
    for (std::size_t i = 0; i < end_to_end_specs().size(); ++i) {
      const MetricSpec& spec = end_to_end_specs()[i];
      reported.push_back({spec.name, values[i], spec.unit, notes[i]});
    }
    for (const Metric& m : reported) print_metric(m);
    const double failed_share =
        attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
    print_metric({"failed_share", failed_share, "share",
                  std::to_string(failed) + " of " + std::to_string(attempted)});
    for (const Metric& m : extras) print_metric(m);
  } else {
    // The same workload untraced, then traced: their difference is the
    // tracing overhead.
    const Phase plain = w->run(o.seconds / 2, nullptr);
    account(plain);
    Trace trace;
    const Phase traced = w->run(o.seconds / 2, &trace);
    account(traced);
    LayerTable table;
    w->layers(trace, table);
    const std::size_t probe_errors = errors.size();
    run_layer_probes(o.seed, table, errors);
    failed += errors.size() - probe_errors;
    table.set("trace.overhead_ms",
              summarize(traced).latency_ms.median - summarize(plain).latency_ms.median,
              "traced minus untraced latency_p50_ms");
    reported = table.metrics();
    for (const Metric& m : reported) print_metric(m);
  }

  // CPU time the hypervisor gave to other guests while this run wanted it:
  // on a shared host every timing here rises with it.
  const auto ticks_after = cpu_ticks();
  const double ticks = ticks_after.second - ticks_before.second;
  std::cout << "config loadavg_before=" << load_before << " loadavg_after=" << loadavg()
            << " cpu_steal_share="
            << (ticks > 0 ? (ticks_after.first - ticks_before.first) / ticks : 0.0) << "\n";
  for (const std::string& e : errors) std::cout << "FAILED: " << e << "\n";
  std::cout.flush();
  print_json(failed == 0, attempted, failed, reported);
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const auto& names = workload_names();
  if (!parse(argc, argv, o) ||
      std::find(names.begin(), names.end(), o.workload) == names.end()) {
    std::cerr << "usage: perfbench --workload {";
    for (std::size_t i = 0; i < names.size(); ++i) std::cerr << (i == 0 ? "" : ",") << names[i];
    std::cerr << "} --seed N --seconds S --trace {0,1}\n";
    return 2;
  }
  if (const std::string why = environment_problem(); !why.empty()) {
    std::cerr << "perfbench: " << why << "\n";
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
