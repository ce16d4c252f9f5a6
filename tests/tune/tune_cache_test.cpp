// Tuning-cache robustness + the dispatch-facing resolver contracts:
// defensive loads (corrupt/truncated/mismatched caches degrade to empty
// with a typed status, never abort), fingerprint keying (another
// machine's winner is ignored), clean concurrent first-use resolution,
// the warm-path no-new-allocation guarantee (slot_fills stops moving
// once every bucket is resolved), frozen knobs that a cache cannot move,
// caches written by older builds (entries for retired spaces load but
// change nothing), and the portatune CLI's handling of both.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "simrt/tunables.hpp"
#include "tune/cache.hpp"
#include "tune/fingerprint.hpp"
#include "tune/params.hpp"
#include "tune/tuned.hpp"

namespace {

using namespace portabench;
using namespace portabench::tune;

/// Per-process path: ctest -j runs this binary's cases as separate
/// processes (and the sanitized tier runs the whole binary three more
/// times) at once, so a shared name would let one process overwrite or
/// remove another's cache mid-test.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "portabench_" + std::to_string(::getpid()) + "_" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good());
}

CacheEntry entry_for(std::uint64_t fp, std::string space = "gemm-tile",
                     std::string precision = "FP64", std::uint32_t sc = 5) {
  CacheEntry e;
  e.space = std::move(space);
  e.precision = std::move(precision);
  e.size_class = sc;
  e.fingerprint = fp;
  e.machine = "test-machine";
  // mc=128 differs from the built-in default (tiled::kMC == 64) so a
  // resolved entry is distinguishable from a defaults fallback.
  e.config = {{"mc", 128}, {"kc", 256}, {"tier", 1}};
  e.tuned_ms = 1.0;
  e.default_ms = 2.0;
  return e;
}

TEST(TuningCache, MissingFileLoadsEmptyWithMissingStatus) {
  TuningCache cache;
  const CacheLoadResult r = cache.load(temp_path("definitely_not_there.json"));
  EXPECT_EQ(r.status, CacheLoadStatus::kMissing);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip.json");
  TuningCache cache;
  cache.put(entry_for(0xabcdef0123456789ull));
  cache.put(entry_for(0xabcdef0123456789ull, "dispatch", "-", 0));
  ASSERT_TRUE(cache.save(path));

  TuningCache loaded;
  const CacheLoadResult r = loaded.load(path);
  EXPECT_EQ(r.status, CacheLoadStatus::kOk) << r.warning;
  ASSERT_EQ(loaded.size(), 2u);
  const CacheEntry* e = loaded.find("gemm-tile", "FP64", 5, 0xabcdef0123456789ull);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->config.at("mc"), 128);
  EXPECT_EQ(e->config.at("tier"), 1);
  EXPECT_EQ(e->machine, "test-machine");
  EXPECT_DOUBLE_EQ(e->tuned_ms, 1.0);
  std::remove(path.c_str());
}

TEST(TuningCache, PutReplacesSameKey) {
  TuningCache cache;
  cache.put(entry_for(7));
  CacheEntry e2 = entry_for(7);
  e2.config["mc"] = 256;
  cache.put(e2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("gemm-tile", "FP64", 5, 7)->config.at("mc"), 256);
}

TEST(TuningCache, CorruptJsonLoadsEmptyWithParseError) {
  const std::string path = temp_path("corrupt.json");
  write_file(path, "{\"schema_version\": 1, \"entries\": [ THIS IS NOT JSON");
  TuningCache cache;
  cache.put(entry_for(1));  // pre-existing state must be cleared too
  const CacheLoadResult r = cache.load(path);
  EXPECT_EQ(r.status, CacheLoadStatus::kParseError);
  EXPECT_NE(r.warning.find("starting empty"), std::string::npos) << r.warning;
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(TuningCache, TruncatedFileLoadsEmpty) {
  TuningCache full;
  full.put(entry_for(42));
  const std::string text = full.serialize();
  TuningCache cache;
  const CacheLoadResult r =
      cache.load_text(text.substr(0, text.size() / 2), "truncated.json");
  EXPECT_EQ(r.status, CacheLoadStatus::kParseError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, VersionMismatchLoadsEmptyWithTypedStatus) {
  // 1e999 parses as infinity: the warning must report it without an
  // integer cast.
  for (const char* version : {"999", "1e999"}) {
    TuningCache cache;
    const CacheLoadResult r = cache.load_text(
        std::string("{\"schema_version\": ") + version + ", \"entries\": []}",
        "future.json");
    EXPECT_EQ(r.status, CacheLoadStatus::kVersionMismatch) << version;
    EXPECT_NE(r.warning.find("version"), std::string::npos) << r.warning;
    EXPECT_EQ(cache.size(), 0u);
  }
}

TEST(TuningCache, SchemaViolationPoisonsWholeFile) {
  // One malformed entry drops the whole file: partial trust in a tuning
  // cache is worse than none.  The malformed values include numbers no
  // integer field can hold, which must be rejected before any cast.
  const auto entry = [](const std::string& size_class, const std::string& value) {
    return "{\"space\":\"dispatch\",\"precision\":\"-\",\"size_class\":" +
           size_class +
           ",\"fingerprint\":\"0x2\",\"machine\":\"m\",\"config\":{\"fork_cutoff\":" +
           value + "},\"tuned_ms\":1,\"default_ms\":2}";
  };
  const std::string good = entry("0", "1024");
  for (const std::string& bad :
       {entry("0", "\"fast\""), entry("0", "1e999"), entry("0", "-1e999"),
        entry("0", "1e300"), entry("1e300", "1024")}) {
    const std::string text =
        "{\"schema_version\": 1, \"entries\": [" + good + "," + bad + "]}";
    TuningCache cache;
    const CacheLoadResult r = cache.load_text(text, "bad_entry.json");
    EXPECT_EQ(r.status, CacheLoadStatus::kSchemaError) << bad;
    EXPECT_EQ(cache.size(), 0u) << bad;
  }
}

TEST(TuningCache, FindIsFingerprintKeyed) {
  TuningCache cache;
  cache.put(entry_for(0x1111));
  EXPECT_NE(cache.find("gemm-tile", "FP64", 5, 0x1111), nullptr);
  EXPECT_EQ(cache.find("gemm-tile", "FP64", 5, 0x2222), nullptr);  // machine B
  EXPECT_EQ(cache.find("gemm-tile", "FP32", 5, 0x1111), nullptr);  // precision
  EXPECT_EQ(cache.find("gemm-tile", "FP64", 6, 0x1111), nullptr);  // size class
}

TEST(Fingerprint, CpuModelParsingAndHashStability) {
  EXPECT_EQ(cpu_model_from_cpuinfo("processor\t: 0\nmodel name\t: Test CPU X1\nflags: a"),
            "Test CPU X1");
  EXPECT_EQ(cpu_model_from_cpuinfo("no model line here"), "unknown-cpu");

  const MachineFingerprint fp = local_fingerprint();
  EXPECT_GT(fp.cores, 0u);
  EXPECT_FALSE(fp.simd_tier.empty());
  EXPECT_EQ(fingerprint_hash(fp), fingerprint_hash(local_fingerprint()));

  MachineFingerprint other = fp;
  other.cores = fp.cores + 1;
  EXPECT_NE(fingerprint_hash(fp), fingerprint_hash(other));
}

// --- the dispatch-facing resolver ------------------------------------------

class TunedResolver : public ::testing::Test {
 protected:
  void TearDown() override {
    // Leave the process-global resolver pointing at "no cache" for
    // whatever test binary state follows.
    Tuned::instance().reset_for_testing("/nonexistent/portabench_tuned_off");
  }
};

TEST_F(TunedResolver, CachedWinnerResolvedForLocalFingerprint) {
  const std::string path = temp_path("tuned_local.json");
  TuningCache cache;
  CacheEntry e = entry_for(fingerprint_hash(local_fingerprint()));
  e.size_class = 4;
  cache.put(e);
  ASSERT_TRUE(cache.save(path));

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  const gemm::TileConfig& cfg = tuned.gemm_tile(Precision::kDouble, 4);
  EXPECT_EQ(cfg.mc, 128u);
  EXPECT_EQ(cfg.tier, 1);
  EXPECT_EQ(tuned.load_status(), CacheLoadStatus::kOk);
  std::remove(path.c_str());
}

TEST_F(TunedResolver, OtherMachinesWinnerIsIgnored) {
  const std::string path = temp_path("tuned_foreign.json");
  TuningCache cache;
  CacheEntry e = entry_for(fingerprint_hash(local_fingerprint()) ^ 0xdeadbeefull);
  e.size_class = 4;
  e.config["mc"] = 16;
  cache.put(e);
  ASSERT_TRUE(cache.save(path));

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  const gemm::TileConfig& cfg = tuned.gemm_tile(Precision::kDouble, 4);
  EXPECT_EQ(cfg.mc, gemm::TileConfig{}.mc);  // fingerprint B's entry ignored
  EXPECT_EQ(cfg.tier, -1);
  std::remove(path.c_str());
}

TEST_F(TunedResolver, CorruptCacheDegradesToDefaultsWithWarning) {
  const std::string path = temp_path("tuned_corrupt.json");
  write_file(path, "not json at all");
  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  const gemm::TileConfig& cfg = tuned.gemm_tile(Precision::kSingle, 3);
  EXPECT_EQ(cfg.mc, gemm::TileConfig{}.mc);
  EXPECT_EQ(tuned.load_status(), CacheLoadStatus::kParseError);
  EXPECT_FALSE(tuned.load_warning().empty());
  std::remove(path.c_str());
}

TEST_F(TunedResolver, ConcurrentFirstUseRacesResolveToOneSlot) {
  const std::string path = temp_path("tuned_race.json");
  TuningCache cache;
  CacheEntry e = entry_for(fingerprint_hash(local_fingerprint()));
  e.size_class = 6;
  cache.put(e);
  ASSERT_TRUE(cache.save(path));

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<const gemm::TileConfig*> seen[kThreads] = {};
  {
    std::vector<std::thread> threads;  // raw threads stress the resolver itself
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < kThreads) {
        }
        seen[i].store(&tuned.gemm_tile(Precision::kDouble, 6),
                      std::memory_order_release);
      });
    }
    for (auto& t : threads) t.join();
  }
  // Every racer adopted the same installed slot, exactly one install won.
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[i].load(std::memory_order_acquire),
              seen[0].load(std::memory_order_acquire));
  }
  EXPECT_EQ(tuned.slot_fills(), 1u);
  EXPECT_EQ(seen[0].load(std::memory_order_acquire)->mc, 128u);
  std::remove(path.c_str());
}

TEST_F(TunedResolver, WarmPathInstallsNothingNew) {
  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing("/nonexistent/portabench_warm_path");
  for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
    for (std::uint32_t sc = 0; sc < 8; ++sc) (void)tuned.gemm_tile(p, sc);
  }
  const std::uint64_t warm = tuned.slot_fills();
  EXPECT_EQ(warm, 3u * 8u);
  // Steady state: thousands of lookups later, still zero new installs —
  // the warm path is one atomic load, no allocation (soak-style check).
  for (int iter = 0; iter < 10000; ++iter) {
    for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
      (void)tuned.gemm_tile(p, static_cast<std::uint32_t>(iter % 8));
    }
  }
  EXPECT_EQ(tuned.slot_fills(), warm);
}

TEST_F(TunedResolver, DisableEnvRunsPureDefaults) {
  const std::string path = temp_path("tuned_disabled.json");
  TuningCache cache;
  CacheEntry e = entry_for(fingerprint_hash(local_fingerprint()));
  e.size_class = 2;
  cache.put(e);
  ASSERT_TRUE(cache.save(path));

  ::setenv("PORTABENCH_TUNE_DISABLE", "1", 1);
  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  const gemm::TileConfig& cfg = tuned.gemm_tile(Precision::kDouble, 2);
  ::unsetenv("PORTABENCH_TUNE_DISABLE");
  EXPECT_EQ(cfg.mc, gemm::TileConfig{}.mc);
  EXPECT_EQ(cfg.tier, -1);
  std::remove(path.c_str());
}

TEST_F(TunedResolver, ServeBatchJobsFallsBackWhenUntuned) {
  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing("/nonexistent/portabench_untuned");
  EXPECT_EQ(tuned.serve_batch_jobs(32), 32u);

  const std::string path = temp_path("tuned_batch.json");
  TuningCache cache;
  CacheEntry e;
  e.space = "serve-batch";
  e.precision = "-";
  e.size_class = 0;
  e.fingerprint = fingerprint_hash(local_fingerprint());
  e.machine = "here";
  e.config = {{"batch_jobs", 64}};
  cache.put(e);
  ASSERT_TRUE(cache.save(path));
  tuned.reset_for_testing(path);
  EXPECT_EQ(tuned.serve_batch_jobs(32), 64u);
  std::remove(path.c_str());
}

TEST_F(TunedResolver, FrozenKcNeverComesFromTheCache) {
  // kc is order-affecting and frozen in the registry: a hand-edited
  // entry may move the searchable knobs but never the KC panel depth,
  // or the tiled result would stop matching the untuned run bit for bit.
  const std::string path = temp_path("tuned_frozen_kc.json");
  TuningCache cache;
  CacheEntry e = entry_for(fingerprint_hash(local_fingerprint()));
  e.config = {{"mc", 32}, {"kc", 3}, {"tier", 0}};
  cache.put(e);
  ASSERT_TRUE(cache.save(path));

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  const gemm::TileConfig& cfg = tuned.gemm_tile(Precision::kDouble, e.size_class);
  EXPECT_EQ(cfg.mc, 32u);
  EXPECT_EQ(cfg.tier, 0);
  EXPECT_EQ(cfg.kc, gemm::tiled::kKC);
  std::remove(path.c_str());
}

// --- caches written by older builds ------------------------------------

/// A cache for this machine holding one live "dispatch" and "gemm-tile"
/// entry each, plus one entry for every retired space: "launch" (gpusim
/// launches now read the dispatch knobs), "gemm-tile-gcd" (served tiles
/// come from gemm-tile), and "primitives-radix" / "primitives-scan" (the
/// primitives' schedules are call parameters).  Older builds wrote them.
void write_retired_spaces_cache(const std::string& path) {
  const std::uint64_t local = fingerprint_hash(local_fingerprint());
  const auto put = [&](TuningCache& cache, const char* space, Config config) {
    CacheEntry e;
    e.space = space;
    e.fingerprint = local;
    e.machine = "here";
    e.config = std::move(config);
    cache.put(std::move(e));
  };
  TuningCache cache;
  put(cache, "dispatch", {{"fork_cutoff", 1024}, {"chunks_per_thread", 16}, {"min_grain", 4}});
  put(cache, "launch", {{"fork_cutoff", 7}, {"chunks_per_worker", 2}});
  put(cache, "primitives-radix", {{"radix_bits", 2}, {"chunk", 2048}, {"lanes", 8}});
  put(cache, "primitives-scan",
      {{"chunk", 1024}, {"lanes", 32}, {"items_per_lane", 1}, {"segment", 1024}});
  CacheEntry tile = entry_for(local);  // gemm-tile FP64 sc 5: mc=128, tier=1
  cache.put(tile);
  tile.space = "gemm-tile-gcd";
  tile.config = {{"mc", 32}, {"kc", 256}, {"tier", 0}};
  cache.put(tile);
  ASSERT_TRUE(cache.save(path));
}

TEST_F(TunedResolver, StaleLaunchEntryChangesNothing) {
  for (const char* retired :
       {"launch", "gemm-tile-gcd", "primitives-radix", "primitives-scan"}) {
    ASSERT_EQ(find_space(retired), nullptr) << retired;
  }
  const std::string path = temp_path("tuned_stale_space.json");
  write_retired_spaces_cache(path);
  for (const char* var :
       {"PORTABENCH_TUNE_FORK_CUTOFF", "PORTABENCH_TUNE_CHUNK", "PORTABENCH_TUNE_MIN_GRAIN"}) {
    ::unsetenv(var);
  }
  const simrt::DispatchTunables saved = simrt::dispatch_tunables();

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  EXPECT_EQ(tuned.load_status(), CacheLoadStatus::kOk);
  tuned.apply_process_tunables();
  const simrt::DispatchTunables got = simrt::dispatch_tunables();
  simrt::set_dispatch_tunables(saved);
  // Exactly the dispatch entry: the launch entry's fork_cutoff=7 is
  // nowhere, and nothing reads its chunks_per_worker.
  EXPECT_EQ(got.fork_cutoff, 1024u);
  EXPECT_EQ(got.chunks_per_thread, 16u);
  EXPECT_EQ(got.min_grain, 4u);
  // The tile is the gemm-tile entry's, not the same-keyed gemm-tile-gcd
  // entry's (mc=32, tier=0).
  const gemm::TileConfig& tile = tuned.gemm_tile(Precision::kDouble, 5);
  EXPECT_EQ(tile.mc, 128u);
  EXPECT_EQ(tile.tier, 1);
  std::remove(path.c_str());
}

/// Runs `portatune <args>` with stderr folded into the returned output;
/// `exit_code` receives the process exit status.
std::string run_portatune(const std::string& args, int* exit_code) {
  const std::string cmd = std::string(PORTATUNE_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return {};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(PortatuneShow, SkipsEntriesForRetiredSpaces) {
  const std::string path = temp_path("portatune_show_stale.json");
  write_retired_spaces_cache(path);
  int code = -1;
  const std::string out = run_portatune("show --cache " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("\n  dispatch "), std::string::npos) << out;
  EXPECT_NE(out.find("\n  gemm-tile "), std::string::npos) << out;
  for (const char* retired :
       {"launch", "gemm-tile-gcd", "primitives-radix", "primitives-scan"}) {
    EXPECT_EQ(out.find(std::string("\n  ") + retired + " "), std::string::npos)
        << retired << "\n" << out;
  }
  std::remove(path.c_str());
}

TEST(PortatuneShow, MissingCacheIsReportedNotFatal) {
  const std::string path = temp_path("portatune_no_such_cache.json");
  std::remove(path.c_str());
  int code = -1;
  std::string out = run_portatune("show --cache " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("no cache (missing)"), std::string::npos) << out;
  out = run_portatune("verify --cache " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("nothing to verify (missing)"), std::string::npos) << out;
}

TEST(PortatuneVerify, SkipsEntriesTunedAtAnotherSize) {
  // size_class(64) is not 2: timing this winner on a 64-edge GEMM would
  // judge it on a problem it was never tuned for.
  const std::string path = temp_path("portatune_verify_size.json");
  TuningCache cache;
  CacheEntry e = entry_for(fingerprint_hash(local_fingerprint()), "gemm-tile", "FP64", 2);
  cache.put(e);
  ASSERT_TRUE(cache.save(path));
  int code = -1;
  const std::string out = run_portatune("verify --n 64 --reps 1 --cache " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 entries checked"), std::string::npos) << out;
  EXPECT_NE(out.find("1 skipped"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(PortatuneTune, UnknownSpaceExitsTwoAndNamesIt) {
  const std::string path = temp_path("portatune_tune_unknown.json");
  std::remove(path.c_str());
  int code = -1;
  const std::string out =
      run_portatune("tune --quick --spaces gemm-tile,no-such-space --cache " + path, &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("no-such-space"), std::string::npos) << out;
  TuningCache cache;
  EXPECT_EQ(cache.load(path).status, CacheLoadStatus::kMissing);  // nothing tuned
}

}  // namespace
