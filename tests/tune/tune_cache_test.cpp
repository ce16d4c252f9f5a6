// Tuning-cache robustness + the dispatch-facing resolver contracts:
// defensive loads (corrupt/truncated/mismatched caches degrade to empty
// with a typed status, never abort), fingerprint keying (another
// machine's winner is ignored), clean concurrent first-use resolution,
// the warm-path no-new-allocation guarantee (slot_fills stops moving
// once every bucket is resolved), and caches written by older builds
// (entries for retired spaces load but change nothing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "simrt/tunables.hpp"
#include "tune/cache.hpp"
#include "tune/fingerprint.hpp"
#include "tune/params.hpp"
#include "tune/tuned.hpp"

namespace {

using namespace portabench;
using namespace portabench::tune;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "portabench_" + name;
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
  TuningCache cache;
  const CacheLoadResult r = cache.load_text(
      "{\"schema_version\": 999, \"entries\": []}", "future.json");
  EXPECT_EQ(r.status, CacheLoadStatus::kVersionMismatch);
  EXPECT_NE(r.warning.find("version"), std::string::npos) << r.warning;
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, SchemaViolationPoisonsWholeFile) {
  // One malformed entry (config value is a string) drops the whole file:
  // partial trust in a tuning cache is worse than none.
  const std::string text =
      "{\"schema_version\": 1, \"entries\": ["
      "{\"space\":\"dispatch\",\"precision\":\"-\",\"size_class\":0,"
      "\"fingerprint\":\"0x1\",\"machine\":\"m\",\"config\":{\"fork_cutoff\":1024},"
      "\"tuned_ms\":1,\"default_ms\":2},"
      "{\"space\":\"dispatch\",\"precision\":\"-\",\"size_class\":0,"
      "\"fingerprint\":\"0x2\",\"machine\":\"m\",\"config\":{\"fork_cutoff\":\"fast\"},"
      "\"tuned_ms\":1,\"default_ms\":2}"
      "]}";
  TuningCache cache;
  const CacheLoadResult r = cache.load_text(text, "bad_entry.json");
  EXPECT_EQ(r.status, CacheLoadStatus::kSchemaError);
  EXPECT_EQ(cache.size(), 0u);
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

TEST_F(TunedResolver, PerGcdSpaceOverlaysSingleDeviceWinner) {
  const std::string path = temp_path("tuned_gcd_overlay.json");
  TuningCache cache;
  CacheEntry single = entry_for(fingerprint_hash(local_fingerprint()));
  single.size_class = 5;
  cache.put(single);  // gemm-tile: mc=128
  CacheEntry gcd = entry_for(fingerprint_hash(local_fingerprint()), "gemm-tile-gcd");
  gcd.size_class = 5;
  gcd.config["mc"] = 32;
  gcd.config["tier"] = 0;
  cache.put(gcd);
  ASSERT_TRUE(cache.save(path));

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  // The plain resolver sees the single-device winner, the per-device one
  // its own space's entry — sharded dispatch can diverge per GCD.
  EXPECT_EQ(tuned.gemm_tile(Precision::kDouble, 5).mc, 128u);
  const gemm::TileConfig& dev = tuned.gemm_tile_device(0, Precision::kDouble, 5);
  EXPECT_EQ(dev.mc, 32u);
  EXPECT_EQ(dev.tier, 0);
  std::remove(path.c_str());
}

TEST_F(TunedResolver, PerGcdSpaceFallsBackToSingleDeviceWinner) {
  const std::string path = temp_path("tuned_gcd_fallback.json");
  TuningCache cache;
  CacheEntry single = entry_for(fingerprint_hash(local_fingerprint()));
  single.size_class = 7;
  cache.put(single);  // only gemm-tile tuned, no gemm-tile-gcd entry
  ASSERT_TRUE(cache.save(path));

  Tuned& tuned = Tuned::instance();
  tuned.reset_for_testing(path);
  const gemm::TileConfig& dev = tuned.gemm_tile_device(3, Precision::kDouble, 7);
  EXPECT_EQ(dev.mc, 128u);  // inherits the single-device winner
  EXPECT_EQ(dev.tier, 1);
  std::remove(path.c_str());
}

// --- caches written by older builds ------------------------------------

/// A cache for this machine holding one "dispatch" entry and one entry
/// for the retired "launch" space (gpusim launches now read the dispatch
/// knobs; older builds tuned them separately).
void write_stale_launch_cache(const std::string& path) {
  const std::uint64_t local = fingerprint_hash(local_fingerprint());
  TuningCache cache;
  CacheEntry dispatch;
  dispatch.space = "dispatch";
  dispatch.fingerprint = local;
  dispatch.machine = "here";
  dispatch.config = {{"fork_cutoff", 1024}, {"chunks_per_thread", 16}, {"min_grain", 4}};
  cache.put(dispatch);
  CacheEntry launch;
  launch.space = "launch";
  launch.fingerprint = local;
  launch.machine = "here";
  launch.config = {{"fork_cutoff", 7}, {"chunks_per_worker", 2}};
  cache.put(launch);
  ASSERT_TRUE(cache.save(path));
}

TEST_F(TunedResolver, StaleLaunchEntryChangesNothing) {
  ASSERT_EQ(find_space("launch"), nullptr);
  const std::string path = temp_path("tuned_stale_space.json");
  write_stale_launch_cache(path);
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
  std::remove(path.c_str());
}

TEST(PortatuneShow, SkipsEntriesForRetiredSpaces) {
  const std::string path = temp_path("portatune_show_stale.json");
  write_stale_launch_cache(path);
  const std::string cmd = std::string(PORTATUNE_BIN) + " show --cache " + path;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  EXPECT_EQ(::pclose(pipe), 0) << out;
  EXPECT_NE(out.find("\n  dispatch "), std::string::npos) << out;
  EXPECT_EQ(out.find("\n  launch "), std::string::npos) << out;
  std::remove(path.c_str());
}

}  // namespace
