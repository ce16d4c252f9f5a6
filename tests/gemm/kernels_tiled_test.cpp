// Correctness tests for the optimized tiled/packed GEMM ceiling
// (gemm/kernels_tiled.hpp) against the blocked reference: all three paper
// precisions, edge shapes that are not multiples of the MR/NR/KC/MC
// blocking, both host spaces, and the LayoutLeft path the packing is
// supposed to make free.
#include "gemm/kernels_tiled.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"
#include "models/runner.hpp"
#include "tune/params.hpp"

namespace portabench::gemm {
namespace {

using simrt::LayoutLeft;
using simrt::LayoutRight;
using simrt::SerialSpace;
using simrt::ThreadsSpace;
using simrt::View2;

template <class T, class Layout>
View2<T, Layout> random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  View2<T, Layout> v(rows, cols);
  Xoshiro256 rng(seed);
  fill_uniform(std::span<T>(v.data(), rows * cols), rng);
  return v;
}

// ---- shape sweep: blocking edges are where packed kernels break ----------
//
// Shapes straddle every blocking boundary: below one micro-tile, exactly
// one micro-tile, non-multiples of kMR=4 / kNR=8, across the kMC=64 row
// block, and across the kKC=256 k-panel (multiple packing passes).
class TiledGemmShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(TiledGemmShapes, MatchesReferenceDouble) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 1);
  auto B = random_matrix<double, LayoutRight>(k, n, 2);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  ThreadsSpace space(4);
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

TEST_P(TiledGemmShapes, SerialSpaceMatchesReference) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 3);
  auto B = random_matrix<double, LayoutRight>(k, n, 4);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  SerialSpace space;
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledGemmShapes,
    ::testing::Values(std::tuple{1u, 1u, 1u}, std::tuple{3u, 5u, 7u},
                      std::tuple{4u, 8u, 8u}, std::tuple{17u, 31u, 13u},
                      std::tuple{64u, 64u, 64u}, std::tuple{65u, 257u, 63u},
                      std::tuple{100u, 1u, 100u}, std::tuple{1u, 300u, 1u},
                      std::tuple{130u, 70u, 9u}));

// ---- precision behaviour -------------------------------------------------

TEST(TiledGemm, SinglePrecisionWithinTolerance) {
  constexpr std::size_t kN = 96;
  auto A = random_matrix<float, LayoutRight>(kN, kN, 11);
  auto B = random_matrix<float, LayoutRight>(kN, kN, 12);
  View2<float, LayoutRight> C(kN, kN);
  View2<float, LayoutRight> C_ref(kN, kN);
  ThreadsSpace space(3);
  gemm_tiled<float>(space, A, B, C);
  reference_gemm<float>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kSingle, kN));
}

TEST(TiledGemm, HalfInputsFloatAccumulate) {
  // Packing converts binary16 operands to FP32, so the micro-kernel
  // accumulates in FP32 — the Fig. 1c scheme.
  constexpr std::size_t kN = 48;
  auto A = random_matrix<half, LayoutRight>(kN, kN, 13);
  auto B = random_matrix<half, LayoutRight>(kN, kN, 14);
  View2<float, LayoutRight> C(kN, kN);
  View2<float, LayoutRight> C_ref(kN, kN);
  ThreadsSpace space(2);
  gemm_tiled<float>(space, A, B, C);
  reference_gemm<float>(A, B, C_ref);
  EXPECT_LE(static_cast<double>(max_abs_diff(C, C_ref)),
            gemm_tolerance(Precision::kHalfIn, kN));
}

TEST(TiledGemm, HalfOfOnesIsExactlyK) {
  constexpr std::size_t kN = 40;
  View2<half, LayoutRight> A(kN, kN);
  View2<half, LayoutRight> B(kN, kN);
  fill_constant(std::span<half>(A.data(), kN * kN), half(1.0f));
  fill_constant(std::span<half>(B.data(), kN * kN), half(1.0f));
  View2<float, LayoutRight> C(kN, kN);
  ThreadsSpace space(2);
  gemm_tiled<float>(space, A, B, C);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) EXPECT_EQ(C(i, j), static_cast<float>(kN));
  }
}

// ---- layout genericity ---------------------------------------------------

TEST(TiledGemm, LayoutLeftMatchesReference) {
  // Packing reads the views through operator(), so column-major operands
  // take the same code path as row-major ones.
  constexpr std::size_t kM = 37, kK = 70, kN = 29;
  auto A = random_matrix<double, LayoutLeft>(kM, kK, 21);
  auto B = random_matrix<double, LayoutLeft>(kK, kN, 22);
  View2<double, LayoutLeft> C(kM, kN);
  View2<double, LayoutLeft> C_ref(kM, kN);
  ThreadsSpace space(4);
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, kK));
}

// ---- semantics -----------------------------------------------------------

TEST(TiledGemm, AccumulatesIntoC) {
  // The bias is O(1): the tiled kernel folds the old C in with one final
  // add at writeback (vs the reference's running accumulation), which is
  // a different — equally valid — rounding order, and a large bias would
  // magnify that reordering past the k-based tolerance.
  constexpr std::size_t kN = 20;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 15);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 16);
  View2<double, LayoutRight> C(kN, kN);
  View2<double, LayoutRight> C_expected(kN, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      C(i, j) = 1.5;
      C_expected(i, j) = 1.5;
    }
  }
  SerialSpace space;
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_expected);
  EXPECT_LE(max_abs_diff(C, C_expected), gemm_tolerance(Precision::kDouble, kN));
}

TEST(TiledGemm, SerialAndThreadedBitwiseIdentical) {
  // Parallelism is over disjoint MC row blocks; the k-accumulation order
  // within each output element never changes with the thread count.
  constexpr std::size_t kN = 97;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 17);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 18);
  View2<double, LayoutRight> C_serial(kN, kN);
  View2<double, LayoutRight> C_threads(kN, kN);
  SerialSpace serial;
  ThreadsSpace threads(4);
  gemm_tiled<double>(serial, A, B, C_serial);
  gemm_tiled<double>(threads, A, B, C_threads);
  EXPECT_EQ(max_abs_diff(C_serial, C_threads), 0.0);
}

// ---- tuned schedules ------------------------------------------------------

std::vector<long> gemm_tile_choices(std::string_view knob) {
  const tune::SpaceDesc* space = tune::find_space("gemm-tile");
  EXPECT_NE(space, nullptr);
  if (space == nullptr) return {};
  for (const tune::ParamSpec& p : space->params) {
    if (p.name == knob) return p.choices;
  }
  ADD_FAILURE() << "gemm-tile has no knob " << knob;
  return {};
}

/// Every schedule the tuner may pick (each gemm-tile mc choice, each
/// SIMD tier this host dispatches) regroups rows and picks the micro-
/// kernel, but never the per-element KC-major accumulation order, so the
/// threaded result must equal TileConfig{} bit for bit.
template <class T, class Acc>
void expect_tuned_tiles_bitwise(std::uint64_t seed) {
  // Ragged on purpose: m is no multiple of any mc choice, k spans two
  // KC panels.
  constexpr std::size_t kM = 75, kK = 260, kN = 19;
  auto A = random_matrix<T, LayoutRight>(kM, kK, seed);
  auto B = random_matrix<T, LayoutRight>(kK, kN, seed + 1);
  ThreadsSpace space(4);
  View2<Acc, LayoutRight> C_default(kM, kN);
  gemm_tiled<Acc>(space, A, B, C_default);
  for (const long mc : gemm_tile_choices("mc")) {
    for (const long tier : gemm_tile_choices("tier")) {
      TileConfig tile;
      tile.mc = static_cast<std::size_t>(mc);
      tile.tier = static_cast<int>(tier);
      View2<Acc, LayoutRight> C(kM, kN);
      gemm_tiled<Acc>(space, A, B, C, tile);
      EXPECT_EQ(std::memcmp(C.data(), C_default.data(), kM * kN * sizeof(Acc)), 0)
          << "mc=" << mc << " tier=" << tier;
    }
  }
}

TEST(TiledGemm, TunedTilesBitwiseEqualDefaultDouble) {
  expect_tuned_tiles_bitwise<double, double>(31);
}
TEST(TiledGemm, TunedTilesBitwiseEqualDefaultSingle) {
  expect_tuned_tiles_bitwise<float, float>(33);
}
TEST(TiledGemm, TunedTilesBitwiseEqualDefaultHalf) {
  expect_tuned_tiles_bitwise<half, float>(35);
}

TEST(TiledGemm, ShapeMismatchRejected) {
  View2<double, LayoutRight> A(4, 5);
  View2<double, LayoutRight> B(6, 4);  // inner dims disagree
  View2<double, LayoutRight> C(4, 4);
  SerialSpace space;
  EXPECT_THROW(gemm_tiled<double>(space, A, B, C), precondition_error);
  View2<double, LayoutRight> B_ok(5, 4);
  View2<double, LayoutRight> C_bad(4, 7);
  EXPECT_THROW(gemm_tiled<double>(space, A, B_ok, C_bad), precondition_error);
}

// ---- model frontend ------------------------------------------------------

TEST(OptimizedCppRunner, RunsAndVerifiesAllPrecisions) {
  auto runner = models::make_optimized_cpu_runner(perfmodel::Platform::kCrusherCpu);
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(runner->name(), "Optimized C++ (tiled)");
  for (Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
    models::RunConfig cfg;
    cfg.n = 96;
    cfg.host_threads = 2;
    cfg.precision = p;
    cfg.verify = true;
    const auto result = runner->run(cfg);
    EXPECT_TRUE(result.verified) << "precision " << static_cast<int>(p);
    EXPECT_GT(result.host_seconds, 0.0);
  }
}

TEST(OptimizedCppRunner, GpuPlatformsHaveNoHostCeiling) {
  EXPECT_EQ(models::make_optimized_cpu_runner(perfmodel::Platform::kCrusherGpu), nullptr);
}

}  // namespace
}  // namespace portabench::gemm
