// Correctness tests for the four CPU GEMM kernels of Fig. 2 against the
// reference GEMM, across precisions, layouts, and shapes, and the
// reference's own bitwise contract.
#include "gemm/kernels_cpu.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"

namespace portabench::gemm {
namespace {

using simrt::LayoutLeft;
using simrt::LayoutRight;
using simrt::RawView2;
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

// ---- parameterized shape sweep: (m, k, n) including non-square ----------
class CpuGemmShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(CpuGemmShapes, OpenMPStyleMatchesReference) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 1);
  auto B = random_matrix<double, LayoutRight>(k, n, 2);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  ThreadsSpace space(4);
  gemm_openmp_style<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

TEST_P(CpuGemmShapes, KokkosStyleMatchesReference) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 3);
  auto B = random_matrix<double, LayoutRight>(k, n, 4);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  ThreadsSpace space(4);
  gemm_kokkos_style<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

TEST_P(CpuGemmShapes, JuliaStyleMatchesReference) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutLeft>(m, k, 5);
  auto B = random_matrix<double, LayoutLeft>(k, n, 6);
  View2<double, LayoutLeft> C(m, n);
  View2<double, LayoutLeft> C_ref(m, n);
  ThreadsSpace space(4);
  gemm_julia_style<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

TEST_P(CpuGemmShapes, NumbaStyleMatchesReference) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 7);
  auto B = random_matrix<double, LayoutRight>(k, n, 8);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  ThreadsSpace space(4);
  gemm_numba_style<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuGemmShapes,
    ::testing::Values(std::tuple{1u, 1u, 1u}, std::tuple{2u, 3u, 4u}, std::tuple{16u, 16u, 16u},
                      std::tuple{17u, 31u, 13u}, std::tuple{64u, 64u, 64u},
                      std::tuple{100u, 1u, 100u}, std::tuple{1u, 128u, 1u},
                      std::tuple{33u, 65u, 129u}));

// ---- precision behaviour -------------------------------------------------

TEST(CpuGemm, SinglePrecisionWithinTolerance) {
  constexpr std::size_t kN = 48;
  auto A = random_matrix<float, LayoutRight>(kN, kN, 11);
  auto B = random_matrix<float, LayoutRight>(kN, kN, 12);
  View2<float, LayoutRight> C(kN, kN);
  View2<float, LayoutRight> C_ref(kN, kN);
  ThreadsSpace space(3);
  gemm_openmp_style<float>(space, A, B, C);
  reference_gemm<float>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kSingle, kN));
}

TEST(CpuGemm, HalfInputsFloatAccumulate) {
  // The Fig. 1c scheme: binary16 inputs, FP32 accumulation and output.
  constexpr std::size_t kN = 32;
  auto A = random_matrix<half, LayoutLeft>(kN, kN, 13);
  auto B = random_matrix<half, LayoutLeft>(kN, kN, 14);
  View2<float, LayoutLeft> C(kN, kN);
  View2<float, LayoutLeft> C_ref(kN, kN);
  ThreadsSpace space(2);
  gemm_julia_style<float>(space, A, B, C);
  reference_gemm<float>(A, B, C_ref);
  EXPECT_LE(static_cast<double>(max_abs_diff(C, C_ref)),
            gemm_tolerance(Precision::kHalfIn, kN));
}

TEST(CpuGemm, HalfOfOnesIsExactlyK) {
  // With A = B = 1 (the numpy Float16 workaround), every C entry equals k
  // exactly — k fits in FP32 with no rounding.
  constexpr std::size_t kN = 40;
  View2<half, LayoutRight> A(kN, kN);
  View2<half, LayoutRight> B(kN, kN);
  fill_constant(std::span<half>(A.data(), kN * kN), half(1.0f));
  fill_constant(std::span<half>(B.data(), kN * kN), half(1.0f));
  View2<float, LayoutRight> C(kN, kN);
  ThreadsSpace space(2);
  gemm_numba_style<float>(space, A, B, C);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) EXPECT_EQ(C(i, j), static_cast<float>(kN));
  }
}

// ---- semantics -----------------------------------------------------------

TEST(CpuGemm, AccumulatesIntoC) {
  // All Fig. 2 kernels compute C += A*B; pre-filled C must be preserved.
  constexpr std::size_t kN = 8;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 15);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 16);
  View2<double, LayoutRight> C(kN, kN);
  View2<double, LayoutRight> C_expected(kN, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      C(i, j) = 100.0;
      C_expected(i, j) = 100.0;
    }
  }
  SerialSpace space;
  gemm_openmp_style<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_expected);
  EXPECT_LE(max_abs_diff(C, C_expected), gemm_tolerance(Precision::kDouble, kN));
}

TEST(CpuGemm, SerialAndThreadedBitwiseIdentical) {
  // Row/column-parallel kernels do not change summation order vs serial:
  // results must match bit for bit.
  constexpr std::size_t kN = 33;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 17);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 18);
  View2<double, LayoutRight> C_serial(kN, kN);
  View2<double, LayoutRight> C_threads(kN, kN);
  SerialSpace serial;
  ThreadsSpace threads(4);
  gemm_openmp_style<double>(serial, A, B, C_serial);
  gemm_openmp_style<double>(threads, A, B, C_threads);
  EXPECT_EQ(max_abs_diff(C_serial, C_threads), 0.0);
}

TEST(CpuGemm, JuliaBoundsCheckedPathMatchesInbounds) {
  constexpr std::size_t kN = 24;
  auto A = random_matrix<double, LayoutLeft>(kN, kN, 19);
  auto B = random_matrix<double, LayoutLeft>(kN, kN, 20);
  View2<double, LayoutLeft> C_fast(kN, kN);
  View2<double, LayoutLeft> C_checked(kN, kN);
  SerialSpace space;
  gemm_julia_style<double>(space, A, B, C_fast, /*inbounds=*/true);
  gemm_julia_style<double>(space, A, B, C_checked, /*inbounds=*/false);
  EXPECT_EQ(max_abs_diff(C_fast, C_checked), 0.0);
}

TEST(CpuGemm, ShapeMismatchRejected) {
  View2<double, LayoutRight> A(4, 5);
  View2<double, LayoutRight> B(6, 4);  // inner dims disagree
  View2<double, LayoutRight> C(4, 4);
  SerialSpace space;
  EXPECT_THROW(gemm_openmp_style<double>(space, A, B, C), precondition_error);
  View2<double, LayoutRight> B_ok(5, 4);
  View2<double, LayoutRight> C_bad(4, 7);
  EXPECT_THROW(gemm_openmp_style<double>(space, A, B_ok, C_bad), precondition_error);
}

class TeamGemmTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TeamGemmTest, MatchesReferenceForAnyTeamSize) {
  const std::size_t team_size = GetParam();
  constexpr std::size_t kN = 40;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 51);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 52);
  View2<double, LayoutRight> C(kN, kN);
  View2<double, LayoutRight> C_ref(kN, kN);
  ThreadsSpace space(4);
  gemm_team_style<double>(space, A, B, C, team_size);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, kN));
}

INSTANTIATE_TEST_SUITE_P(TeamSizes, TeamGemmTest, ::testing::Values(1, 2, 8, 33, 64));

TEST(TeamGemm, ColumnMajorAndSerialSpace) {
  constexpr std::size_t kN = 24;
  auto A = random_matrix<double, LayoutLeft>(kN, kN, 53);
  auto B = random_matrix<double, LayoutLeft>(kN, kN, 54);
  View2<double, LayoutLeft> C(kN, kN);
  View2<double, LayoutLeft> C_ref(kN, kN);
  SerialSpace space;
  gemm_team_style<double>(space, A, B, C, 4);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, kN));
}

TEST(TeamGemm, ZeroTeamSizeRejected) {
  View2<double, LayoutRight> A(4, 4);
  View2<double, LayoutRight> B(4, 4);
  View2<double, LayoutRight> C(4, 4);
  SerialSpace space;
  EXPECT_THROW(gemm_team_style<double>(space, A, B, C, 0), precondition_error);
}

// ---- the reference's bitwise contract ------------------------------------
// reference_gemm picks its loop order from C's layout, but every C(i,j)
// must take the same steps, l ascending, as the textbook i-j-l loop below:
// the same bits for any layout mix and either view type.

template <class Acc, class VA, class VB, class VC>
void textbook_gemm(const VA& A, const VB& B, VC& C) {
  using TC = typename VC::value_type;
  for (std::size_t i = 0; i < C.extent(0); ++i) {
    for (std::size_t j = 0; j < C.extent(1); ++j) {
      for (std::size_t l = 0; l < A.extent(1); ++l) {
        C(i, j) = static_cast<TC>(static_cast<Acc>(C(i, j)) +
                                  static_cast<Acc>(A(i, l)) * static_cast<Acc>(B(l, j)));
      }
    }
  }
}

template <class T, class Acc, class LA, class LB, class LC>
void expect_reference_bitwise(std::size_t m, std::size_t k, std::size_t n) {
  SCOPED_TRACE(::testing::Message() << LA::label << "/" << LB::label << "/" << LC::label
                                    << " m=" << m << " k=" << k << " n=" << n);
  const auto A = random_matrix<T, LA>(m, k, 61);
  const auto B = random_matrix<T, LB>(k, n, 62);
  const auto C0 = random_matrix<Acc, LC>(m, n, 63);  // nonzero starting C
  const std::size_t bytes = m * n * sizeof(Acc);
  View2<Acc, LC> expected(m, n);
  View2<Acc, LC> from_views(m, n);
  std::vector<Acc> from_raw(m * n);
  std::memcpy(expected.data(), C0.data(), bytes);
  std::memcpy(from_views.data(), C0.data(), bytes);
  std::memcpy(from_raw.data(), C0.data(), bytes);

  textbook_gemm<Acc>(A, B, expected);
  reference_gemm<Acc>(A, B, from_views);
  reference_gemm<Acc>(RawView2<const T, LA>(A.data(), m, k),
                      RawView2<const T, LB>(B.data(), k, n),
                      RawView2<Acc, LC>(from_raw.data(), m, n));
  EXPECT_EQ(std::memcmp(from_views.data(), expected.data(), bytes), 0) << "View2 inputs";
  EXPECT_EQ(std::memcmp(from_raw.data(), expected.data(), bytes), 0) << "RawView2 inputs";
}

template <class T, class Acc>
void expect_reference_bitwise_all_layouts(std::size_t m, std::size_t k, std::size_t n) {
  expect_reference_bitwise<T, Acc, LayoutRight, LayoutRight, LayoutRight>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutRight, LayoutRight, LayoutLeft>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutRight, LayoutLeft, LayoutRight>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutRight, LayoutLeft, LayoutLeft>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutLeft, LayoutRight, LayoutRight>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutLeft, LayoutRight, LayoutLeft>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutLeft, LayoutLeft, LayoutRight>(m, k, n);
  expect_reference_bitwise<T, Acc, LayoutLeft, LayoutLeft, LayoutLeft>(m, k, n);
}

TEST(ReferenceGemm, BitwiseEqualsTextbookLoop) {
  // Shapes cover one element, line counts on both sides of the four-line
  // block, and k above and below n.
  constexpr std::size_t kShapes[][3] = {{1, 1, 1}, {3, 65, 7}, {65, 3, 129}, {70, 130, 66}};
  for (const auto& s : kShapes) {
    expect_reference_bitwise_all_layouts<double, double>(s[0], s[1], s[2]);
    expect_reference_bitwise_all_layouts<float, float>(s[0], s[1], s[2]);
    expect_reference_bitwise_all_layouts<half, float>(s[0], s[1], s[2]);
  }
}

}  // namespace
}  // namespace portabench::gemm
