// Integration tests for the programming-model frontends: every supported
// (platform, family, precision) runs functionally and validates against
// the reference GEMM.
#include "models/runner.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "models/cpu_runners.hpp"
#include "models/gpu_runners.hpp"

namespace portabench::models {
namespace {

using perfmodel::kAllFamilies;
using perfmodel::kAllPlatforms;

struct RunnerCase {
  Platform platform;
  Family family;
  Precision precision;
};

std::vector<RunnerCase> all_supported_cases() {
  std::vector<RunnerCase> cases;
  for (Platform p : kAllPlatforms) {
    for (Family f : kAllFamilies) {
      for (Precision prec : kAllPrecisions) {
        if (perfmodel::supported(p, f, prec)) cases.push_back({p, f, prec});
      }
    }
  }
  return cases;
}

class AllRunnersTest : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(AllRunnersTest, FunctionalRunVerifiesAgainstReference) {
  const auto& c = GetParam();
  auto runner = make_runner(c.platform, c.family);
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(runner->family(), c.family);
  EXPECT_EQ(runner->platform(), c.platform);

  // 37 is odd and leaves a remainder after every block and line group, so
  // a wrong layout, stride or edge in a kernel or the verify path fails
  // `verified`.
  for (const std::size_t n : {48, 37}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    RunConfig config;
    config.n = n;
    config.precision = c.precision;
    const RunResult result = runner->run(config);
    EXPECT_TRUE(result.verified) << "max_error=" << result.max_error
                                 << " tolerance=" << result.tolerance;
    EXPECT_NE(result.checksum, 0.0);
    EXPECT_GT(result.model_gflops, 0.0);
  }
}

std::string case_name(const ::testing::TestParamInfo<RunnerCase>& info) {
  std::string s = std::string(perfmodel::arch_label(info.param.platform)) + "_" +
                  std::string(perfmodel::name(info.param.family)) + "_" +
                  std::string(name(info.param.precision));
  for (char& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(SupportMatrix, AllRunnersTest,
                         ::testing::ValuesIn(all_supported_cases()), case_name);

TEST(Runners, UnsupportedCombinationReturnsNull) {
  EXPECT_EQ(make_runner(Platform::kCrusherGpu, Family::kNumba), nullptr);
}

TEST(Runners, UnsupportedPrecisionRejected) {
  auto vendor = make_runner(Platform::kWombatGpu, Family::kVendor);
  RunConfig config;
  config.precision = Precision::kHalfIn;  // no vendor FP16 kernel in the paper
  EXPECT_THROW((void)vendor->run(config), precondition_error);
}

TEST(Runners, ChecksumDeterministicPerSeed) {
  auto r1 = make_runner(Platform::kWombatGpu, Family::kJulia);
  auto r2 = make_runner(Platform::kWombatGpu, Family::kJulia);
  RunConfig config;
  config.n = 32;
  config.seed = 777;
  const double first = r1->run(config).checksum;
  EXPECT_EQ(first, r2->run(config).checksum);  // same seed, same inputs
  config.seed = 778;
  EXPECT_NE(r1->run(config).checksum, first);  // new seed, new inputs
}

TEST(Runners, JitCostOnFirstRunOnly) {
  // Julia/Numba pay a one-time modeled JIT cost — the warm-up the paper
  // excludes.  AOT models (C/OpenMP, Kokkos, CUDA/HIP) pay none.
  auto julia = make_runner(Platform::kCrusherCpu, Family::kJulia);
  RunConfig config;
  config.n = 16;
  EXPECT_GT(julia->run(config).jit_seconds, 0.0);
  EXPECT_EQ(julia->run(config).jit_seconds, 0.0);

  auto openmp = make_runner(Platform::kCrusherCpu, Family::kVendor);
  EXPECT_EQ(openmp->run(config).jit_seconds, 0.0);
}

TEST(Runners, GpuCountersShowRealDeviceActivity) {
  // What the authors checked with nvprof: kernels actually ran on the GPU.
  auto cuda = make_runner(Platform::kWombatGpu, Family::kVendor);
  RunConfig config;
  config.n = 64;
  const RunResult r = cuda->run(config);
  EXPECT_EQ(r.gpu.kernel_launches, 1u);
  EXPECT_GT(r.gpu.threads_executed, 64u * 64u - 1u);
  EXPECT_EQ(r.gpu.bytes_h2d, 2u * 64u * 64u * sizeof(double));
  EXPECT_EQ(r.gpu.bytes_d2h, 64u * 64u * sizeof(double));
}

TEST(Runners, CpuRunnersHaveNoGpuActivity) {
  auto julia = make_runner(Platform::kWombatCpu, Family::kJulia);
  RunConfig config;
  config.n = 16;
  const RunResult r = julia->run(config);
  EXPECT_EQ(r.gpu.kernel_launches, 0u);
  EXPECT_EQ(r.gpu.bytes_h2d, 0u);
}

TEST(Runners, KokkosGpuUsesFlatBlockShape) {
  // The Kokkos frontend's template-time launch heuristic: flat 256x1
  // blocks instead of the paper's hand-picked 32x32.
  KokkosGpuRunner kokkos(Platform::kWombatGpu);
  EXPECT_EQ(kokkos.launch_config().block.x, 256u);
  EXPECT_EQ(kokkos.launch_config().block.y, 1u);
  VendorGpuRunner cuda(Platform::kWombatGpu);
  EXPECT_EQ(cuda.launch_config().block.x, 32u);
  EXPECT_EQ(cuda.launch_config().block.y, 32u);
}

TEST(Runners, NumbaFp16UsesMatricesOfOnes) {
  // Section IV-A: numpy can't generate random Float16, so inputs are 1s
  // and every C entry equals k exactly.
  auto numba = make_runner(Platform::kWombatCpu, Family::kNumba);
  RunConfig config;
  config.n = 24;
  config.precision = Precision::kHalfIn;
  const RunResult r = numba->run(config);
  EXPECT_TRUE(r.verified);
  EXPECT_DOUBLE_EQ(r.checksum, 24.0 * 24.0 * 24.0);  // n^2 entries of value k=n
}

TEST(Runners, JuliaFp16UsesRandomInputs) {
  // Julia *does* support FP16 random number generation (Section IV-B).
  auto julia = make_runner(Platform::kCrusherGpu, Family::kJulia);
  RunConfig config;
  config.n = 24;
  config.precision = Precision::kHalfIn;
  const RunResult r = julia->run(config);
  EXPECT_TRUE(r.verified);
  EXPECT_NE(r.checksum, 24.0 * 24.0 * 24.0);
}

TEST(Runners, ModelGflopsOrderingMatchesPaperOnA100) {
  // CUDA > Julia > Kokkos > Numba at double precision (Fig. 7a).
  RunConfig config;
  config.n = 8192;
  config.verify = false;  // modeled rate only; functional run stays small
  config.n = 64;
  double gflops[4];
  int idx = 0;
  for (Family f : {Family::kVendor, Family::kJulia, Family::kKokkos, Family::kNumba}) {
    auto runner = make_runner(Platform::kWombatGpu, f);
    gflops[idx++] = runner->run(config).model_gflops;
  }
  EXPECT_GT(gflops[0], gflops[1]);  // CUDA > Julia
  EXPECT_GT(gflops[1], gflops[2]);  // Julia > Kokkos
  EXPECT_GT(gflops[2], gflops[3]);  // Kokkos > Numba
}

TEST(Runners, NamesMatchFigureLegends) {
  EXPECT_EQ(make_runner(Platform::kWombatGpu, Family::kJulia)->name(), "Julia CUDA.jl");
  EXPECT_EQ(make_runner(Platform::kCrusherGpu, Family::kVendor)->name(), "HIP");
  EXPECT_EQ(make_runner(Platform::kCrusherCpu, Family::kKokkos)->name(), "Kokkos/OpenMP");
}

}  // namespace
}  // namespace portabench::models
