// Property tests for device-wide reductions: every (type, op) cell must
// match the serial oracle bit for bit, under every schedule config —
// including the sanitized tier's permuted lane orders.
#include "primitives/reduce.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "primitives/serial.hpp"

namespace portabench::primitives {
namespace {

// Odd, prime, power-of-two, and segment-straddling sizes; empty and
// single-element inputs are the degenerate cells.
const std::size_t kSizes[] = {0, 1, 2, 3, 97, 1023, 1024, 1025, 4096, 10007};

const ReduceConfig kConfigs[] = {
    {},            // defaults
    {1, 1},        // degenerate single-lane
    {32, 1},       // warp-width lanes
    {256, 8},      // wide blocks, deep grain
    {7, 3},        // deliberately awkward non-power-of-two schedule
};

template <class T>
std::vector<T> random_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      x = static_cast<T>(rng.uniform() - 0.5);
    } else {
      x = static_cast<T>(rng());
    }
  }
  return v;
}

template <class T>
bool bits_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class T, class Op>
void check_reduce_all_schedules(std::uint64_t seed) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const Op op;
  for (const std::size_t n : kSizes) {
    const std::vector<T> in = random_values<T>(n, seed + n);
    const T want = reduce_oracle(std::span<const T>(in), op);
    for (const ReduceConfig& cfg : kConfigs) {
      const T got = device_reduce(ctx, std::span<const T>(in), op, cfg);
      EXPECT_TRUE(bits_equal(got, want))
          << "n=" << n << " lanes=" << cfg.lanes << " grain=" << cfg.items_per_lane;
    }
  }
}

TEST(DeviceReduce, SumInt32) { check_reduce_all_schedules<std::int32_t, SumOp<std::int32_t>>(1); }
TEST(DeviceReduce, SumUint64) { check_reduce_all_schedules<std::uint64_t, SumOp<std::uint64_t>>(2); }
TEST(DeviceReduce, SumDouble) { check_reduce_all_schedules<double, SumOp<double>>(3); }
TEST(DeviceReduce, SumFloat) { check_reduce_all_schedules<float, SumOp<float>>(4); }
TEST(DeviceReduce, ProdInt64) { check_reduce_all_schedules<std::int64_t, ProdOp<std::int64_t>>(5); }
TEST(DeviceReduce, MinDouble) { check_reduce_all_schedules<double, MinOp<double>>(6); }
TEST(DeviceReduce, MaxInt32) { check_reduce_all_schedules<std::int32_t, MaxOp<std::int32_t>>(7); }
TEST(DeviceReduce, MaxDouble) { check_reduce_all_schedules<double, MaxOp<double>>(8); }
TEST(DeviceReduce, BitAndUint32) { check_reduce_all_schedules<std::uint32_t, BitAndOp<std::uint32_t>>(9); }
TEST(DeviceReduce, BitOrUint64) { check_reduce_all_schedules<std::uint64_t, BitOrOp<std::uint64_t>>(10); }
TEST(DeviceReduce, BitXorInt32) { check_reduce_all_schedules<std::int32_t, BitXorOp<std::int32_t>>(11); }

TEST(DeviceReduce, ExactOpsEqualPlainLeftFold) {
  // For exact ops the pinned association is a left fold — the oracle's
  // segment structure must be invisible.
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::vector<std::int64_t> in = random_values<std::int64_t>(5000, 42);
  std::int64_t fold = 0;
  // Wrapping sum through uint64_t: signed overflow would be UB.
  for (const std::int64_t x : in) {
    fold = static_cast<std::int64_t>(static_cast<std::uint64_t>(fold) +
                                     static_cast<std::uint64_t>(x));
  }
  EXPECT_EQ(device_reduce(ctx, std::span<const std::int64_t>(in), SumOp<std::int64_t>{}),
            fold);
  std::int64_t mx = in[0];
  for (const std::int64_t x : in) mx = std::max(mx, x);
  EXPECT_EQ(device_reduce(ctx, std::span<const std::int64_t>(in), MaxOp<std::int64_t>{}),
            mx);
}

TEST(DeviceReduce, EmptyReturnsIdentity) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::span<const double> empty;
  EXPECT_EQ(device_reduce(ctx, empty, SumOp<double>{}), 0.0);
  EXPECT_EQ(device_reduce(ctx, empty, MaxOp<double>{}),
            -std::numeric_limits<double>::infinity());
}

double nan_with_payload(std::uint64_t payload) {
  // Quiet NaN with a distinguishing payload so "which NaN survived" is
  // observable bitwise.
  const std::uint64_t bits = 0x7ff8000000000000ull | (payload & 0xffffull);
  return std::bit_cast<double>(bits);
}

TEST(DeviceReduce, NanMaxPropagatesLeftmostNan) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : {std::size_t{100}, std::size_t{3000}}) {
    for (const std::size_t first_nan : {std::size_t{0}, std::size_t{57}, n - 1}) {
      std::vector<double> in = random_values<double>(n, 77);
      in[first_nan] = nan_with_payload(first_nan + 1);
      if (first_nan + 500 < n) in[first_nan + 500] = nan_with_payload(9999);
      const double want = nan_with_payload(first_nan + 1);
      for (const ReduceConfig& cfg : kConfigs) {
        const double got =
            device_reduce(ctx, std::span<const double>(in), NanMaxOp<double>{}, cfg);
        EXPECT_TRUE(bits_equal(got, want))
            << "n=" << n << " first_nan=" << first_nan << " lanes=" << cfg.lanes;
      }
      const double oracle = reduce_oracle(std::span<const double>(in), NanMaxOp<double>{});
      EXPECT_TRUE(bits_equal(oracle, want));
    }
  }
}

TEST(DeviceReduce, NanMinPropagatesLeftmostNan) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  std::vector<double> in = random_values<double>(2050, 78);
  in[1024] = nan_with_payload(5);
  in[2049] = nan_with_payload(6);
  const double want = nan_with_payload(5);
  const double got = device_reduce(ctx, std::span<const double>(in), NanMinOp<double>{});
  EXPECT_TRUE(bits_equal(got, want));
}

TEST(DeviceReduce, MaxTieKeepsLeftmostBits) {
  // -0.0 and +0.0 compare equal; the leftmost of a tie must survive so
  // the result is schedule-independent bitwise.
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  std::vector<double> in(3000, -1.0);
  in[100] = -0.0;
  in[2500] = +0.0;
  const double want_bits = -0.0;
  for (const ReduceConfig& cfg : kConfigs) {
    const double got = device_reduce(ctx, std::span<const double>(in), MaxOp<double>{}, cfg);
    EXPECT_TRUE(bits_equal(got, want_bits)) << "lanes=" << cfg.lanes;
  }
}

TEST(DeviceTransformReduce, MatchesOracle) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : kSizes) {
    const auto f = [](std::size_t i) {
      return static_cast<double>((i * 2654435761u) % 1000) * 0.001 - 0.5;
    };
    const double want = transform_reduce_oracle<double>(n, SumOp<double>{}, f);
    const double got = device_transform_reduce<double>(ctx, n, SumOp<double>{}, f);
    EXPECT_TRUE(bits_equal(got, want)) << "n=" << n;
  }
}

TEST(DeviceMaxAbsDiff, MatchesOracleAndScalar) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = random_values<double>(n, 100 + n);
    const std::vector<double> b = random_values<double>(n, 200 + n);
    const double want = max_abs_diff_oracle(std::span<const double>(a),
                                            std::span<const double>(b));
    for (const ReduceConfig& cfg : kConfigs) {
      const double got =
          device_max_abs_diff(ctx, std::span<const double>(a), std::span<const double>(b), cfg);
      EXPECT_TRUE(bits_equal(got, want)) << "n=" << n << " lanes=" << cfg.lanes;
    }
    // Max is exact: the pinned value equals the scalar loop's value.
    double scalar = n == 0 ? -std::numeric_limits<double>::infinity() : 0.0;
    for (std::size_t i = 0; i < n; ++i) scalar = std::max(scalar, std::abs(a[i] - b[i]));
    if (n > 0) {
      EXPECT_EQ(want, scalar) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace portabench::primitives
