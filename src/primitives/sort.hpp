// Device-wide sorting: LSD radix sort (key and key-value, configurable
// digit width) built from the device scan, plus a comparison-based merge
// sort fallback for key types without a radix bijection.
//
// Radix pass structure (docs/PRIMITIVES.md):
//   count   — one block per chunk-sized tile; lanes own CONTIGUOUS
//             sub-slices and count digits into a privatized
//             shared-memory histogram (one row per lane), then fold the
//             rows in ascending lane order into a digit-major global
//             counts array counts[digit * blocks + block]
//   scan    — device_exclusive_scan over the counts array (integer sum:
//             exact), so offsets order ranks by (digit, block, lane,
//             position) — which is precisely LSD stability
//   scatter — lanes recount their slice, turn the privatized rows into
//             per-(lane, digit) start positions, and scatter their slice
//             in element order; every output slot is written exactly once
// All three passes are deterministic by construction — ranks are a pure
// function of the key array — so the sorted output is bitwise-identical
// to std::stable_sort over the key bijection under every schedule.
//
// Signed and floating-point keys sort through the usual monotone bit
// bijections (sign-flip for two's complement, sign-fold for IEEE-754),
// applied once before the passes and inverted once after.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "gpusim/launch.hpp"
#include "op.hpp"
#include "scan.hpp"
#include "tunables.hpp"

namespace portabench::primitives {

/// Schedule-only knobs: a call parameter; every value gives the same bits.
/// radix_bits is schedule-only too: any digit width yields the identical
/// sorted output (the keys are integers after the bijection).
struct SortConfig {
  unsigned radix_bits = kDefaultRadixBits;
  std::size_t chunk = kDefaultSortChunk;  ///< elements per block tile
  std::size_t lanes = kDefaultSortLanes;  ///< lanes per count/scatter block
};

// ---------------------------------------------------------------------------
// Key bijections.
// ---------------------------------------------------------------------------

/// Maps a key type onto an unsigned integer so that unsigned order of the
/// bits equals the key's total order (for floats: -NaN < -inf < ... <
/// +inf < +NaN, the IEEE total order on the sign-folded bits).
template <class K>
struct RadixTraits;

template <>
struct RadixTraits<std::uint32_t> {
  using Bits = std::uint32_t;
  [[nodiscard]] static Bits to_bits(std::uint32_t k) noexcept { return k; }
  [[nodiscard]] static std::uint32_t from_bits(Bits b) noexcept { return b; }
};

template <>
struct RadixTraits<std::uint64_t> {
  using Bits = std::uint64_t;
  [[nodiscard]] static Bits to_bits(std::uint64_t k) noexcept { return k; }
  [[nodiscard]] static std::uint64_t from_bits(Bits b) noexcept { return b; }
};

template <>
struct RadixTraits<std::int32_t> {
  using Bits = std::uint32_t;
  [[nodiscard]] static Bits to_bits(std::int32_t k) noexcept {
    return static_cast<Bits>(k) ^ (Bits{1} << 31);
  }
  [[nodiscard]] static std::int32_t from_bits(Bits b) noexcept {
    return static_cast<std::int32_t>(b ^ (Bits{1} << 31));
  }
};

template <>
struct RadixTraits<std::int64_t> {
  using Bits = std::uint64_t;
  [[nodiscard]] static Bits to_bits(std::int64_t k) noexcept {
    return static_cast<Bits>(k) ^ (Bits{1} << 63);
  }
  [[nodiscard]] static std::int64_t from_bits(Bits b) noexcept {
    return static_cast<std::int64_t>(b ^ (Bits{1} << 63));
  }
};

template <>
struct RadixTraits<float> {
  using Bits = std::uint32_t;
  [[nodiscard]] static Bits to_bits(float k) noexcept {
    const Bits b = std::bit_cast<Bits>(k);
    return (b & (Bits{1} << 31)) ? ~b : (b | (Bits{1} << 31));
  }
  [[nodiscard]] static float from_bits(Bits b) noexcept {
    return std::bit_cast<float>((b & (Bits{1} << 31)) ? (b ^ (Bits{1} << 31)) : ~b);
  }
};

template <>
struct RadixTraits<double> {
  using Bits = std::uint64_t;
  [[nodiscard]] static Bits to_bits(double k) noexcept {
    const Bits b = std::bit_cast<Bits>(k);
    return (b & (Bits{1} << 63)) ? ~b : (b | (Bits{1} << 63));
  }
  [[nodiscard]] static double from_bits(Bits b) noexcept {
    return std::bit_cast<double>((b & (Bits{1} << 63)) ? (b ^ (Bits{1} << 63)) : ~b);
  }
};

template <class K>
concept RadixSortable = requires { typename RadixTraits<K>::Bits; };

namespace detail {

struct NoValues {};

/// Lanes for a privatized shared histogram: clamp the requested count so
/// lanes * digits counters fit the device's shared-memory-per-block
/// limit (the real GPU constraint that couples radix width to block
/// size).
[[nodiscard]] inline std::size_t priv_lanes(const gpusim::DeviceContext& ctx,
                                            std::size_t want, std::size_t digits) {
  const std::size_t cap =
      ctx.spec().shared_mem_per_block / (digits * sizeof(std::size_t));
  return std::max<std::size_t>(1, std::min(want, cap));
}

template <class B>
[[nodiscard]] constexpr std::size_t digit_of(B bits, unsigned shift,
                                             std::size_t digits) noexcept {
  return static_cast<std::size_t>(bits >> shift) & (digits - 1);
}

/// One LSD pass: stable-partition `src` into `dst` by the digit at
/// `shift`.  Values (if any) ride along through the same permutation.
template <class B, class V>
void radix_pass(gpusim::DeviceContext& ctx, std::span<const B> src, std::span<B> dst,
                std::span<const V> vsrc, std::span<V> vdst, unsigned shift,
                std::size_t digits, const SortConfig& cfg, std::span<std::size_t> counts,
                std::span<std::size_t> offsets) {
  constexpr bool kWithValues = !std::is_same_v<V, NoValues>;
  const std::size_t n = src.size();
  const std::size_t tile = std::max<std::size_t>(1, cfg.chunk);
  const std::size_t blocks = ceil_div(n, tile);
  const std::size_t lanes = priv_lanes(ctx, std::max<std::size_t>(1, cfg.lanes), digits);
  const std::size_t shared_bytes = lanes * digits * sizeof(std::size_t);

  // count: privatized per-lane rows, folded in ascending lane order into
  // the digit-major global array.
  gpusim::launch_blocks(
      ctx, {blocks, 1, 1}, {lanes, 1, 1}, shared_bytes, [&](gpusim::BlockCtx& bc) {
        auto priv = bc.template shared<std::size_t>(lanes * digits);
        const std::size_t blk = bc.block_idx().x;
        const std::size_t lo = blk * tile;
        const std::size_t len = std::min(n, lo + tile) - lo;
        const std::size_t per = ceil_div(len, lanes);
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          const std::size_t lane = tc.thread_idx.x;
          auto row = priv.subspan(lane * digits, digits);
          for (std::size_t d = 0; d < digits; ++d) row[d] = 0;
          const std::size_t a = lo + std::min(len, lane * per);
          const std::size_t b = lo + std::min(len, (lane + 1) * per);
          for (std::size_t i = a; i < b; ++i) ++row[digit_of(src[i], shift, digits)];
        });
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          for (std::size_t d = tc.thread_idx.x; d < digits; d += lanes) {
            std::size_t c = 0;
            for (std::size_t l = 0; l < lanes; ++l) c += priv[l * digits + d];
            counts[d * blocks + blk] = c;
          }
        });
      });

  // scan: global ranks from the digit-major exclusive scan — built on the
  // device-wide scan itself (integer sum: exact).
  device_exclusive_scan(ctx, std::span<const std::size_t>(counts), offsets,
                        SumOp<std::size_t>{});

  // scatter: recount, turn the rows into per-(lane, digit) starts, then
  // scatter each lane's contiguous slice in element order (stability).
  gpusim::launch_blocks(
      ctx, {blocks, 1, 1}, {lanes, 1, 1}, shared_bytes, [&](gpusim::BlockCtx& bc) {
        auto priv = bc.template shared<std::size_t>(lanes * digits);
        const std::size_t blk = bc.block_idx().x;
        const std::size_t lo = blk * tile;
        const std::size_t len = std::min(n, lo + tile) - lo;
        const std::size_t per = ceil_div(len, lanes);
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          const std::size_t lane = tc.thread_idx.x;
          auto row = priv.subspan(lane * digits, digits);
          for (std::size_t d = 0; d < digits; ++d) row[d] = 0;
          const std::size_t a = lo + std::min(len, lane * per);
          const std::size_t b = lo + std::min(len, (lane + 1) * per);
          for (std::size_t i = a; i < b; ++i) ++row[digit_of(src[i], shift, digits)];
        });
        // Each lane owns the digit COLUMNS d, d+lanes, ...: walk the
        // column in ascending lane order rewriting counts into start
        // positions.  Columns are disjoint across lanes, so the permuted
        // sanitizer schedule sees no conflicts.
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          for (std::size_t d = tc.thread_idx.x; d < digits; d += lanes) {
            std::size_t run = offsets[d * blocks + blk];
            for (std::size_t l = 0; l < lanes; ++l) {
              const std::size_t c = priv[l * digits + d];
              priv[l * digits + d] = run;
              run += c;
            }
          }
        });
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          const std::size_t lane = tc.thread_idx.x;
          auto row = priv.subspan(lane * digits, digits);
          const std::size_t a = lo + std::min(len, lane * per);
          const std::size_t b = lo + std::min(len, (lane + 1) * per);
          for (std::size_t i = a; i < b; ++i) {
            const std::size_t pos = row[digit_of(src[i], shift, digits)]++;
            dst[pos] = src[i];
            if constexpr (kWithValues) vdst[pos] = vsrc[i];
          }
        });
      });
}

template <class K, class V>
void radix_sort_impl(gpusim::DeviceContext& ctx, std::span<K> keys, std::span<V> values,
                     const SortConfig& cfg) {
  using TR = RadixTraits<K>;
  using B = typename TR::Bits;
  constexpr bool kWithValues = !std::is_same_v<V, NoValues>;
  const std::size_t n = keys.size();
  if constexpr (kWithValues) PB_EXPECTS(values.size() == n);
  if (n <= 1) return;
  PB_EXPECTS(cfg.radix_bits >= 1 && cfg.radix_bits <= 8);
  const std::size_t digits = std::size_t{1} << cfg.radix_bits;
  const unsigned key_bits = std::numeric_limits<B>::digits;
  const unsigned passes = (key_bits + cfg.radix_bits - 1) / cfg.radix_bits;

  std::vector<B> ping(n);
  std::vector<B> pong(n);
  const std::size_t tile = std::max<std::size_t>(1, cfg.chunk);
  const std::size_t blocks = ceil_div(n, tile);
  gpusim::launch(ctx, {blocks, 1, 1}, {std::max<std::size_t>(1, cfg.lanes), 1, 1},
                 [&](const gpusim::ThreadCtx& tc) {
                   const std::size_t lanes = tc.block_dim.x;
                   const std::size_t lo = tc.block_idx.x * tile;
                   const std::size_t hi = std::min(n, lo + tile);
                   for (std::size_t i = lo + tc.thread_idx.x; i < hi; i += lanes) {
                     ping[i] = TR::to_bits(keys[i]);
                   }
                 });

  std::vector<V> vping;
  std::vector<V> vpong;
  if constexpr (kWithValues) {
    vping.assign(values.begin(), values.end());
    vpong.resize(n);
  }

  std::vector<std::size_t> counts(digits * blocks);
  std::vector<std::size_t> offsets(digits * blocks);

  std::span<B> a(ping);
  std::span<B> b(pong);
  std::span<V> va(vping);
  std::span<V> vb(vpong);
  for (unsigned p = 0; p < passes; ++p) {
    radix_pass<B, V>(ctx, a, b, va, vb, p * cfg.radix_bits, digits, cfg,
                     std::span<std::size_t>(counts), std::span<std::size_t>(offsets));
    std::swap(a, b);
    if constexpr (kWithValues) std::swap(va, vb);
  }

  gpusim::launch(ctx, {blocks, 1, 1}, {std::max<std::size_t>(1, cfg.lanes), 1, 1},
                 [&](const gpusim::ThreadCtx& tc) {
                   const std::size_t block_lanes = tc.block_dim.x;
                   const std::size_t lo = tc.block_idx.x * tile;
                   const std::size_t hi = std::min(n, lo + tile);
                   for (std::size_t i = lo + tc.thread_idx.x; i < hi; i += block_lanes) {
                     keys[i] = TR::from_bits(a[i]);
                     if constexpr (kWithValues) values[i] = va[i];
                   }
                 });
}

}  // namespace detail

/// Sort keys ascending (stable by construction).
template <class K>
  requires RadixSortable<K>
void device_radix_sort_keys(gpusim::DeviceContext& ctx, std::span<K> keys,
                            const SortConfig& cfg = {}) {
  detail::radix_sort_impl<K, detail::NoValues>(ctx, keys, {}, cfg);
}

/// Sort (key, value) pairs ascending by key; equal keys keep their input
/// order (LSD radix sorts are stable).
template <class K, class V>
  requires RadixSortable<K>
void device_radix_sort_pairs(gpusim::DeviceContext& ctx, std::span<K> keys,
                             std::span<V> values, const SortConfig& cfg = {}) {
  detail::radix_sort_impl<K, V>(ctx, keys, values, cfg);
}

// ---------------------------------------------------------------------------
// Merge-sort fallback: comparison-based, for key types with no radix
// bijection.  Tile-local std::stable_sort (one block per tile, blocks in
// parallel), then log2 passes of pairwise run merges taking the LEFT
// element on ties — stable, and deterministic under every schedule
// because the merge tree is a pure function of n and chunk.
// ---------------------------------------------------------------------------

namespace detail {

template <class T, class Less>
void merge_runs(std::span<const T> src, std::span<T> dst, std::size_t lo, std::size_t mid,
                std::size_t hi, Less& less) {
  std::size_t i = lo;
  std::size_t j = mid;
  std::size_t o = lo;
  while (i < mid && j < hi) {
    // !less(right, left): take the left run on ties — stability.
    if (!less(src[j], src[i])) {
      dst[o++] = src[i++];
    } else {
      dst[o++] = src[j++];
    }
  }
  while (i < mid) dst[o++] = src[i++];
  while (j < hi) dst[o++] = src[j++];
}

template <class T, class Less>
void merge_sort_spans(gpusim::DeviceContext& ctx, std::span<T> data, Less less,
                      const SortConfig& cfg) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t tile = std::max<std::size_t>(1, cfg.chunk);
  const std::size_t blocks = ceil_div(n, tile);

  // Tile-local stable sort: one single-lane block per tile (the
  // simulator analogue of a per-block sorting network); blocks run in
  // parallel across the engine.
  gpusim::launch_blocks(ctx, {blocks, 1, 1}, {1, 1, 1}, 0, [&](gpusim::BlockCtx& bc) {
    const std::size_t lo = bc.block_idx().x * tile;
    const std::size_t hi = std::min(n, lo + tile);
    bc.for_lanes([&](const gpusim::ThreadCtx&) {
      std::stable_sort(data.begin() + static_cast<std::ptrdiff_t>(lo),
                       data.begin() + static_cast<std::ptrdiff_t>(hi), less);
    });
  });

  std::vector<T> aux(n);
  std::span<T> src = data;
  std::span<T> dst(aux);
  for (std::size_t width = tile; width < n; width *= 2) {
    const std::size_t merges = ceil_div(n, 2 * width);
    gpusim::launch_blocks(
        ctx, {merges, 1, 1}, {1, 1, 1}, 0, [&](gpusim::BlockCtx& bc) {
          const std::size_t lo = bc.block_idx().x * 2 * width;
          const std::size_t mid = std::min(n, lo + width);
          const std::size_t hi = std::min(n, lo + 2 * width);
          bc.for_lanes([&](const gpusim::ThreadCtx&) {
            merge_runs(std::span<const T>(src), dst, lo, mid, hi, less);
          });
        });
    std::swap(src, dst);
  }
  if (src.data() != data.data()) {
    std::copy(src.begin(), src.end(), data.begin());
  }
}

}  // namespace detail

/// Comparison-based sort for non-radix-friendly key types.  Stable.
template <class K, class Less = std::less<K>>
void device_merge_sort_keys(gpusim::DeviceContext& ctx, std::span<K> keys,
                            Less less = {}, const SortConfig& cfg = {}) {
  detail::merge_sort_spans(ctx, keys, less, cfg);
}

/// Key-value merge sort: sorts materialized pairs by key (stable), then
/// writes keys and values back.
template <class K, class V, class Less = std::less<K>>
void device_merge_sort_pairs(gpusim::DeviceContext& ctx, std::span<K> keys,
                             std::span<V> values, Less less = {},
                             const SortConfig& cfg = {}) {
  PB_EXPECTS(values.size() == keys.size());
  std::vector<std::pair<K, V>> zipped(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) zipped[i] = {keys[i], values[i]};
  auto pair_less = [&less](const std::pair<K, V>& a, const std::pair<K, V>& b) {
    return less(a.first, b.first);
  };
  detail::merge_sort_spans(ctx, std::span<std::pair<K, V>>(zipped), pair_less, cfg);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = zipped[i].first;
    values[i] = zipped[i].second;
  }
}

// ---------------------------------------------------------------------------
// Host-serial radix core: the same LSD passes without launches, for call
// sites that sort small batches on the host (the serve engine's
// sort-by-(bucket_key, id) flush path).  Stable; no allocation beyond
// the ping-pong buffers the caller can reuse.
// ---------------------------------------------------------------------------

/// Reusable scratch for host_radix_sort_pairs (steady-state: no
/// allocations once the capacity has grown to the largest batch).
template <class B, class V>
struct HostRadixScratch {
  std::vector<B> keys;
  std::vector<V> values;
  std::vector<std::size_t> counts;
};

template <class K, class V>
  requires RadixSortable<K>
void host_radix_sort_pairs(std::span<K> keys, std::span<V> values,
                           HostRadixScratch<typename RadixTraits<K>::Bits, V>& scratch,
                           unsigned radix_bits = kDefaultRadixBits) {
  using TR = RadixTraits<K>;
  using B = typename TR::Bits;
  const std::size_t n = keys.size();
  PB_EXPECTS(values.size() == n);
  if (n <= 1) return;
  PB_EXPECTS(radix_bits >= 1 && radix_bits <= 8);
  const std::size_t digits = std::size_t{1} << radix_bits;
  const unsigned key_bits = std::numeric_limits<B>::digits;
  const unsigned passes = (key_bits + radix_bits - 1) / radix_bits;

  scratch.keys.resize(2 * n);
  scratch.values.resize(n);
  scratch.counts.resize(digits);
  std::span<B> a(scratch.keys.data(), n);
  std::span<B> b(scratch.keys.data() + n, n);
  for (std::size_t i = 0; i < n; ++i) a[i] = TR::to_bits(keys[i]);
  std::span<V> va = values;
  std::span<V> vb(scratch.values.data(), n);

  for (unsigned p = 0; p < passes; ++p) {
    const unsigned shift = p * radix_bits;
    std::fill(scratch.counts.begin(), scratch.counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      ++scratch.counts[detail::digit_of(a[i], shift, digits)];
    }
    std::size_t run = 0;
    for (std::size_t d = 0; d < digits; ++d) {
      const std::size_t c = scratch.counts[d];
      scratch.counts[d] = run;
      run += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = scratch.counts[detail::digit_of(a[i], shift, digits)]++;
      b[pos] = a[i];
      vb[pos] = va[i];
    }
    std::swap(a, b);
    std::swap(va, vb);
  }

  for (std::size_t i = 0; i < n; ++i) keys[i] = TR::from_bits(a[i]);
  if (va.data() != values.data()) {
    std::copy(va.begin(), va.end(), values.begin());
  }
}

template <class K, class V>
  requires RadixSortable<K>
void host_radix_sort_pairs(std::span<K> keys, std::span<V> values,
                           unsigned radix_bits = kDefaultRadixBits) {
  HostRadixScratch<typename RadixTraits<K>::Bits, V> scratch;
  host_radix_sort_pairs(keys, values, scratch, radix_bits);
}

}  // namespace portabench::primitives
