// Reference GEMM used as the correctness oracle.
//
// A serial C = C + A*B at full input precision with `Acc`-typed
// accumulation.  Every hand-rolled kernel in the study is validated
// against this implementation (max elementwise error under a
// precision-dependent tolerance).
//
// Loop order follows C's layout, the rule the paper's CPU kernels follow
// (Section III, Figs. 2-3): row-major C runs i-l-j over rows of B and C,
// column-major C runs j-l-i over columns of A and C, so the innermost
// loop always walks contiguous memory.  When the operand that loop reads
// is not already contiguous `Acc` (half inputs, or a layout mix), it is
// converted once into one k x n (or m x k) `Acc` buffer; nothing else is
// allocated.  Four lines of C share each pass over that operand.
//
// Bitwise contract: every C(i,j) takes the steps
//   C(i,j) = TC(Acc(C(i,j)) + Acc(A(i,l)) * Acc(B(l,j)))
// for l = 0, 1, ..., k-1 in that order, exactly as the textbook i-j-l
// loop does.  Loop order and line blocking only interleave independent
// elements, and the build's -ffp-contract=off keeps the multiply and the
// add separately rounded, so every layout mix and view type gives the
// same bits.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "simrt/mdarray.hpp"

namespace portabench::gemm {

namespace detail {

/// The product of one step, operands in A-then-B order (`s` is the
/// per-line scalar, `v` the element of the streamed operand): products
/// commute bit for bit except in which NaN payload propagates.
template <bool kScalarIsA, class Acc>
inline Acc step_product(Acc s, Acc v) noexcept {
  if constexpr (kScalarIsA) {
    return s * v;
  } else {
    return v * s;
  }
}

template <bool kScalarIsA, class Acc, class TC>
inline void update_line(TC* __restrict c, const Acc* __restrict v, Acc s, std::size_t len) {
  for (std::size_t x = 0; x < len; ++x) {
    c[x] = static_cast<TC>(static_cast<Acc>(c[x]) + step_product<kScalarIsA>(s, v[x]));
  }
}

template <bool kScalarIsA, class Acc, class TC>
inline void update_lines4(TC* __restrict c0, TC* __restrict c1, TC* __restrict c2,
                          TC* __restrict c3, const Acc* __restrict v, Acc s0, Acc s1, Acc s2,
                          Acc s3, std::size_t len) {
  for (std::size_t x = 0; x < len; ++x) {
    const Acc b = v[x];
    c0[x] = static_cast<TC>(static_cast<Acc>(c0[x]) + step_product<kScalarIsA>(s0, b));
    c1[x] = static_cast<TC>(static_cast<Acc>(c1[x]) + step_product<kScalarIsA>(s1, b));
    c2[x] = static_cast<TC>(static_cast<Acc>(c2[x]) + step_product<kScalarIsA>(s2, b));
    c3[x] = static_cast<TC>(static_cast<Acc>(c3[x]) + step_product<kScalarIsA>(s3, b));
  }
}

/// Lines of `v` (rows when kRows, else columns) as contiguous Acc memory:
/// returns the first line and the distance between lines.  That is v's
/// own storage when it already has that form, else a copy made in `pack`.
template <class Acc, bool kRows, class View>
const Acc* acc_lines(const View& v, std::vector<Acc>& pack, std::size_t& line_stride) {
  using T = std::remove_cv_t<typename View::value_type>;
  const std::size_t lines = v.extent(kRows ? 0 : 1);
  const std::size_t len = v.extent(kRows ? 1 : 0);
  if constexpr (View::is_row_major == kRows && std::is_same_v<T, Acc>) {
    PB_EXPECTS(v.stride(kRows ? 1 : 0) == 1);
    line_stride = v.stride(kRows ? 0 : 1);
    return &v(0, 0);
  } else {
    pack.resize(lines * len);
    for (std::size_t line = 0; line < lines; ++line) {
      for (std::size_t x = 0; x < len; ++x) {
        pack[line * len + x] = static_cast<Acc>(kRows ? v(line, x) : v(x, line));
      }
    }
    line_stride = len;
    return pack.data();
  }
}

/// For each of `lines` lines of C, of length `len`: apply the steps
/// l = 0..k-1 with scalar `scalar(line, l)` and the streamed line `l` of
/// `v`, four C lines per pass.
template <bool kScalarIsA, class Acc, class LineOf, class ScalarOf>
void update_all(std::size_t lines, std::size_t len, std::size_t k, LineOf&& line_of,
                ScalarOf&& scalar, const Acc* v, std::size_t v_stride) {
  std::size_t r = 0;
  for (; r + 4 <= lines; r += 4) {
    auto* c0 = line_of(r);
    auto* c1 = line_of(r + 1);
    auto* c2 = line_of(r + 2);
    auto* c3 = line_of(r + 3);
    for (std::size_t l = 0; l < k; ++l) {
      update_lines4<kScalarIsA>(c0, c1, c2, c3, v + l * v_stride, scalar(r, l),
                                scalar(r + 1, l), scalar(r + 2, l), scalar(r + 3, l), len);
    }
  }
  for (; r < lines; ++r) {
    auto* c = line_of(r);
    for (std::size_t l = 0; l < k; ++l) {
      update_line<kScalarIsA>(c, v + l * v_stride, scalar(r, l), len);
    }
  }
}

}  // namespace detail

/// C += A * B with A: m x k, B: k x n, C: m x n, any layout mix, View2 or
/// RawView2.  Acc is the accumulation type (float accumulate for half
/// inputs).  C is written through its (handle) view and must not overlap
/// A or B.
template <class Acc, class ViewA, class ViewB, class ViewC>
void reference_gemm(const ViewA& A, const ViewB& B, const ViewC& C) {
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  PB_EXPECTS(B.extent(0) == k);
  PB_EXPECTS(C.extent(0) == m && C.extent(1) == n);
  if (m == 0 || n == 0 || k == 0) return;
  PB_EXPECTS(C.stride(ViewC::is_row_major ? 1 : 0) == 1);

  std::vector<Acc> pack;
  std::size_t stride = 0;
  if constexpr (ViewC::is_row_major) {
    // i-l-j: row i of C takes A(i,l) times row l of B.
    const Acc* rows_b = detail::acc_lines<Acc, /*kRows=*/true>(B, pack, stride);
    detail::update_all</*kScalarIsA=*/true>(
        m, n, k, [&](std::size_t i) { return &C(i, 0); },
        [&](std::size_t i, std::size_t l) { return static_cast<Acc>(A(i, l)); }, rows_b,
        stride);
  } else {
    // j-l-i: column j of C takes column l of A times B(l,j).
    const Acc* cols_a = detail::acc_lines<Acc, /*kRows=*/false>(A, pack, stride);
    detail::update_all</*kScalarIsA=*/false>(
        n, m, k, [&](std::size_t j) { return &C(0, j); },
        [&](std::size_t j, std::size_t l) { return static_cast<Acc>(B(l, j)); }, cols_a,
        stride);
  }
}

}  // namespace portabench::gemm
