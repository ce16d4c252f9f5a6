// Hardware specifications of the four targets (Tables I and II), plus the
// software-stack rows the spec tables print.
//
// The hardware records live in common/hardware.hpp, shared with the
// simulator.  Peak rates use public vendor figures; the model never
// claims to match the authors' absolute measurements (DESIGN.md
// "Non-goals"), it uses the peaks to produce physically shaped
// GFLOPS-vs-size curves.
#pragma once

#include <string>
#include <vector>

#include "common/hardware.hpp"

namespace portabench::perfmodel {

/// The CPU and GPU records of the hardware description.
using hw::CpuSpec;
using hw::GpuSpec;

/// One row of the Table I / Table II software-stack dump.
struct SpecRow {
  std::string item;
  std::string wombat;
  std::string crusher;
};

/// Rows of Table I (CPU experiment specs): compilers, flags, versions, ENV.
[[nodiscard]] std::vector<SpecRow> table1_rows();
/// Rows of Table II (GPU experiment specs).
[[nodiscard]] std::vector<SpecRow> table2_rows();

}  // namespace portabench::perfmodel
