// Table II: GPU experiment specifications — software stack of the paper's
// GPU runs plus the functional-simulator and performance-model parameters
// this reproduction substitutes for the physical A100 / MI250X.
#include <iostream>

#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "perfmodel/device_specs.hpp"

int main() {
  using namespace portabench;

  std::cout << "=== Table II: GPU experiment specs ===\n\n";
  Table stack({"Programming/System", "Wombat (NVIDIA)", "Crusher (AMD)"});
  for (const auto& row : perfmodel::table2_rows()) {
    stack.add_row({row.item, row.wombat, row.crusher});
  }
  std::cout << stack.to_markdown();

  std::cout << "\nSimulated device parameters (this reproduction):\n";
  Table hw({"Parameter", "A100", "MI250X (1 GCD)"});
  const auto a100 = gpusim::GpuSpec::a100();
  const auto mi = gpusim::GpuSpec::mi250x_gcd();
  auto num = [](double v, int p = 0) { return Table::num(v, p); };
  hw.add_row({"warp/wavefront", std::to_string(a100.warp_size), std::to_string(mi.warp_size)});
  hw.add_row({"SMs / CUs", std::to_string(a100.sm_count), std::to_string(mi.sm_count)});
  hw.add_row({"max threads/block", std::to_string(a100.max_threads_per_block),
              std::to_string(mi.max_threads_per_block)});
  hw.add_row({"peak FP64 (GFLOP/s)", num(a100.peak_fp64_gflops), num(mi.peak_fp64_gflops)});
  hw.add_row({"peak FP32 (GFLOP/s)", num(a100.peak_fp32_gflops), num(mi.peak_fp32_gflops)});
  hw.add_row({"peak FP16 vector (GFLOP/s)", num(a100.peak_fp16_gflops),
              num(mi.peak_fp16_gflops)});
  hw.add_row({"memory bandwidth (GB/s)", num(a100.mem_bw_gbs), num(mi.mem_bw_gbs)});
  hw.add_row({"launch latency (us)", num(a100.launch_latency_us, 1),
              num(mi.launch_latency_us, 1)});
  std::cout << hw.to_markdown();
  return 0;
}
