// Ablation: GPU thread-block geometry.
//
// DESIGN.md calls out Kokkos' template-time block heuristics as the
// modeled cause of the paper's A100 slowdown ("select the appropriate
// values for a number of blocks and threads per block ... Templates set
// this kind of optimization").  This bench quantifies the design choice:
// occupancy and modeled tile traffic across block shapes, plus functional
// verification that every shape computes the same GEMM.
// The square-tile rows reuse tune::modeled_block_stats — the SAME
// analytics the autotuner's gpu-block space minimizes — so this
// artifact and the tuner objective cannot drift apart.
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gemm/kernels_gpu.hpp"
#include "gemm/validate.hpp"
#include "gpusim/coalescing.hpp"
#include "gpusim/occupancy.hpp"
#include "perfmodel/device_specs.hpp"
#include "perfmodel/machine_model.hpp"
#include "tune/model_objectives.hpp"

int main(int argc, char** argv) {
  using namespace portabench;
  using gpusim::Dim3;

  std::string out_path = "BENCH_ablation_block.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: ablation_block_size [--out PATH]\n";
      return 2;
    }
  }

  std::cout << "=== Ablation: thread-block geometry on the A100 ===\n\n";

  const auto spec = gpusim::GpuSpec::a100();
  const perfmodel::GpuMachineModel model(spec);

  struct Shape {
    Dim3 block;
    const char* note;
  };
  const std::vector<Shape> shapes = {
      {{32, 32, 1}, "paper's hand-picked config"},
      {{16, 16, 1}, "smaller square tile"},
      {{8, 8, 1}, "tiny square tile"},
      {{256, 1, 1}, "flat (Kokkos template heuristic)"},
      {{1024, 1, 1}, "max flat"},
      {{64, 4, 1}, "wide rectangle"},
      {{4, 64, 1}, "tall rectangle (poor coalescing axis)"},
  };

  Table t({"block", "threads", "occupancy", "limiter", "eff. tile",
           "modeled traffic @ n=8192 (GB)", "coalescing expansion", "note"});
  for (const auto& s : shapes) {
    const gpusim::KernelResources res{s.block.volume(), 32, 0};
    const auto occ = gpusim::compute_occupancy(spec, res);
    // The reuse tile of the naive kernel is min(block.x, block.y) on the
    // square-tile axis; flat shapes degenerate to 1-wide reuse.
    const std::size_t tile = std::max<std::size_t>(1, std::min(s.block.x, s.block.y));
    const double traffic = model.dram_traffic_bytes(Precision::kDouble, 8192, tile);
    const auto coalescing =
        gpusim::analyze_gemm_coalescing(spec, s.block, 8192, sizeof(double));
    t.add_row({std::to_string(s.block.x) + "x" + std::to_string(s.block.y),
               std::to_string(s.block.volume()), Table::num(occ.fraction, 2), occ.limiter,
               std::to_string(tile), Table::num(traffic / 1e9, 1),
               Table::num(coalescing.weighted_expansion(8192), 2), s.note});
  }
  std::cout << t.to_markdown();

  std::cout << "\nKokkos MDRange lowering (row on threadIdx.x, transposed vs Fig. 3a):\n";
  {
    const auto kokkos =
        gpusim::analyze_gemm_coalescing(spec, {256, 1, 1}, 8192, sizeof(double), true);
    const auto paper =
        gpusim::analyze_gemm_coalescing(spec, {32, 32, 1}, 8192, sizeof(double), false);
    std::cout << "  Fig. 3a 32x32: weighted sector expansion "
              << Table::num(paper.weighted_expansion(8192), 2)
              << "; Kokkos 256x1 transposed: "
              << Table::num(kokkos.weighted_expansion(8192), 2)
              << "\n  relative bandwidth efficiency "
              << Table::num(paper.weighted_expansion(8192) / kokkos.weighted_expansion(8192), 2)
              << " — the mechanism behind Table III's e_{A100} = 0.260 for Kokkos.\n";
  }

  // Functional check: every shape computes the same matrix.
  std::cout << "\nfunctional cross-check (n=64): ";
  constexpr std::size_t kN = 64;
  gpusim::DeviceContext ctx(spec);
  std::vector<double> hA(kN * kN);
  std::vector<double> hB(kN * kN);
  Xoshiro256 rng(99);
  fill_uniform(std::span<double>(hA), rng);
  fill_uniform(std::span<double>(hB), rng);
  gpusim::DeviceBuffer<double> dA(ctx, kN * kN);
  gpusim::DeviceBuffer<double> dB(ctx, kN * kN);
  dA.copy_from_host(hA);
  dB.copy_from_host(hB);

  std::vector<double> reference;
  bool all_match = true;
  for (const auto& s : shapes) {
    gpusim::DeviceBuffer<double> dC(ctx, kN * kN);
    gemm::GpuLaunchConfig cfg;
    cfg.block = s.block;
    gemm::gemm_cuda_style<double>(ctx, cfg, dA, dB, dC, kN, kN, kN);
    std::vector<double> hC(kN * kN);
    dC.copy_to_host(std::span<double>(hC));
    if (reference.empty()) {
      reference = hC;
    } else {
      all_match = all_match && gemm::max_abs_diff<double>(hC, reference) == 0.0;
    }
  }
  std::cout << (all_match ? "all block shapes agree bitwise" : "MISMATCH") << "\n";
  std::cout << "\nTakeaway: flat/tall shapes lose the square tile's reuse, inflating\n"
               "DRAM traffic ~an order of magnitude — the configuration question the\n"
               "paper raises for Kokkos' A100 results (Section IV-B).\n";

  BenchArtifact artifact("ablation_block_size");
  JsonWriter& w = artifact.writer();
  w.key("model_n");
  w.value(tune::kBlockModelN);
  w.key("square_blocks");
  w.begin_array();
  for (long edge : {4L, 8L, 16L, 32L}) {
    const tune::BlockModelStats s = tune::modeled_block_stats(edge);
    w.begin_object();
    w.key("block_edge");
    w.value(edge);
    w.key("occupancy");
    w.value(s.occupancy);
    w.key("traffic_bytes");
    w.value(s.traffic_bytes);
    w.key("coalescing_expansion");
    w.value(s.expansion);
    w.key("tuner_cost");
    w.value(tune::modeled_block_cost(edge));
    w.end_object();
  }
  w.end_array();
  w.key("functional_match");
  w.value(all_match);
  const int io = artifact.write(out_path);
  if (io != 0) return io;
  return all_match ? 0 : 1;
}
