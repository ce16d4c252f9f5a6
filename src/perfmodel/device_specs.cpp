#include "device_specs.hpp"

namespace portabench::perfmodel {

std::vector<SpecRow> table1_rows() {
  return {
      {"Model", "Ampere Altra 80-core, 1-NUMA", "AMD Epyc 7A53 64-core, 4-NUMA"},
      {"C OpenMP compiler", "ArmClang22", "AMDClang14"},
      {"C OpenMP flags", "-O3 -fopenmp", "-O3 -fopenmp -march=native"},
      {"C++ Kokkos", "v3.6.01", "v3.6.01"},
      {"KOKKOS_DEVICES", "OpenMP", "OpenMP"},
      {"KOKKOS_ARCH", "Armv8-TX2", "Zen 3"},
      {"Kokkos compiler", "ArmClang++22", "AMDClang++14"},
      {"Kokkos flags", "-O3 -fopenmp", "-O3 -fopenmp -march=native"},
      {"Julia", "v1.7.2", "v1.8.0-rc1"},
      {"Julia ENV", "JULIA_EXCLUSIVE=1", "JULIA_EXCLUSIVE=1"},
      {"Python", "v3.9.9", "v3.9.9"},
      {"Numba", "v0.55.1", "v0.55.1"},
      {"Numba ENV", "NUMBA_OPT=3 (default)", "NUMBA_OPT=3 (default)"},
      {"OpenMP thread ENV", "OMP_PROC_BIND=true OMP_PLACES=threads",
       "OMP_PROC_BIND=true OMP_PLACES=threads"},
  };
}

std::vector<SpecRow> table2_rows() {
  return {
      {"Model", "A100 Ampere", "MI250X"},
      {"C CUDA/HIP compiler", "nvcc v11.5.1", "hipcc v14.0.0"},
      {"C CUDA/HIP flags", "-arch=sm_80", "-amdgpu-target=gfx908"},
      {"C++ Kokkos", "v3.6.01", "v3.6.01"},
      {"KOKKOS_DEVICES", "Cuda", "Hip"},
      {"KOKKOS_ARCH", "Ampere80", "Vega908"},
      {"Kokkos compiler", "CUDA v11.5.1", "HIP v14.0.0"},
      {"Kokkos flags", "-expt-extended-lambda -Xcudafe -arch=sm_80",
       "-amdgpu-target=gfx908"},
      {"Julia", "v1.7.2 (CUDA.jl)", "v1.8.0-rc1 (AMDGPU.jl)"},
      {"Python", "v3.9.9", "v3.9.9"},
      {"Numba", "v0.55.1", "Not supported"},
  };
}

}  // namespace portabench::perfmodel
