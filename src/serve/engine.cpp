// ServeEngine implementation: admission, flush batching, bucket
// execution, and deterministic delivery.  See engine.hpp and
// docs/SERVE.md for the architecture.
#include "engine.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "gemm/kernels_cpu.hpp"
#include "gemm/kernels_tiled.hpp"
#include "gpusim/batch.hpp"
#include "primitives/sort.hpp"
#include "serial.hpp"
#include "simrt/mdarray.hpp"
#include "spmv/kernels.hpp"
#include "stencil/kernels.hpp"
#include "tune/tuned.hpp"

namespace portabench::serve {

namespace {

using simrt::LayoutLeft;
using simrt::LayoutRight;
using simrt::RawView2;

/// Arena bytes one job's carved section occupies (inputs + outputs,
/// every sub-section cache-line aligned).
[[nodiscard]] std::size_t job_bytes(const JobDesc& d) {
  const std::size_t n = d.n;
  switch (d.kind) {
    case JobKind::kGemm:
      return 2 * align_up(n * n * input_bytes(d.precision)) +
             align_up(n * n * output_bytes(d.precision));
    case JobKind::kSpmv: {
      const std::size_t cap = n * kSpmvMaxNnzPerRow;
      return align_up((n + 1) * sizeof(std::size_t)) +
             align_up(cap * sizeof(std::size_t)) +
             align_up(cap * input_bytes(d.precision)) +
             2 * align_up(n * input_bytes(d.precision));
    }
    case JobKind::kStencil:
      return 2 * align_up(n * n * sizeof(double));
  }
  return 0;
}

// Section carving: fill, execution, and checksum all derive a job's
// pointers from (base, n) through these, so the layout has one
// definition.

template <class T, class Acc>
struct GemmCarve {
  T* a;
  T* b;
  Acc* c;
};

template <class T, class Acc>
[[nodiscard]] GemmCarve<T, Acc> carve_gemm(std::byte* base, std::size_t n) {
  GemmCarve<T, Acc> cv;
  cv.a = reinterpret_cast<T*>(base);
  base += align_up(n * n * sizeof(T));
  cv.b = reinterpret_cast<T*>(base);
  base += align_up(n * n * sizeof(T));
  cv.c = reinterpret_cast<Acc*>(base);
  return cv;
}

template <class T>
struct SpmvCarve {
  std::size_t* row_ptr;
  std::size_t* col_idx;
  T* values;
  T* x;
  T* y;
};

template <class T>
[[nodiscard]] SpmvCarve<T> carve_spmv(std::byte* base, std::size_t n) {
  const std::size_t cap = n * kSpmvMaxNnzPerRow;
  SpmvCarve<T> cv;
  cv.row_ptr = reinterpret_cast<std::size_t*>(base);
  base += align_up((n + 1) * sizeof(std::size_t));
  cv.col_idx = reinterpret_cast<std::size_t*>(base);
  base += align_up(cap * sizeof(std::size_t));
  cv.values = reinterpret_cast<T*>(base);
  base += align_up(cap * sizeof(T));
  cv.x = reinterpret_cast<T*>(base);
  base += align_up(n * sizeof(T));
  cv.y = reinterpret_cast<T*>(base);
  return cv;
}

struct StencilCarve {
  double* in;
  double* out;
};

[[nodiscard]] StencilCarve carve_stencil(std::byte* base, std::size_t n) {
  StencilCarve cv;
  cv.in = reinterpret_cast<double*>(base);
  cv.out = reinterpret_cast<double*>(base + align_up(n * n * sizeof(double)));
  return cv;
}

void fill_job(const JobDesc& d, std::byte* base) {
  const std::size_t n = d.n;
  switch (d.kind) {
    case JobKind::kGemm:
      switch (d.precision) {
        case Precision::kDouble: {
          const auto cv = carve_gemm<double, double>(base, n);
          fill_gemm_inputs<double>(d.frontend, d.precision, d.seed, {cv.a, n * n},
                                   {cv.b, n * n});
          break;
        }
        case Precision::kSingle: {
          const auto cv = carve_gemm<float, float>(base, n);
          fill_gemm_inputs<float>(d.frontend, d.precision, d.seed, {cv.a, n * n},
                                  {cv.b, n * n});
          break;
        }
        case Precision::kHalfIn: {
          const auto cv = carve_gemm<half, float>(base, n);
          fill_gemm_inputs<half>(d.frontend, d.precision, d.seed, {cv.a, n * n},
                                 {cv.b, n * n});
          break;
        }
      }
      break;
    case JobKind::kSpmv:
      if (d.precision == Precision::kSingle) {
        const auto cv = carve_spmv<float>(base, n);
        fill_spmv_inputs<float>(d.seed, n, cv.row_ptr, cv.col_idx, cv.values, {cv.x, n});
      } else {
        const auto cv = carve_spmv<double>(base, n);
        fill_spmv_inputs<double>(d.seed, n, cv.row_ptr, cv.col_idx, cv.values, {cv.x, n});
      }
      break;
    case JobKind::kStencil: {
      const auto cv = carve_stencil(base, n);
      fill_stencil_input(d.seed, {cv.in, n * n});
      break;
    }
  }
}

/// One non-tiled GEMM job through its frontend kernel over raw views —
/// the same kernel instantiation run_serial uses, minus the allocation.
template <class T, class Acc>
void exec_gemm_item(const JobDesc& d, std::byte* base) {
  const std::size_t n = d.n;
  const auto cv = carve_gemm<T, Acc>(base, n);
  const simrt::SerialSpace space;
  if (d.frontend == Frontend::kJulia) {
    const RawView2<const T, LayoutLeft> A(cv.a, n, n);
    const RawView2<const T, LayoutLeft> B(cv.b, n, n);
    RawView2<Acc, LayoutLeft> C(cv.c, n, n);
    gemm::gemm_julia_style<Acc>(space, A, B, C);
    return;
  }
  const RawView2<const T, LayoutRight> A(cv.a, n, n);
  const RawView2<const T, LayoutRight> B(cv.b, n, n);
  RawView2<Acc, LayoutRight> C(cv.c, n, n);
  switch (d.frontend) {
    case Frontend::kOpenMP:
      gemm::gemm_openmp_style<Acc>(space, A, B, C);
      break;
    case Frontend::kKokkos:
      gemm::gemm_kokkos_style<Acc>(space, A, B, C);
      break;
    case Frontend::kNumba:
      gemm::gemm_numba_style<Acc>(space, A, B, C);
      break;
    default:
      break;  // kTiled goes through gemm_tiled_batched, kJulia above
  }
}

void exec_gemm_frontend(const JobDesc& d, std::byte* base) {
  switch (d.precision) {
    case Precision::kDouble:
      exec_gemm_item<double, double>(d, base);
      break;
    case Precision::kSingle:
      exec_gemm_item<float, float>(d, base);
      break;
    case Precision::kHalfIn:
      exec_gemm_item<half, float>(d, base);
      break;
  }
}

template <class T, class Acc, class Layout>
[[nodiscard]] double gemm_slot_checksum(const JobDesc& d, std::byte* base) {
  const auto cv = carve_gemm<T, Acc>(base, d.n);
  const RawView2<const Acc, Layout> C(cv.c, d.n, d.n);
  return view_checksum(C);
}

[[nodiscard]] double checksum_job(const JobDesc& d, std::byte* base) {
  const std::size_t n = d.n;
  switch (d.kind) {
    case JobKind::kGemm: {
      const bool left = d.frontend == Frontend::kJulia;
      switch (d.precision) {
        case Precision::kDouble:
          return left ? gemm_slot_checksum<double, double, LayoutLeft>(d, base)
                      : gemm_slot_checksum<double, double, LayoutRight>(d, base);
        case Precision::kSingle:
          return left ? gemm_slot_checksum<float, float, LayoutLeft>(d, base)
                      : gemm_slot_checksum<float, float, LayoutRight>(d, base);
        case Precision::kHalfIn:
          return left ? gemm_slot_checksum<half, float, LayoutLeft>(d, base)
                      : gemm_slot_checksum<half, float, LayoutRight>(d, base);
      }
      return 0.0;
    }
    case JobKind::kSpmv:
      if (d.precision == Precision::kSingle) {
        const auto cv = carve_spmv<float>(base, n);
        return span_checksum(std::span<const float>(cv.y, n));
      } else {
        const auto cv = carve_spmv<double>(base, n);
        return span_checksum(std::span<const double>(cv.y, n));
      }
    case JobKind::kStencil: {
      const auto cv = carve_stencil(base, n);
      return span_checksum(std::span<const double>(cv.out, n * n));
    }
  }
  return 0.0;
}

}  // namespace

struct ServeEngine::Shard::Staging {
  std::vector<gemm::GemmBatchItem<double, double>> gemm_f64;
  std::vector<gemm::GemmBatchItem<float, float>> gemm_f32;
  std::vector<gemm::GemmBatchItem<half, float>> gemm_f16;
  std::vector<spmv::SpmvBatchItem<double>> spmv_f64;
  std::vector<spmv::SpmvBatchItem<float>> spmv_f32;
  std::vector<stencil::StencilBatchItem> sten;

  // Radix flush-ordering scratch (sort_radix path): permutation keys and
  // ping-pong buffers, grown once to the batch size and reused so the
  // steady state stays allocation-free like the rest of the staging.
  std::vector<std::uint64_t> order_ids;
  std::vector<std::uint32_t> order_buckets;
  std::vector<std::uint32_t> order_perm;
  std::vector<JobSlot> order_slots;
  primitives::HostRadixScratch<std::uint64_t, std::uint32_t> order_scratch64;
  primitives::HostRadixScratch<std::uint32_t, std::uint32_t> order_scratch32;

  explicit Staging(std::size_t batch_jobs) {
    gemm_f64.reserve(batch_jobs);
    gemm_f32.reserve(batch_jobs);
    gemm_f16.reserve(batch_jobs);
    spmv_f64.reserve(batch_jobs);
    spmv_f32.reserve(batch_jobs);
    sten.reserve(batch_jobs);
    order_ids.reserve(batch_jobs);
    order_buckets.reserve(batch_jobs);
    order_perm.reserve(batch_jobs);
    order_slots.reserve(batch_jobs);
  }
};

namespace {

/// Stage one tiled-GEMM bucket's items and run them as a single batched
/// microkernel launch.
template <class T, class Acc>
void run_tiled_bucket(gpusim::LaunchEngine& engine,
                      std::vector<gemm::GemmBatchItem<T, Acc>>& items,
                      std::span<const JobDesc> descs, std::span<std::byte* const> bases,
                      const gemm::TileConfig& tile) {
  items.clear();
  for (std::size_t k = 0; k < descs.size(); ++k) {
    const std::size_t n = descs[k].n;
    const auto cv = carve_gemm<T, Acc>(bases[k], n);
    items.push_back({cv.a, cv.b, cv.c, n});
  }
  gemm::gemm_tiled_batched(engine, std::span<const gemm::GemmBatchItem<T, Acc>>(items),
                           tile);
}

template <class T>
void run_spmv_bucket(gpusim::LaunchEngine& engine,
                     std::vector<spmv::SpmvBatchItem<T>>& items,
                     std::span<const JobDesc> descs, std::span<std::byte* const> bases) {
  items.clear();
  for (std::size_t k = 0; k < descs.size(); ++k) {
    const std::size_t n = descs[k].n;
    const auto cv = carve_spmv<T>(bases[k], n);
    items.push_back({cv.row_ptr, cv.col_idx, cv.values, cv.x, cv.y, n});
  }
  spmv::spmv_csr_batched(engine, std::span<const spmv::SpmvBatchItem<T>>(items));
}

}  // namespace

ServeEngine::Shard::Shard(const ServeConfig& cfg, gpusim::DeviceContext& shard_ctx,
                          std::size_t shard_device)
    : queue(cfg.queue_capacity),
      ctx(&shard_ctx),
      device(shard_device),
      stream(shard_ctx, gpusim::StreamMode::kAsync),
      staging(std::make_unique<Staging>(cfg.batch_jobs)) {
  slots.reserve(cfg.batch_jobs);
  exec_idx.reserve(cfg.batch_jobs);
}

ServeEngine::Shard::~Shard() = default;

ServeEngine::ServeEngine(ServeConfig config) : config_(std::move(config)) {
  if (config_.batch_jobs == 0) {
    config_.batch_jobs = tune::Tuned::instance().serve_batch_jobs(kDefaultBatchJobs);
  }
  sort_radix_ = tune::Tuned::instance().serve_sort_radix(false);
  PB_EXPECTS(config_.shards > 0);
  PB_EXPECTS(config_.queue_capacity > 0);
  PB_EXPECTS(config_.batch_jobs > 0);
  PB_EXPECTS(config_.max_n > 0);
  topo_ = std::make_unique<gpusim::DeviceTopology>(config_.topology);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    const std::size_t device = i % topo_->devices();
    shards_.push_back(std::make_unique<Shard>(config_, topo_->context(device), device));
  }
}

ServeEngine::~ServeEngine() {
  shutdown();
  // Tear shards down last-built first, so the heap unwinds in the order
  // it was wound.  Front-to-back teardown lets the top shard's queue
  // ring merge into the heap top, glibc trims it, and the next engine
  // page-faults its rings afresh.
  while (!shards_.empty()) shards_.pop_back();
}

AdmitError ServeEngine::try_submit(const JobDesc& desc) {
  AdmitError err = AdmitError::kNone;
  if (!accepting_.load(std::memory_order_acquire)) {
    err = AdmitError::kShutdown;
  } else if (desc.n == 0) {
    err = AdmitError::kZeroSize;
  } else if (desc.n > config_.max_n) {
    err = AdmitError::kTooLarge;
  } else if (!supported(desc.kind, desc.frontend, desc.precision)) {
    err = AdmitError::kUnsupported;
  }
  if (err != AdmitError::kNone) {
    rejected_by_[static_cast<std::size_t>(err)].fetch_add(1, std::memory_order_relaxed);
    return err;
  }

  Shard& shard = *shards_[desc.id % shards_.size()];
  if (!shard.queue.try_push(desc)) {
    rejected_by_[static_cast<std::size_t>(AdmitError::kQueueFull)].fetch_add(
        1, std::memory_order_relaxed);
    return AdmitError::kQueueFull;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t nth = shard.submitted.fetch_add(1, std::memory_order_relaxed) + 1;
  if (nth % config_.batch_jobs == 0) schedule_flush(shard);
  return AdmitError::kNone;
}

void ServeEngine::schedule_flush(Shard& shard) {
  std::lock_guard<ShardMutex> lock(shard.submit_mutex);
  try {
    shard.stream.enqueue(0.0, [this, &shard] {
      const FlushOutcome out = flush_shard(shard, config_.batch_jobs);
      if (out.injected != 0) {
        batch_errors_.fetch_add(1, std::memory_order_relaxed);
        throw batch_error("serve: injected batch failure");
      }
    });
  } catch (const batch_error&) {
    // Sanitized runs force the stream eager (gpusim/stream.hpp), which
    // runs the op inline with no error stash: the batch error surfaces
    // here and stops with us (already counted) — a submitter never sees
    // its accept turned into a throw.
  }
}

ServeEngine::FlushOutcome ServeEngine::flush_shard(Shard& shard, std::size_t max_jobs) {
  std::lock_guard<ShardMutex> lock(shard.flush_mutex);
  std::vector<JobSlot>& slots = shard.slots;
  slots.clear();
  JobDesc d;
  while (slots.size() < max_jobs && shard.queue.try_pop(d)) {
    slots.push_back(JobSlot{d, nullptr, false});
  }
  FlushOutcome out;
  out.popped = slots.size();
  if (slots.empty()) return out;

  // Deterministic batch order: buckets (kind, frontend, precision, size
  // class), ids within a bucket.  Everything downstream — arena layout,
  // launches, delivery — follows this order, so a replayed trace gives a
  // byte-identical run.
  if (sort_radix_) {
    order_slots_radix(shard);
  } else {
    std::sort(slots.begin(), slots.end(), [](const JobSlot& a, const JobSlot& b) {
      const std::uint32_t ka = bucket_key(a.desc);
      const std::uint32_t kb = bucket_key(b.desc);
      return ka != kb ? ka < kb : a.desc.id < b.desc.id;
    });
  }

  std::size_t total = 0;
  for (const JobSlot& slot : slots) total += job_bytes(slot.desc);
  const std::span<std::byte> slab = shard.arena.acquire(total);
  std::byte* cursor = slab.data();
  for (JobSlot& slot : slots) {
    slot.base = cursor;
    cursor += job_bytes(slot.desc);
  }

  if (config_.fail_injection) {
    for (JobSlot& slot : slots) {
      if (config_.fail_injection(slot.desc)) {
        slot.failed = true;
        ++out.injected;
      }
    }
  }

  // Phase A: fill all job inputs — independent per job, one batch.
  {
    std::size_t fill_threads = 0;
    for (const JobSlot& slot : slots) {
      if (!slot.failed) fill_threads += std::size_t{slot.desc.n} * slot.desc.n;
    }
    const std::span<const JobSlot> sl(slots);
    gpusim::run_batch(shard.ctx->engine(), slots.size(), fill_threads,
                      [sl](std::size_t, std::size_t idx) {
                        const JobSlot& slot = sl[idx];
                        if (!slot.failed) fill_job(slot.desc, slot.base);
                      });
  }

  // Phase B: each bucket is one batched launch.
  std::size_t lo = 0;
  while (lo < slots.size()) {
    std::size_t hi = lo + 1;
    while (hi < slots.size() &&
           bucket_key(slots[hi].desc) == bucket_key(slots[lo].desc)) {
      ++hi;
    }
    run_bucket(shard, lo, hi);
    lo = hi;
  }

  // Phase C: checksums + delivery in batch order.
  deliver(shard);
  batches_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

/// Radix flush ordering: the same (bucket, id) order std::sort produces,
/// via two stable LSD passes over an index permutation — first by id,
/// then by bucket key; stability composes the keys lexicographically.
/// Runs O(n) passes instead of O(n log n) comparisons and permutes the
/// fat JobSlots exactly once at the end.
void ServeEngine::order_slots_radix(Shard& shard) {
  Shard::Staging& st = *shard.staging;
  std::vector<JobSlot>& slots = shard.slots;
  const std::size_t n = slots.size();
  if (n <= 1) return;

  st.order_ids.resize(n);
  st.order_buckets.resize(n);
  st.order_perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    st.order_ids[i] = slots[i].desc.id;
    st.order_perm[i] = static_cast<std::uint32_t>(i);
  }
  primitives::host_radix_sort_pairs(std::span<std::uint64_t>(st.order_ids),
                                    std::span<std::uint32_t>(st.order_perm),
                                    st.order_scratch64);
  for (std::size_t i = 0; i < n; ++i) {
    st.order_buckets[i] = bucket_key(slots[st.order_perm[i]].desc);
  }
  primitives::host_radix_sort_pairs(std::span<std::uint32_t>(st.order_buckets),
                                    std::span<std::uint32_t>(st.order_perm),
                                    st.order_scratch32);

  st.order_slots.resize(n);
  for (std::size_t i = 0; i < n; ++i) st.order_slots[i] = slots[st.order_perm[i]];
  slots.swap(st.order_slots);
}

void ServeEngine::run_bucket(Shard& shard, std::size_t lo, std::size_t hi) {
  std::vector<std::size_t>& idx = shard.exec_idx;
  idx.clear();
  for (std::size_t i = lo; i < hi; ++i) {
    if (!shard.slots[i].failed) idx.push_back(i);
  }
  if (idx.empty()) return;

  // A bucket is homogeneous in (kind, frontend, precision) by key
  // construction; stage its descs/bases densely for the batched calls.
  const JobDesc& proto = shard.slots[idx.front()].desc;
  gpusim::LaunchEngine& engine = shard.ctx->engine();
  Shard::Staging& st = *shard.staging;

  // Tally the bucket on its device so per-GCD counters mirror where the
  // serving work actually ran (one launch per bucket, a block per job).
  shard.ctx->note_launch(gpusim::Dim3{idx.size(), 1, 1}, gpusim::Dim3{1, 1, 1});

  // Dense desc/base arrays for the item stagers, reusing exec storage:
  // sized <= batch_jobs, so no allocation past warmup.
  static thread_local std::vector<JobDesc> descs;
  static thread_local std::vector<std::byte*> bases;
  descs.clear();
  bases.clear();
  for (std::size_t i : idx) {
    descs.push_back(shard.slots[i].desc);
    bases.push_back(shard.slots[i].base);
  }

  switch (proto.kind) {
    case JobKind::kGemm:
      if (proto.frontend == Frontend::kTiled) {
        // A bucket is homogeneous in (precision, size_class), so one
        // tuned schedule applies to every job in it.  Tuned configs
        // only move schedule knobs (row grain, SIMD tier), so the
        // bitwise run_serial contract is unaffected; run_serial
        // resolves the same lookup.
        const gemm::TileConfig& tile =
            tune::Tuned::instance().gemm_tile(proto.precision, size_class(proto.n));
        switch (proto.precision) {
          case Precision::kDouble:
            run_tiled_bucket(engine, st.gemm_f64, descs, bases, tile);
            break;
          case Precision::kSingle:
            run_tiled_bucket(engine, st.gemm_f32, descs, bases, tile);
            break;
          case Precision::kHalfIn:
            run_tiled_bucket(engine, st.gemm_f16, descs, bases, tile);
            break;
        }
      } else {
        std::size_t threads = 0;
        for (const JobDesc& jd : descs) threads += std::size_t{jd.n} * jd.n;
        const std::span<const JobDesc> ds(descs);
        const std::span<std::byte* const> bs(bases);
        gpusim::run_batch(engine, ds.size(), threads,
                          [ds, bs](std::size_t, std::size_t k) {
                            exec_gemm_frontend(ds[k], bs[k]);
                          });
      }
      break;
    case JobKind::kSpmv:
      if (proto.precision == Precision::kSingle) {
        run_spmv_bucket(engine, st.spmv_f32, descs, bases);
      } else {
        run_spmv_bucket(engine, st.spmv_f64, descs, bases);
      }
      break;
    case JobKind::kStencil: {
      st.sten.clear();
      for (std::size_t k = 0; k < descs.size(); ++k) {
        const auto cv = carve_stencil(bases[k], descs[k].n);
        st.sten.push_back({cv.in, cv.out, descs[k].n});
      }
      stencil::sweep_batched(engine,
                             std::span<const stencil::StencilBatchItem>(st.sten));
      break;
    }
  }
}

void ServeEngine::deliver(Shard& shard) {
  for (const JobSlot& slot : shard.slots) {
    JobResult r;
    r.id = slot.desc.id;
    if (slot.failed) {
      r.status = JobStatus::kFailed;
      failed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      r.checksum = checksum_job(slot.desc, slot.base);
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (config_.on_complete) config_.on_complete(r);
  }
}

void ServeEngine::drain() {
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    // Wait out scheduled flushes; a stashed batch_error was counted at
    // its throw site, so absorbing it here is not a lost error.
    try {
      shard.stream.synchronize();
    } catch (const batch_error&) {
    }
    for (;;) {
      const FlushOutcome out = flush_shard(shard, config_.batch_jobs);
      if (out.injected != 0) batch_errors_.fetch_add(1, std::memory_order_relaxed);
      if (out.popped == 0) break;
    }
  }
}

void ServeEngine::shutdown() {
  accepting_.store(false, std::memory_order_release);
  drain();
}

ServeStats ServeEngine::stats() const {
  ServeStats st;
  st.accepted = accepted_.load(std::memory_order_relaxed);
  st.completed = completed_.load(std::memory_order_relaxed);
  st.failed = failed_.load(std::memory_order_relaxed);
  st.batches = batches_.load(std::memory_order_relaxed);
  st.batch_errors = batch_errors_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < st.rejected_by.size(); ++i) {
    st.rejected_by[i] = rejected_by_[i].load(std::memory_order_relaxed);
    st.rejected_total += st.rejected_by[i];
  }
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    std::lock_guard<ShardMutex> lock(shard.flush_mutex);
    st.arena_high_water = std::max(st.arena_high_water, shard.arena.high_water());
    st.arena_grow_events += shard.arena.grow_events();
  }
  return st;
}

}  // namespace portabench::serve
