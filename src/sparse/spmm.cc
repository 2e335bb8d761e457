#include "sparse/spmm.h"

#include <algorithm>

#include "common/logging.h"
#include "sched/entropy.h"
#include "sparse/spmm_kernels.h"

namespace omega::sparse {

const char* SpmmOpName(SpmmOp op) {
  switch (op) {
    case SpmmOp::kReadIndex:
      return "read_index";
    case SpmmOp::kGetSparseNnz:
      return "get_sparse_nnz";
    case SpmmOp::kGetDenseNnz:
      return "get_dense_nnz";
    case SpmmOp::kAccumulate:
      return "accumulation";
    case SpmmOp::kWriteResult:
      return "write_result";
  }
  return "?";
}

double SpmmCostBreakdown::Total() const {
  double t = 0.0;
  for (double s : seconds) t += s;
  return t;
}

SpmmCostBreakdown& SpmmCostBreakdown::operator+=(const SpmmCostBreakdown& other) {
  for (int i = 0; i < kNumSpmmOps; ++i) seconds[i] += other.seconds[i];
  return *this;
}

void Charge(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
            SpmmCostBreakdown* breakdown, SpmmOp op, memsim::Placement p,
            memsim::MemOp mem_op, memsim::Pattern pat, uint64_t bytes,
            uint64_t accesses) {
  if (bytes == 0 && accesses == 0) return;
  const double seconds = ms->AccessSeconds(p, ctx->cpu_socket, mem_op, pat, bytes,
                                           accesses, ctx->active_threads);
  ctx->clock->Advance(seconds);
  breakdown->seconds[static_cast<int>(op)] += seconds;
}

void ChargeGather(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
                  SpmmCostBreakdown* breakdown, memsim::Placement dense,
                  double z, uint64_t touches) {
  const double seconds = GatherSeconds(ms, ctx->cpu_socket, dense, z, touches,
                                       ctx->active_threads);
  ctx->clock->Advance(seconds);
  breakdown->seconds[static_cast<int>(SpmmOp::kGetDenseNnz)] += seconds;
}

void ChargeCompute(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
                   SpmmCostBreakdown* breakdown, uint64_t ops) {
  const double seconds = ms->cost_model().ComputeSeconds(ops);
  ctx->clock->Advance(seconds);
  breakdown->seconds[static_cast<int>(SpmmOp::kAccumulate)] += seconds;
}

namespace {

constexpr uint64_t kLineBytes = 64;

// Packed floats below which PackDense copies inline: a pool dispatch costs
// more than copying this much.
constexpr size_t kMinParallelPack = size_t{1} << 16;

// Shared cost-charging for both formats once traffic has been counted.
// `entropy_h` is the part's raw workload entropy H (Eq. 3, accumulated in
// ascending-row order) — a plan may carry it precomputed; the Z-blend is
// bit-identical either way. `index_bytes_per_row` differs: CSDB's block
// metadata amortizes to ~4 bytes per row from its (DRAM) index placement,
// CSR reads 8-byte row pointers.
void ChargeWorkloadCosts(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
                         const SpmmPlacements& pl, const DenseCacheView* cache,
                         uint64_t rows, uint64_t nnz, uint64_t dense_cols,
                         uint64_t misses, uint64_t cache_hits, double entropy_h,
                         uint64_t index_bytes_per_row, uint32_t num_nodes,
                         SpmmCostBreakdown* breakdown) {
  if (rows == 0 && nnz == 0) return;  // empty workload: nothing was touched
  const uint64_t d = dense_cols;
  // 1 read_index: row metadata is re-consulted on every column pass.
  Charge(ms, ctx, breakdown, SpmmOp::kReadIndex, pl.index, memsim::MemOp::kRead,
         memsim::Pattern::kSequential, d * rows * index_bytes_per_row, d);
  // 2 get_sparse_nnz: col_list (4B) + nnz_list (4B) per element, sequential,
  // re-streamed for every dense column (Algorithm 1's loop nesting).
  Charge(ms, ctx, breakdown, SpmmOp::kGetSparseNnz, pl.sparse, memsim::MemOp::kRead,
         memsim::Pattern::kSequential, d * nnz * 8, d);
  // 3 get_dense_nnz: Z(H)-blended gathers (Eqs. 4-5); hits go to the cache's
  // (DRAM) placement at random-access cost, which is still far cheaper.
  ChargeGather(ms, ctx, breakdown, pl.dense,
               sched::NormalizedEntropy(entropy_h, num_nodes), d * misses);
  if (cache != nullptr && cache_hits > 0) {
    Charge(ms, ctx, breakdown, SpmmOp::kGetDenseNnz, cache->placement(),
           memsim::MemOp::kRead, memsim::Pattern::kRandom,
           d * cache_hits * cache->BytesPerHit(), d * cache_hits);
  }
  // 4 accumulation: one multiply + one add per element per column.
  ChargeCompute(ms, ctx, breakdown, d * nnz * 2);
  // 5 write_result: column-major C rows are written sequentially.
  Charge(ms, ctx, breakdown, SpmmOp::kWriteResult, pl.result, memsim::MemOp::kWrite,
         memsim::Pattern::kSequential, d * rows * sizeof(float), d);
}

}  // namespace

double GatherSeconds(memsim::MemorySystem* ms, int cpu_socket,
                     memsim::Placement dense, double z, uint64_t touches,
                     int active_threads) {
  if (touches == 0) return 0.0;
  const uint64_t bytes = touches * kLineBytes;
  // Split the stream into its random and sequential shares (the cost model is
  // linear in bytes/accesses, so this equals the Z-weighted blend while
  // keeping the traffic counters exact).
  const auto random_bytes = static_cast<uint64_t>(z * bytes);
  const auto random_touches = static_cast<uint64_t>(z * touches);
  double seconds = 0.0;
  if (random_bytes > 0) {
    seconds += ms->AccessSeconds(dense, cpu_socket, memsim::MemOp::kRead,
                                 memsim::Pattern::kRandom, random_bytes,
                                 random_touches, active_threads);
  }
  if (bytes > random_bytes) {
    seconds += ms->AccessSeconds(dense, cpu_socket, memsim::MemOp::kRead,
                                 memsim::Pattern::kSequential, bytes - random_bytes,
                                 1, active_threads);
  }
  return seconds;
}

void PackDense(const linalg::DenseMatrix& b, ThreadPool* pool,
               kernels::PackedOperand* packed, size_t col_begin, size_t col_end) {
  col_end = std::min(col_end, b.cols());
  col_begin = std::min(col_begin, col_end);
  packed->Reshape(b.rows(), col_begin, col_end);
  const size_t n = b.rows();
  if (pool != nullptr && pool->size() > 1 &&
      n * packed->width() >= kMinParallelPack) {
    pool->ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      kernels::PackRows(b, begin, end, packed);
    });
  } else {
    kernels::PackRows(b, 0, n, packed);
  }
}

void UnpackDense(const kernels::PackedOperand& packed, ThreadPool* pool,
                 linalg::DenseMatrix* out) {
  const size_t n = packed.rows();
  out->ResizeForOverwrite(n, packed.width());
  if (pool != nullptr && pool->size() > 1 &&
      n * packed.width() >= kMinParallelPack) {
    pool->ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      kernels::UnpackRows(packed, begin, end, out);
    });
  } else {
    kernels::UnpackRows(packed, 0, n, out);
  }
}

namespace {

using RangeFn = std::function<void(size_t, uint32_t, uint32_t)>;

// Runs fn over pieces of the row ranges `rows`, each inside one range and
// of about graph::kMinRangeWork work (a row costs its degree plus one),
// handed out dynamically on `pool`; a single piece runs inline.
void ForEachSubsetRange(const graph::CsdbMatrix& a,
                        const std::vector<sched::RowRange>& rows, ThreadPool* pool,
                        const RangeFn& fn) {
  std::vector<sched::RowRange> pieces;
  uint64_t work = 0;  // of the last piece
  for (const sched::RowRange& r : rows) {
    for (auto cur = a.Rows(r.begin); cur.row() < r.end; cur.Next()) {
      if (cur.row() == r.begin || work >= graph::kMinRangeWork) {
        pieces.push_back({cur.row(), cur.row()});
        work = 0;
      }
      ++pieces.back().end;
      work += cur.degree() + 1;
    }
  }
  if (pool == nullptr || pieces.size() <= 1) {
    for (const sched::RowRange& p : pieces) fn(0, p.begin, p.end);
    return;
  }
  pool->ParallelForDynamic(pieces.size(), /*chunk_size=*/1,
                           [&](size_t worker, size_t begin, size_t end) {
                             for (size_t p = begin; p < end; ++p) {
                               fn(worker, pieces[p].begin, pieces[p].end);
                             }
                           });
}

}  // namespace

void ComputeAllRowsCsdb(const graph::CsdbMatrix& a, const SpmmOperands& dense,
                        ThreadPool* pool, size_t col_begin, size_t col_end,
                        kernels::PackedOperand* packed) {
  ComputeRowsCsdb(a, dense, pool, nullptr, col_begin, col_end, packed);
}

void ComputeRowsCsdb(const graph::CsdbMatrix& a, const SpmmOperands& dense,
                     ThreadPool* pool, const std::vector<sched::RowRange>* rows,
                     size_t col_begin, size_t col_end,
                     kernels::PackedOperand* packed) {
  auto for_each_range = [&](const RangeFn& fn) {
    if (rows == nullptr) return graph::ForEachRowRange(a, pool, fn);
    ForEachSubsetRange(a, *rows, pool, fn);
  };
  col_end = std::min(col_end, dense.cols());
  col_begin = std::min(col_begin, col_end);
  if (dense.packed()) {
    const kernels::PackedOperand& source = *dense.source;
    OMEGA_DCHECK(source.rows() == a.num_cols() && source.rows() == a.num_rows() &&
                 (dense.step.term == 1 ||
                  dense.step.t_km2->width() == source.width()) &&
                 dense.step.t->width() == source.width() &&
                 dense.step.sum->width() == source.width());
    if (col_begin == col_end) return;
    for_each_range([&](size_t, uint32_t row_begin, uint32_t row_end) {
      kernels::CsdbPackedSpmm(a, source, dense.step, row_begin, row_end, col_begin,
                              col_end);
    });
    return;
  }
  OMEGA_DCHECK(dense.out->rows() == a.num_rows() &&
               dense.out->cols() == dense.in->cols());
  kernels::PackedOperand local;
  if (packed == nullptr) packed = &local;
  PackDense(*dense.in, pool, packed, col_begin, col_end);
  if (packed->width() == 0) return;
  for_each_range([&](size_t, uint32_t row_begin, uint32_t row_end) {
    kernels::CsdbPackedSpmm(a, *packed, dense.out, row_begin, row_end);
  });
}


void ComputeWorkloadCsdbPerColumn(const graph::CsdbMatrix& a,
                                  const linalg::DenseMatrix& b,
                                  linalg::DenseMatrix* c, const sched::Workload& w,
                                  size_t col_begin, size_t col_end) {
  OMEGA_DCHECK(c->rows() == a.num_rows() && c->cols() == b.cols());
  col_end = std::min(col_end, b.cols());
  col_begin = std::min(col_begin, col_end);
  const graph::NodeId* cols = a.col_list().data();
  const float* vals = a.nnz_list().data();

  // Column-major outer loop as in Algorithm 1; each element reduces over its
  // row's elements in ascending k.
  for (size_t t = col_begin; t < col_end; ++t) {
    const float* bt = b.ColData(t);
    float* ct = c->ColData(t);
    for (const sched::RowRange& range : w.ranges) {
      if (range.size() == 0) continue;
      for (auto cur = a.Rows(range.begin); cur.row() < range.end; cur.Next()) {
        const uint64_t start = cur.ptr();
        const uint32_t deg = cur.degree();
        float acc = 0.0f;
        for (uint32_t k = 0; k < deg; ++k) {
          acc += vals[start + k] * bt[cols[start + k]];
        }
        ct[cur.row()] = acc;
      }
    }
  }
}

CsdbChargeMeta ScanChargeMetaCsdb(const graph::CsdbMatrix& a,
                                  const sched::Workload& w,
                                  const DenseCacheView* cache) {
  CsdbChargeMeta meta;
  const graph::NodeId* cols = a.col_list().data();
  sched::EntropyAccumulator entropy;
  for (const sched::RowRange& range : w.ranges) {
    if (range.size() == 0) continue;
    for (auto cur = a.Rows(range.begin); cur.row() < range.end; cur.Next()) {
      const uint32_t deg = cur.degree();
      entropy.AddRow(deg);
      ++meta.rows;
      meta.nnz += deg;
      if (cache == nullptr) continue;
      for (uint32_t k = 0; k < deg; ++k) {
        meta.cache_hits += cache->Contains(cols[cur.ptr() + k]);
      }
    }
  }
  meta.entropy_h = entropy.Entropy();
  return meta;
}

SpmmCostBreakdown ChargeWorkloadCsdb(const graph::CsdbMatrix& a,
                                     uint64_t dense_cols,
                                     const CsdbChargeMeta& meta,
                                     const SpmmPlacements& placements,
                                     memsim::MemorySystem* ms,
                                     memsim::WorkerCtx* ctx,
                                     const DenseCacheView* cache) {
  SpmmCostBreakdown breakdown;
  ChargeWorkloadCosts(ms, ctx, placements, cache, meta.rows, meta.nnz,
                      dense_cols, /*misses=*/meta.nnz - meta.cache_hits,
                      meta.cache_hits, meta.entropy_h,
                      /*index_bytes_per_row=*/4, a.num_cols(), &breakdown);
  return breakdown;
}

void ComputeWorkloadCsrPerColumn(const graph::CsrMatrix& a,
                                 const linalg::DenseMatrix& b,
                                 linalg::DenseMatrix* c, uint32_t row_begin,
                                 uint32_t row_end, size_t col_begin,
                                 size_t col_end) {
  OMEGA_DCHECK(c->rows() == a.num_rows() && c->cols() == b.cols());
  col_end = std::min(col_end, b.cols());
  col_begin = std::min(col_begin, col_end);
  const graph::NodeId* cols = a.col_idx().data();
  const float* vals = a.values().data();

  for (size_t t = col_begin; t < col_end; ++t) {
    const float* bt = b.ColData(t);
    float* ct = c->ColData(t);
    for (uint32_t j = row_begin; j < row_end; ++j) {
      const uint64_t start = a.RowBegin(j);
      const uint32_t deg = a.RowDegree(j);
      float acc = 0.0f;
      for (uint32_t k = 0; k < deg; ++k) {
        acc += vals[start + k] * bt[cols[start + k]];
      }
      ct[j] = acc;
    }
  }
}

SpmmCostBreakdown ChargeWorkloadCsr(const graph::CsrMatrix& a,
                                    uint64_t dense_cols, uint32_t row_begin,
                                    uint32_t row_end, uint64_t nnz,
                                    double entropy_h,
                                    const SpmmPlacements& placements,
                                    memsim::MemorySystem* ms,
                                    memsim::WorkerCtx* ctx) {
  SpmmCostBreakdown breakdown;
  ChargeWorkloadCosts(ms, ctx, placements, /*cache=*/nullptr,
                      row_end - row_begin, nnz, dense_cols, /*misses=*/nnz,
                      /*cache_hits=*/0, entropy_h, /*index_bytes_per_row=*/8,
                      a.num_cols(), &breakdown);
  return breakdown;
}

ParallelSpmmResult ChargeParallel(
    memsim::WorkerFrame* frame, ThreadPool* pool,
    const std::function<SpmmCostBreakdown(size_t, memsim::WorkerCtx*)>& charge) {
  ParallelSpmmResult result;
  result.thread_breakdowns.resize(frame->size());
  frame->Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
    result.thread_breakdowns[worker] = charge(worker, ctx);
  });
  result.thread_seconds.resize(frame->size());
  for (size_t w = 0; w < frame->size(); ++w) {
    result.thread_seconds[w] = frame->seconds(w);
    result.total_breakdown += result.thread_breakdowns[w];
  }
  result.phase_seconds = frame->MaxSeconds();
  return result;
}

ParallelSpmmResult ParallelSpmm(const graph::CsdbMatrix& a,
                                const linalg::DenseMatrix& b,
                                linalg::DenseMatrix* c,
                                const std::vector<sched::Workload>& workloads,
                                const SpmmPlacements& placements,
                                const exec::Context& ctx) {
  memsim::MemorySystem* ms = ctx.ms();
  // Compute: the workloads partition A, so one all-rows pass covers them.
  ComputeAllRowsCsdb(a, {b, c}, ctx.pool());

  // Charge: one simulated worker per workload, on its own clock.
  memsim::WorkerFrame frame(ms->topology(), static_cast<int>(workloads.size()));
  ParallelSpmmResult result =
      ChargeParallel(&frame, ctx.pool(), [&](size_t worker, memsim::WorkerCtx* wctx) {
        return ChargeWorkloadCsdb(a, b.cols(), ScanChargeMetaCsdb(a, workloads[worker]),
                                  placements, ms, wctx);
      });
  for (const sched::Workload& w : workloads) result.nnz_processed += w.nnz;
  return result;
}

}  // namespace omega::sparse
