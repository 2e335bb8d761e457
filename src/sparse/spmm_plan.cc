#include "sparse/spmm_plan.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "memsim/worker_frame.h"
#include "sched/entropy.h"
#include "sparse/spmm.h"
#include "sparse/spmm_kernels.h"

namespace omega::sparse {

std::vector<uint32_t> ComputeInDegrees(const graph::CsdbMatrix& a, ThreadPool* pool) {
  // Entries below which one thread counts them all: a dispatch and the
  // per-worker arrays cost more.
  constexpr size_t kMinParallelEntries = size_t{1} << 16;
  const std::vector<graph::NodeId>& cols = a.col_list();
  const size_t n = a.num_cols();
  std::vector<uint32_t> in_degrees(n, 0);
  if (pool == nullptr || pool->size() < 2 || cols.size() < kMinParallelEntries) {
    for (graph::NodeId c : cols) in_degrees[c]++;
    return in_degrees;
  }
  // One block for all workers' counts, allocated here rather than in each
  // worker's malloc arena, which would keep the pages after the free.
  const size_t workers = pool->size();
  std::vector<uint32_t> counts(workers * n);
  pool->ParallelFor(cols.size(), [&](size_t worker, size_t begin, size_t end) {
    uint32_t* mine = counts.data() + worker * n;
    for (size_t i = begin; i < end; ++i) mine[cols[i]]++;
  });
  pool->ParallelFor(n, [&](size_t, size_t begin, size_t end) {
    for (size_t w = 0; w < workers; ++w) {
      const uint32_t* mine = counts.data() + w * n;
      for (size_t c = begin; c < end; ++c) in_degrees[c] += mine[c];
    }
  });
  return in_degrees;
}

namespace {

SparseStructureKey MakeKey(const void* col_data, uint64_t nnz, uint32_t rows,
                           uint32_t cols, const graph::NodeId* samples) {
  SparseStructureKey key;
  key.col_data = col_data;
  key.nnz = nnz;
  key.rows = rows;
  key.cols = cols;
  if (nnz > 0) {
    key.first = samples[0];
    key.mid = samples[nnz / 2];
    key.last = samples[nnz - 1];
  }
  return key;
}

// FNV-1a over 32-bit words: cheap, deterministic, and good enough for
// change detection (collisions only weaken invalidation, never correctness
// of the numerics — a stale plan still recomputes charges per execute).
inline uint64_t HashWord(uint64_t h, uint32_t w) {
  h ^= w;
  return h * 0x100000001b3ull;
}

}  // namespace

RowBlockFingerprint FingerprintOf(const graph::CsdbMatrix& a,
                                  uint32_t stripe_rows) {
  RowBlockFingerprint fp;
  fp.stripe_rows = stripe_rows > 0 ? stripe_rows : 4096;
  const uint32_t rows = a.num_rows();
  const uint32_t stripes = rows == 0 ? 0 : (rows - 1) / fp.stripe_rows + 1;
  fp.stripes.assign(stripes, 0xcbf29ce484222325ull);
  fp.value_stripes.assign(stripes, 0xcbf29ce484222325ull);
  const auto& cols = a.col_list();
  const auto& vals = a.nnz_list();
  for (auto cur = a.Rows(0); !cur.AtEnd(); cur.Next()) {
    const uint32_t s = cur.row() / fp.stripe_rows;
    uint64_t& h = fp.stripes[s];
    uint64_t& hv = fp.value_stripes[s];
    h = HashWord(h, cur.degree());
    for (uint32_t k = 0; k < cur.degree(); ++k) {
      h = HashWord(h, cols[cur.ptr() + k]);
      uint32_t bits;
      std::memcpy(&bits, &vals[cur.ptr() + k], sizeof(bits));
      hv = HashWord(hv, bits);
    }
  }
  fp.combined = 0xcbf29ce484222325ull;
  fp.combined = HashWord(fp.combined, rows);
  fp.combined = HashWord(fp.combined, a.num_cols());
  for (const uint64_t h : fp.stripes) {
    fp.combined = HashWord(fp.combined, static_cast<uint32_t>(h));
    fp.combined = HashWord(fp.combined, static_cast<uint32_t>(h >> 32));
  }
  return fp;
}

std::vector<uint32_t> TouchedStripes(const RowBlockFingerprint& a,
                                     const RowBlockFingerprint& b) {
  std::vector<uint32_t> touched;
  if (a.stripe_rows != b.stripe_rows || a.stripes.size() != b.stripes.size()) {
    touched.resize(std::max(a.stripes.size(), b.stripes.size()));
    for (uint32_t s = 0; s < touched.size(); ++s) touched[s] = s;
    return touched;
  }
  for (uint32_t s = 0; s < a.stripes.size(); ++s) {
    if (a.stripes[s] != b.stripes[s]) touched.push_back(s);
  }
  return touched;
}

SparseStructureKey StructureOf(const graph::CsdbMatrix& a) {
  return MakeKey(a.col_list().data(), a.nnz(), a.num_rows(), a.num_cols(),
                 a.col_list().data());
}

SparseStructureKey StructureOf(const graph::CsrMatrix& a) {
  return MakeKey(a.col_idx().data(), a.nnz(), a.num_rows(), a.num_cols(),
                 a.col_idx().data());
}

CsrSpmmPlan CsrSpmmPlan::Build(const graph::CsrMatrix& a, int threads,
                               Split split) {
  OMEGA_CHECK(threads > 0);
  CsrSpmmPlan plan;
  plan.structure_ = StructureOf(a);
  plan.split_ = split;
  plan.threads_ = threads;
  plan.parts_.resize(threads);

  const uint32_t rows = a.num_rows();
  if (split == Split::kEqualRows) {
    // OpenMP-static equal-row chunks (nnz-oblivious), as in FusedMM and the
    // ProNE family.
    const uint32_t chunk = (rows + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      plan.parts_[t].row_begin = std::min<uint32_t>(rows, t * chunk);
      plan.parts_[t].row_end =
          std::min<uint32_t>(rows, plan.parts_[t].row_begin + chunk);
    }
  } else {
    // Contiguous ~equal-nnz parts with sequential row consumption, as in
    // SEM-SpMM and the out-of-core engines.
    const uint64_t per = std::max<uint64_t>(1, a.nnz() / threads);
    uint32_t row = 0;
    for (int t = 0; t < threads; ++t) {
      plan.parts_[t].row_begin = row;
      uint64_t taken = 0;
      while (row < rows && (taken < per || taken == 0)) {
        taken += a.RowDegree(row);
        ++row;
      }
      if (t == threads - 1) row = rows;
      plan.parts_[t].row_end = row;
    }
  }

  for (CsrPlanPart& part : plan.parts_) {
    sched::EntropyAccumulator entropy;
    for (uint32_t j = part.row_begin; j < part.row_end; ++j) {
      const uint32_t deg = a.RowDegree(j);
      part.nnz += deg;
      entropy.AddRow(deg);
    }
    part.entropy = entropy.Entropy();
  }
  return plan;
}

bool CsrSpmmPlan::Matches(const graph::CsrMatrix& a, int threads,
                          Split split) const {
  return valid() && split_ == split && threads_ == threads &&
         structure_ == StructureOf(a);
}

ParallelSpmmResult ParallelCsrSpmm(const graph::CsrMatrix& a,
                                   const SpmmOperands& dense,
                                   const exec::Context& ctx,
                                   CsrSpmmPlan::Split split, const CsrSpmmPlan* plan,
                                   const CsrPartPricing& price,
                                   uint64_t fault_site,
                                   kernels::PackedOperand* packed) {
  const int threads = ctx.threads();
  CsrSpmmPlan local_plan;
  if (plan == nullptr) {
    local_plan = CsrSpmmPlan::Build(a, threads, split);
    plan = &local_plan;
  }
  OMEGA_CHECK(plan->Matches(a, threads, split)) << "ParallelCsrSpmm: stale plan";

  // Compute: one pack of B (none for a packed term), then dynamic row blocks
  // (power-law rows make static chunks skewed); each element's ascending-k
  // reduction is fixed inside the packed kernel, so the result is
  // bit-identical under any split. No memsim state is touched here.
  kernels::PackedOperand local;
  if (packed == nullptr) packed = &local;
  if (dense.packed()) {
    OMEGA_CHECK(dense.source->rows() == a.num_cols() &&
                dense.source->rows() == a.num_rows());
  } else {
    OMEGA_CHECK(dense.out->rows() == a.num_rows() &&
                dense.out->cols() == dense.in->cols());
    PackDense(*dense.in, ctx.pool(), packed);
  }
  constexpr size_t kRowBlock = 1024;
  const auto compute_rows = [&](size_t, size_t row_begin, size_t row_end) {
    const auto rb = static_cast<uint32_t>(row_begin);
    const auto re = static_cast<uint32_t>(row_end);
    if (dense.packed()) {
      kernels::CsrPackedSpmm(a, *dense.source, dense.step, rb, re, 0, dense.cols());
    } else {
      kernels::CsrPackedSpmm(a, *packed, dense.out, rb, re);
    }
  };
  if (ctx.pool() == nullptr) {
    compute_rows(0, 0, a.num_rows());
  } else {
    ctx.pool()->ParallelForDynamic(a.num_rows(), kRowBlock, compute_rows);
  }

  // Charge: one simulated worker per plan part, from the part's metadata.
  memsim::WorkerFrame frame(ctx.ms()->topology(), threads,
                            memsim::Contention::kPool, fault_site);
  ParallelSpmmResult result =
      ChargeParallel(&frame, ctx.pool(), [&](size_t worker, memsim::WorkerCtx* wctx) {
        return price(plan->parts()[worker], wctx);
      });
  result.nnz_processed = a.nnz();
  return result;
}

}  // namespace omega::sparse
