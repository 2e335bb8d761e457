#include "sparse/semi_external.h"

#include <algorithm>

#include "buffer/staging.h"
#include "common/logging.h"
#include "memsim/worker_frame.h"
#include "sched/entropy.h"
#include "sparse/spmm_kernels.h"

namespace omega::sparse {

namespace {
constexpr uint64_t kSsdPageBytes = 4096;
}  // namespace

ParallelSpmmResult SemiExternalSpmm(const graph::CsrMatrix& a,
                                    const linalg::DenseMatrix& b,
                                    linalg::DenseMatrix* c,
                                    const SemiExternalOptions& options,
                                    const exec::Context& ctx_in,
                                    const CsrSpmmPlan* plan) {
  memsim::MemorySystem* ms = ctx_in.ms();
  ThreadPool* pool = ctx_in.pool();
  const int threads = options.num_threads;
  OMEGA_CHECK(pool != nullptr);
  OMEGA_CHECK(c->rows() == a.num_rows() && c->cols() == b.cols());
  CsrSpmmPlan local_plan;
  if (plan == nullptr) {
    local_plan = CsrSpmmPlan::Build(a, threads, CsrSpmmPlan::Split::kEqualNnz);
    plan = &local_plan;
  }
  OMEGA_CHECK(plan->Matches(a, threads, CsrSpmmPlan::Split::kEqualNnz))
      << "SemiExternalSpmm: stale plan";

  // Fraction of dense gathers that miss the DRAM-resident portion.
  const size_t dense_bytes = b.bytes() + c->bytes();
  double spill = 0.0;
  if (dense_bytes > options.dram_budget_bytes) {
    spill = 1.0 - static_cast<double>(options.dram_budget_bytes) / dense_bytes;
    spill = std::clamp(spill, 0.0, 0.95);
  }

  // Equal-nnz row partitions — prebuilt in the plan, alongside each part's
  // nnz/entropy metadata.
  const memsim::Placement ssd{memsim::Tier::kSsd, 0};
  const memsim::Placement dram{memsim::Tier::kDram, 0};

  ParallelSpmmResult result;
  result.thread_seconds.assign(threads, 0.0);
  result.thread_breakdowns.assign(threads, SpmmCostBreakdown{});
  memsim::WorkerFrame frame(ms->topology(), threads);
  const size_t d = b.cols();

  // Host compute under dynamic row-block scheduling (no memsim state; each
  // element's ascending-k reduction is fixed inside the panel kernel, so the
  // result is bit-identical at any host thread count).
  {
    constexpr uint32_t kComputeRowBlock = 1024;
    pool->ParallelForDynamic(
        a.num_rows(), kComputeRowBlock,
        [&](size_t, size_t row_begin, size_t row_end) {
          kernels::CsrPanelSpmm(a, b, c, static_cast<uint32_t>(row_begin),
                                static_cast<uint32_t>(row_end), 0, d);
        });
  }

  // Simulated charging: one worker per equal-nnz part as before; the plan's
  // metadata was scanned in the same ascending-row order the per-call walk
  // used, so every charge is byte-identical.
  frame.Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
    const CsrPlanPart& part = plan->parts()[worker];
    const uint32_t row_begin = part.row_begin;
    const uint32_t row_end = part.row_end;
    SpmmCostBreakdown& bd = result.thread_breakdowns[worker];

    const uint64_t nnz = part.nnz;
    const uint64_t rows = row_end - row_begin;
    auto charge = [&](SpmmOp op, memsim::Placement p, memsim::MemOp mop,
                      memsim::Pattern pat, uint64_t bytes, uint64_t accesses) {
      const double s = ms->AccessSeconds(p, ctx->cpu_socket, mop, pat, bytes,
                                         accesses, ctx->active_threads);
      ctx->clock->Advance(s);
      bd.seconds[static_cast<int>(op)] += s;
    };

    // Sparse stream from SSD: SEM-SpMM processes the dense operand in
    // column blocks (16 columns per pass to bound its in-memory working
    // set), re-streaming the sparse matrix and its row pointers per block.
    const uint64_t column_passes = buffer::NumColumnPasses(d);
    charge(SpmmOp::kReadIndex, ssd, memsim::MemOp::kRead,
           memsim::Pattern::kSequential, column_passes * rows * 8, column_passes);
    charge(SpmmOp::kGetSparseNnz, ssd, memsim::MemOp::kRead,
           memsim::Pattern::kSequential, column_passes * nnz * 8, column_passes);
    // Dense gathers: Z-blended DRAM traffic for the resident fraction; the
    // spilled fraction pays SSD 4 KB page reads.
    const uint64_t total_gathers = nnz * d;
    const uint64_t spilled = static_cast<uint64_t>(spill * total_gathers);
    const uint64_t in_dram = total_gathers - spilled;
    const double z = sched::NormalizedEntropy(part.entropy, a.num_cols());
    const double gather_seconds =
        GatherSeconds(ms, ctx->cpu_socket, dram, z, in_dram, ctx->active_threads);
    ctx->clock->Advance(gather_seconds);
    bd.seconds[static_cast<int>(SpmmOp::kGetDenseNnz)] += gather_seconds;
    if (spilled > 0) {
      charge(SpmmOp::kGetDenseNnz, ssd, memsim::MemOp::kRead, memsim::Pattern::kRandom,
             spilled * kSsdPageBytes, spilled);
    }
    ctx->clock->Advance(ms->cost_model().ComputeSeconds(d * nnz * 2));
    bd.seconds[static_cast<int>(SpmmOp::kAccumulate)] +=
        ms->cost_model().ComputeSeconds(d * nnz * 2);
    charge(SpmmOp::kWriteResult, dram, memsim::MemOp::kWrite,
           memsim::Pattern::kSequential, rows * d * sizeof(float), 1);
  });

  uint64_t total_nnz = 0;
  for (int t = 0; t < threads; ++t) {
    result.thread_seconds[t] = frame.seconds(t);
    result.total_breakdown += result.thread_breakdowns[t];
    const CsrPlanPart& part = plan->parts()[t];
    if (part.row_end > part.row_begin) {
      total_nnz += a.RowEnd(part.row_end - 1) - a.RowBegin(part.row_begin);
    }
  }
  result.nnz_processed = total_nnz;
  result.phase_seconds = frame.MaxSeconds();
  return result;
}

}  // namespace omega::sparse
