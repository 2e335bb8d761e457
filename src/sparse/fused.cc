#include "sparse/fused.h"

#include <algorithm>

#include "common/logging.h"
#include "memsim/worker_frame.h"
#include "sched/entropy.h"
#include "sparse/spmm_kernels.h"

namespace omega::sparse {

namespace {
constexpr uint64_t kLineBytes = 64;
}  // namespace

Result<ParallelSpmmResult> FusedMmSpmm(const graph::CsrMatrix& a,
                                       const linalg::DenseMatrix& b,
                                       linalg::DenseMatrix* c,
                                       const FusedMmOptions& options,
                                       const exec::Context& ctx_in,
                                       const CsrSpmmPlan* plan) {
  memsim::MemorySystem* ms = ctx_in.ms();
  ThreadPool* pool = ctx_in.pool();
  const int threads = options.num_threads;
  OMEGA_CHECK(pool != nullptr);
  CsrSpmmPlan local_plan;
  if (plan == nullptr) {
    local_plan = CsrSpmmPlan::Build(a, threads, CsrSpmmPlan::Split::kEqualRows);
    plan = &local_plan;
  }
  OMEGA_CHECK(plan->Matches(a, threads, CsrSpmmPlan::Split::kEqualRows))
      << "FusedMmSpmm: stale plan";
  if (c->rows() != a.num_rows() || c->cols() != b.cols()) {
    return Status::InvalidArgument("FusedMmSpmm: result shape mismatch");
  }

  // In-memory only: the whole working set must fit in DRAM. The fused
  // embedding kernel holds both endpoint feature matrices, the output, and a
  // gradient/workspace block alongside the CSR structure.
  const size_t working_set =
      a.nnz() * 8 + a.IndexBytes() + 2 * b.bytes() + 2 * c->bytes();
  const size_t total_dram = ms->CapacityBytes(memsim::Tier::kDram) *
                            static_cast<size_t>(ms->topology().num_sockets());
  if (working_set > total_dram) {
    return Status::CapacityExceeded("FusedMM working set exceeds DRAM: " +
                                    std::to_string(working_set >> 20) + " MiB");
  }

  // OpenMP-static style equal-row chunks (nnz-oblivious) — prebuilt in the
  // plan, alongside each chunk's nnz/entropy metadata.
  const uint32_t rows_total = a.num_rows();

  const memsim::Placement dram{memsim::Tier::kDram, 0};
  ParallelSpmmResult result;
  result.thread_seconds.assign(threads, 0.0);
  result.thread_breakdowns.assign(threads, SpmmCostBreakdown{});
  memsim::WorkerFrame frame(ms->topology(), threads);
  const size_t d = b.cols();

  // Host compute under dynamic row-block scheduling: any worker may grab any
  // block (power-law rows make static chunks skewed), and each element's
  // ascending-k reduction is fixed inside the panel kernel, so the result is
  // bit-identical at any host thread count. No memsim state is touched in
  // this phase.
  {
    constexpr uint32_t kComputeRowBlock = 1024;
    pool->ParallelForDynamic(
        rows_total, kComputeRowBlock,
        [&](size_t, size_t row_begin, size_t row_end) {
          kernels::CsrPanelSpmm(a, b, c, static_cast<uint32_t>(row_begin),
                                static_cast<uint32_t>(row_end), 0, d);
        });
  }

  // Simulated charging: one worker per static chunk as before; the plan's
  // metadata was scanned in the same ascending-row order the per-call walk
  // used, so every charge is byte-identical.
  frame.Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
    const CsrPlanPart& part = plan->parts()[worker];
    const uint32_t row_begin = part.row_begin;
    const uint32_t row_end = part.row_end;
    SpmmCostBreakdown& bd = result.thread_breakdowns[worker];

    const uint64_t nnz = part.nnz;

    auto charge = [&](SpmmOp op, memsim::MemOp mop, memsim::Pattern pat,
                      uint64_t bytes, uint64_t accesses) {
      const double s = ms->AccessSeconds(dram, ctx->cpu_socket, mop, pat, bytes,
                                         accesses, ctx->active_threads);
      ctx->clock->Advance(s);
      bd.seconds[static_cast<int>(op)] += s;
    };

    const uint64_t rows = row_end - row_begin;
    // Fused pass: sparse streamed once; per element, all d dense values of
    // the gathered row are consumed (ceil(d*4/64) lines per distinct line
    // visit), result written row-by-row.
    charge(SpmmOp::kReadIndex, memsim::MemOp::kRead, memsim::Pattern::kSequential,
           rows * 8, 1);
    charge(SpmmOp::kGetSparseNnz, memsim::MemOp::kRead, memsim::Pattern::kSequential,
           nnz * 8, 1);
    // FusedMM's unified kernel evaluates SDDMM ⊙ A then SpMM in one pass:
    // per element it gathers the d-float feature rows of BOTH endpoints and
    // performs the semiring op + scaling + accumulation (~3 passes of
    // arithmetic).
    const uint64_t lines_per_gather =
        2 * ((d * sizeof(float) + kLineBytes - 1) / kLineBytes);
    const double z = sched::NormalizedEntropy(part.entropy, a.num_cols());
    const double gather_seconds =
        GatherSeconds(ms, ctx->cpu_socket, dram, z, nnz * lines_per_gather,
                      ctx->active_threads);
    ctx->clock->Advance(gather_seconds);
    bd.seconds[static_cast<int>(SpmmOp::kGetDenseNnz)] += gather_seconds;
    const double compute = ms->cost_model().ComputeSeconds(d * nnz * 6);
    ctx->clock->Advance(compute);
    bd.seconds[static_cast<int>(SpmmOp::kAccumulate)] += compute;
    charge(SpmmOp::kWriteResult, memsim::MemOp::kWrite, memsim::Pattern::kSequential,
           rows * d * sizeof(float), 1);
  });

  for (int t = 0; t < threads; ++t) {
    result.thread_seconds[t] = frame.seconds(t);
    result.total_breakdown += result.thread_breakdowns[t];
  }
  result.nnz_processed = a.nnz();
  result.phase_seconds = frame.MaxSeconds();
  return result;
}

}  // namespace omega::sparse
