#include "sparse/fused.h"

#include "sched/entropy.h"

namespace omega::sparse {

namespace {
constexpr uint64_t kLineBytes = 64;
}  // namespace

Result<ParallelSpmmResult> FusedMmSpmm(const graph::CsrMatrix& a,
                                       const linalg::DenseMatrix& b,
                                       linalg::DenseMatrix* c,
                                       const exec::Context& ctx,
                                       const CsrSpmmPlan* plan) {
  memsim::MemorySystem* ms = ctx.ms();
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

  // OpenMP-static style equal-row chunks (nnz-oblivious), every operand in
  // DRAM.
  const memsim::Placement dram{memsim::Tier::kDram, 0};
  const uint64_t d = b.cols();
  return ParallelCsrSpmm(
      a, {b, c}, ctx, CsrSpmmPlan::Split::kEqualRows, plan,
      [&](const CsrPlanPart& part, memsim::WorkerCtx* wctx) {
        SpmmCostBreakdown bd;
        const uint64_t rows = part.row_end - part.row_begin;
        // Fused pass: sparse streamed once; per element, all d dense values
        // of the gathered row are consumed (ceil(d*4/64) lines per distinct
        // line visit), result written row-by-row.
        Charge(ms, wctx, &bd, SpmmOp::kReadIndex, dram, memsim::MemOp::kRead,
               memsim::Pattern::kSequential, rows * 8, 1);
        Charge(ms, wctx, &bd, SpmmOp::kGetSparseNnz, dram, memsim::MemOp::kRead,
               memsim::Pattern::kSequential, part.nnz * 8, 1);
        // FusedMM's unified kernel evaluates SDDMM ⊙ A then SpMM in one
        // pass: per element it gathers the d-float feature rows of BOTH
        // endpoints and performs the semiring op + scaling + accumulation
        // (~3 passes of arithmetic).
        const uint64_t lines_per_gather =
            2 * ((d * sizeof(float) + kLineBytes - 1) / kLineBytes);
        ChargeGather(ms, wctx, &bd, dram,
                     sched::NormalizedEntropy(part.entropy, a.num_cols()),
                     part.nnz * lines_per_gather);
        ChargeCompute(ms, wctx, &bd, d * part.nnz * 6);
        Charge(ms, wctx, &bd, SpmmOp::kWriteResult, dram, memsim::MemOp::kWrite,
               memsim::Pattern::kSequential, rows * d * sizeof(float), 1);
        return bd;
      });
}

}  // namespace omega::sparse
