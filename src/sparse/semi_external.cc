#include "sparse/semi_external.h"

#include <algorithm>

#include "buffer/staging.h"
#include "sched/entropy.h"

namespace omega::sparse {

namespace {
constexpr uint64_t kSsdPageBytes = 4096;
}  // namespace

ParallelSpmmResult SemiExternalSpmm(const graph::CsrMatrix& a,
                                    const linalg::DenseMatrix& b,
                                    linalg::DenseMatrix* c,
                                    const SemiExternalOptions& options,
                                    const exec::Context& ctx,
                                    const CsrSpmmPlan* plan) {
  memsim::MemorySystem* ms = ctx.ms();
  // Fraction of dense gathers that miss the DRAM-resident portion.
  const size_t dense_bytes = b.bytes() + c->bytes();
  double spill = 0.0;
  if (dense_bytes > options.dram_budget_bytes) {
    spill = 1.0 - static_cast<double>(options.dram_budget_bytes) / dense_bytes;
    spill = std::clamp(spill, 0.0, 0.95);
  }

  // Equal-nnz row parts; the sparse matrix on SSD, the dense ones in DRAM.
  const memsim::Placement ssd{memsim::Tier::kSsd, 0};
  const memsim::Placement dram{memsim::Tier::kDram, 0};
  const uint64_t d = b.cols();
  return ParallelCsrSpmm(
      a, {b, c}, ctx, CsrSpmmPlan::Split::kEqualNnz, plan,
      [&](const CsrPlanPart& part, memsim::WorkerCtx* wctx) {
        SpmmCostBreakdown bd;
        const uint64_t rows = part.row_end - part.row_begin;
        // Sparse stream from SSD: SEM-SpMM processes the dense operand in
        // column blocks (16 columns per pass to bound its in-memory working
        // set), re-streaming the sparse matrix and its row pointers per block.
        const uint64_t column_passes = buffer::NumColumnPasses(d);
        Charge(ms, wctx, &bd, SpmmOp::kReadIndex, ssd, memsim::MemOp::kRead,
               memsim::Pattern::kSequential, column_passes * rows * 8, column_passes);
        Charge(ms, wctx, &bd, SpmmOp::kGetSparseNnz, ssd, memsim::MemOp::kRead,
               memsim::Pattern::kSequential, column_passes * part.nnz * 8,
               column_passes);
        // Dense gathers: Z-blended DRAM traffic for the resident fraction; the
        // spilled fraction pays SSD 4 KB page reads.
        const uint64_t total_gathers = part.nnz * d;
        const uint64_t spilled = static_cast<uint64_t>(spill * total_gathers);
        ChargeGather(ms, wctx, &bd, dram,
                     sched::NormalizedEntropy(part.entropy, a.num_cols()),
                     total_gathers - spilled);
        Charge(ms, wctx, &bd, SpmmOp::kGetDenseNnz, ssd, memsim::MemOp::kRead,
               memsim::Pattern::kRandom, spilled * kSsdPageBytes, spilled);
        ChargeCompute(ms, wctx, &bd, d * part.nnz * 2);
        Charge(ms, wctx, &bd, SpmmOp::kWriteResult, dram, memsim::MemOp::kWrite,
               memsim::Pattern::kSequential, rows * d * sizeof(float), 1);
        return bd;
      });
}

}  // namespace omega::sparse
