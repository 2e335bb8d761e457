// PIM-offloaded SpMM over CSDB degree blocks.
//
// Charge-only, like every other charge step: the offloaded rows' arithmetic
// runs for real on host memory in numa::NadpExecute's all-rows compute pass —
// the very same packed kernel as every host row, so a row's bits never depend
// on where the simulator placed it — while PimSpmm charges model the PIM
// execution:
//
//   ship       one gang DMA of each offloaded block's col_list + nnz_list
//              (8B per element) over the host<->PIM link;
//   broadcast  the dense operand streamed to every bank once per column
//              pass (a hardware broadcast: the link carries each byte once,
//              banks snoop it simultaneously); when the resident elements
//              leave too little MRAM for the full operand, it is streamed in
//              slices, costing one extra DMA handshake per pass;
//   compute    bank-serial MACs: a block's rows are dealt round-robin to the
//              banks and each bank walks its rows serially, so the charge is
//              the straggler bank, ceil(rows/banks) * degree * 2 * cols ops
//              at the per-bank MAC rate;
//   readback   the partial row panels DMA'd back (each row is owned by
//              exactly one bank, so panels are disjoint);
//   merge      the host streams the panels into the result tier.
//
// All link transfers flow through ChargeAccessWithRetry on a single
// controller WorkerCtx (worker = kPimControllerWorker, so the draws own the
// kFaultStreamPim stream): a transfer that exhausts its retries degrades the
// whole block to the host charge path — the block's simulated cost becomes
// the ordinary host SpMM charge and the fault is bucketed as degraded —
// while the real output is untouched, because it is computed on the host
// all along.

#pragma once

#include <cstdint>

#include "graph/csdb.h"
#include "memsim/memory_system.h"
#include "sched/hetero_placement.h"
#include "sparse/spmm.h"

namespace omega::sparse {

struct PimSpmmOptions {
  /// The gang the placement was priced for (banks, MRAM, bank MAC rate).
  sched::PimConfig config;
  /// Host placements: `host` prices a degraded block's fallback charge,
  /// `host.result` receives the merged panels.
  SpmmPlacements host;
  /// Width of the dense column range this execute covers.
  uint64_t dense_cols = 0;
};

/// Simulated-cost breakdown of one PIM execute. `pipeline_seconds` (broadcast
/// + ship + bank compute) overlaps the host panels; `tail_seconds` (readback
/// + merge + degraded fallbacks) is serial after both sides finish.
struct PimSpmmResult {
  double transfer_seconds = 0.0;  ///< link DMA: broadcast + ship + readback
  double compute_seconds = 0.0;   ///< bank straggler MACs
  double reduce_seconds = 0.0;    ///< host merge + degraded fallback charges
  double pipeline_seconds = 0.0;
  double tail_seconds = 0.0;
  uint64_t nnz_processed = 0;
  uint64_t degraded_blocks = 0;  ///< blocks recharged at host cost
  uint64_t column_passes = 1;    ///< broadcast passes forced by MRAM pressure
};

/// Charges the PIM execution of `placement`'s offloaded blocks over
/// `options.dense_cols` columns on one controller clock; computes nothing.
/// Injected faults degrade per block and never fail the call. `placement`
/// must come from sched::PlaceDegreeBlocks, which offloads only when
/// `options.config` is active (banks > 0).
PimSpmmResult PimSpmm(const graph::CsdbMatrix& a,
                      const sched::HeteroPlacement& placement,
                      const PimSpmmOptions& options, memsim::MemorySystem* ms,
                      uint64_t fault_epoch);

}  // namespace omega::sparse
