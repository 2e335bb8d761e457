#include "sparse/pim_spmm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "memsim/sim_clock.h"

namespace omega::sparse {

namespace {

using memsim::MemOp;
using memsim::Pattern;
using memsim::Placement;
using memsim::Tier;

constexpr Placement kPimLink{Tier::kPim, 0};

/// Charges one degraded block at ordinary host SpMM cost on the controller
/// clock. A uniform-degree block of R rows has H = log(R).
void ChargeDegradedBlock(const graph::CsdbMatrix& a, uint64_t dense_cols,
                         const sched::HeteroBlock& hb,
                         const SpmmPlacements& host,
                         memsim::MemorySystem* ms, memsim::WorkerCtx* ctx) {
  CsdbChargeMeta meta;
  meta.rows = hb.row_end - hb.row_begin;
  meta.nnz = hb.nnz;
  meta.entropy_h = meta.rows > 0 ? std::log(static_cast<double>(meta.rows)) : 0.0;
  ChargeWorkloadCsdb(a, dense_cols, meta, host, ms, ctx);
}

}  // namespace

PimSpmmResult PimSpmm(const graph::CsdbMatrix& a,
                      const sched::HeteroPlacement& placement,
                      const PimSpmmOptions& options, memsim::MemorySystem* ms,
                      uint64_t fault_epoch) {
  PimSpmmResult result;
  const uint64_t l = options.dense_cols;
  if (!placement.any_pim() || l == 0) return result;
  // PlaceDegreeBlocks offloads only under an active config (banks > 0).
  OMEGA_DCHECK(options.config.banks > 0);

  // One controller stream.
  memsim::SimClock clock;
  memsim::WorkerCtx ctx;
  ctx.worker = memsim::kPimControllerWorker;
  ctx.cpu_socket = 0;
  ctx.active_threads = 1;
  ctx.clock = &clock;
  ctx.fault_site = fault_epoch;

  auto Bracket = [&](double* bucket, auto&& fn) {
    const double before = clock.seconds();
    fn();
    *bucket += clock.seconds() - before;
  };

  // Broadcast: every byte of the dense operand's column block crosses the
  // link once (banks snoop the broadcast). When the resident block elements
  // squeeze MRAM, the operand streams through in passes — the bytes total is
  // pass-invariant, but each pass costs one more DMA handshake (the
  // `accesses` term), mirroring the PR6 staging arithmetic.
  uint64_t max_per_bank_elem_bytes = 0;
  for (const sched::HeteroBlock& hb : placement.blocks) {
    if (!hb.on_pim) continue;
    const uint64_t per_bank =
        ((hb.nnz + options.config.banks - 1) / options.config.banks) * 8;
    max_per_bank_elem_bytes = std::max(max_per_bank_elem_bytes, per_bank);
  }
  const uint64_t broadcast_bytes = static_cast<uint64_t>(a.num_cols()) * l * 4;
  const uint64_t bank_free =
      options.config.mram_bytes_per_bank > max_per_bank_elem_bytes
          ? options.config.mram_bytes_per_bank - max_per_bank_elem_bytes
          : 1;
  result.column_passes =
      std::max<uint64_t>(1, (broadcast_bytes + bank_free - 1) / bank_free);

  double front_seconds = 0.0;     // broadcast + ship (overlaps host panels)
  double readback_seconds = 0.0;  // serial drain

  bool broadcast_ok = true;
  Bracket(&front_seconds, [&] {
    const Status s = ms->ChargeAccessWithRetry(
        &ctx, kPimLink, MemOp::kWrite, Pattern::kSequential, broadcast_bytes,
        result.column_passes, memsim::FaultRetryPolicy{});
    if (!s.ok()) {
      // The whole gang lost the operand: every offloaded block degrades.
      broadcast_ok = false;
      ms->faults().CountDegraded();
    }
  });

  for (const sched::HeteroBlock& hb : placement.blocks) {
    if (!hb.on_pim) continue;
    const uint32_t rows = hb.row_end - hb.row_begin;
    result.nnz_processed += hb.nnz;

    bool ok = broadcast_ok;
    if (ok) {
      // Ship the block's elements: col index (4B) + value (4B) per nnz.
      Bracket(&front_seconds, [&] {
        const Status s = ms->ChargeAccessWithRetry(
            &ctx, kPimLink, MemOp::kWrite, Pattern::kSequential, hb.nnz * 8, 1,
            memsim::FaultRetryPolicy{});
        if (!s.ok()) {
          ok = false;
          ms->faults().CountDegraded();
        }
      });
    }
    if (ok) {
      // Bank-straggler MACs.
      const uint64_t rows_per_bank =
          (rows + static_cast<uint32_t>(options.config.banks) - 1) /
          options.config.banks;
      Bracket(&result.compute_seconds, [&] {
        clock.Advance(static_cast<double>(rows_per_bank) * hb.degree * 2 * l /
                      options.config.bank_ops_per_second);
      });
      // Read the partial panel back.
      Bracket(&readback_seconds, [&] {
        const Status s = ms->ChargeAccessWithRetry(
            &ctx, kPimLink, MemOp::kRead, Pattern::kSequential,
            static_cast<uint64_t>(rows) * l * 4, 1, memsim::FaultRetryPolicy{});
        if (!s.ok()) {
          ok = false;
          ms->faults().CountDegraded();
        }
      });
    }
    if (ok) {
      // Merge: panels are disjoint row sets, a scatter-free stream into the
      // result tier.
      Bracket(&result.reduce_seconds, [&] {
        ms->ChargeAccess(&ctx, options.host.result, MemOp::kWrite,
                         Pattern::kSequential,
                         static_cast<uint64_t>(rows) * l * 4, 1);
      });
    } else {
      // The block re-runs on the host path (simulated); the host compute
      // already produced its rows, so only the charge changes.
      ++result.degraded_blocks;
      Bracket(&result.reduce_seconds,
              [&] { ChargeDegradedBlock(a, l, hb, options.host, ms, &ctx); });
    }
  }

  // Pipeline front (broadcast + ship + bank compute) overlaps the host
  // panels; the drain (readback + merge + degraded fallbacks) is serial.
  result.transfer_seconds = front_seconds + readback_seconds;
  result.pipeline_seconds = front_seconds + result.compute_seconds;
  result.tail_seconds = readback_seconds + result.reduce_seconds;
  return result;
}

}  // namespace omega::sparse
