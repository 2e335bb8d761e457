#include "omega/placement.h"

#include "buffer/staging.h"
#include "omega/engine.h"

namespace omega::engine {

OmegaPlacement DecidePlacement(const EngineOptions& options,
                               const memsim::MemorySystem& ms, uint64_t num_nodes,
                               uint64_t num_arcs, int threads) {
  using memsim::Tier;
  const memsim::Placement dram{Tier::kDram, memsim::Placement::kInterleaved};
  const memsim::Placement pm{Tier::kPm, memsim::Placement::kInterleaved};
  const OmegaFeatures& f = options.features;
  OmegaPlacement p;
  // Two sparse structures are live at peak: the adjacency plus either the
  // stage-1 target matrix or the stage-2 propagation matrix (same pattern).
  p.sparse_bytes = 2 * SparseBytes(num_arcs);
  const size_t dense_bytes = DenseWorkingSetBytes(num_nodes, options.prone);
  for (int s = 0; s < ms.topology().num_sockets(); ++s) {
    p.dram_window += ms.AvailableBytes(Tier::kDram, s);
  }
  numa::NadpOptions& nadp = p.nadp;
  nadp.num_threads = threads;
  nadp.allocator = f.allocator;
  nadp.beta = options.beta;
  nadp.enabled = f.use_nadp;
  nadp.use_wofp = f.use_wofp;
  nadp.wofp = f.wofp;

  switch (options.system) {
    case SystemKind::kOmegaDram:
      // Everything in DRAM; fails outright when it does not fit (Fig. 12's
      // missing TW-2010/FR bars).
      p.reservations = {{dram, p.sparse_bytes}, {dram, dense_bytes}};
      nadp.sparse_tier = nadp.dense_tier = nadp.result_tier = Tier::kDram;
      p.dense.placement = dram;
      break;
    case SystemKind::kOmegaPm:
      // Worst baseline: every data path on PM, including the WoFP store (so
      // prefetch hits buy nothing).
      p.reservations = {{pm, p.sparse_bytes + dense_bytes}};
      nadp.sparse_tier = nadp.dense_tier = nadp.result_tier = Tier::kPm;
      nadp.wofp.cache_placement = {Tier::kPm, 0};
      p.dense.placement = pm;
      break;
    case SystemKind::kOmega:
    default:
      // Heterogeneous: sparse matrix and dense working set live on PM (the
      // App-directed data home); DRAM is a managed window. Gathers therefore
      // hit PM unless WoFP intercepted the row, which is exactly §III-C.
      p.reservations = {{pm, p.sparse_bytes + dense_bytes}};
      nadp.sparse_tier = nadp.dense_tier = Tier::kPm;
      nadp.result_tier = Tier::kDram;
      // A dense working set beyond the DRAM window must be staged PM <-> DRAM
      // regardless; use_asl decides whether the staging overlaps with compute
      // (§III-E) or runs synchronously. Async double-buffered staging rides
      // the ASL pipeline, so it also routes a fitting operand through it.
      p.stream_dense = dense_bytes > p.dram_window / 2;
      p.async_staging = f.async_staging && f.use_asl;
      if (p.staged()) p.asl_budget = p.dram_window / 2;
      if (p.async_staging) p.fetch_slowdown = buffer::FetchSlowdown(&ms, pm, dram, threads);
      // The dense algebra runs on the DRAM window plus one PM stream in/out
      // of each block, overlapped when async staging is on.
      p.dense = {dram, true, p.async_staging ? p.fetch_slowdown : 0.0};
      // Simulated PIM gang: only heterogeneous OMeGa offloads (the DRAM/PM
      // baselines pin every byte to one tier by construction). Bank geometry
      // and per-bank MAC rate come from the simulated machine, so profile
      // overrides flow into the placement's cost model.
      if (f.pim_banks > 0) {
        nadp.pim.banks = f.pim_banks;
        nadp.pim.mram_bytes_per_bank = ms.topology().config().pim_mram_bytes_per_bank;
        nadp.pim.bank_ops_per_second = ms.cost_model().profiles().pim_bank_ops_per_second;
        nadp.pim.policy = f.pim_placement;
      }
      break;
  }
  return p;
}

}  // namespace omega::engine
