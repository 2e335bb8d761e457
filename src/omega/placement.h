// The OMeGa-family placement policy (§III-C–E) as one pure function.
//
// PM is the data home; DRAM is a managed window holding the WoFP stores,
// socket-local intermediates and — when the dense working set exceeds it —
// the ASL staging buffers; PIM is an optional SpMM offload. DecidePlacement
// reads the machine's free capacity but reserves and charges nothing: the
// engine makes the listed reservations itself. Training (RunEmbedding) and
// incremental refresh (DynamicEmbedder) both take their NaDP tiers from it,
// so refresh is priced against the placement the training SpMMs used.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "memsim/memory_system.h"
#include "numa/nadp.h"
#include "omega/options.h"

namespace omega::engine {

/// Where a ProNE-based engine runs its dense algebra (the tSVD's QR/GEMM
/// passes and the Chebyshev recurrence's AXPYs).
struct DenseHome {
  memsim::Placement placement{memsim::Tier::kDram, memsim::Placement::kInterleaved};
  /// Each block also streams PM <-> `placement` (kOmega's DRAM window over
  /// its PM home).
  bool staged = false;
  /// > 0: that streaming overlaps the algebra at this fetch slowdown (async
  /// staging); 0: it runs synchronously.
  double overlap_slowdown = 0.0;
  /// Arithmetic-rate multiplier (the accelerator baselines).
  double flops_rate_multiplier = 1.0;
};

/// Everything the OMeGa-family engines decide about where data lives.
struct OmegaPlacement {
  /// SpMM tiers, WoFP cache placement and the PIM gang (kOmega only).
  numa::NadpOptions nadp;
  /// Capacity held for the whole run, reserved in this order.
  std::vector<std::pair<memsim::Placement, size_t>> reservations;
  size_t sparse_bytes = 0;      ///< the two sparse structures live at peak
  size_t dram_window = 0;       ///< free DRAM summed over every socket
  size_t asl_budget = 0;        ///< DRAM staging budget when staged()
  bool stream_dense = false;    ///< dense working set exceeds half the window
  bool async_staging = false;   ///< overlapped staging (kOmega, ASL on)
  double fetch_slowdown = 1.0;  ///< async fetch progress under compute
  DenseHome dense;

  /// ASL stages the SpMM dense operand PM -> DRAM.
  bool staged() const { return stream_dense || async_staging; }
};

/// The placement of `options.system` (an OMeGa-family kind) for a graph of
/// `num_nodes`/`num_arcs` run by `threads` workers on `ms`.
OmegaPlacement DecidePlacement(const EngineOptions& options,
                               const memsim::MemorySystem& ms, uint64_t num_nodes,
                               uint64_t num_arcs, int threads);

}  // namespace omega::engine
