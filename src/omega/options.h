// System configurations evaluated in the paper (§IV-A "Baselines").

#pragma once

#include <string>

#include "embed/prone.h"
#include "prefetch/wofp.h"
#include "sched/allocators.h"
#include "sched/hetero_placement.h"

namespace omega::durable {
class CheckpointStore;
}

namespace omega::engine {

/// Every system compared in Figs. 12 and 18.
enum class SystemKind {
  kOmega = 0,   ///< full OMeGa: CSDB + EaTA + WoFP + NaDP + ASL on DRAM+PM
  kOmegaDram,   ///< OMeGa optimizations, all data in DRAM (ideal baseline)
  kOmegaPm,     ///< OMeGa data paths entirely on PM (worst baseline)
  kProneDram,   ///< upstream-style ProNE: CSR + static row chunks, DRAM only
  kProneHm,     ///< ProNE on DRAM+PM without any HM-aware optimization
  kGinex,       ///< SSD-based out-of-core analogue (neighbor-cached gathers)
  kMariusGnn,   ///< SSD-based out-of-core analogue (partition-ordered I/O)
  kDistGer,     ///< distributed random-walk system analogue (4 machines)
  kDistDgl,     ///< distributed GNN system analogue (4 machines)
};

const char* SystemName(SystemKind kind);

/// Feature toggles of the OMeGa configurations (used by the ablation figures:
/// Fig. 14 turns WoFP off, Fig. 15 turns NaDP off, Table II swaps allocators).
struct OmegaFeatures {
  sched::AllocatorKind allocator = sched::AllocatorKind::kEntropyAware;
  bool use_wofp = true;
  bool use_nadp = true;  ///< false => OS Interleaved placement
  bool use_asl = true;
  prefetch::WofpOptions wofp;
  /// Overlap ASL's PM->DRAM staging fetches with the previous partition's
  /// compute (double buffering over the shared BufferManager). The staged
  /// dense operand is then gathered at DRAM cost while the fetch stream is
  /// charged concurrently via SimClock::OverlappedSeconds; off keeps the
  /// seed's synchronous charge model byte-identical. kOmega only.
  bool async_staging = false;
  /// When > 0, pins the ASL partition count instead of solving Eq. 9 — and
  /// keeps it pinned across fault-degraded passes (the degrade handler logs
  /// the override instead of re-solving).
  size_t asl_fixed_partitions = 0;
  /// Simulated PIM banks available for SpMM offload (0 disables the tier);
  /// OMeGa NaDP configurations only. Bank MRAM size and MAC rate come from
  /// the MemorySystem's topology and profiles.
  int pim_banks = 0;
  /// Which degree blocks the scheduler offloads when pim_banks > 0.
  sched::PimPolicy pim_placement = sched::PimPolicy::kAuto;
};

/// How the engines react to injected faults (consulted only when the
/// MemorySystem carries an enabled FaultPlan; otherwise dead config).
struct FaultRecoveryOptions {
  /// false: an ASL partition load that exhausts its retries surfaces an
  /// IOError instead of degrading to semi-external streaming.
  bool allow_degraded = true;
};

/// Crash-consistent checkpointing of the OMeGa-family engines (off by
/// default; every field inert unless `store` is set, keeping the seed's runs
/// byte-identical). Checkpoints are committed snapshot groups in a
/// durable::CheckpointStore on the PM tier; their write/restore costs are
/// charged as PM traffic + persist barriers and land in RunReport's
/// ckpt_seconds / recovery_seconds (never in the embedding bytes).
///
/// Checkpoint sites are the phase boundaries "read", "factorize" and "embed"
/// plus every checkpoint_every-th Chebyshev term ("term.<k>"). The crash
/// hooks simulate a process kill at a named site: the run stops with
/// durable::KilledError after that site's work (and its checkpoint, unless
/// crash_tear_checkpoint models the kill landing mid-checkpoint — the final
/// entry is torn and the commit marker never written, so restore falls back
/// to the previous snapshot).
struct DurabilityOptions {
  /// The checkpoint log; nullptr disables durability entirely.
  durable::CheckpointStore* store = nullptr;
  /// Chebyshev terms between mid-propagation checkpoints; 0 checkpoints only
  /// at the stage boundaries.
  uint64_t checkpoint_every = 0;
  /// Resume from the store's last committed snapshot before running (a store
  /// with no surviving commit runs from scratch).
  bool restore = false;
  /// Test/CLI hook: simulated kill after this site ("" = never).
  std::string crash_after_phase;
  /// The kill lands mid-checkpoint: torn final entry, no commit.
  bool crash_tear_checkpoint = false;

  bool enabled() const { return store != nullptr; }
};

struct EngineOptions {
  SystemKind system = SystemKind::kOmega;
  int num_threads = 36;
  embed::ProneOptions prone;
  OmegaFeatures features;
  FaultRecoveryOptions fault_recovery;
  /// beta = BW_rand/BW_seq used by EaTA; defaults to the PM profile's ratio.
  double beta = 0.415;
  /// Compute link-prediction AUC on the produced embedding (adds host time).
  bool evaluate_quality = false;
  uint64_t quality_samples = 2000;
  /// Crash-consistent checkpointing (OMeGa-family systems); off by default.
  DurabilityOptions durability;
};

}  // namespace omega::engine
