#include "omega/engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "buffer/buffer_manager.h"
#include "buffer/staging.h"
#include "common/logging.h"
#include "durable/checkpoint.h"
#include "embed/quality.h"
#include "memsim/sim_clock.h"
#include "numa/nadp.h"
#include "omega/baselines.h"
#include "omega/distributed_sim.h"
#include "stream/asl.h"

namespace omega::engine {

namespace internal {

void Reservation::Release() {
  if (ms_ != nullptr && bytes_ > 0) ms_->Release(placement_, bytes_);
  ms_ = nullptr;
  bytes_ = 0;
}

Result<Reservation> Reservation::Make(memsim::MemorySystem* ms,
                                      memsim::Placement placement, size_t bytes) {
  OMEGA_RETURN_NOT_OK(ms->Reserve(placement, bytes));
  Reservation r;
  r.ms_ = ms;
  r.placement_ = placement;
  r.bytes_ = bytes;
  return r;
}

}  // namespace internal

RunReport FailedReport(SystemKind system, const std::string& dataset,
                       const Status& status) {
  RunReport report;
  report.system = SystemName(system);
  report.dataset = dataset;
  report.failed = true;
  report.failure = status.ToString();
  return report;
}

size_t SparseBytes(uint64_t num_arcs) {
  // col_list (4B) + nnz_list (4B) per stored element.
  return static_cast<size_t>(num_arcs) * 8;
}

size_t DenseWorkingSetBytes(uint64_t num_nodes, const embed::ProneOptions& prone) {
  // tSVD peak: Omega, Y, Q, B^T — four n x (dim+oversample) blocks.
  // Chebyshev peak: r0, T_{k-1}, T_k, T_{k+1}, the SpMM temporary, and the
  // accumulating output — six n x dim blocks live at once.
  const size_t l = prone.dim + prone.oversample;
  const size_t tsvd = 4 * num_nodes * l * sizeof(float);
  const size_t cheb = 6 * num_nodes * prone.dim * sizeof(float);
  return std::max(tsvd, cheb);
}

DenseStageModel EstimateDenseStage(uint64_t num_nodes,
                                   const embed::ProneOptions& prone) {
  const uint64_t n = num_nodes;
  const uint64_t l = prone.dim + prone.oversample;
  const uint64_t d = prone.dim;
  // Householder QR on an n x l block streams ~n*l^2 values; one QR per range
  // find plus two per power iteration, plus the B^T/GEMM passes (~2 more
  // n*l*l-ish passes).
  const uint64_t qr_passes = 2 + 2 * static_cast<uint64_t>(prone.power_iterations);
  DenseStageModel model;
  model.tsvd_bytes = (qr_passes + 2) * n * l * l * sizeof(float);
  model.tsvd_flops = (qr_passes + 2) * 2 * n * l * l;
  // Chebyshev recurrence: per term ~6 full passes over the n x d block
  // (zeroing, two AXPYs into T_next, the output AXPY, and operand reads).
  const uint64_t order = static_cast<uint64_t>(prone.chebyshev_order);
  model.cheb_bytes = order * 6 * n * d * sizeof(float);
  model.cheb_flops = order * 6 * n * d;
  return model;
}

double DenseStageSeconds(const exec::Context& ctx, memsim::Placement p,
                         uint64_t bytes, uint64_t flops,
                         double flops_rate_multiplier) {
  memsim::MemorySystem* ms = ctx.ms();
  const int threads = ctx.threads();
  const uint64_t per_thread_bytes = bytes / std::max(1, threads);
  const double read = ms->AccessSeconds(p, 0, memsim::MemOp::kRead,
                                        memsim::Pattern::kSequential,
                                        per_thread_bytes / 2, 1, threads);
  const double write = ms->AccessSeconds(p, 0, memsim::MemOp::kWrite,
                                         memsim::Pattern::kSequential,
                                         per_thread_bytes / 2, 1, threads);
  const double compute =
      ms->cost_model().ComputeSeconds(flops / std::max(1, threads)) /
      flops_rate_multiplier;
  return read + write + compute;
}

double SimulatedGraphReadSeconds(const exec::Context& ctx, GraphFormat format,
                                 uint64_t num_arcs, uint64_t num_nodes) {
  // Parse: the edge-list file (about 16 text bytes per arc) streams from SSD.
  // Build: both formats write the col/val payload sequentially; CSR
  // additionally scatters per-row counters across its O(|V|) row-pointer
  // array while bucketing edges, whereas CSDB's block metadata is
  // O(|degrees|) and stays cache-resident. This is the Fig. 19a difference.
  memsim::MemorySystem* ms = ctx.ms();
  const int threads = ctx.threads();
  const memsim::Placement ssd{memsim::Tier::kSsd, 0};
  const memsim::Placement pm{memsim::Tier::kPm, memsim::Placement::kInterleaved};
  const memsim::Placement dram{memsim::Tier::kDram, memsim::Placement::kInterleaved};

  const uint64_t arcs_per_thread = (num_arcs + threads - 1) / threads;
  double seconds = 0.0;
  seconds += ms->AccessSeconds(ssd, 0, memsim::MemOp::kRead,
                               memsim::Pattern::kSequential, arcs_per_thread * 16, 1,
                               threads);
  seconds += ms->AccessSeconds(pm, 0, memsim::MemOp::kWrite,
                               memsim::Pattern::kSequential, arcs_per_thread * 8, 1,
                               threads);
  // Sorting/bucketing arithmetic.
  seconds += ms->cost_model().ComputeSeconds(arcs_per_thread * 24);
  if (format == GraphFormat::kCsr) {
    // Row-pointer scatter (one 64B-line touch per arc) plus the O(|V|)
    // pointer array write.
    seconds += ms->AccessSeconds(dram, 0, memsim::MemOp::kWrite,
                                 memsim::Pattern::kRandom, arcs_per_thread * 64,
                                 arcs_per_thread, threads);
    seconds +=
        ms->AccessSeconds(pm, 0, memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                          (num_nodes / threads + 1) * 8, 1, threads);
  } else {
    // Degree-sort pass plus the O(|degrees|) block metadata (negligible I/O).
    seconds += ms->cost_model().ComputeSeconds((num_nodes / threads + 1) * 32);
  }
  return seconds;
}

namespace {

// Snapshot stages of the OMeGa-family engines. Stored in each checkpoint's
// meta entry; restore skips (and does not recharge) everything at or before
// the stage, which is what makes a resumed run's embedding bitwise identical
// to an uninterrupted one.
enum CkptStage : uint32_t {
  kStageNone = 0,
  kStageReadDone = 1,       ///< graph read + format build done
  kStageFactorizeDone = 2,  ///< stage-1 basis R available ("r0")
  kStagePropagate = 3,      ///< mid-Chebyshev ("t_prev"/"t_cur"/"partial")
  kStageEmbedDone = 4,      ///< final embedding available ("vectors" + perm)
};

// Simulated seconds travel through checkpoint words bit-exactly.
uint64_t SecondsToBits(double s) {
  uint64_t b;
  std::memcpy(&b, &s, sizeof(b));
  return b;
}
double BitsToSeconds(uint64_t b) {
  double s;
  std::memcpy(&s, &b, sizeof(s));
  return s;
}

// OMeGa / OMeGa-DRAM / OMeGa-PM share one implementation parameterized by
// where data lives.
Result<RunReport> RunOmegaFamily(const graph::Graph& g, const std::string& dataset,
                                 const EngineOptions& options,
                                 const exec::Context& outer_ctx) {
  using memsim::Placement;
  using memsim::Tier;
  memsim::MemorySystem* ms = outer_ctx.ms();
  ms->ResetTraffic();
  ms->ResetFaults();

  // The run records its phases into a local recorder that becomes
  // report.phases; RunEmbedding forwards them to any outer recorder.
  exec::TraceRecorder recorder;
  const exec::Context ctx =
      outer_ctx.WithThreads(options.num_threads).WithTrace(&recorder);
  const int threads = ctx.threads();

  RunReport report;
  report.system = SystemName(options.system);
  report.dataset = dataset;

  // --- Durability: restore, checkpoint cadence, simulated kill sites --------
  // All of it inert (and byte-identical to the seed) unless a CheckpointStore
  // is attached. Restore reads the last committed snapshot back from PM
  // (charged into "ckpt.restore" / recovery_seconds) and truncates any torn
  // tail a mid-checkpoint crash left behind, so the log stays appendable.
  const DurabilityOptions& durability = options.durability;
  durable::CheckpointStore* ckpt_store = durability.store;
  double ckpt_seconds = 0.0;
  double restored_read = 0.0;
  double restored_factorize = 0.0;
  double restored_propagate = 0.0;
  uint32_t resume_stage = kStageNone;
  durable::CheckpointSnapshot resume_snap;
  if (ckpt_store != nullptr && durability.restore) {
    exec::PhaseSpan restore_span(ctx, "ckpt.restore");
    durable::CkptCosts costs;
    auto snap = durable::ReadLastSnapshot(ckpt_store, &costs);
    restore_span.AddSimSeconds(costs.seconds);
    restore_span.AddCkptCounters(costs.entries, costs.bytes, costs.barriers);
    report.recovery_seconds += costs.seconds;
    ckpt_store->TruncateToValidPrefix();
    if (snap.ok()) {
      resume_snap = std::move(snap).value();
      resume_stage = resume_snap.stage;
      if (resume_snap.words.size() < 3) {
        return Status::IOError("checkpoint snapshot missing timing words");
      }
      restored_read = BitsToSeconds(resume_snap.words[0]);
      restored_factorize = BitsToSeconds(resume_snap.words[1]);
      restored_propagate = BitsToSeconds(resume_snap.words[2]);
    } else if (!snap.status().IsNotFound()) {
      return snap.status();
    }
    // NotFound: nothing committed survived — run from scratch.
  }
  // Simulated-kill test hook: true when the configured crash site is `site`.
  auto kill_here = [&](const std::string& site) {
    return ckpt_store != nullptr && durability.crash_after_phase == site;
  };
  // Stage-seconds accumulators feeding checkpoint metadata; they start from
  // the restored values so a later checkpoint carries whole-run stage times.
  double factorize_spmm_seconds = restored_factorize;
  double propagate_spmm_seconds = restored_propagate;
  // Writes one snapshot group after `site` completes (torn when the
  // simulated kill lands mid-checkpoint), then dies if `site` is the kill
  // site.
  auto checkpoint =
      [&](const std::string& site, uint32_t stage, uint64_t next_term,
          std::vector<std::pair<std::string, linalg::DenseMatrix>> matrices,
          std::vector<uint64_t> extra_words) -> Status {
    durable::CheckpointSnapshot snap;
    snap.stage = stage;
    snap.next_term = next_term;
    snap.matrices = std::move(matrices);
    snap.words = {SecondsToBits(report.read_seconds),
                  SecondsToBits(factorize_spmm_seconds),
                  SecondsToBits(propagate_spmm_seconds)};
    snap.words.insert(snap.words.end(), extra_words.begin(), extra_words.end());
    {
      exec::PhaseSpan span(ctx, "ckpt.write");
      const bool torn = kill_here(site) && durability.crash_tear_checkpoint;
      auto costs = torn ? durable::WriteSnapshotTorn(ckpt_store, snap)
                        : durable::WriteSnapshot(ckpt_store, snap);
      OMEGA_RETURN_NOT_OK(costs.status());
      span.AddSimSeconds(costs.value().seconds);
      span.AddCkptCounters(costs.value().entries, costs.value().bytes,
                           costs.value().barriers);
      ckpt_seconds += costs.value().seconds;
    }
    if (kill_here(site)) return durable::KilledError(site);
    return Status::OK();
  };

  const graph::CsdbMatrix adjacency = graph::CsdbMatrix::FromGraph(g, ctx.pool());
  if (resume_stage >= kStageReadDone) {
    // Resumed past the read: the pre-crash run already paid it.
    report.read_seconds = restored_read;
  } else {
    {
      exec::PhaseSpan read_span(ctx, "read");
      report.read_seconds =
          SimulatedGraphReadSeconds(ctx, GraphFormat::kCsdb, g.num_arcs(),
                                    g.num_nodes());
      read_span.AddSimSeconds(report.read_seconds);
    }
    if (ckpt_store != nullptr) {
      OMEGA_RETURN_NOT_OK(checkpoint("read", kStageReadDone, 0, {}, {}));
    }
  }

  // --- Placement decisions + capacity reservations ---------------------------
  // Two sparse structures are live at peak: the adjacency plus either the
  // stage-1 target matrix or the stage-2 propagation matrix (same pattern).
  const size_t sparse_bytes = 2 * SparseBytes(g.num_arcs());
  const size_t dense_bytes = DenseWorkingSetBytes(g.num_nodes(), options.prone);
  const Placement interleave_dram{Tier::kDram, Placement::kInterleaved};
  const Placement interleave_pm{Tier::kPm, Placement::kInterleaved};

  std::vector<internal::Reservation> reservations;
  numa::NadpOptions nadp;
  nadp.num_threads = threads;
  nadp.allocator = options.features.allocator;
  nadp.beta = options.beta;
  nadp.enabled = options.features.use_nadp;
  nadp.use_wofp = options.features.use_wofp;
  nadp.wofp = options.features.wofp;

  bool stream_dense = false;  // ASL engaged?
  size_t asl_dram_budget = 0;
  // Async double-buffered staging rides the ASL pipeline, so it applies only
  // to heterogeneous OMeGa and only when ASL itself is on.
  const bool async_staging = options.features.async_staging &&
                             options.system == SystemKind::kOmega &&
                             options.features.use_asl;

  switch (options.system) {
    case SystemKind::kOmegaDram: {
      // Everything in DRAM; fails outright when it does not fit (Fig. 12's
      // missing TW-2010/FR bars).
      OMEGA_ASSIGN_OR_RETURN(
          auto r1, internal::Reservation::Make(ms, interleave_dram, sparse_bytes));
      OMEGA_ASSIGN_OR_RETURN(
          auto r2, internal::Reservation::Make(ms, interleave_dram, dense_bytes));
      reservations.push_back(std::move(r1));
      reservations.push_back(std::move(r2));
      nadp.sparse_tier = Tier::kDram;
      nadp.dense_tier = Tier::kDram;
      nadp.result_tier = Tier::kDram;
      break;
    }
    case SystemKind::kOmegaPm: {
      // Worst baseline: every data path on PM, including the WoFP store (so
      // prefetch hits buy nothing).
      OMEGA_ASSIGN_OR_RETURN(
          auto r1, internal::Reservation::Make(ms, interleave_pm,
                                               sparse_bytes + dense_bytes));
      reservations.push_back(std::move(r1));
      nadp.sparse_tier = Tier::kPm;
      nadp.dense_tier = Tier::kPm;
      nadp.result_tier = Tier::kPm;
      nadp.wofp.cache_placement = {Tier::kPm, 0};
      break;
    }
    case SystemKind::kOmega:
    default: {
      // Heterogeneous: sparse matrix and dense working set live on PM (the
      // App-directed data home); DRAM is a managed window holding the WoFP
      // stores, socket-local intermediates, and — when the working set
      // exceeds it — the ASL staging buffers whose PM<->DRAM transfers
      // overlap with compute. Gathers therefore hit PM unless WoFP
      // intercepted the row, which is exactly §III-C's design.
      OMEGA_ASSIGN_OR_RETURN(
          auto r1, internal::Reservation::Make(ms, interleave_pm,
                                               sparse_bytes + dense_bytes));
      reservations.push_back(std::move(r1));
      const size_t dram_free =
          ms->AvailableBytes(Tier::kDram, 0) + ms->AvailableBytes(Tier::kDram, 1);
      if (dense_bytes > dram_free / 2) {
        // The dense working set exceeds the DRAM window: blocks must be
        // staged PM <-> DRAM regardless; use_asl decides whether the
        // staging overlaps with compute (§III-E) or runs synchronously.
        stream_dense = true;
        asl_dram_budget = dram_free / 2;
      }
      if (async_staging && !stream_dense) {
        // Async staging routes the SpMM dense operand through the ASL
        // pipeline even when the working set fits DRAM: partitions are
        // staged PM -> DRAM ahead of compute and gathered at DRAM cost,
        // with the fetch stream overlapped against compute (Fig. 9).
        asl_dram_budget = dram_free / 2;
      }
      nadp.sparse_tier = Tier::kPm;
      nadp.dense_tier = Tier::kPm;
      nadp.result_tier = Tier::kDram;
      break;
    }
  }

  // Simulated PIM gang: only heterogeneous OMeGa offloads (the DRAM/PM
  // baselines pin every byte to one tier by construction, and the
  // Interleaved baseline ignores the config inside NaDP). Bank geometry and
  // per-bank MAC rate come from the simulated machine, so profile overrides
  // flow into the placement's cost model automatically.
  if (options.system == SystemKind::kOmega && options.features.pim_banks > 0) {
    nadp.pim.banks = options.features.pim_banks;
    nadp.pim.mram_bytes_per_bank =
        ms->topology().config().pim_mram_bytes_per_bank;
    nadp.pim.bank_ops_per_second =
        ms->cost_model().profiles().pim_bank_ops_per_second;
    nadp.pim.policy = options.features.pim_placement;
  }

  // ASL staging engages either because the dense working set exceeds the
  // DRAM window (stream_dense) or because async staging opted in. With async
  // on, staged partitions live in a shared BufferManager pool (LRU over the
  // DRAM window) and each fetch contends with compute for bandwidth.
  const bool staged_spmm = stream_dense || async_staging;
  const double stage_slowdown =
      async_staging
          ? buffer::FetchSlowdown(ms, interleave_pm, interleave_dram, threads)
          : 1.0;
  std::unique_ptr<buffer::BufferManager> stage_frames;
  if (async_staging) {
    stage_frames = std::make_unique<buffer::BufferManager>(
        ms, buffer::BufferManager::Options{asl_dram_budget,
                                           buffer::EvictionPolicy::kLru});
  }

  // --- The charged SpMM executor handed to the embedder ----------------------
  embed::ProneOptions prone = options.prone;
  prone.pool = ctx.pool();  // host-side dense parallelism; sim-invariant
  internal::StageTracker stages;
  stages.Attach(&prone);

  // Durability hooks into the ProNE pipeline: a stage-boundary checkpoint
  // after the tSVD, a cadence checkpoint (and the term.<k> kill sites) inside
  // the Chebyshev recurrence, and the resume wiring that skips completed
  // stages with the restored state.
  embed::ProneDurability prone_durability;
  linalg::DenseMatrix resume_r0;
  embed::ChebyshevResume cheb_resume;
  if (ckpt_store != nullptr) {
    prone_durability.after_factorize =
        [&](const linalg::DenseMatrix& r0) -> Status {
      return checkpoint("factorize", kStageFactorizeDone, 0, {{"r0", r0}}, {});
    };
    prone_durability.cheb.after_term =
        [&](size_t next_term, const linalg::DenseMatrix& t_prev,
            const linalg::DenseMatrix& t_cur,
            const linalg::DenseMatrix& partial) -> Status {
      const uint64_t term = next_term - 1;  // the term that just landed
      const std::string site = "term." + std::to_string(term);
      if (durability.checkpoint_every > 0 &&
          term % durability.checkpoint_every == 0) {
        return checkpoint(site, kStagePropagate, next_term,
                          {{"t_prev", t_prev},
                           {"t_cur", t_cur},
                           {"partial", partial}},
                          {});
      }
      if (kill_here(site)) return durable::KilledError(site);
      return Status::OK();
    };
    if (resume_stage == kStageFactorizeDone) {
      for (auto& [tag, m] : resume_snap.matrices) {
        if (tag == "r0") resume_r0 = std::move(m);
      }
      if (resume_r0.rows() == 0) {
        return Status::IOError("checkpoint snapshot missing the r0 matrix");
      }
      prone_durability.resume_r0 = &resume_r0;
    } else if (resume_stage == kStagePropagate) {
      for (auto& [tag, m] : resume_snap.matrices) {
        if (tag == "t_prev") {
          cheb_resume.t_prev = std::move(m);
        } else if (tag == "t_cur") {
          cheb_resume.t_cur = std::move(m);
        } else if (tag == "partial") {
          cheb_resume.partial = std::move(m);
        }
      }
      cheb_resume.next_term = resume_snap.next_term;
      if (!cheb_resume.valid() || cheb_resume.partial.rows() == 0 ||
          cheb_resume.t_prev.rows() == 0) {
        return Status::IOError("checkpoint snapshot missing recurrence state");
      }
      // Stage 1 is skipped; the resumed recurrence reads only the basis'
      // shape, so the accumulator doubles as a stand-in for R.
      resume_r0 = cheb_resume.partial;
      prone_durability.resume_r0 = &resume_r0;
      prone_durability.cheb.resume = &cheb_resume;
    }
    prone.durability = &prone_durability;
  }
  double wofp_build_seconds = 0.0;
  // PIM sub-phase seconds accumulate across every SpMM and surface as three
  // end-of-run aux records (contained in the SpMM phases, like wofp_build).
  double pim_transfer_seconds = 0.0;
  double pim_compute_seconds = 0.0;
  double pim_reduce_seconds = 0.0;
  uint64_t pim_degraded_blocks = 0;

  // Plan/execute split: ProNE issues dozens of SpMMs against only two sparse
  // structures (the stage-1 target and the stage-2 propagation matrix), so
  // the inspector work — EaTA allocation, in-degree scan, WoFP stores, and
  // the ASL Eq. 9 solve — is cached across calls. Plan reuse is host-side
  // only; every simulated charge is replayed per call (two-clock contract).
  numa::NadpPlanCache plan_cache;
  struct AslPartitionCacheEntry {
    size_t dense_rows = 0;
    size_t dense_cols = 0;
    size_t partitions = 0;
  } asl_parts;

  // Fault recovery state: a dropped WoFP cache stays dropped for the rest of
  // the run (flipping nadp.use_wofp changes the plan-cache key, so the next
  // SpMM rebuilds a cache-less plan = PM-resident gathers). The site cursors
  // persist across SpMM calls so repeated passes draw fresh faults.
  bool wofp_dropped = false;
  uint64_t wofp_probe_site = 0;
  uint64_t asl_fault_site = 0;

  // Mirrors ProneEmbed's per-stage accumulation so checkpoint metadata can
  // carry whole-run stage seconds (same values, same addition order).
  auto account_stage_seconds = [&](double seconds) {
    (stages.stage() == "propagate" ? propagate_spmm_seconds
                                   : factorize_spmm_seconds) += seconds;
  };

  embed::SpmmExecutor executor =
      [&](const graph::CsdbMatrix& m, const linalg::DenseMatrix& in,
          linalg::DenseMatrix* out) -> Result<double> {
    exec::PhaseSpan span(ctx, stages.NextSpmmName());
    *out = linalg::DenseMatrix(m.num_rows(), in.cols());
    double fault_overhead = 0.0;
    if (ms->faults_enabled() && nadp.use_wofp && !wofp_dropped) {
      // Probe the cache tier before relying on it; a tier that keeps
      // faulting costs more through the gather-intercept path than the PM
      // reads it saves, so the engine degrades by dropping the cache.
      const prefetch::CacheProbeResult probe = prefetch::ProbeCacheTier(
          ms, nadp.wofp.cache_placement, options.fault_recovery.wofp_probe_retries,
          memsim::kFaultStreamWofpProbe, &wofp_probe_site);
      fault_overhead += probe.seconds;
      if (!probe.healthy) {
        wofp_dropped = true;
        nadp.use_wofp = false;
        exec::PhaseRecord drop;
        drop.name = "fault.wofp.drop";
        drop.aux = true;
        recorder.Record(std::move(drop));
      }
    }
    // Async staging gathers the staged operand at DRAM cost: the plan (and
    // its WoFP stores / charge metadata) is keyed on the DRAM dense tier, so
    // the one-slot cache never thrashes against the synchronous variant.
    numa::NadpOptions plan_opts = nadp;
    if (async_staging) plan_opts.dense_tier = Tier::kDram;
    // The PIM ship cost is width-invariant while every other cost scales
    // with the operand width, so the placement — and hence the plan key —
    // is priced per dense width.
    if (plan_opts.pim.banks > 0) plan_opts.pim.dense_cols = in.cols();
    if (!plan_cache.Contains(m, plan_opts)) {
      // Aux: plan building charges nothing, so its sim time is zero; the
      // span still captures the host wall time the rebuild costs.
      exec::PhaseSpan plan_span(ctx, "plan.build", /*aux=*/true);
      plan_cache.Get(m, plan_opts, ctx);
      plan_span.AddPlanCounters(0, 1, 0);
    }
    const numa::NadpPlan& plan = plan_cache.Get(m, plan_opts, ctx);
    span.AddPlanCounters(1, 0, 0);
    if (!staged_spmm) {
      const numa::NadpResult r = numa::NadpExecute(plan, m, in, out, ctx);
      wofp_build_seconds += r.wofp_build_seconds;
      pim_transfer_seconds += r.pim_transfer_seconds;
      pim_compute_seconds += r.pim_compute_seconds;
      pim_reduce_seconds += r.pim_reduce_seconds;
      pim_degraded_blocks += r.pim_degraded_blocks;
      span.AddSimSeconds(fault_overhead + r.phase_seconds);
      account_stage_seconds(fault_overhead + r.phase_seconds);
      return fault_overhead + r.phase_seconds;
    }
    // ASL: stream the dense operand's column partitions PM -> DRAM and
    // overlap each load with the previous partition's SpMM (§III-E).
    stream::AslConfig cfg;
    cfg.dense_rows = m.num_rows();
    cfg.dense_cols = in.cols();
    cfg.element_bytes = sizeof(float);
    cfg.sparse_bytes = sparse_bytes;
    cfg.dram_budget = asl_dram_budget + sparse_bytes +
                      2 * cfg.dense_rows * cfg.dense_cols * sizeof(float);
    // Eq. 9 depends only on the dense shape (the budget terms are run
    // constants), so the solve is cached alongside the NaDP plan. A pinned
    // partition count (--asl-partitions) bypasses both solve and cache.
    const size_t user_fixed = options.features.asl_fixed_partitions;
    if (user_fixed > 0) {
      cfg.fixed_partitions =
          std::min(user_fixed, std::max<size_t>(1, cfg.dense_cols));
    } else {
      if (asl_parts.partitions == 0 || asl_parts.dense_rows != cfg.dense_rows ||
          asl_parts.dense_cols != cfg.dense_cols) {
        // Eq. 9 balances per-partition sparse re-walks against staged-load
        // hiding, so async mode trusts it unchanged: a single partition
        // (operand fits the window) degenerates to one staged prefetch whose
        // gathers still run at DRAM cost.
        OMEGA_ASSIGN_OR_RETURN(const size_t n, stream::OptimalPartitions(cfg));
        asl_parts = {cfg.dense_rows, cfg.dense_cols, n};
      }
      cfg.fixed_partitions = asl_parts.partitions;
    }
    cfg.max_load_retries = options.fault_recovery.asl_max_retries;
    cfg.retry_backoff_seconds = options.fault_recovery.asl_backoff_seconds;
    cfg.allow_degraded = options.fault_recovery.allow_degraded;
    cfg.fault_site = &asl_fault_site;
    cfg.async_staging = async_staging;
    cfg.fetch_slowdown = stage_slowdown;
    stream::AslStreamer streamer(ctx, cfg, interleave_pm, interleave_dram,
                                 stage_frames.get());
    auto run = streamer.Run([&](size_t, size_t col_begin, size_t col_end) {
      const numa::NadpResult r =
          numa::NadpExecute(plan, m, in, out, ctx, col_begin, col_end);
      wofp_build_seconds += r.wofp_build_seconds;
      pim_transfer_seconds += r.pim_transfer_seconds;
      pim_compute_seconds += r.pim_compute_seconds;
      pim_reduce_seconds += r.pim_reduce_seconds;
      pim_degraded_blocks += r.pim_degraded_blocks;
      return r.phase_seconds;
    });
    if (!run.ok()) return run.status();
    if (run.value().rebuild_recommended) {
      if (user_fixed > 0) {
        // The partition count is pinned: honor it across the degraded pass
        // and log the override instead of silently re-solving Eq. 9.
        OMEGA_LOG(Warning)
            << "ASL: a partition degraded but the partition count is pinned "
               "at "
            << user_fixed << " (--asl-partitions); keeping the fixed count "
            << "instead of re-solving Eq. 9";
        exec::PhaseRecord degrade;
        degrade.name = "fault.asl.degrade (fixed-partitions pinned)";
        degrade.aux = true;
        recorder.Record(std::move(degrade));
      } else {
        // A partition degraded to semi-external streaming: the PM home is
        // unreliable, so drop the cached Eq. 9 solve and re-partition on
        // the next SpMM.
        asl_parts = {};
        exec::PhaseRecord degrade;
        degrade.name = "fault.asl.degrade";
        degrade.aux = true;
        recorder.Record(std::move(degrade));
      }
    }
    double seconds = fault_overhead;
    if (async_staging) {
      // Partition k+1's fetch ran behind partition k's compute; the phase
      // pays only the exposed remainder and reports what was hidden.
      seconds += run.value().overlapped_seconds;
      span.AddFetchSeconds(run.value().fetch_seconds,
                           run.value().hidden_seconds);
    } else {
      // Without ASL the same partition loads happen synchronously: nothing
      // is hidden behind compute.
      seconds += options.features.use_asl ? run.value().total_seconds
                                          : run.value().serial_seconds;
    }
    span.AddSimSeconds(seconds);
    account_stage_seconds(seconds);
    return seconds;
  };

  embed::EmbeddingResult emb;
  if (resume_stage == kStageEmbedDone) {
    // The pre-crash run finished embedding: restore the final vectors and
    // their permutation; only the dense stages below are recharged.
    for (auto& [tag, m] : resume_snap.matrices) {
      if (tag == "vectors") emb.vectors = std::move(m);
    }
    if (emb.vectors.rows() == 0) {
      return Status::IOError("checkpoint snapshot missing the embedding");
    }
    if (resume_snap.words.size() < 4 ||
        resume_snap.words.size() < 4 + resume_snap.words[3]) {
      return Status::IOError("checkpoint snapshot missing the permutation");
    }
    const uint64_t perm_size = resume_snap.words[3];
    emb.perm.reserve(perm_size);
    for (uint64_t i = 0; i < perm_size; ++i) {
      emb.perm.push_back(
          static_cast<graph::NodeId>(resume_snap.words[4 + i]));
    }
  } else {
    OMEGA_ASSIGN_OR_RETURN(emb, embed::ProneEmbed(adjacency, prone, executor));
    if (ckpt_store != nullptr) {
      std::vector<uint64_t> perm_words;
      perm_words.reserve(emb.perm.size() + 1);
      perm_words.push_back(emb.perm.size());
      for (graph::NodeId v : emb.perm) perm_words.push_back(v);
      OMEGA_RETURN_NOT_OK(checkpoint("embed", kStageEmbedDone, 0,
                                     {{"vectors", emb.vectors}},
                                     std::move(perm_words)));
    }
  }

  // WoFP warm-up runs concurrently inside each SpMM's workers; its straggler
  // seconds are already contained in the SpMM phases, so it is an aux record.
  if (wofp_build_seconds > 0.0) {
    exec::PhaseRecord warmup;
    warmup.name = "wofp_build";
    warmup.sim_seconds = wofp_build_seconds;
    warmup.aux = true;
    recorder.Record(std::move(warmup));
  }

  // PIM sub-phases, likewise contained in the SpMM phases. A degraded-block
  // count piggybacks on pim.reduce's name so fault runs stay inspectable.
  if (pim_transfer_seconds + pim_compute_seconds + pim_reduce_seconds > 0.0) {
    const std::pair<const char*, double> pim_phases[] = {
        {"pim.transfer", pim_transfer_seconds},
        {"pim.compute", pim_compute_seconds},
        {"pim.reduce", pim_reduce_seconds},
    };
    for (const auto& [name, seconds] : pim_phases) {
      exec::PhaseRecord rec;
      rec.name = name;
      rec.sim_seconds = seconds;
      rec.aux = true;
      if (rec.name == "pim.reduce" && pim_degraded_blocks > 0) {
        rec.name += " (degraded=" + std::to_string(pim_degraded_blocks) + ")";
      }
      recorder.Record(std::move(rec));
    }
  }

  // Plan-cache accounting: the counters were previously kept by the cache
  // but never reported; one aux record makes hit/miss/invalidation behavior
  // visible in the trace JSON and the bench phase tables.
  {
    exec::PhaseRecord rec;
    rec.name = "plan.cache";
    rec.aux = true;
    rec.plan_hits = plan_cache.hits();
    rec.plan_misses = plan_cache.misses();
    rec.plan_invalidations = plan_cache.invalidations();
    recorder.Record(std::move(rec));
  }

  // Dense-algebra stages run where the dense working set lives: DRAM for the
  // ideal, PM for the worst baseline, and the staged DRAM window (plus the
  // PM streams feeding it) for heterogeneous OMeGa.
  const DenseStageModel dense_model =
      EstimateDenseStage(g.num_nodes(), options.prone);
  double dense_tsvd = 0.0;
  double dense_cheb = 0.0;
  {
    exec::PhaseSpan tsvd_span(ctx, "factorize.dense");
    if (options.system == SystemKind::kOmegaPm) {
      dense_tsvd = DenseStageSeconds(ctx, interleave_pm, dense_model.tsvd_bytes,
                                     dense_model.tsvd_flops);
    } else if (options.system == SystemKind::kOmegaDram) {
      dense_tsvd = DenseStageSeconds(ctx, interleave_dram, dense_model.tsvd_bytes,
                                     dense_model.tsvd_flops);
    } else {
      // kOmega: ops on the DRAM window + one PM stream in/out of each block.
      const uint64_t l = options.prone.dim + options.prone.oversample;
      const uint64_t stage_tsvd =
          2 * g.num_nodes() * l * sizeof(float) *
          (2 + 2 * static_cast<uint64_t>(options.prone.power_iterations));
      const double window = DenseStageSeconds(
          ctx, interleave_dram, dense_model.tsvd_bytes, dense_model.tsvd_flops);
      const double stage = DenseStageSeconds(ctx, interleave_pm, stage_tsvd, 0);
      if (async_staging) {
        // Stage the next block PM -> DRAM behind the current block's algebra.
        dense_tsvd = memsim::SimClock::OverlappedSeconds(window, stage,
                                                         stage_slowdown);
        tsvd_span.AddFetchSeconds(stage, window + stage - dense_tsvd);
      } else {
        dense_tsvd = window + stage;
      }
    }
    tsvd_span.AddSimSeconds(dense_tsvd);
  }
  {
    exec::PhaseSpan cheb_span(ctx, "propagate.dense");
    if (options.system == SystemKind::kOmegaPm) {
      dense_cheb = DenseStageSeconds(ctx, interleave_pm, dense_model.cheb_bytes,
                                     dense_model.cheb_flops);
    } else if (options.system == SystemKind::kOmegaDram) {
      dense_cheb = DenseStageSeconds(ctx, interleave_dram, dense_model.cheb_bytes,
                                     dense_model.cheb_flops);
    } else {
      const uint64_t stage_cheb =
          2 * g.num_nodes() * options.prone.dim * sizeof(float) *
          static_cast<uint64_t>(options.prone.chebyshev_order);
      const double window = DenseStageSeconds(
          ctx, interleave_dram, dense_model.cheb_bytes, dense_model.cheb_flops);
      const double stage = DenseStageSeconds(ctx, interleave_pm, stage_cheb, 0);
      if (async_staging) {
        dense_cheb = memsim::SimClock::OverlappedSeconds(window, stage,
                                                         stage_slowdown);
        cheb_span.AddFetchSeconds(stage, window + stage - dense_cheb);
      } else {
        dense_cheb = window + stage;
      }
    }
    cheb_span.AddSimSeconds(dense_cheb);
  }

  // factorize_spmm_seconds == restored + emb.factorize_seconds (same addition
  // order as ProneEmbed's accumulator), so with durability off this is the
  // seed's emb.factorize_seconds + dense_tsvd bit-for-bit.
  report.factorize_seconds = factorize_spmm_seconds + dense_tsvd;
  report.propagate_seconds = propagate_spmm_seconds + dense_cheb;
  report.embed_seconds = report.factorize_seconds + report.propagate_seconds;
  report.ckpt_seconds = ckpt_seconds;
  report.total_seconds = report.read_seconds + report.embed_seconds +
                         report.ckpt_seconds + report.recovery_seconds;
  report.remote_fraction = ms->Traffic().RemoteFraction();
  report.faults_enabled = ms->faults_enabled();
  report.faults = ms->Faults();
  report.embedding = emb.ToOriginalOrder();
  report.phases = recorder.TakeRecords();

  if (options.evaluate_quality) {
    OMEGA_ASSIGN_OR_RETURN(double auc,
                           embed::LinkPredictionAuc(g, report.embedding,
                                                    options.quality_samples,
                                                    options.prone.seed));
    report.link_auc = auc;
  }
  return report;
}

}  // namespace

Result<RunReport> RunEmbedding(const graph::Graph& g, const std::string& dataset,
                               const EngineOptions& options,
                               const exec::Context& ctx) {
  OMEGA_CHECK(ctx.pool() == nullptr ||
              ctx.pool()->size() >= static_cast<size_t>(options.num_threads))
      << "thread pool too small for engine options";
  auto run = [&]() -> Result<RunReport> {
    switch (options.system) {
      case SystemKind::kOmega:
      case SystemKind::kOmegaDram:
      case SystemKind::kOmegaPm:
        return RunOmegaFamily(g, dataset, options, ctx);
      case SystemKind::kProneDram:
      case SystemKind::kProneHm:
        return RunProneFamily(g, dataset, options, ctx);
      case SystemKind::kGinex:
      case SystemKind::kMariusGnn:
        return RunOutOfCoreFamily(g, dataset, options, ctx);
      case SystemKind::kDistGer:
      case SystemKind::kDistDgl:
        return RunDistributedFamily(g, dataset, options, ctx);
    }
    return Status::InvalidArgument("unknown system kind");
  };
  Result<RunReport> result = run();
  // Forward the run's phases to any recorder attached by the caller.
  if (result.ok() && ctx.trace() != nullptr) {
    for (const exec::PhaseRecord& r : result.value().phases) {
      ctx.trace()->Record(r);
    }
  }
  return result;
}

}  // namespace omega::engine
