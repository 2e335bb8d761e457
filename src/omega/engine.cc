#include "omega/engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "buffer/buffer_manager.h"
#include "common/logging.h"
#include "embed/quality.h"
#include "memsim/sim_clock.h"
#include "numa/nadp.h"
#include "omega/baselines.h"
#include "omega/checkpointer.h"
#include "omega/distributed_sim.h"
#include "stream/asl.h"

namespace omega::engine {

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
  // Staged through a DRAM window, each QR pass and each Chebyshev term moves
  // its block PM -> DRAM and back once.
  model.tsvd_stage_bytes = 2 * n * l * sizeof(float) * qr_passes;
  model.cheb_stage_bytes = 2 * n * d * sizeof(float) * order;
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

namespace internal {

ProneRun::ProneRun(const std::string& dataset, const EngineOptions& options,
                   const exec::Context& outer)
    : options_(options),
      ctx_(outer.WithThreads(options.num_threads).WithTrace(&recorder_)),
      prone_(options.prone) {
  ctx_.ms()->ResetTraffic();
  ctx_.ms()->ResetFaults();
  report_.system = SystemName(options.system);
  report_.dataset = dataset;
  prone_.pool = ctx_.pool();  // host-side dense parallelism; sim-invariant
  prone_.stage_notifier = [this](const char* stage) {
    stage_ = stage;
    spmm_index_ = 0;
  };
}

ProneRun::~ProneRun() {
  for (const auto& [where, bytes] : reserved_) ctx_.ms()->Release(where, bytes);
}

Status ProneRun::Reserve(memsim::Placement p, size_t bytes) {
  OMEGA_RETURN_NOT_OK(ctx_.ms()->Reserve(p, bytes));
  reserved_.emplace_back(p, bytes);
  return Status::OK();
}

void ProneRun::Read(const graph::Graph& g, GraphFormat format) {
  exec::PhaseSpan span(ctx_, "read");
  report_.read_seconds =
      SimulatedGraphReadSeconds(ctx_, format, g.num_arcs(), g.num_nodes());
  span.AddSimSeconds(report_.read_seconds);
}

double ProneRun::DensePhase(const char* name, const DenseHome& home,
                            uint64_t bytes, uint64_t flops, uint64_t stage_bytes) {
  exec::PhaseSpan span(ctx_, name);
  double seconds = DenseStageSeconds(ctx_, home.placement, bytes, flops,
                                     home.flops_rate_multiplier);
  if (home.staged) {
    const double window = seconds;
    const double stage = DenseStageSeconds(
        ctx_, {memsim::Tier::kPm, memsim::Placement::kInterleaved}, stage_bytes, 0);
    if (home.overlap_slowdown > 0.0) {
      // Stage the next block PM -> DRAM behind the current block's algebra.
      seconds = memsim::SimClock::OverlappedSeconds(window, stage,
                                                    home.overlap_slowdown);
      span.AddFetchSeconds(stage, window + stage - seconds);
    } else {
      seconds = window + stage;
    }
  }
  span.AddSimSeconds(seconds);
  return seconds;
}

Result<RunReport> ProneRun::Finish(const graph::Graph& g,
                                   const embed::EmbeddingResult& emb,
                                   double factorize_spmm, double propagate_spmm,
                                   const DenseHome& home) {
  const DenseStageModel model = EstimateDenseStage(g.num_nodes(), options_.prone);
  const double tsvd = DensePhase("factorize.dense", home, model.tsvd_bytes,
                                 model.tsvd_flops, model.tsvd_stage_bytes);
  const double cheb = DensePhase("propagate.dense", home, model.cheb_bytes,
                                 model.cheb_flops, model.cheb_stage_bytes);
  RunReport& r = report_;
  r.factorize_seconds = factorize_spmm + tsvd;
  r.propagate_seconds = propagate_spmm + cheb;
  r.embed_seconds = r.factorize_seconds + r.propagate_seconds;
  r.remote_fraction = ctx_.ms()->Traffic().RemoteFraction();
  r.embedding = emb.ToOriginalOrder(ctx_.pool());
  if (options_.evaluate_quality) {
    OMEGA_ASSIGN_OR_RETURN(r.link_auc,
                           embed::LinkPredictionAuc(g, r.embedding, options_.quality_samples,
                                                    options_.prone.seed));
  }
  return TakeReport();
}

RunReport ProneRun::TakeReport() {
  RunReport& r = report_;
  r.total_seconds = r.read_seconds + r.embed_seconds + r.ckpt_seconds + r.recovery_seconds;
  r.faults_enabled = ctx_.ms()->faults_enabled();
  r.faults = ctx_.ms()->Faults();
  r.phases = recorder_.TakeRecords();
  return std::move(r);
}

}  // namespace internal

namespace {

// The charged SpMM executor of the OMeGa family: NaDP/EaTA/WoFP kernels
// behind a plan cache, the WoFP fault probe, and the ASL partition stream.
//
// Plan/execute split: ProNE issues dozens of SpMMs against only two sparse
// structures (the stage-1 target and the stage-2 propagation matrix), so the
// inspector work — EaTA allocation, in-degree scan, WoFP stores, and the ASL
// Eq. 9 solve — is cached across calls. Plan reuse is host-side only; every
// simulated charge is replayed per call (two-clock contract).
class OmegaSpmm {
 public:
  OmegaSpmm(const OmegaPlacement& placement, const EngineOptions& options,
            const exec::Context& ctx)
      : placement_(placement),
        features_(options.features),
        recovery_(options.fault_recovery),
        ctx_(ctx),
        nadp_(placement.nadp),
        // With async staging, staged partitions live in a shared
        // BufferManager pool (LRU over the DRAM window) and each fetch
        // contends with compute for bandwidth.
        stage_frames_(placement.async_staging
                          ? std::make_unique<buffer::BufferManager>(
                                ctx.ms(), buffer::BufferManager::Options{
                                              placement.asl_budget,
                                              buffer::EvictionPolicy::kLru})
                          : nullptr) {}

  /// One SpMM by m over `dense` (either form), traced as the phase `name`;
  /// returns its simulated seconds. The partitions' compute passes write
  /// every element of a column-major `out`, so its storage is kept when the
  /// shape matches and is never zero-filled.
  Result<double> Run(const std::string& name, const graph::CsdbMatrix& m,
                     const sparse::SpmmOperands& dense) {
    exec::PhaseSpan span(ctx_, name);
    dense.SizeOutput(m.num_rows());
    double seconds = ProbeWofp();
    const numa::NadpPlan& plan = Plan(m, dense.cols());
    span.AddPlanCounters(1, 0, 0);
    if (placement_.staged()) {
      OMEGA_ASSIGN_OR_RETURN(const double staged, Staged(plan, m, dense, &span));
      seconds += staged;
    } else {
      seconds += Accumulate(
          numa::NadpExecute(plan, m, dense, ctx_, 0, SIZE_MAX, &packed_));
    }
    span.AddSimSeconds(seconds);
    return seconds;
  }

  /// The run's aux records, all contained in the SpMM phases: the WoFP
  /// warm-up, the PIM sub-phases, and the plan-cache counters.
  void RecordAux() const {
    if (totals_.wofp_build_seconds > 0.0) Record("wofp_build", totals_.wofp_build_seconds);
    if (totals_.pim_transfer_seconds + totals_.pim_compute_seconds +
            totals_.pim_reduce_seconds > 0.0) {
      Record("pim.transfer", totals_.pim_transfer_seconds);
      Record("pim.compute", totals_.pim_compute_seconds);
      // A degraded-block count piggybacks on pim.reduce's name so fault runs
      // stay inspectable.
      const uint64_t degraded = totals_.pim_degraded_blocks;
      Record(degraded > 0 ? "pim.reduce (degraded=" + std::to_string(degraded) + ")"
                          : "pim.reduce",
             totals_.pim_reduce_seconds);
    }
    exec::PhaseRecord rec;
    rec.name = "plan.cache";
    rec.aux = true;
    rec.plan_hits = plan_cache_.hits();
    rec.plan_misses = plan_cache_.misses();
    rec.plan_invalidations = plan_cache_.invalidations();
    ctx_.trace()->Record(std::move(rec));
  }

 private:
  void Record(std::string name, double sim_seconds = 0.0) const {
    exec::PhaseRecord rec;
    rec.name = std::move(name);
    rec.sim_seconds = sim_seconds;
    rec.aux = true;
    ctx_.trace()->Record(std::move(rec));
  }

  // Under fault injection, probes the WoFP cache tier before relying on it.
  // A tier that keeps faulting costs more through the gather-intercept path
  // than the PM reads it saves, so the cache is dropped for the rest of the
  // run: flipping use_wofp changes the plan key, so the next SpMM builds a
  // cache-less plan (PM-resident gathers). Returns the probe's seconds.
  double ProbeWofp() {
    if (!ctx_.ms()->faults_enabled() || !nadp_.use_wofp) return 0.0;
    const prefetch::CacheProbeResult probe = prefetch::ProbeCacheTier(
        ctx_.ms(), nadp_.wofp.cache_placement, &wofp_probe_site_);
    if (!probe.healthy) {
      nadp_.use_wofp = false;
      Record("fault.wofp.drop");
    }
    return probe.seconds;
  }

  const numa::NadpPlan& Plan(const graph::CsdbMatrix& m, size_t dense_cols) {
    numa::NadpOptions key = nadp_;
    // Async staging gathers the staged operand at DRAM cost: its plan (WoFP
    // stores, charge metadata) is keyed on the DRAM dense tier.
    if (placement_.async_staging) key.dense_tier = memsim::Tier::kDram;
    // The PIM ship cost is width-invariant while every other cost scales
    // with the operand width, so the plan is priced per dense width.
    if (key.pim.banks > 0) key.pim.dense_cols = dense_cols;
    if (!plan_cache_.Contains(m, key)) {
      // Aux: plan building charges nothing; the span captures its wall time.
      exec::PhaseSpan plan_span(ctx_, "plan.build", /*aux=*/true);
      plan_cache_.Get(m, key, ctx_);
      plan_span.AddPlanCounters(0, 1, 0);
    }
    return plan_cache_.Get(m, key, ctx_);
  }

  // Folds one execute's sub-phase seconds into the run totals; returns its
  // phase seconds.
  double Accumulate(const numa::NadpResult& r) {
    totals_.wofp_build_seconds += r.wofp_build_seconds;
    totals_.pim_transfer_seconds += r.pim_transfer_seconds;
    totals_.pim_compute_seconds += r.pim_compute_seconds;
    totals_.pim_reduce_seconds += r.pim_reduce_seconds;
    totals_.pim_degraded_blocks += r.pim_degraded_blocks;
    return r.phase_seconds;
  }

  // ASL: streams the dense operand's column partitions PM -> DRAM and
  // overlaps each load with the previous partition's SpMM (§III-E).
  Result<double> Staged(const numa::NadpPlan& plan, const graph::CsdbMatrix& m,
                        const sparse::SpmmOperands& dense, exec::PhaseSpan* span) {
    stream::AslConfig cfg;
    cfg.dense_rows = m.num_rows();
    cfg.dense_cols = dense.cols();
    cfg.element_bytes = sizeof(float);
    cfg.sparse_bytes = placement_.sparse_bytes;
    cfg.dram_budget = placement_.asl_budget + placement_.sparse_bytes +
                      2 * cfg.dense_rows * cfg.dense_cols * sizeof(float);
    OMEGA_ASSIGN_OR_RETURN(cfg.fixed_partitions, Partitions(cfg));
    cfg.allow_degraded = recovery_.allow_degraded;
    cfg.fault_site = &asl_fault_site_;
    cfg.async_staging = placement_.async_staging;
    cfg.fetch_slowdown = placement_.fetch_slowdown;
    stream::AslStreamer streamer(
        ctx_, cfg, {memsim::Tier::kPm, memsim::Placement::kInterleaved},
        {memsim::Tier::kDram, memsim::Placement::kInterleaved}, stage_frames_.get());
    OMEGA_ASSIGN_OR_RETURN(
        const stream::AslRunResult run,
        streamer.Run([&](size_t, size_t col_begin, size_t col_end) {
          return Accumulate(numa::NadpExecute(plan, m, dense, ctx_, col_begin,
                                              col_end, &packed_));
        }));
    if (run.rebuild_recommended) Degraded();
    if (placement_.async_staging) {
      // Partition k+1's fetch ran behind partition k's compute; the phase
      // pays only the exposed remainder and reports what was hidden.
      span->AddFetchSeconds(run.fetch_seconds, run.hidden_seconds);
      return run.overlapped_seconds;
    }
    // Without ASL the same partition loads happen synchronously: nothing is
    // hidden behind compute.
    return features_.use_asl ? run.total_seconds : run.serial_seconds;
  }

  // Eq. 9 depends only on the dense shape (the budget terms are run
  // constants), so the solve is cached alongside the NaDP plan. A pinned
  // partition count (--asl-partitions) bypasses both solve and cache. Eq. 9
  // balances per-partition sparse re-walks against staged-load hiding, so
  // async mode trusts it unchanged: a single partition degenerates to one
  // staged prefetch whose gathers still run at DRAM cost.
  Result<size_t> Partitions(const stream::AslConfig& cfg) {
    const size_t pinned = features_.asl_fixed_partitions;
    if (pinned > 0) return std::min(pinned, std::max<size_t>(1, cfg.dense_cols));
    if (asl_parts_.partitions == 0 || asl_parts_.dense_rows != cfg.dense_rows ||
        asl_parts_.dense_cols != cfg.dense_cols) {
      OMEGA_ASSIGN_OR_RETURN(const size_t n, stream::OptimalPartitions(cfg));
      asl_parts_ = {cfg.dense_rows, cfg.dense_cols, n};
    }
    return asl_parts_.partitions;
  }

  // A partition degraded to semi-external streaming: the PM home is
  // unreliable, so the cached Eq. 9 solve is dropped and the next SpMM
  // re-partitions — unless the count is pinned, which is honored across the
  // degraded pass with the override logged.
  void Degraded() {
    if (features_.asl_fixed_partitions > 0) {
      OMEGA_LOG(Warning)
          << "ASL: a partition degraded but the partition count is pinned at "
          << features_.asl_fixed_partitions << " (--asl-partitions); keeping "
          << "the fixed count instead of re-solving Eq. 9";
      Record("fault.asl.degrade (fixed-partitions pinned)");
    } else {
      asl_parts_ = {};
      Record("fault.asl.degrade");
    }
  }

  const OmegaPlacement& placement_;
  const OmegaFeatures& features_;
  const FaultRecoveryOptions& recovery_;
  const exec::Context ctx_;
  numa::NadpOptions nadp_;  ///< use_wofp flips off when the cache is dropped
  numa::NadpPlanCache plan_cache_;
  /// Every column-major SpMM of the run (the tSVD's) packs its dense operand
  /// here: mapped once, at the widest width, and unmapped with the executor.
  /// The Chebyshev terms arrive packed and use none of it.
  sparse::kernels::PackedOperand packed_;
  std::unique_ptr<buffer::BufferManager> stage_frames_;
  numa::NadpResult totals_;  ///< wofp_build / pim.* accumulators
  struct {
    size_t dense_rows = 0;
    size_t dense_cols = 0;
    size_t partitions = 0;
  } asl_parts_;
  // Fault-site cursors persist across SpMM calls so repeated passes draw
  // fresh faults.
  uint64_t wofp_probe_site_ = 0;
  uint64_t asl_fault_site_ = 0;
};

// OMeGa / OMeGa-DRAM / OMeGa-PM: one pipeline over DecidePlacement's
// placement, with durability from a Checkpointer and every SpMM through
// OmegaSpmm.
Result<RunReport> RunOmegaFamily(const graph::Graph& g, const std::string& dataset,
                                 const EngineOptions& options,
                                 const exec::Context& outer_ctx) {
  internal::ProneRun run(dataset, options, outer_ctx);
  const exec::Context& ctx = run.ctx();
  RunReport& report = run.report();
  Checkpointer ckpt(options.durability, ctx, g.num_nodes(), options.prone);
  OMEGA_RETURN_NOT_OK(ckpt.Restore(&report.recovery_seconds));

  const graph::CsdbMatrix adjacency = graph::CsdbMatrix::FromGraph(g, ctx.pool());
  if (ckpt.resume_stage() >= Checkpointer::kReadDone) {
    // Resumed past the read: the pre-crash run already paid it.
    report.read_seconds = ckpt.read_seconds();
  } else {
    run.Read(g, GraphFormat::kCsdb);
    OMEGA_RETURN_NOT_OK(ckpt.AfterRead(report.read_seconds));
  }

  const OmegaPlacement placement = DecidePlacement(
      options, *ctx.ms(), g.num_nodes(), g.num_arcs(), ctx.threads());
  for (const auto& [where, bytes] : placement.reservations) {
    OMEGA_RETURN_NOT_OK(run.Reserve(where, bytes));
  }
  OmegaSpmm spmm(placement, options, ctx);
  ckpt.Wire(&run.prone());
  embed::EmbeddingResult emb;
  if (ckpt.resume_stage() == Checkpointer::kEmbedDone) {
    // The pre-crash run finished embedding: only the dense stages below are
    // recharged.
    emb = ckpt.TakeEmbedding();
  } else {
    const embed::SpmmExecutor executor =
        [&](const graph::CsdbMatrix& m,
            const sparse::SpmmOperands& dense) -> Result<double> {
      const bool propagate = run.propagating();
      OMEGA_ASSIGN_OR_RETURN(const double seconds,
                             spmm.Run(run.NextSpmmName(), m, dense));
      ckpt.AddSpmmSeconds(propagate, seconds);
      return seconds;
    };
    OMEGA_ASSIGN_OR_RETURN(emb, embed::ProneEmbed(adjacency, run.prone(), executor));
    OMEGA_RETURN_NOT_OK(ckpt.AfterEmbed(emb));
  }
  spmm.RecordAux();
  report.ckpt_seconds = ckpt.ckpt_seconds();
  return run.Finish(g, emb, ckpt.factorize_seconds(), ckpt.propagate_seconds(),
                    placement.dense);
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
