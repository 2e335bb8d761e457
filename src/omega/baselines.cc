#include "omega/baselines.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "buffer/buffer_manager.h"
#include "sched/entropy.h"
#include "sparse/csdb_ops.h"

namespace omega::engine {

namespace {

using memsim::Placement;
using memsim::Tier;

}  // namespace

namespace internal {

Result<const graph::CsrMatrix*> CsrCache::Get(const graph::CsdbMatrix& m) {
  const Fingerprint fp = FingerprintOf(m);
  if (!valid_ || !(fp == key_)) {
    valid_ = false;
    OMEGA_ASSIGN_OR_RETURN(cached_, sparse::ToCsr(m));
    key_ = fp;
    valid_ = true;
  }
  return &cached_;
}

CsrCache::Fingerprint CsrCache::FingerprintOf(const graph::CsdbMatrix& m) {
  Fingerprint fp;
  fp.data = m.nnz_list().data();
  fp.nnz = m.nnz();
  if (fp.nnz > 0) {
    fp.first = m.nnz_list().front();
    fp.mid = m.nnz_list()[fp.nnz / 2];
  }
  return fp;
}

}  // namespace internal

sparse::ParallelSpmmResult StaticCsrSpmm(const graph::CsrMatrix& a,
                                         const sparse::SpmmOperands& dense,
                                         const sparse::SpmmPlacements& placements,
                                         const exec::Context& ctx,
                                         const sparse::CsrSpmmPlan* plan,
                                         sparse::kernels::PackedOperand* packed) {
  return sparse::ParallelCsrSpmm(
      a, dense, ctx, sparse::CsrSpmmPlan::Split::kEqualRows, plan,
      [&](const sparse::CsrPlanPart& part, memsim::WorkerCtx* wctx) {
        return sparse::ChargeWorkloadCsr(a, dense.cols(), part.row_begin,
                                         part.row_end, part.nnz, part.entropy,
                                         placements, ctx.ms(), wctx);
      },
      /*fault_site=*/0, packed);
}

namespace {

// One SpMM of a CSR family on `csr` with a `plan` that matches it, packing
// a column-major operand into `packed`; returns its simulated seconds.
using CsrFamilySpmm = std::function<Result<double>(
    const graph::CsrMatrix& csr, const sparse::CsrSpmmPlan& plan,
    const sparse::SpmmOperands& dense, sparse::kernels::PackedOperand* packed)>;

// The SpMM executor of both CSR families: one span per SpMM, the matrix's
// CSR form from a CsrCache, and its `split` plan rebuilt under an aux
// "plan.build" span whenever the structure changes. The run's SpMMs share
// one packed operand and keep a column-major `out`'s storage when its shape
// matches (the compute writes every element). `spmm` is all that differs
// between the families.
embed::SpmmExecutor CsrFamilyExecutor(internal::ProneRun* run,
                                      sparse::CsrSpmmPlan::Split split,
                                      CsrFamilySpmm spmm) {
  struct Cached {
    internal::CsrCache csr;
    sparse::CsrSpmmPlan plan;  // reused across the stage's SpMM calls
    sparse::kernels::PackedOperand packed;  // unmapped with the executor
  };
  auto cached = std::make_shared<Cached>();
  return [run, split, spmm = std::move(spmm), cached](
             const graph::CsdbMatrix& m,
             const sparse::SpmmOperands& dense) -> Result<double> {
    const exec::Context& ctx = run->ctx();
    exec::PhaseSpan span(ctx, run->NextSpmmName());
    dense.SizeOutput(m.num_rows());
    OMEGA_ASSIGN_OR_RETURN(const graph::CsrMatrix* csr, cached->csr.Get(m));
    if (!cached->plan.Matches(*csr, ctx.threads(), split)) {
      exec::PhaseSpan plan_span(ctx, "plan.build", /*aux=*/true);
      cached->plan = sparse::CsrSpmmPlan::Build(*csr, ctx.threads(), split);
    }
    OMEGA_ASSIGN_OR_RETURN(const double seconds,
                           spmm(*csr, cached->plan, dense, &cached->packed));
    span.AddSimSeconds(seconds);
    return seconds;
  };
}

}  // namespace

Result<RunReport> RunProneFamily(const graph::Graph& g, const std::string& dataset,
                                 const EngineOptions& options,
                                 const exec::Context& outer_ctx) {
  internal::ProneRun run(dataset, options, outer_ctx);
  const exec::Context& ctx = run.ctx();
  memsim::MemorySystem* ms = ctx.ms();
  run.Read(g, GraphFormat::kCsr);

  // Adjacency plus one derived matrix live at peak (as in the OMeGa family),
  // in CSR form with its O(|V|) row pointers.
  const size_t sparse_bytes =
      2 * (SparseBytes(g.num_arcs()) + (g.num_nodes() + 1) * sizeof(uint64_t));
  const size_t dense_bytes = DenseWorkingSetBytes(g.num_nodes(), options.prone);
  const Placement interleave_dram{Tier::kDram, Placement::kInterleaved};
  const Placement interleave_pm{Tier::kPm, Placement::kInterleaved};
  // ProNE-HM keeps its data on PM and stages compute through DRAM with
  // synchronous (unoverlapped) transfers — the naive heterogeneous-memory
  // port; its CSR row_ptr is O(|V|), so it lives on PM too.
  const bool hm = options.system == SystemKind::kProneHm;
  const Placement home = hm ? interleave_pm : interleave_dram;
  OMEGA_RETURN_NOT_OK(run.Reserve(home, sparse_bytes + dense_bytes));
  sparse::SpmmPlacements pl;
  pl.index = pl.sparse = pl.dense = home;
  pl.result = interleave_dram;

  const graph::CsdbMatrix adjacency = graph::CsdbMatrix::FromGraph(g, ctx.pool());
  uint64_t staging_site = 0;  // fault-site cursor across the staging reads

  const embed::SpmmExecutor executor = CsrFamilyExecutor(
      &run, sparse::CsrSpmmPlan::Split::kEqualRows,
      [&](const graph::CsrMatrix& csr, const sparse::CsrSpmmPlan& plan,
          const sparse::SpmmOperands& dense,
          sparse::kernels::PackedOperand* packed) -> Result<double> {
        double seconds =
            StaticCsrSpmm(csr, dense, pl, ctx, &plan, packed).phase_seconds;
        if (!hm) return seconds;
        // Synchronous dense staging PM -> DRAM before and DRAM -> PM after
        // each SpMM, not overlapped with compute (no ASL): the operand in,
        // the result out.
        const size_t out_bytes = size_t{csr.num_rows()} * dense.cols() * sizeof(float);
        const size_t stage_bytes =
            size_t{csr.num_cols()} * dense.cols() * sizeof(float) + out_bytes;
        if (!ms->faults_enabled()) {
          seconds += ms->AccessSeconds(interleave_pm, 0, memsim::MemOp::kRead,
                                       memsim::Pattern::kSequential, stage_bytes, 1, 1);
        } else {
          // The naive HM port has no degradation path: a staging read that
          // keeps faulting (two immediate retries) surfaces as the run's
          // failure (contrast with the OMeGa family's retry-then-degrade
          // recovery).
          constexpr memsim::FaultRetryPolicy kStagingRetry{2, 0.0};
          memsim::SimClock clock;  // wasted attempts add onto the SpMM
          clock.Advance(seconds);
          const memsim::MemorySystem::RetryOutcome read =
              ms->RetryAccessSeconds(interleave_pm, 0, memsim::MemOp::kRead,
                                     memsim::Pattern::kSequential, stage_bytes,
                                     1, 1, memsim::kFaultStreamProneStaging,
                                     staging_site++, kStagingRetry, &clock);
          if (!read.delivered()) {
            ms->faults().CountSurfaced();
            return read.Error("ProNE-HM: dense staging read");
          }
          clock.Advance(read.seconds);
          seconds = clock.seconds();
        }
        return seconds + ms->AccessSeconds(interleave_pm, 0, memsim::MemOp::kWrite,
                                           memsim::Pattern::kSequential,
                                           out_bytes, 1, 1);
      });

  OMEGA_ASSIGN_OR_RETURN(embed::EmbeddingResult emb,
                         embed::ProneEmbed(adjacency, run.prone(), executor));
  // ProNE runs its dense algebra in DRAM (ProNE-HM stages operands there; the
  // per-SpMM staging charge above covers the PM transfers).
  return run.Finish(g, emb, emb.factorize_seconds, emb.propagate_seconds,
                    DenseHome{});
}

namespace {

// I/O discipline of one out-of-core system.
struct OutOfCoreProfile {
  double cache_boost = 1.0;        ///< multiplier on the naive hit rate
  memsim::Pattern miss_pattern = memsim::Pattern::kRandom;
  double miss_scale = 1.0;         ///< fraction of misses actually paid
  /// Effective SSD bytes per missed gather: 4 KB pages are shared by the
  /// co-resident features a batched sampler pulls together, so the amortized
  /// cost is far below a full page.
  uint64_t miss_bytes = 256;
  double compute_rate_multiplier = 40.0;  ///< V100 vs one CPU core
  double sampling_overhead = 0.0;  ///< extra fraction of gather traffic
};

OutOfCoreProfile GinexProfile() {
  OutOfCoreProfile p;
  p.cache_boost = 1.3;  // provably-optimal in-memory caching
  p.miss_pattern = memsim::Pattern::kRandom;  // page reads, batched by sampler
  p.miss_scale = 1.0;
  p.miss_bytes = 256;
  p.sampling_overhead = 0.3;
  return p;
}

OutOfCoreProfile MariusProfile() {
  OutOfCoreProfile p;
  p.cache_boost = 1.2;
  p.miss_pattern = memsim::Pattern::kSequential;  // partition-ordered swaps
  p.miss_scale = 0.6;  // BETA ordering avoids revisiting partitions
  p.miss_bytes = 128;
  p.sampling_overhead = 0.1;
  return p;
}

}  // namespace

Result<RunReport> RunOutOfCoreFamily(const graph::Graph& g,
                                     const std::string& dataset,
                                     const EngineOptions& options,
                                     const exec::Context& outer_ctx) {
  internal::ProneRun run(dataset, options, outer_ctx);
  const exec::Context& ctx = run.ctx();
  memsim::MemorySystem* ms = ctx.ms();
  const bool ginex = options.system == SystemKind::kGinex;
  const OutOfCoreProfile profile = ginex ? GinexProfile() : MariusProfile();
  // Graph preprocessed into the system's on-SSD format.
  run.Read(g, GraphFormat::kCsr);

  const size_t dense_bytes = DenseWorkingSetBytes(g.num_nodes(), options.prone);
  const size_t dram_total =
      ms->CapacityBytes(Tier::kDram) * ms->topology().num_sockets();
  // Both systems keep a feature cache in a DRAM slice; the same fraction
  // budgets the frame pool below and the analytic hit model.
  constexpr double kFeatureCacheFraction = 0.75;
  const double naive_hit = std::min(
      1.0, static_cast<double>(dram_total) * kFeatureCacheFraction / dense_bytes);
  const double hit_rate = std::min(0.98, naive_hit * profile.cache_boost);

  // The in-DRAM feature cache is carved from the shared frame pool. Ginex's
  // provably-optimal cache never drops its resident set, so its frame is
  // pinned hot; Marius keeps eight partition buffers resident but unpinned,
  // the BETA rotation analogue of LRU recycling. Pin failures (a machine too
  // small to host the slice) are benign: the hit model above already scales
  // with the DRAM budget.
  const size_t cache_budget = static_cast<size_t>(
      static_cast<double>(dram_total) * kFeatureCacheFraction);
  buffer::BufferManager feature_cache(
      ms, buffer::BufferManager::Options{
              cache_budget, ginex ? buffer::EvictionPolicy::kHotPinned
                                  : buffer::EvictionPolicy::kLru});
  const size_t cached_bytes = std::min(dense_bytes, cache_budget);
  buffer::PinHandle ginex_hot;  // held for the whole run
  for (int i = 0; i < (ginex ? 1 : 8); ++i) {
    // Marius drops each handle immediately: resident but evictable.
    auto pin = feature_cache.Pin(
        feature_cache.UniqueKey(Tier::kDram, Placement::kInterleaved),
        ginex ? cached_bytes : cached_bytes / 8);
    if (ginex && pin.ok()) {
      ginex_hot = std::move(pin).value();
      (void)feature_cache.MarkHot(ginex_hot.key());
    }
  }

  const graph::CsdbMatrix adjacency = graph::CsdbMatrix::FromGraph(g, ctx.pool());
  const Placement ssd{Tier::kSsd, 0};
  const Placement dram{Tier::kDram, Placement::kInterleaved};

  // Prices one part's SpMM over `d` columns of `csr` with the system's I/O
  // discipline. The family reports phase seconds only, so no breakdown.
  const auto price = [&](const graph::CsrMatrix& csr, uint64_t d,
                         const sparse::CsrPlanPart& part, memsim::WorkerCtx* wctx) {
    const uint64_t rows = part.row_end - part.row_begin;
    // Sparse structure streams from SSD once per pass.
    ms->ChargeAccess(wctx, ssd, memsim::MemOp::kRead, memsim::Pattern::kSequential,
                     rows * 8 + part.nnz * 8, 1);
    // Feature gathers: hits in the DRAM cache, misses on SSD pages. The
    // sampling pipeline adds extra gather traffic.
    const double gathers =
        static_cast<double>(part.nnz) * d * (1.0 + profile.sampling_overhead);
    const uint64_t hits = static_cast<uint64_t>(gathers * hit_rate);
    const uint64_t misses =
        static_cast<uint64_t>((gathers - hits) * profile.miss_scale);
    const double z = sched::NormalizedEntropy(part.entropy, csr.num_cols());
    wctx->clock->Advance(sparse::GatherSeconds(ms, wctx->cpu_socket, dram, z, hits,
                                               wctx->active_threads));
    if (misses > 0) {
      // Miss pages retry a couple of times under fault injection; a range
      // that keeps failing degrades to unamortized full-page re-reads
      // (identical to the plain charge when faults are disabled).
      constexpr memsim::FaultRetryPolicy kMissRetry{2};
      const Status miss_read = ms->ChargeAccessWithRetry(
          wctx, ssd, memsim::MemOp::kRead, profile.miss_pattern,
          misses * profile.miss_bytes, misses, kMissRetry);
      if (!miss_read.ok()) {
        ms->faults().CountDegraded();
        ms->ChargeAccess(wctx, ssd, memsim::MemOp::kRead,
                         memsim::Pattern::kSequential, misses * 4096, misses);
      }
    }
    // GPU-class arithmetic.
    wctx->clock->Advance(ms->cost_model().ComputeSeconds(d * part.nnz * 2) /
                         profile.compute_rate_multiplier);
    // Result written back to host memory.
    ms->ChargeAccess(wctx, dram, memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                     rows * d * sizeof(float), 1);
    return sparse::SpmmCostBreakdown{};
  };

  // Both systems batch work by edges (sampled subgraphs / buffer partitions),
  // so partition by nnz rather than rows.
  const embed::SpmmExecutor executor = CsrFamilyExecutor(
      &run, sparse::CsrSpmmPlan::Split::kEqualNnz,
      [&](const graph::CsrMatrix& csr, const sparse::CsrSpmmPlan& plan,
          const sparse::SpmmOperands& dense,
          sparse::kernels::PackedOperand* packed) -> Result<double> {
        // A fresh fault epoch per execute, so the miss-read retry loop
        // doesn't replay one draw key.
        const uint64_t fault_site = ms->NextFaultEpoch();
        return sparse::ParallelCsrSpmm(
                   csr, dense, ctx, plan.split(), &plan,
                   [&](const sparse::CsrPlanPart& part, memsim::WorkerCtx* wctx) {
                     return price(csr, dense.cols(), part, wctx);
                   },
                   fault_site, packed)
            .phase_seconds;
      });

  OMEGA_ASSIGN_OR_RETURN(embed::EmbeddingResult emb,
                         embed::ProneEmbed(adjacency, run.prone(), executor));
  // Dense algebra runs on the accelerator over host memory.
  return run.Finish(g, emb, emb.factorize_seconds, emb.propagate_seconds,
                    DenseHome{dram, false, 0.0, profile.compute_rate_multiplier});
}

}  // namespace omega::engine
