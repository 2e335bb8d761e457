// End-to-end embedding engines over the simulated heterogeneous machine.
//
// RunEmbedding executes the full pipeline the paper times in Fig. 12: graph
// reading (format construction) + embedding generation (ProNE's two stages),
// under the placement/kernels of the selected system. Simulated seconds are
// returned in a RunReport; systems that exceed their tier's capacity fail
// with CapacityExceeded, mirroring the paper's "fails to run / does not
// terminate" entries.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "memsim/memory_system.h"
#include "omega/exec_context.h"
#include "omega/options.h"
#include "omega/placement.h"

namespace omega::engine {

/// Outcome of one end-to-end run.
struct RunReport {
  std::string system;
  std::string dataset;

  double read_seconds = 0.0;       ///< simulated graph reading / format build
  double factorize_seconds = 0.0;  ///< simulated tSVD stage
  double propagate_seconds = 0.0;  ///< simulated Chebyshev stage
  double embed_seconds = 0.0;      ///< factorize + propagate
  double total_seconds = 0.0;      ///< read + embed (+ ckpt + recovery)

  /// Durability accounting (zero unless checkpointing / restore ran): the
  /// simulated cost of writing checkpoints, and of restoring state after a
  /// crash or machine loss (checkpoint read-back + shared-log replay). Both
  /// are included in total_seconds. For resumed runs the per-stage fields
  /// above also include the restored pre-crash stage seconds.
  double ckpt_seconds = 0.0;
  double recovery_seconds = 0.0;

  double remote_fraction = 0.0;    ///< of DRAM+PM traffic (VTune analogue)
  std::optional<double> link_auc;  ///< when options.evaluate_quality

  /// Fault injection: whether the run's MemorySystem carried an enabled
  /// FaultPlan, and the run's whole-run fault/recovery counters (all zero
  /// when disabled). injected == retried + degraded + surfaced for completed
  /// runs — every fault is either absorbed by a retry path, degraded a
  /// component, or surfaced as the run's failure.
  bool faults_enabled = false;
  memsim::FaultCounters faults;

  /// Failed runs (OOM / "does not terminate" cells): set by the harnesses
  /// when RunEmbedding returns a non-OK status, so tables and JSON can carry
  /// the cell through.
  bool failed = false;
  std::string failure;

  /// Per-phase attribution (see exec::PhaseSpan). Non-aux phase sim_seconds
  /// sum to total_seconds; the scalar fields above are the per-stage sums of
  /// these records.
  std::vector<exec::PhaseRecord> phases;

  linalg::DenseMatrix embedding;   ///< original node order; empty for the
                                   ///< distributed analogues
};

/// A report carrying a failed cell (the run itself produced no timings).
RunReport FailedReport(SystemKind system, const std::string& dataset,
                       const Status& status);

/// Runs `options.system` on `g`. The MemorySystem's capacity accounting and
/// traffic counters are used (and reset) by the run; the context's pool must
/// have at least options.num_threads workers. The run's phases are recorded
/// into report.phases (and also into ctx.trace() if one is attached).
Result<RunReport> RunEmbedding(const graph::Graph& g, const std::string& dataset,
                               const EngineOptions& options,
                               const exec::Context& ctx);

/// Simulated seconds to parse an edge list and construct the given format —
/// the "graph reading procedure" of Fig. 19a. Uses ctx.threads() workers.
enum class GraphFormat { kCsr, kCsdb };
double SimulatedGraphReadSeconds(const exec::Context& ctx, GraphFormat format,
                                 uint64_t num_arcs, uint64_t num_nodes);

/// Estimated peak dense-matrix working set of the ProNE pipeline in bytes
/// (tSVD temporaries vs Chebyshev recurrence, whichever is larger).
size_t DenseWorkingSetBytes(uint64_t num_nodes, const embed::ProneOptions& prone);

/// Sparse (CSDB/CSR payload) bytes for capacity accounting.
size_t SparseBytes(uint64_t num_arcs);

/// Traffic/arithmetic of the dense-algebra work surrounding the SpMMs: the
/// tSVD's Householder QRs and small GEMMs (stage 1) and the Chebyshev
/// recurrence's AXPY passes (stage 2). These run on whichever tier holds the
/// dense working set, which is what separates the PM-only configuration.
/// The `*_stage_bytes` are the PM streams in/out of each block when the
/// working set is staged through a DRAM window (kOmega).
struct DenseStageModel {
  uint64_t tsvd_bytes = 0;
  uint64_t tsvd_flops = 0;
  uint64_t tsvd_stage_bytes = 0;
  uint64_t cheb_bytes = 0;
  uint64_t cheb_flops = 0;
  uint64_t cheb_stage_bytes = 0;
};
DenseStageModel EstimateDenseStage(uint64_t num_nodes,
                                   const embed::ProneOptions& prone);

/// Simulated seconds for `bytes` of streaming dense-op traffic (half read,
/// half write) plus `flops`, spread over ctx.threads() cores against tier `p`.
/// `flops_rate_multiplier` models accelerator arithmetic (GPU baselines).
double DenseStageSeconds(const exec::Context& ctx, memsim::Placement p,
                         uint64_t bytes, uint64_t flops,
                         double flops_rate_multiplier = 1.0);

namespace internal {

/// Frame shared by the ProNE-based engines (the OMeGa family, ProNE and the
/// out-of-core analogues; the distributed analogues use only its prologue and
/// TakeReport): it resets the machine's counters, owns the run's
/// trace recorder, capacity reservations and stage-labelled ProNE options,
/// and finishes every report the same way. The ProNE stage notifier points
/// back at the frame, so it stays where it was built.
class ProneRun {
 public:
  ProneRun(const std::string& dataset, const EngineOptions& options,
           const exec::Context& outer);
  ~ProneRun();

  ProneRun(const ProneRun&) = delete;
  ProneRun& operator=(const ProneRun&) = delete;

  const exec::Context& ctx() const { return ctx_; }
  RunReport& report() { return report_; }
  /// options.prone plus the host pool and the stage notifier.
  embed::ProneOptions& prone() { return prone_; }

  /// Names the next SpMM span "<stage>.spmm.<k>".
  std::string NextSpmmName() {
    return stage_ + ".spmm." + std::to_string(spmm_index_++);
  }
  bool propagating() const { return stage_ == "propagate"; }

  /// Reserves `bytes` at `p` until the frame goes out of scope.
  Status Reserve(memsim::Placement p, size_t bytes);
  /// The "read" phase: simulated parse of `g` plus the `format` build.
  void Read(const graph::Graph& g, GraphFormat format);
  /// Charges the factorize.dense and propagate.dense phases on `home`, then
  /// completes the report from the stages' SpMM seconds and `emb`.
  Result<RunReport> Finish(const graph::Graph& g, const embed::EmbeddingResult& emb,
                           double factorize_spmm, double propagate_spmm,
                           const DenseHome& home);
  /// Hands the report over with its tail: the total of the read, embed,
  /// checkpoint and recovery seconds, the fault counters and the phase
  /// records. Engines with no ProNE stage (the distributed analogues) call
  /// it instead of Finish.
  RunReport TakeReport();

 private:
  double DensePhase(const char* name, const DenseHome& home, uint64_t bytes,
                    uint64_t flops, uint64_t stage_bytes);

  const EngineOptions& options_;
  exec::TraceRecorder recorder_;
  exec::Context ctx_;
  RunReport report_;
  embed::ProneOptions prone_;
  std::string stage_ = "factorize";
  int spmm_index_ = 0;
  std::vector<std::pair<memsim::Placement, size_t>> reserved_;
};

}  // namespace internal

}  // namespace omega::engine
