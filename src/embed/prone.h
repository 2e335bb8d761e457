// ProNE (Zhang et al., IJCAI'19) — the matrix-factorization embedding model
// OMeGa uses as its prototype (§II-A, §IV-A).
//
// Stage 1 (SMF): factorize a shifted-PMI-style target matrix built from the
// adjacency structure with a randomized truncated SVD; the embedding is
// U_d * sqrt(Sigma_d).
// Stage 2 (spectral propagation): smooth the embedding with a band-pass
// Chebyshev filter of the normalized graph Laplacian (embed/chebyshev.h);
// every Chebyshev term is one SpMM — this is where ~70% of the paper's total
// runtime goes and where all of OMeGa's optimizations apply.
//
// Deviation from upstream ProNE (documented in DESIGN.md): the target matrix
// is symmetrized (ln(a_ij / sqrt(d_i d_j)) - ln(lambda * P_D(j)) with the
// symmetric normalizer) so that apply == apply^T in the tSVD; upstream uses
// the row-normalized asymmetric variant. The spectral behaviour is the same.

#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/csdb.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "sparse/spmm.h"

namespace omega::embed {

/// Host-side snapshot of the stage-2 Chebyshev recurrence state, captured
/// during a full run so a dynamic embedder can refresh only the rows a graph
/// delta affects (omega/incremental.h). The terms are the recurrence's own
/// packed operands, kept instead of recycled, so the refresh runs the same
/// packed kernel and epilogue on them. All are in the CSDB row order of the
/// adjacency the run used; `perm` records that order so a later epoch (whose
/// degree-descending order may differ) can re-permute them.
struct ChebyshevCapture {
  std::vector<sparse::kernels::PackedOperand> terms;  ///< T_0 = R .. T_{K-1}
  std::vector<double> coefficients;                   ///< c_0 .. c_{K-1}
  std::vector<graph::NodeId> perm;  ///< CSDB row -> node id at capture

  bool valid() const {
    return !terms.empty() && terms[0].rows() > 0 && !coefficients.empty();
  }
};

/// Restart point of the stage-2 Chebyshev recurrence, restored from a
/// checkpoint: the two live terms plus the partial filter accumulator, all
/// bitwise as captured. The recurrence continues at term `next_term`; its
/// output is byte-identical to an uninterrupted run because every skipped
/// term's floats come back exactly (and every skipped SpMM's simulated
/// charge is skipped with it).
struct ChebyshevResume {
  uint64_t next_term = 0;       ///< first term still to compute (>= 2)
  linalg::DenseMatrix t_prev;   ///< T_{next_term - 2}
  linalg::DenseMatrix t_cur;    ///< T_{next_term - 1}
  linalg::DenseMatrix partial;  ///< sum_{k < next_term} c_k T_k

  bool valid() const { return next_term >= 2 && t_cur.rows() > 0; }
};

/// The stage-2 recurrence's state after a term, as after_term sees it: the
/// two live terms and the partial filter sum. The recurrence keeps them
/// packed row-major (sparse::kernels::PackedOperand); each accessor unpacks
/// one into a fresh column-major n x d matrix, bitwise as computed, so a
/// hook that keeps nothing pays nothing. Valid only during the call.
class ChebyshevTermState {
 public:
  ChebyshevTermState(const sparse::kernels::PackedOperand& t_prev,
                     const sparse::kernels::PackedOperand& t_cur,
                     const sparse::kernels::PackedOperand& partial, ThreadPool* pool)
      : t_prev_(t_prev), t_cur_(t_cur), partial_(partial), pool_(pool) {}

  linalg::DenseMatrix t_prev() const { return Unpack(t_prev_); }   ///< T_{k-1}
  linalg::DenseMatrix t_cur() const { return Unpack(t_cur_); }     ///< T_k
  linalg::DenseMatrix partial() const { return Unpack(partial_); } ///< sum to T_k

 private:
  linalg::DenseMatrix Unpack(const sparse::kernels::PackedOperand& m) const {
    linalg::DenseMatrix out;
    sparse::UnpackDense(m, pool_, &out);
    return out;
  }

  const sparse::kernels::PackedOperand& t_prev_;
  const sparse::kernels::PackedOperand& t_cur_;
  const sparse::kernels::PackedOperand& partial_;
  ThreadPool* pool_;
};

/// Durability hooks of the stage-2 recurrence. `after_term` fires once term
/// k's contribution has landed in the accumulator (so next_term == k + 1)
/// with the exact state a ChebyshevResume needs, unpacked on demand; a
/// non-OK return aborts the recurrence (the engine's simulated kill points
/// and checkpoint IO errors propagate this way). `resume` restarts
/// mid-recurrence instead of at T_1.
struct ChebyshevHooks {
  std::function<Status(size_t next_term, const ChebyshevTermState& state)>
      after_term;
  const ChebyshevResume* resume = nullptr;
};

/// Durability hooks of a full ProNE run (engine checkpointing).
struct ProneDurability {
  /// Fires with the stage-1 basis R before stage 2 begins; non-OK aborts.
  std::function<Status(const linalg::DenseMatrix& r0)> after_factorize;
  /// Skips stage 1 entirely (no tSVD, no "factorize" stage notification, no
  /// factorize charges) and uses this basis, restored from a checkpoint.
  const linalg::DenseMatrix* resume_r0 = nullptr;
  /// Stage-2 hooks, forwarded to ChebyshevFilterApply.
  ChebyshevHooks cheb;
};

/// Executes one full-width SpMM by m on behalf of the embedder and returns
/// its *simulated* seconds. Engines inject their charged kernels
/// (EaTA/WoFP/NaDP/ASL or any baseline) through this hook. `dense` comes in
/// either form of sparse::SpmmOperands, and every executor takes both; its
/// charges depend only on m and the operand's width, never on the form.
/// - Column-major (the tSVD, GNN layers): out = m * in. `out` arrives with
///   any shape and contents: the executor makes it m.num_rows() x in.cols()
///   (SizeOutput) and overwrites it entirely. The embedder hands the same
///   few blocks back call after call, so SizeOutput, which keeps `out`'s
///   storage when the shape already matches, allocates nothing after the
///   first call of each shape.
/// - A packed Chebyshev term (ChebyshevFilterApply): the packed kernel with
///   its epilogue over every row and column, split however the executor
///   likes (ASL column partitions, PIM rows): the step is per element.
using SpmmExecutor = std::function<Result<double>(
    const graph::CsdbMatrix& m, const sparse::SpmmOperands& dense)>;

struct ProneOptions {
  size_t dim = 32;            ///< embedding dimension d
  size_t oversample = 8;      ///< tSVD oversampling
  int power_iterations = 1;   ///< tSVD subspace iterations
  int chebyshev_order = 8;    ///< number of Chebyshev terms (SpMMs) in stage 2
  double mu = 0.2;            ///< band-pass center (ProNE default)
  double theta = 0.5;         ///< band-pass width (ProNE default)
  double neg_lambda = 1.0;    ///< negative-sampling shift of the target matrix
  uint64_t seed = 7;
  bool l2_normalize_rows = true;  ///< cosine-ready output rows

  /// Optional worker pool for the host-side dense stages (tSVD QR/GEMM, the
  /// Chebyshev recurrence's AXPYs, row normalization). Pure wall-clock
  /// parallelism: simulated seconds and embedding bytes are unchanged by it
  /// (fixed-order reductions; see gemm.h).
  ThreadPool* pool = nullptr;

  /// Optional: invoked when a pipeline stage begins ("factorize" before the
  /// tSVD's first SpMM, "propagate" before the Chebyshev recurrence). The
  /// engines use this to label their per-SpMM trace spans by stage.
  std::function<void(const char* stage)> stage_notifier;

  /// Optional: filled with the stage-2 recurrence state (basis, Chebyshev
  /// terms, coefficients, row perm) for later incremental refresh. Host-side
  /// only — capturing changes no simulated charge and no output byte.
  ChebyshevCapture* capture = nullptr;

  /// Optional checkpoint/restore hooks (see ProneDurability). Combining a
  /// mid-recurrence resume with `capture` is InvalidArgument: a resumed run
  /// cannot rebuild the skipped terms the capture would need.
  const ProneDurability* durability = nullptr;
};

/// Result of an embedding run. Vectors are in the CSDB (degree-sorted) id
/// space; row i embeds original node perm[i].
struct EmbeddingResult {
  linalg::DenseMatrix vectors;        ///< |V| x dim
  std::vector<graph::NodeId> perm;    ///< CSDB row -> original node id
  double factorize_seconds = 0.0;     ///< simulated, stage 1
  double propagate_seconds = 0.0;     ///< simulated, stage 2
  double total_seconds = 0.0;         ///< simulated end-to-end model time

  /// Rearranges the rows into original node-id order (row v = node v), its
  /// rows split across `pool` when the matrix is large enough.
  linalg::DenseMatrix ToOriginalOrder(ThreadPool* pool = nullptr) const;
};

/// Builds the (symmetrized) target matrix of stage 1 from the adjacency: a
/// new value array over the adjacency's shared structure. With a pool, rows
/// are transformed in parallel; the result is byte-identical at any thread
/// count.
graph::CsdbMatrix BuildTargetMatrix(const graph::CsdbMatrix& adjacency,
                                    double neg_lambda, ThreadPool* pool = nullptr);

/// Builds the symmetric-normalized propagation matrix D^-1/2 A D^-1/2, also
/// over the adjacency's shared structure (byte-identical at any thread count,
/// like BuildTargetMatrix).
graph::CsdbMatrix BuildPropagationMatrix(const graph::CsdbMatrix& adjacency,
                                         ThreadPool* pool = nullptr);

/// Runs both ProNE stages using `spmm` for all sparse products.
Result<EmbeddingResult> ProneEmbed(const graph::CsdbMatrix& adjacency,
                                   const ProneOptions& options,
                                   const SpmmExecutor& spmm);

}  // namespace omega::embed
