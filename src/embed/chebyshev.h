// Chebyshev approximation of spectral graph filters (§II-A).
//
// ProNE's stage 2 applies a band-pass filter g of the normalized Laplacian
// L = I - S (S = D^-1/2 A D^-1/2, spec(L) in [0, 2]) to the embedding block.
// With x = lambda - 1 in [-1, 1], h(x) = g(x + 1) expands as
//   h(x) ~= sum_{k=0}^{K-1} c_k T_k(x),
// whose coefficients come from Chebyshev-Gauss quadrature, and T_k(L - I) R
// follows the three-term recurrence — one SpMM with S per term, which is the
// dominant cost the paper optimizes.

#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "embed/prone.h"

namespace omega::embed {

/// Scalar filter of the Laplacian eigenvalue lambda in [0, 2].
using SpectralFilter = std::function<double(double)>;

/// ProNE's modulated Gaussian band-pass g(lambda) = exp(-theta/2 *
/// ((lambda - mu)^2 - 1)).
SpectralFilter ProneBandPass(double mu, double theta);

/// First `order` Chebyshev coefficients of h(x) = filter(x + 1) on [-1, 1]
/// via quadrature with `quad_points` nodes.
std::vector<double> ChebyshevCoefficients(const SpectralFilter& filter, int order,
                                          int quad_points = 256);

/// Scales rows [begin, end) to unit L2 norm (squared norm summed in double
/// over ascending columns); an all-zero row stays zero. Walks tiles of 16
/// rows column by column, so a column-major tile column is one cache line.
/// The packed form normalizes the same way, so both land on the same bits:
/// training normalizes its column-major output, the incremental refresh its
/// packed filter sum's refreshed rows.
void L2NormalizeRows(linalg::DenseMatrix* m, size_t begin, size_t end);
void L2NormalizeRows(sparse::kernels::PackedOperand* m, size_t begin, size_t end);

/// Sets row r of the packed `sum` to the filter sum through term k - 1,
/// sum_{i<k} c_i T_i, from the captured terms: ChebyshevFirstSum, then
/// ChebyshevAddTerm in ascending i, training's order, so term k's epilogue
/// continues it on training's bits. The incremental refresh builds it for a
/// row it first recomputes at term k >= 2.
void ChebyshevPartialSumRow(const ChebyshevCapture& capture, size_t k, size_t r,
                            sparse::kernels::PackedOperand* sum);

/// Computes out = sum_k c_k T_k(L - I) r, where L = I - S and `propagation`
/// is S in CSDB form. Each term k >= 1 is one SpMM through `spmm`, issued
/// as a packed Chebyshev term (sparse::SpmmOperands): the recurrence keeps
/// T_{k-1}, T_{k-2} and the filter sum packed row-major, the SpMM gathers
/// from T_{k-1}, and its epilogue writes T_k over T_{k-2} and adds c_k T_k to
/// the sum (term 0 folds into term 1), so there is no per-term dense pass and
/// nothing is repacked. Only `r` is packed, once; the sum is unpacked into
/// `out` at the end, the one new n x d block. With a single coefficient
/// there is no SpMM: out = 0 + c_0 r (ChebyshevFirstSum). Returns the
/// accumulated simulated seconds of all SpMMs.
///
/// `pool` splits the packing and unpacking by rows on the host; it does not
/// change the simulated charging (that happens inside `spmm`) and the output
/// is bit-identical at any thread count.
///
/// A non-null `capture` receives the coefficients and keeps every packed
/// term T_0 = r .. T_{K-1}: each term gets its own operand there, so T_k is
/// written apart from T_{k-2} instead of over it, and nothing is copied or
/// unpacked (perm is the caller's to fill) — host-side state for the
/// incremental refresh path, no effect on charges or output.
///
/// `hooks` (see prone.h) checkpoints and resumes the recurrence: after_term
/// observes every completed term's exact state (non-OK aborts), unpacking
/// only what it asks for, and a valid hooks->resume restarts at term
/// resume->next_term with the restored terms and accumulator, packed before
/// use — skipped terms charge nothing and the final output is bitwise
/// identical to an uninterrupted run. resume + capture is InvalidArgument,
/// as is a propagation matrix or resume state whose shape does not match
/// `r`.
Result<double> ChebyshevFilterApply(const graph::CsdbMatrix& propagation,
                                    const std::vector<double>& coefficients,
                                    const linalg::DenseMatrix& r,
                                    linalg::DenseMatrix* out,
                                    const SpmmExecutor& spmm,
                                    ThreadPool* pool = nullptr,
                                    ChebyshevCapture* capture = nullptr,
                                    const ChebyshevHooks* hooks = nullptr);

}  // namespace omega::embed
