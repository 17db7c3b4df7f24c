// Complex singular value decomposition — the LAPACK-zgesvd stand-in that the
// MPS two-site update (paper Eq. 9) funnels through.
//
// One engine serves every caller: the QR-preconditioned tournament Jacobi.
// For m >= n the operand is QR-preconditioned (A = QR; Jacobi runs on the
// small n x n factor, oriented as R^H so its columns pack contiguously out
// of R's rows) and U is recovered as Q V_X through the blocked GEMM only
// when a caller asks for it. The Jacobi itself replaces the cyclic (p, q)
// order with round-robin tournament rounds whose column pairs are disjoint;
// each round's rotations fan out over par::parallel_for and commute exactly,
// so results are bit-identical at every thread count — the same determinism
// contract as the GEMM substrate. svd_truncated_ws is the zero-copy
// workspace form the MPS two-site update sits on; svd_jacobi is the full
// decomposition (the DMET bath, the Fig. 11 serial column); svd_truncated
// is the allocating convenience form. On real input every reflector, Jacobi
// phase and rotation is real, so the factors come back exactly real — the
// DMET bath relies on that.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/householder.hpp"
#include "linalg/matrix.hpp"
#include "parallel/parallel_options.hpp"

namespace q2::la {

struct SvdResult {
  CMatrix u;               ///< m x k, orthonormal columns (k = min(m, n)).
  std::vector<double> s;   ///< k singular values, descending.
  CMatrix vh;              ///< k x n, orthonormal rows (V adjoint).
};

/// Thin SVD through the QR-preconditioned tournament-Jacobi engine
/// (unconditionally convergent). Zero singular values are reported as exact
/// zeros with completed orthonormal U columns; real input yields factors
/// with exactly zero imaginary parts.
SvdResult svd_jacobi(const CMatrix& a,
                     const par::ParallelOptions& parallel = {});

struct TruncatedSvd {
  CMatrix u;
  std::vector<double> s;
  CMatrix vh;
  /// Discarded weight: sum of squared dropped singular values divided by the
  /// total squared norm — the truncation-error monitor the paper describes.
  double truncation_error = 0.0;
  int sweeps = 0;             ///< Jacobi sweeps to convergence.
  bool preconditioned = false;  ///< QR preconditioner engaged.
};

/// SVD truncated to at most `max_rank` singular values, additionally dropping
/// values below `cutoff * s_max`. This is the D-truncation of the MPS bond.
TruncatedSvd svd_truncated(const CMatrix& a, std::size_t max_rank,
                           double cutoff = 0.0,
                           const par::ParallelOptions& parallel = {});

/// Reusable scratch for svd_truncated_ws. Buffers grow to the largest shape
/// seen and are never shrunk, so a long-lived workspace (e.g. the one owned
/// by sim::Mps) makes the truncated SVD allocation-free in steady state.
/// A workspace is not thread-safe; give each concurrent caller its own.
struct SvdWorkspace {
  std::vector<cplx> qa;     ///< packed operand; after QR: R + reflector tails
  std::vector<hh::Reflector> tau;   ///< QR reflector scalars
  std::vector<cplx> colbuf;         ///< Householder column gather
  std::vector<cplx> hwork;          ///< reflect_left row scratch
  std::vector<cplx> q;      ///< explicit thin Q, formed only when needed
  std::vector<cplx> w;      ///< Jacobi operand, row j = column j of B (or X)
  std::vector<cplx> vt;     ///< rotation accumulator in V^T row layout
  std::vector<double> colnorm;      ///< cached squared norms of w's rows
  std::vector<double> rel;          ///< per-pair off-diagonal magnitudes
  std::vector<std::size_t> perm;    ///< de Rijk norm-descending relabeling
  std::vector<double> s_all;        ///< unsorted singular values
  std::vector<std::size_t> order;   ///< stable descending permutation
  std::vector<cplx> ur;     ///< kept columns of V_X (precond recovery)
  std::vector<cplx> ub;     ///< Q * V_X product / row-form U staging
  std::vector<char> vec_null;       ///< null-vector flags for completion
  std::vector<cplx> cand;           ///< completion candidate (hoisted)
  std::vector<double> row_weight;   ///< completion probe weights
  std::vector<cplx> out_u, out_vh;  ///< extraction targets
  std::vector<double> out_s;
  /// Cached tournament schedule, rebuilt only when the pair count changes.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> schedule;
  std::size_t schedule_n = 0;
};

/// Zero-copy truncated SVD of the m x n row-major operand `a` (row stride
/// `lda` >= n). The returned pointers alias workspace buffers and stay valid
/// until the next call on the same workspace. When `row_scale` is non-null,
/// row i of the operand is multiplied by row_scale[i] during the packing
/// pass — this is how the MPS update folds the Eq. (8) Schmidt weighting in
/// without materializing the weighted copy. `want_u = false` skips U
/// recovery entirely (the Hastings update restores B_n from the unweighted M
/// and V^H, so U is never formed on the gate hot path).
struct TruncatedSpectrum {
  const double* s = nullptr;   ///< keep values, descending
  const cplx* u = nullptr;     ///< m x keep row-major; nullptr if !want_u
  const cplx* vh = nullptr;    ///< keep x n row-major
  std::size_t keep = 0;
  double truncation_error = 0.0;
  int sweeps = 0;
  bool preconditioned = false;
};

TruncatedSpectrum svd_truncated_ws(SvdWorkspace& ws, const cplx* a,
                                   std::size_t m, std::size_t n,
                                   std::size_t lda, const double* row_scale,
                                   std::size_t max_rank, double cutoff,
                                   bool want_u,
                                   const par::ParallelOptions& parallel = {});

/// Round-based tournament schedule for n columns (modulus ordering: round k
/// pairs {i, j} with i + j == k mod n). The rounds together cover every
/// unordered pair exactly once, with the pairs inside a round pairwise
/// disjoint. Shared with the sw:: CPE-cluster SVD kernel.
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> tournament_rounds(
    std::size_t n);

}  // namespace q2::la
