#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "linalg/gemm.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::la {

std::vector<std::vector<std::pair<std::size_t, std::size_t>>> tournament_rounds(
    std::size_t n) {
  // Modulus schedule: round k holds the pairs {i, j} with i + j == k (mod n),
  // i < j. Each index appears at most once per round (j is determined by i),
  // so rounds are disjoint, and every unordered pair lands in exactly one
  // round (its index sum mod n). Measured against the circle method this
  // round sequence converges in roughly half the sweeps on dense spectra —
  // close to the scalar cyclic ordering — because consecutive rounds pair
  // each column with adjacent partners instead of distance-grouped ones.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> rounds;
  if (n < 2) return rounds;
  rounds.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<std::pair<std::size_t, std::size_t>> round;
    round.reserve(n / 2);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (k + n - i) % n;
      if (i < j) round.emplace_back(i, j);
    }
    if (!round.empty()) rounds.push_back(std::move(round));
  }
  return rounds;
}

namespace {

// ---------------------------------------------------------------------------
// Tournament-Jacobi engine (the truncated-SVD substrate)
// ---------------------------------------------------------------------------

// Same convergence contract as the scalar reference: a sweep converges when
// the largest relative Gram off-diagonal drops below kSweepTol; individual
// rotations are skipped below kRotateTol.
constexpr double kSweepTol = 1e-14;
constexpr double kRotateTol = 1e-15;
constexpr int kMaxSweeps = 60;
// Square operands at least this large go through the QR preconditioner even
// though it does not shrink them: Jacobi on the triangular factor converges
// in noticeably fewer sweeps (Drmac/Veselic), which more than pays for the
// O(2/3 n^3) factorization.
constexpr std::size_t kPrecondMinSquare = 48;
// Rounds with less pair work than this (complex elements touched) run on the
// calling thread; pool dispatch would cost more than the rotations. The
// serial path computes the identical result — pairs in a round are disjoint
// and the off-diagonal reduction is a max — so this is a pure perf knob.
constexpr std::size_t kParallelMinWork = std::size_t(1) << 15;

obs::Counter& truncated_calls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("la.svd.truncated_calls");
  return c;
}
obs::Counter& precond_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("la.svd.precond_hits");
  return c;
}
obs::Counter& sweeps_counter() {
  static obs::Counter& c = obs::Registry::global().counter("la.svd.sweeps");
  return c;
}

// Gram dot and column-norm inner loops live in linalg/simd.* now (AVX2 when
// the host has it, the old four-chain scalar code otherwise); both ISAs use a
// fixed combine order that never depends on the thread count, so the blocked
// dot stays deterministic.
cplx dot_conj_blocked(const cplx* x, const cplx* y, std::size_t len) {
  return simd::dot_conj(x, y, len);
}

double norm2_blocked(const cplx* x, std::size_t len) {
  return simd::norm2_sum(x, len);
}

// One Jacobi run over the row-packed operand W (nw rows of length len; row j
// holds column j of the matrix being decomposed, so every access below is
// contiguous) and the rotation accumulator VT (nw x nw, V^T row layout).
struct JacobiRun {
  cplx* w;
  cplx* vt;
  double* colnorm;
  std::size_t nw, len;
};

// Process one pair (p, q): measure the Gram off-diagonal, rotate if needed,
// and maintain the cached norms through the exact 2x2 update (the rotation
// phases the cross term real, so the new norms are cs^2 app + sn^2 aqq
// +/- 2 cs sn |apq|). Pairs within a tournament round are disjoint, so
// concurrent calls touch disjoint rows/slots. Returns |G_pq|/sqrt(Gpp Gqq).
double process_pair(const JacobiRun& run, std::size_t p, std::size_t q) {
  const double app = run.colnorm[p], aqq = run.colnorm[q];
  const double denom = std::sqrt(app * aqq);
  // !(> 0) rather than (<= 0): a rank-deficient operand can leave a cached
  // norm at a rounding-level negative, making denom NaN — which must take
  // this early-out too or the 0/0 phase below poisons the whole run.
  if (!(denom > 0.0)) return 0.0;
  cplx* wp = run.w + p * run.len;
  cplx* wq = run.w + q * run.len;
  const cplx apq = dot_conj_blocked(wp, wq, run.len);
  const double absc = std::abs(apq);
  const double rel = absc / denom;
  if (rel < kRotateTol) return rel;

  // Same 2x2 diagonalization as the scalar reference: phase the off-diagonal
  // real with D = diag(1, e^{-i phi}), then a real rotation; J = D R.
  const cplx phase_conj = std::conj(apq) / absc;
  const double theta = 0.5 * std::atan2(2.0 * absc, app - aqq);
  const double cs = std::cos(theta), sn = std::sin(theta);
  const cplx esn = phase_conj * sn;
  const cplx ecs = phase_conj * cs;
  simd::rotate_pair(wp, wq, run.len, cs, sn, esn, ecs);
  simd::rotate_pair(run.vt + p * run.nw, run.vt + q * run.nw, run.nw, cs, sn,
                    esn, ecs);
  const double cross = 2.0 * cs * sn * absc;
  // Clamp at zero: when the rotation annihilates column q the subtraction
  // can round below zero, and a negative cached norm would NaN the next
  // denom above.
  run.colnorm[p] = std::max(0.0, cs * cs * app + sn * sn * aqq + cross);
  run.colnorm[q] = std::max(0.0, sn * sn * app + cs * cs * aqq - cross);
  return rel;
}

int tournament_jacobi(SvdWorkspace& ws, std::size_t nw, std::size_t len,
                      const par::ParallelOptions& parallel) {
  if (ws.schedule_n != nw) {
    ws.schedule = tournament_rounds(nw);
    ws.schedule_n = nw;
  }
  ws.colnorm.resize(nw);
  ws.perm.resize(nw);
  const JacobiRun run{ws.w.data(), ws.vt.data(), ws.colnorm.data(), nw, len};
  int sweeps = 0;
  while (sweeps < kMaxSweeps) {
    ++sweeps;
    // Refresh the cached squared norms each sweep: the incremental 2x2
    // updates are exact in exact arithmetic but would drift over sweeps.
    for (std::size_t j = 0; j < nw; ++j)
      ws.colnorm[j] = norm2_blocked(ws.w.data() + j * len, len);
    obs::WorkCounter::charge(obs::jacobi_norm_flops(nw, len),
                             obs::jacobi_norm_bytes(nw, len));
    // De Rijk relabeling: map schedule slots onto columns sorted by
    // descending norm for this sweep. Pairing heavy columns with their
    // norm-neighbours first measurably cuts the sweep count, and the
    // permutation is a pure relabeling — rounds stay disjoint, so the
    // parallel dispatch and the determinism argument are untouched.
    std::iota(ws.perm.begin(), ws.perm.end(), std::size_t{0});
    std::stable_sort(ws.perm.begin(), ws.perm.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ws.colnorm[a] > ws.colnorm[b];
                     });
    double off_max = 0.0;
    for (const auto& round : ws.schedule) {
      ws.rel.assign(round.size(), 0.0);
      const std::size_t pair_work = round.size() * (len + nw);
      if (pair_work < kParallelMinWork) {
        for (std::size_t t = 0; t < round.size(); ++t)
          ws.rel[t] =
              process_pair(run, ws.perm[round[t].first], ws.perm[round[t].second]);
      } else {
        par::parallel_for(parallel, 0, round.size(), [&](std::size_t t) {
          ws.rel[t] =
              process_pair(run, ws.perm[round[t].first], ws.perm[round[t].second]);
        });
      }
      // max() is order-independent, so reducing the per-pair slots in index
      // order gives the same answer for every schedule of the round.
      // The rotated count is also read off the slots: a pair rotated iff its
      // rel cleared kRotateTol, which is schedule-determined — so the work
      // charge is deterministic regardless of how the round was dispatched.
      std::size_t rotated = 0;
      for (const double r : ws.rel) {
        off_max = std::max(off_max, r);
        if (r >= kRotateTol) ++rotated;
      }
      obs::WorkCounter::charge(
          obs::jacobi_round_flops(round.size(), rotated, len, nw),
          obs::jacobi_round_bytes(round.size(), rotated, len, nw));
    }
    if (off_max < kSweepTol) break;
  }
  return sweeps;
}

// In-place Householder QR of the M x N (M >= N) panel in ws.qa: on return
// the upper triangle holds R and the columns below the diagonal hold the
// reflector tails (zgeqrf layout), with the scalars in ws.tau.
void panel_qr(SvdWorkspace& ws, std::size_t M, std::size_t N) {
  ws.tau.resize(N);
  ws.colbuf.resize(M);
  cplx* qa = ws.qa.data();
  for (std::size_t k = 0; k < N; ++k) {
    const std::size_t tail = M - k - 1;
    for (std::size_t i = 0; i < tail; ++i)
      ws.colbuf[i] = qa[(k + 1 + i) * N + k];
    ws.tau[k] = hh::make_reflector(qa[k * N + k], ws.colbuf.data(), tail);
    for (std::size_t i = 0; i < tail; ++i)
      qa[(k + 1 + i) * N + k] = ws.colbuf[i];
    hh::reflect_left(qa, N, N, k, k + 1, ws.colbuf.data(), tail,
                     std::conj(ws.tau[k].tau), ws.hwork);
    qa[k * N + k] = ws.tau[k].beta;
  }
}

// Explicit thin Q (M x N) from the factored panel, backward accumulation
// against the first N identity columns.
void panel_form_q(SvdWorkspace& ws, std::size_t M, std::size_t N) {
  ws.q.assign(M * N, cplx{});
  for (std::size_t i = 0; i < N; ++i) ws.q[i * N + i] = 1.0;
  const cplx* qa = ws.qa.data();
  for (std::size_t k = N; k-- > 0;) {
    const std::size_t tail = M - k - 1;
    for (std::size_t i = 0; i < tail; ++i)
      ws.colbuf[i] = qa[(k + 1 + i) * N + k];
    hh::reflect_left(ws.q.data(), N, N, k, k, ws.colbuf.data(), tail,
                     ws.tau[k].tau, ws.hwork);
  }
}

// Fill flagged rows of a row-major (count x len) block of vectors with unit
// vectors orthogonal to every other row, so the factor keeps orthonormal
// vectors even for rank-deficient input. This is the rebuilt
// complete_null_columns: the candidate buffer is hoisted out of the probe
// loop, and the probe is picked once per null row as the canonical vector
// with the least weight already present in the block (argmin over column
// weights — its residual after projection cannot vanish), so the common case
// runs one two-round MGS instead of one per probed canonical vector.
void complete_null_rows(cplx* rows, std::size_t count, std::size_t len,
                        std::vector<char>& is_null, std::vector<cplx>& cand,
                        std::vector<double>& weight) {
  bool any = false;
  for (std::size_t r = 0; r < count; ++r) any = any || (is_null[r] != 0);
  if (!any) return;
  weight.assign(len, 0.0);
  for (std::size_t r = 0; r < count; ++r) {
    if (is_null[r]) continue;
    const cplx* row = rows + r * len;
    for (std::size_t i = 0; i < len; ++i) weight[i] += norm2(row[i]);
  }
  auto orthogonalize = [&](std::size_t skip) {
    for (int round = 0; round < 2; ++round) {
      for (std::size_t c = 0; c < count; ++c) {
        if (c == skip || is_null[c]) continue;
        const cplx* row = rows + c * len;
        const cplx proj = dot_conj_blocked(row, cand.data(), len);
        for (std::size_t i = 0; i < len; ++i) cand[i] -= proj * row[i];
      }
    }
    return std::sqrt(norm2_blocked(cand.data(), len));
  };
  for (std::size_t r = 0; r < count; ++r) {
    if (!is_null[r]) continue;
    std::size_t probe = 0;
    for (std::size_t i = 1; i < len; ++i)
      if (weight[i] < weight[probe]) probe = i;
    cand.assign(len, cplx{});
    cand[probe] = 1.0;
    double nrm = orthogonalize(r);
    if (nrm <= 1e-8) {
      // Pathological probe (cancellation ate the residual): fall back to
      // scanning the canonical basis with the same hoisted buffer.
      for (std::size_t p2 = 0; p2 < len && nrm <= 1e-8; ++p2) {
        if (p2 == probe) continue;
        cand.assign(len, cplx{});
        cand[p2] = 1.0;
        nrm = orthogonalize(r);
      }
    }
    cplx* row = rows + r * len;
    for (std::size_t i = 0; i < len; ++i) row[i] = cand[i] / nrm;
    is_null[r] = 0;
    for (std::size_t i = 0; i < len; ++i) weight[i] += norm2(row[i]);
  }
}

struct EngineInfo {
  std::size_t m = 0, n = 0;  // original operand shape
  std::size_t M = 0, N = 0;  // tall-orientation shape (M >= N)
  std::size_t len = 0;       // W row length (N preconditioned, M otherwise)
  bool wide = false;
  bool precond = false;
  int sweeps = 0;
};

// Pack, optionally QR-precondition, and run tournament Jacobi. On return
// ws.w rows hold the rotated operand columns, ws.vt the accumulated V^T, and
// ws.s_all / ws.order the spectrum with its stable descending permutation.
//
// Orientation: the tall operand is B = A (m >= n) or B = A^H (wide). Under
// the preconditioner B = QR and Jacobi runs on X = R^H — column j of X is
// conj(row j of R), so W packs contiguously straight out of the factored
// panel, and the R^H orientation (columns closer to orthogonal) shaves
// sweeps. Converged, X = U_X S V_X^H with U_X read off W's rows and V_X off
// VT, giving B = (Q V_X) S U_X^H: the factor the MPS update wants (V^H of
// the tall operand) is U_X^H, free from W, while the GEMM recovery Q V_X is
// only needed when a caller asks for the tall U (or the wide V^H).
EngineInfo run_jacobi_engine(SvdWorkspace& ws, const cplx* a, std::size_t m,
                             std::size_t n, std::size_t lda,
                             const double* row_scale,
                             const par::ParallelOptions& parallel) {
  EngineInfo info;
  info.m = m;
  info.n = n;
  info.wide = m < n;
  info.M = info.wide ? n : m;
  info.N = info.wide ? m : n;
  info.precond = info.M > info.N || info.N >= kPrecondMinSquare;
  const std::size_t M = info.M, N = info.N;

  if (info.precond) {
    precond_counter().add();
    // Stage B into qa, folding the caller's row weighting into the pack —
    // Eq. (8)'s Schmidt reweighting costs nothing extra here.
    ws.qa.resize(M * N);
    if (!info.wide) {
      for (std::size_t i = 0; i < M; ++i) {
        const cplx* src = a + i * lda;
        cplx* dst = ws.qa.data() + i * N;
        if (row_scale) {
          const double sc = row_scale[i];
          for (std::size_t j = 0; j < N; ++j) dst[j] = sc * src[j];
        } else {
          std::copy(src, src + N, dst);
        }
      }
    } else {
      // Column j of B = conj(row j of A); the row weight rides along.
      for (std::size_t j = 0; j < N; ++j) {
        const cplx* src = a + j * lda;
        const double sc = row_scale ? row_scale[j] : 1.0;
        for (std::size_t i = 0; i < M; ++i)
          ws.qa[i * N + j] = std::conj(sc * src[i]);
      }
    }
    panel_qr(ws, M, N);
    info.len = N;
    ws.w.resize(N * N);
    for (std::size_t j = 0; j < N; ++j) {
      cplx* dst = ws.w.data() + j * N;
      const cplx* src = ws.qa.data() + j * N;
      for (std::size_t i = 0; i < j; ++i) dst[i] = cplx{};
      for (std::size_t i = j; i < N; ++i) dst[i] = std::conj(src[i]);
    }
  } else {
    // Small square operand: Jacobi directly on the columns of A (transposed
    // into W so the rotations still stream contiguous rows).
    info.len = M;
    ws.w.resize(N * M);
    for (std::size_t i = 0; i < M; ++i) {
      const cplx* src = a + i * lda;
      const double sc = row_scale ? row_scale[i] : 1.0;
      for (std::size_t j = 0; j < N; ++j) ws.w[j * M + i] = sc * src[j];
    }
  }

  ws.vt.assign(N * N, cplx{});
  for (std::size_t j = 0; j < N; ++j) ws.vt[j * N + j] = 1.0;
  info.sweeps = tournament_jacobi(ws, N, info.len, parallel);
  sweeps_counter().add(std::uint64_t(info.sweeps));

  ws.s_all.resize(N);
  for (std::size_t j = 0; j < N; ++j)
    ws.s_all[j] =
        std::sqrt(norm2_blocked(ws.w.data() + j * info.len, info.len));
  ws.order.resize(N);
  std::iota(ws.order.begin(), ws.order.end(), 0);
  // stable_sort: degenerate values keep their pre-sort column order, which
  // the truncation keep-set relies on for determinism (see test_linalg).
  std::stable_sort(ws.order.begin(), ws.order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return ws.s_all[x] > ws.s_all[y];
                   });
  return info;
}

// Materialize the kept columns of V_X (N x keep, column r = VT row
// order[r]) for the Q V_X recovery GEMM.
void materialize_vx(SvdWorkspace& ws, std::size_t N, std::size_t keep) {
  ws.ur.resize(N * keep);
  for (std::size_t r = 0; r < keep; ++r) {
    const cplx* vrow = ws.vt.data() + ws.order[r] * N;
    for (std::size_t i = 0; i < N; ++i) ws.ur[i * keep + r] = vrow[i];
  }
}

// Extract the leading `keep` triplets into ws.out_*. zero_small additionally
// zeroes singular values below the null tolerance — the full-SVD contract;
// the truncated path reports raw values.
void extract_factors(SvdWorkspace& ws, const EngineInfo& info,
                     std::size_t keep, bool want_u, bool zero_small,
                     const par::ParallelOptions& parallel) {
  const std::size_t M = info.M, N = info.N, len = info.len;
  const std::size_t m_out = info.m, n_out = info.n;
  const double smax = ws.s_all[ws.order[0]];
  const double null_tol =
      std::max(smax, 1.0) * 1e-14 * double(std::max(M, N));

  ws.out_s.resize(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    const double v = ws.s_all[ws.order[r]];
    ws.out_s[r] = (zero_small && v <= null_tol) ? 0.0 : v;
  }

  const bool need_q = info.precond && (info.wide || want_u);
  if (need_q) {
    materialize_vx(ws, N, keep);
    panel_form_q(ws, M, N);
  }

  // --- V^H (keep x n_out) ---
  ws.out_vh.resize(keep * n_out);
  if (!info.precond) {
    // VT rows are exactly V columns of a unitary: no null handling needed.
    for (std::size_t r = 0; r < keep; ++r) {
      const cplx* vrow = ws.vt.data() + ws.order[r] * N;
      cplx* dst = ws.out_vh.data() + r * n_out;
      for (std::size_t i = 0; i < N; ++i) dst[i] = std::conj(vrow[i]);
    }
  } else if (!info.wide) {
    // Tall: V^H rows are the normalized W rows (B's V is X's U).
    ws.vec_null.assign(keep, 0);
    for (std::size_t r = 0; r < keep; ++r) {
      const double s = ws.s_all[ws.order[r]];
      cplx* dst = ws.out_vh.data() + r * n_out;
      if (s > null_tol) {
        const cplx* wrow = ws.w.data() + ws.order[r] * len;
        const double inv = 1.0 / s;
        for (std::size_t i = 0; i < N; ++i) dst[i] = std::conj(wrow[i]) * inv;
      } else {
        std::fill(dst, dst + n_out, cplx{});
        ws.vec_null[r] = 1;
      }
    }
    complete_null_rows(ws.out_vh.data(), keep, n_out, ws.vec_null, ws.cand,
                       ws.row_weight);
  } else {
    // Wide: V^H rows are conj of the columns of Q V_X — the GEMM recovery.
    // Both factors are exactly unitary, so null values need no handling.
    ws.ub.resize(M * keep);
    gemm_raw(M, N, keep, ws.q.data(), N, Op::kNone, ws.ur.data(), keep,
             Op::kNone, ws.ub.data(), keep, parallel);
    for (std::size_t r = 0; r < keep; ++r) {
      cplx* dst = ws.out_vh.data() + r * n_out;
      for (std::size_t j = 0; j < M; ++j)
        dst[j] = std::conj(ws.ub[j * keep + r]);
    }
  }

  // --- U (m_out x keep) ---
  if (!want_u) {
    ws.out_u.clear();
    return;
  }
  ws.out_u.resize(m_out * keep);
  if (info.precond && !info.wide) {
    // Tall: U = Q V_X — a product of exact unitaries, orthonormal columns
    // even for null singular values, written straight into the output.
    gemm_raw(M, N, keep, ws.q.data(), N, Op::kNone, ws.ur.data(), keep,
             Op::kNone, ws.out_u.data(), keep, parallel);
  } else {
    // U columns are the normalized W rows; build them in row form (every
    // access contiguous), complete any null vectors, then transpose out.
    ws.ub.resize(keep * m_out);
    ws.vec_null.assign(keep, 0);
    for (std::size_t r = 0; r < keep; ++r) {
      const double s = ws.s_all[ws.order[r]];
      cplx* dst = ws.ub.data() + r * m_out;
      if (s > null_tol) {
        const cplx* wrow = ws.w.data() + ws.order[r] * len;
        const double inv = 1.0 / s;
        for (std::size_t i = 0; i < m_out; ++i) dst[i] = wrow[i] * inv;
      } else {
        std::fill(dst, dst + m_out, cplx{});
        ws.vec_null[r] = 1;
      }
    }
    complete_null_rows(ws.ub.data(), keep, m_out, ws.vec_null, ws.cand,
                       ws.row_weight);
    for (std::size_t r = 0; r < keep; ++r)
      for (std::size_t i = 0; i < m_out; ++i)
        ws.out_u[i * keep + r] = ws.ub[r * m_out + i];
  }
}

}  // namespace

TruncatedSpectrum svd_truncated_ws(SvdWorkspace& ws, const cplx* a,
                                   std::size_t m, std::size_t n,
                                   std::size_t lda, const double* row_scale,
                                   std::size_t max_rank, double cutoff,
                                   bool want_u,
                                   const par::ParallelOptions& parallel) {
  OBS_SPAN("la/svd");
  require(a != nullptr && m > 0 && n > 0, "svd_truncated_ws: empty operand");
  require(lda >= n, "svd_truncated_ws: lda < n");
  require(max_rank >= 1, "svd_truncated_ws: max_rank must be positive");
  truncated_calls_counter().add();

  const EngineInfo info =
      run_jacobi_engine(ws, a, m, n, lda, row_scale, parallel);
  const std::size_t N = info.N;

  double total = 0.0;
  for (std::size_t j = 0; j < N; ++j) total += ws.s_all[j] * ws.s_all[j];
  const double smax = ws.s_all[ws.order[0]];
  std::size_t keep = std::min(max_rank, N);
  while (keep > 1 && ws.s_all[ws.order[keep - 1]] <= cutoff * smax) --keep;
  // Never keep exact zeros (they carry no state weight).
  while (keep > 1 && ws.s_all[ws.order[keep - 1]] == 0.0) --keep;
  double kept = 0.0;
  for (std::size_t r = 0; r < keep; ++r)
    kept += ws.s_all[ws.order[r]] * ws.s_all[ws.order[r]];

  extract_factors(ws, info, keep, want_u, /*zero_small=*/false, parallel);

  TruncatedSpectrum out;
  out.keep = keep;
  out.sweeps = info.sweeps;
  out.preconditioned = info.precond;
  out.truncation_error = total > 0 ? std::max(0.0, 1.0 - kept / total) : 0.0;
  out.s = ws.out_s.data();
  out.vh = ws.out_vh.data();
  out.u = want_u ? ws.out_u.data() : nullptr;
  return out;
}

SvdResult svd_jacobi(const CMatrix& a, const par::ParallelOptions& parallel) {
  OBS_SPAN("la/svd");
  require(!a.empty(), "svd_jacobi: empty matrix");
  // A fresh workspace per call: the convenience wrappers must stay safe
  // against re-entry through the pool's caller-runs work stealing.
  SvdWorkspace ws;
  const std::size_t m = a.rows(), n = a.cols();
  const EngineInfo info =
      run_jacobi_engine(ws, a.data(), m, n, n, nullptr, parallel);
  extract_factors(ws, info, info.N, /*want_u=*/true, /*zero_small=*/true,
                  parallel);
  SvdResult r;
  r.s = ws.out_s;
  r.u = CMatrix(m, info.N);
  std::copy(ws.out_u.begin(), ws.out_u.end(), r.u.data());
  r.vh = CMatrix(info.N, n);
  std::copy(ws.out_vh.begin(), ws.out_vh.end(), r.vh.data());
  return r;
}

TruncatedSvd svd_truncated(const CMatrix& a, std::size_t max_rank,
                           double cutoff,
                           const par::ParallelOptions& parallel) {
  require(!a.empty(), "svd_truncated: empty matrix");
  SvdWorkspace ws;
  const TruncatedSpectrum f =
      svd_truncated_ws(ws, a.data(), a.rows(), a.cols(), a.cols(), nullptr,
                       max_rank, cutoff, /*want_u=*/true, parallel);
  TruncatedSvd r;
  r.truncation_error = f.truncation_error;
  r.sweeps = f.sweeps;
  r.preconditioned = f.preconditioned;
  r.s.assign(f.s, f.s + f.keep);
  r.u = CMatrix(a.rows(), f.keep);
  std::copy(f.u, f.u + a.rows() * f.keep, r.u.data());
  r.vh = CMatrix(f.keep, a.cols());
  std::copy(f.vh, f.vh + f.keep * a.cols(), r.vh.data());
  return r;
}

}  // namespace q2::la
