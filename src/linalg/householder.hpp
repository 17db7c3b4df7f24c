// Shared Householder reflector machinery: zlarfg-style reflector generation
// plus row-major-friendly left application on raw buffers, so the QR
// factorization (linalg/qr) and the SVD engine's QR preconditioner run on one
// implementation. reflect_left walks the operand row by row (the classic
// zlarf work-array formulation), so every inner loop is contiguous even
// though the reflector acts on a column.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace q2::la::hh {

// LAPACK zlarfg: given alpha and tail x, produce (tau, beta) and overwrite
// x with the reflector tail v (v0 = 1 implicit) such that
// (I - conj(tau) v v^H) [alpha; x] = [beta; 0] with beta real.
struct Reflector {
  cplx tau{0, 0};
  double beta = 0;
};

inline Reflector make_reflector(cplx alpha, cplx* x, std::size_t tail) {
  double xnorm2 = 0;
  for (std::size_t i = 0; i < tail; ++i) xnorm2 += norm2(x[i]);
  Reflector r;
  if (xnorm2 == 0.0 && alpha.imag() == 0.0) {
    r.beta = alpha.real();
    return r;  // tau = 0: H = I
  }
  const double anorm = std::sqrt(norm2(alpha) + xnorm2);
  r.beta = alpha.real() >= 0 ? -anorm : anorm;
  r.tau = cplx((r.beta - alpha.real()) / r.beta, -alpha.imag() / r.beta);
  const cplx scale = 1.0 / (alpha - r.beta);
  for (std::size_t i = 0; i < tail; ++i) x[i] *= scale;
  return r;
}

// A(r0.., c0..cols) <- (I - sigma v v^H) A on a row-major buffer with row
// stride ld; v0 = 1 at row r0, v[0..tail) on rows r0+1... `work` is caller
// scratch (resized to cols - c0) holding w = v^H A so both passes stream
// whole rows.
inline void reflect_left(cplx* a, std::size_t ld, std::size_t cols,
                         std::size_t r0, std::size_t c0, const cplx* v,
                         std::size_t tail, cplx sigma,
                         std::vector<cplx>& work) {
  if (sigma == cplx{} || c0 >= cols) return;
  const std::size_t nc = cols - c0;
  work.resize(nc);
  cplx* head = a + r0 * ld + c0;
  for (std::size_t j = 0; j < nc; ++j) work[j] = head[j];
  for (std::size_t i = 0; i < tail; ++i) {
    const cplx vi = std::conj(v[i]);
    const cplx* row = a + (r0 + 1 + i) * ld + c0;
    for (std::size_t j = 0; j < nc; ++j) work[j] += vi * row[j];
  }
  for (std::size_t j = 0; j < nc; ++j) {
    const cplx sw = sigma * work[j];
    head[j] -= sw;
    work[j] = sw;  // reuse as the scaled update for the tail rows
  }
  for (std::size_t i = 0; i < tail; ++i) {
    const cplx vi = v[i];
    cplx* row = a + (r0 + 1 + i) * ld + c0;
    for (std::size_t j = 0; j < nc; ++j) row[j] -= work[j] * vi;
  }
}

}  // namespace q2::la::hh
