#include "dmet/bath.hpp"

#include <algorithm>

#include "linalg/svd.hpp"

namespace q2::dmet {

EmbeddingBasis make_bath(const la::RMatrix& p_oao, const Fragment& fragment,
                         double threshold) {
  const std::size_t n = p_oao.rows();
  const std::size_t nf = fragment.orbitals.size();
  require(nf >= 1 && nf <= n, "make_bath: bad fragment");

  std::vector<bool> in_frag(n, false);
  for (std::size_t o : fragment.orbitals) in_frag[o] = true;
  std::vector<std::size_t> env;
  for (std::size_t o = 0; o < n; ++o)
    if (!in_frag[o]) env.push_back(o);

  // Environment-fragment block of the mean-field RDM.
  la::CMatrix b(env.size(), nf);
  for (std::size_t r = 0; r < env.size(); ++r)
    for (std::size_t c = 0; c < nf; ++c)
      b(r, c) = p_oao(env[r], fragment.orbitals[c]);

  EmbeddingBasis emb;
  emb.n_fragment = nf;
  std::vector<std::vector<double>> bath_vecs;  // in env coordinates
  if (!env.empty()) {
    // Real input keeps every factor of the Jacobi engine exactly real, so
    // dropping the (zero) imaginary parts of U loses nothing.
    const la::SvdResult f = la::svd_jacobi(b);
    for (std::size_t k = 0; k < f.s.size(); ++k) {
      if (f.s[k] < threshold) continue;
      std::vector<double> v(env.size());
      for (std::size_t r = 0; r < env.size(); ++r) v[r] = f.u(r, k).real();
      bath_vecs.push_back(std::move(v));
      emb.bath_occupations.push_back(f.s[k]);
    }
  }
  emb.n_bath = bath_vecs.size();

  emb.w = la::RMatrix(n, nf + emb.n_bath);
  for (std::size_t c = 0; c < nf; ++c) emb.w(fragment.orbitals[c], c) = 1.0;
  for (std::size_t k = 0; k < emb.n_bath; ++k)
    for (std::size_t r = 0; r < env.size(); ++r)
      emb.w(env[r], nf + k) = bath_vecs[k][r];
  return emb;
}

}  // namespace q2::dmet
