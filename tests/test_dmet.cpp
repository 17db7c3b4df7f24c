// DMET tests: bath dimensions, the single-fragment == FCI identity, the H4
// ring against FCI (the Fig. 7a acceptance criterion, < 0.5 % relative
// error), chemical-potential behaviour, and distributed == serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chem/fci.hpp"
#include "chem/scf.hpp"
#include "dmet/dmet_driver.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd_reference.hpp"

namespace q2::dmet {
namespace {

chem::MoIntegrals mo_for(const chem::Molecule& mol, double* hf = nullptr,
                         double* e_fci = nullptr) {
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  EXPECT_TRUE(scf.converged);
  if (hf) *hf = scf.energy;
  chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  if (e_fci) {
    const int ne = mol.n_electrons();
    *e_fci = chem::fci_ground_state(mo, ne / 2, ne / 2).energy;
  }
  return mo;
}

TEST(Bath, DimensionsBoundedByFragment) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);

  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(6, 2));
  for (const Fragment& f : frags) {
    const EmbeddingBasis emb = make_bath(p, f);
    EXPECT_EQ(emb.n_fragment, 2u);
    EXPECT_LE(emb.n_bath, emb.n_fragment);
    // Embedding orbitals orthonormal.
    const la::RMatrix g = la::matmul(emb.w, emb.w, la::Op::kTrans, la::Op::kNone);
    for (std::size_t i = 0; i < g.rows(); ++i)
      for (std::size_t j = 0; j < g.cols(); ++j)
        EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-9);
  }
}

TEST(Bath, MatchesScalarReferenceSvd) {
  // The bath spans the left singular vectors of the env-fragment RDM block.
  // Against the frozen scalar Jacobi oracle: same count, same occupations,
  // and the same bath space — compared as the projector W_b W_b^T, which
  // does not depend on the basis either engine picks inside a degenerate
  // singular pair.
  for (int atoms : {6, 10}) {
    for (double bond : {1.4, 3.2}) {
      const chem::Molecule mol = chem::Molecule::hydrogen_ring(atoms, bond);
      const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
      const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
      const chem::ScfResult scf = chem::rhf(mol, basis, ints);
      const la::RMatrix p = oao_density(make_lowdin(ints.overlap), scf.density);
      const std::size_t n = p.rows();
      for (const Fragment& f : make_fragments(basis, mol.n_atoms(),
                                              uniform_atom_groups(atoms, 2))) {
        SCOPED_TRACE("H" + std::to_string(atoms) + " ring, bond " +
                     std::to_string(bond) + ", fragment orbital " +
                     std::to_string(f.orbitals[0]));
        std::vector<std::size_t> env;
        for (std::size_t o = 0; o < n; ++o)
          if (std::count(f.orbitals.begin(), f.orbitals.end(), o) == 0)
            env.push_back(o);
        la::CMatrix b(env.size(), f.orbitals.size());
        for (std::size_t r = 0; r < env.size(); ++r)
          for (std::size_t c = 0; c < f.orbitals.size(); ++c)
            b(r, c) = p(env[r], f.orbitals[c]);
        const la::SvdResult ref = la::svd_jacobi_reference(b);
        const EmbeddingBasis emb = make_bath(p, f);

        std::size_t kept = 0;
        la::RMatrix proj(n, n);  // W_b W_b^T - reference projector
        for (std::size_t k = 0; k < ref.s.size(); ++k) {
          if (ref.s[k] < 1e-8) continue;
          ASSERT_LT(kept, emb.n_bath);
          EXPECT_NEAR(emb.bath_occupations[kept++], ref.s[k], 1e-12);
          for (std::size_t r = 0; r < env.size(); ++r)
            for (std::size_t c = 0; c < env.size(); ++c)
              proj(env[r], env[c]) -=
                  (ref.u(r, k) * std::conj(ref.u(c, k))).real();
        }
        EXPECT_EQ(emb.n_bath, kept);
        for (std::size_t k = emb.n_fragment; k < emb.w.cols(); ++k)
          for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
              proj(r, c) += emb.w(r, k) * emb.w(c, k);
        for (std::size_t i = 0; i < proj.size(); ++i)
          EXPECT_NEAR(proj.data()[i], 0.0, 1e-12);
      }
    }
  }
}

TEST(Fragmenter, UniformGroupsAndValidation) {
  const auto groups = uniform_atom_groups(7, 2);
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[3].size(), 1u);
  const chem::Molecule mol = chem::Molecule::hydrogen_chain(4, 1.6);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  EXPECT_THROW(make_fragments(basis, 4, {{0, 1}, {1, 2, 3}}), Error);
  EXPECT_THROW(make_fragments(basis, 4, {{0, 1}}), Error);
}

TEST(Dmet, SingleFragmentReproducesFci) {
  // One fragment covering everything: no bath, no environment, and the DMET
  // energy must equal FCI exactly.
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  double e_fci = 0;
  mo_for(mol, nullptr, &e_fci);

  DmetOptions opts;
  opts.fragments = {{0, 1}};
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, e_fci, 1e-7);
  EXPECT_NEAR(r.total_electrons, 2.0, 1e-7);
}

TEST(Dmet, H4RingWithinHalfPercentOfFci) {
  // The Fig. 7(a) acceptance criterion on a small ring: relative error of
  // the DMET(FCI-solver) energy below 0.5 %.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  double e_hf = 0, e_fci = 0;
  mo_for(mol, &e_hf, &e_fci);

  DmetOptions opts;
  opts.fragments = uniform_atom_groups(4, 2);
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  EXPECT_LT(std::abs((r.energy - e_fci) / e_fci), 5e-3);
  // DMET should improve on the mean-field reference.
  EXPECT_LT(std::abs(r.energy - e_fci), std::abs(e_hf - e_fci));
  EXPECT_NEAR(r.total_electrons, 4.0, opts.electron_tolerance * 10);
}

TEST(Dmet, H6RingElectronCountMatches) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 1.8);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(6, 2);
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.total_electrons, 6.0, 1e-3);
  ASSERT_EQ(r.fragment_energies.size(), 3u);
  // Ring symmetry: all fragments equivalent.
  EXPECT_NEAR(r.fragment_energies[0], r.fragment_energies[1], 1e-5);
  EXPECT_NEAR(r.fragment_electrons[0], 2.0, 1e-3);
}

// Scripted solver for exercising the chemical-potential loop: recovers mu
// from the diagonal shift with_chemical_potential applied and reports a
// prescribed electron count N(mu) per fragment. N must be increasing in mu.
FragmentSolver make_scripted_solver(
    const std::function<double(double)>& electrons_of_mu) {
  return [electrons_of_mu](const EmbeddingProblem& prob,
                           const chem::MoIntegrals& solver_mo) {
    const std::size_t f0 = prob.fragment_orbitals.at(0);
    const double mu = prob.solver.h(f0, f0) - solver_mo.h(f0, f0);
    FragmentSolution sol;
    sol.energy = -1.0;
    sol.electrons = electrons_of_mu(mu);
    return sol;
  };
}

TEST(Dmet, MuBracketFailureIsReportedNotSilent) {
  // Regression: the lo/hi bracket-expansion loops shared one `expansions`
  // budget, so the hi side could borrow up to 12 doublings when lo used none
  // — and a bracket that genuinely failed went silently into bisection. The
  // root here sits at mu = 100: beyond each side's own 6-doubling budget
  // (0.5 * 2^6 = 32) but within the old borrowed 12 (0.5 * 2^12 = 2048).
  // Pre-PR code "converged" onto it; now the fit must be reported failed.
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  DmetOptions opts;
  opts.fragments = {{0}, {1}};  // two fragments so the mu fit engages
  // Per fragment: N(mu) = 1 + (mu - 100)/2000, increasing, crosses 1 at 100.
  const DmetResult r = run_dmet(mol, opts, make_scripted_solver([](double mu) {
                                  return 1.0 + (mu - 100.0) / 2000.0;
                                }));
  EXPECT_FALSE(r.converged);
  // 1 initial eval + 2 bracket endpoints + at most 6 hi expansions, and no
  // bisection sweep on the invalid bracket.
  EXPECT_LE(r.mu_iterations, 9);
}

TEST(Dmet, MuBracketWithinBudgetStillConverges) {
  // Root at mu = 5 needs 4 hi doublings (0.5 * 2^4 = 8 >= 5) — inside the
  // per-side budget, so the fit must succeed as before.
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  DmetOptions opts;
  opts.fragments = {{0}, {1}};
  const DmetResult r = run_dmet(mol, opts, make_scripted_solver([](double mu) {
                                  return 1.0 + (mu - 5.0) / 100.0;
                                }));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.mu, 5.0, 0.01);
  EXPECT_NEAR(r.total_electrons, 2.0, opts.electron_tolerance * 2);
}

TEST(Dmet, ParallelFragmentSolvesBitIdenticalToSerial) {
  // Fragment solves fan out on the pool; per-fragment results land in their
  // own slots and reduce in index order, so the total energy is exactly the
  // serial one.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  DmetOptions serial_opts;
  serial_opts.fragments = uniform_atom_groups(4, 2);
  serial_opts.parallel.n_threads = 1;
  DmetOptions parallel_opts = serial_opts;
  parallel_opts.parallel.n_threads = 4;

  const DmetResult a = run_dmet(mol, serial_opts, make_fci_solver());
  const DmetResult b = run_dmet(mol, parallel_opts, make_fci_solver());
  EXPECT_EQ(a.energy, b.energy);  // byte-identical
  EXPECT_EQ(a.mu, b.mu);
  ASSERT_EQ(a.fragment_energies.size(), b.fragment_energies.size());
  for (std::size_t f = 0; f < a.fragment_energies.size(); ++f)
    EXPECT_EQ(a.fragment_energies[f], b.fragment_energies[f]);
}

TEST(Dmet, ParallelFragmentsWithVqeSolverNestsSafely) {
  // The nesting acceptance case: fragment solves (outer parallel_for) invoke
  // VQE whose term sweep is an inner parallel_for on the same pool. Must
  // complete and match the serial nested result exactly.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  vqe::VqeOptions vqe_opts;
  vqe_opts.optimizer.max_iterations = 2;

  DmetOptions serial_opts;
  serial_opts.fragments = uniform_atom_groups(4, 2);
  serial_opts.fit_chemical_potential = false;  // one evaluate() is enough
  serial_opts.parallel.n_threads = 1;
  DmetOptions parallel_opts = serial_opts;
  parallel_opts.parallel.n_threads = 4;

  vqe_opts.mps.parallel.n_threads = 1;
  const DmetResult a = run_dmet(mol, serial_opts, make_vqe_solver(vqe_opts));
  vqe_opts.mps.parallel.n_threads = 2;
  const DmetResult b = run_dmet(mol, parallel_opts, make_vqe_solver(vqe_opts));
  EXPECT_EQ(a.energy, b.energy);
}

TEST(Dmet, VqeSolverMatchesFciSolverOnH2Fragments) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(4, 2);
  // The ring is homogeneous, so mu = 0 already balances the electron count;
  // skipping the fit keeps the VQE-solver test within budget.
  opts.fit_chemical_potential = false;
  const DmetResult fci_r = run_dmet(mol, opts, make_fci_solver());

  vqe::VqeOptions vopts;
  vopts.optimizer.max_iterations = 20;
  vopts.mps.max_bond = 16;
  const DmetResult vqe_r = run_dmet(mol, opts, make_vqe_solver(vopts));
  EXPECT_NEAR(vqe_r.energy, fci_r.energy, 5e-3);
  EXPECT_NEAR(vqe_r.total_electrons, 4.0, 5e-2);
}

TEST(Dmet, ChemicalPotentialShiftsElectrons) {
  // Raising mu on a fragment pulls electrons into it (monotonicity the
  // bisection relies on).
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);
  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(4, 2));
  const EmbeddingBasis emb = make_bath(p, frags[0]);
  const EmbeddingProblem prob = make_embedding(ints, lb, p, emb);
  const FragmentSolver solver = make_fci_solver();

  auto electrons_at = [&](double mu) {
    const chem::MoIntegrals shifted =
        with_chemical_potential(prob.solver, prob.fragment_orbitals, mu);
    return solver(prob, shifted).electrons;
  };
  EXPECT_LT(electrons_at(-0.3), electrons_at(0.3));
}

TEST(Dmet, EmbeddingProblemShapes) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);
  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(6, 2));
  const EmbeddingBasis emb = make_bath(p, frags[1]);
  const EmbeddingProblem prob = make_embedding(ints, lb, p, emb);
  EXPECT_EQ(prob.solver.n_orbitals(), emb.n_fragment + emb.n_bath);
  EXPECT_EQ(prob.n_alpha + prob.n_beta, 2 * int(emb.n_fragment));
  // The solver and energy Hamiltonians share ERIs but differ in h.
  EXPECT_NEAR(prob.solver.eri(0, 0, 1, 1), prob.energy.eri(0, 0, 1, 1), 1e-12);
}

TEST(Dmet, DistributedMatchesSerial) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(4, 2);
  const DmetResult serial = run_dmet(mol, opts, make_fci_solver());

  double dist_energy = 0, dist_ne = 0;
  par::World world(4);
  world.run([&](par::Comm& comm) {
    const DmetResult r =
        run_dmet_distributed(mol, opts, make_fci_solver(), comm, 2);
    if (comm.rank() == 0) {
      dist_energy = r.energy;
      dist_ne = r.total_electrons;
    }
  });
  EXPECT_NEAR(dist_energy, serial.energy, 1e-9);
  EXPECT_NEAR(dist_ne, serial.total_electrons, 1e-9);
}

}  // namespace
}  // namespace q2::dmet
