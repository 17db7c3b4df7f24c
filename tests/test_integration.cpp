// Cross-module integration invariants: variational bounds along a
// dissociation curve, exact Pauli-evolution sweeps, agreement of measurement
// pipelines, and the full DMET-VQE-distributed stack in one shot.
#include <gtest/gtest.h>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "circuit/builder.hpp"
#include "common/rng.hpp"
#include "dmet/dmet_driver.hpp"
#include "sim/hadamard_test.hpp"
#include "sim/statevector.hpp"
#include "vqe/vqe_driver.hpp"

namespace q2 {
namespace {

struct Solved {
  chem::ScfResult scf;
  chem::MoIntegrals mo;
};

Solved solve(const chem::Molecule& mol) {
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  Solved s;
  s.scf = chem::rhf(mol, basis, ints);
  EXPECT_TRUE(s.scf.converged);
  s.mo = chem::transform_to_mo(ints, s.scf.coefficients,
                               s.scf.nuclear_repulsion);
  return s;
}

class H2Dissociation : public ::testing::TestWithParam<double> {};

TEST_P(H2Dissociation, VariationalOrderingHolds) {
  const double r = GetParam();
  const Solved s = solve(chem::Molecule::h2(r));
  const chem::FciResult fci = chem::fci_ground_state(s.mo, 1, 1);
  vqe::VqeOptions opts;
  opts.optimizer.max_iterations = 60;
  const vqe::VqeResult v = vqe::run_vqe(s.mo, 1, 1, opts);
  // FCI <= VQE <= HF (the ansatz is variational within the qubit space).
  EXPECT_GE(v.energy, fci.energy - 1e-9) << "r=" << r;
  EXPECT_LE(v.energy, s.scf.energy + 1e-9) << "r=" << r;
  EXPECT_NEAR(v.energy, fci.energy, 2e-3) << "r=" << r;
}

INSTANTIATE_TEST_SUITE_P(BondLengths, H2Dissociation,
                         ::testing::Values(1.0, 1.4, 2.0, 2.8, 4.0));

class EvolutionAngles : public ::testing::TestWithParam<double> {};

TEST_P(EvolutionAngles, PauliEvolutionMatchesClosedForm) {
  const double theta = GetParam();
  Rng rng(31);
  const pauli::PauliString p = pauli::PauliString::parse(4, "X0 Z1 Y3");
  const circ::Circuit prep = circ::brickwork_circuit(4, 2, rng);
  sim::StateVector sv(4);
  sv.run(prep);
  // exp(-i theta/2 P)|psi> = cos(theta/2)|psi> - i sin(theta/2) P|psi>.
  std::vector<cplx> expected(sv.dim());
  std::vector<cplx> px(sv.dim(), cplx{});
  sim::accumulate_pauli_apply(p, 1.0, sv.amplitudes(), px);
  for (std::size_t i = 0; i < expected.size(); ++i)
    expected[i] = std::cos(theta / 2) * sv.amplitudes()[i] -
                  cplx(0, 1) * std::sin(theta / 2) * px[i];
  circ::Circuit evo(4);
  circ::append_pauli_evolution(evo, p, theta);
  sv.run(evo);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_LT(std::abs(expected[i] - sv.amplitudes()[i]), 1e-12)
        << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Angles, EvolutionAngles,
                         ::testing::Values(-3.0, -1.2, -0.3, 0.0, 0.3, 0.9,
                                           1.7, 3.1));

TEST(Integration, HadamardModeReachesSameOptimum) {
  // The hardware-faithful measurement (one Hadamard-test circuit per Pauli
  // string) must read the same energy at the direct VQE's optimum.
  const Solved s = solve(chem::Molecule::h2(1.4));
  vqe::VqeOptions direct;
  direct.optimizer.max_iterations = 40;
  const vqe::VqeResult a = vqe::run_vqe(s.mo, 1, 1, direct);

  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const vqe::UccsdAnsatz ansatz =
      vqe::build_uccsd(s.mo.n_orbitals(), 1, 1, direct.ansatz);
  double oracle = 0.0;
  for (const auto& [p, c] : h.sorted_terms())
    oracle += p.is_identity()
                  ? c.real()
                  : c.real() * sim::hadamard_test_mps(ansatz.circuit,
                                                      a.parameters, p,
                                                      direct.mps);
  EXPECT_NEAR(a.energy, oracle, 1e-6);
}

TEST(Integration, DmetVqeDistributedFullStack) {
  // Fragments over sub-communicators with a VQE fragment solver: the whole
  // three-level architecture in one assertion.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  dmet::DmetOptions opts;
  opts.fragments = dmet::uniform_atom_groups(4, 2);
  opts.fit_chemical_potential = false;
  vqe::VqeOptions vopts;
  vopts.optimizer.max_iterations = 12;
  vopts.mps.max_bond = 16;

  const dmet::DmetResult serial =
      dmet::run_dmet(mol, opts, dmet::make_vqe_solver(vopts));
  double dist = 0;
  par::World world(2);
  world.run([&](par::Comm& comm) {
    const dmet::DmetResult r = dmet::run_dmet_distributed(
        mol, opts, dmet::make_vqe_solver(vopts), comm, 2);
    if (comm.rank() == 0) dist = r.energy;
  });
  EXPECT_NEAR(dist, serial.energy, 1e-9);
}

TEST(Integration, LocalGeneralizedAnsatzConservesParticles) {
  vqe::UccsdOptions opts;
  opts.local_generalized = true;
  opts.distance_window = 2;
  const vqe::UccsdAnsatz a = vqe::build_uccsd(4, 2, 2, opts);
  std::vector<double> params(a.n_parameters, 0.4);
  sim::StateVector sv(a.n_qubits);
  sv.run(a.circuit, params);
  pauli::QubitOperator n_op(std::size_t(a.n_qubits));
  for (std::size_t q = 0; q < std::size_t(a.n_qubits); ++q)
    n_op += pauli::jw_number(std::size_t(a.n_qubits), q);
  EXPECT_NEAR(sv.expectation(n_op).real(), 4.0, 1e-9);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

TEST(Integration, FrozenCoreVqeMatchesActiveSpaceFci) {
  const Solved s = solve(chem::Molecule::lih());
  const chem::MoIntegrals act = chem::make_active_space(s.mo, 1, 4);
  const chem::FciResult fci = chem::fci_ground_state(act, 1, 1);
  vqe::VqeOptions opts;
  opts.optimizer.max_iterations = 50;
  const vqe::VqeResult v = vqe::run_vqe(act, 1, 1, opts);
  EXPECT_NEAR(v.energy, fci.energy, 2e-3);
}

}  // namespace
}  // namespace q2
