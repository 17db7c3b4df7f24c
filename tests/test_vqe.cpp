// End-to-end VQE tests: H2 to chemical accuracy against FCI, agreement of
// the evaluator's direct measurement with the Hadamard-test oracle, the
// optimizers on analytic functions, and distributed == serial determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "obs/report.hpp"
#include "parallel/comm.hpp"
#include "sim/hadamard_test.hpp"
#include "vqe/vqe_driver.hpp"

namespace q2::vqe {
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

TEST(Optimizer, AdamQuadraticBowl) {
  EnergyFn f = [](const std::vector<double>& x) {
    return (x[0] - 1) * (x[0] - 1) + 2 * (x[1] + 0.5) * (x[1] + 0.5);
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(f, x);
  };
  OptimizerOptions opts;
  opts.max_iterations = 500;
  const OptimizerResult r = minimize_adam(f, g, {0, 0}, opts);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-2);
  EXPECT_NEAR(r.parameters[1], -0.5, 1e-2);
}

TEST(Optimizer, LbfgsRosenbrockish) {
  EnergyFn f = [](const std::vector<double>& x) {
    const double a = 1 - x[0], b = x[1] - x[0] * x[0];
    return a * a + 10 * b * b;
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(f, x);
  };
  OptimizerOptions opts;
  opts.max_iterations = 200;
  opts.gradient_tolerance = 1e-8;
  const OptimizerResult r = minimize_lbfgs(f, g, {-1.0, 1.0}, opts);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-4);
  EXPECT_NEAR(r.parameters[1], 1.0, 1e-4);
}

TEST(Optimizer, LbfgsConvergesFasterThanAdamOnQuadratic) {
  EnergyFn f = [](const std::vector<double>& x) {
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += (i + 1) * x[i] * x[i];
    return s;
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(f, x);
  };
  OptimizerOptions opts;
  opts.max_iterations = 100;
  const OptimizerResult lb = minimize_lbfgs(f, g, {1, 1, 1, 1}, opts);
  EXPECT_LT(lb.energy, 1e-8);
  EXPECT_LT(lb.iterations, 30);
}

TEST(Optimizer, SpsaReducesEnergy) {
  EnergyFn f = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  Rng rng(5);
  OptimizerOptions opts;
  opts.max_iterations = 150;
  opts.learning_rate = 0.3;
  const OptimizerResult r = minimize_spsa(f, {1.0, -1.0}, rng, opts);
  EXPECT_LT(r.energy, 0.3);
}

TEST(EnergyEvaluator, HfEnergyAtZeroParameters) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit, h);
  const std::vector<double> zeros(ansatz.n_parameters, 0.0);
  EXPECT_NEAR(eval.energy(zeros), s.scf.energy, 1e-8);
}

TEST(EnergyEvaluator, MeasurementModesAgree) {
  // The evaluator's direct measurement against the hardware-faithful oracle:
  // one ancilla circuit per Pauli string (Fig. 5), E = c_0 + sum_k c_k <P_k>.
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);

  const EnergyEvaluator direct(ansatz.circuit, h);
  ASSERT_EQ(direct.n_terms(), 14u);  // 15 terms minus identity
  double oracle = direct.constant_term();
  for (const auto& [p, c] : direct.terms())
    oracle += c.real() * sim::hadamard_test_mps(ansatz.circuit, params, p);
  EXPECT_NEAR(direct.energy(params), oracle, 1e-7);
}

TEST(EnergyEvaluator, PartialEnergiesSumToTotal) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit, h);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);
  std::vector<std::size_t> evens, odds;
  for (std::size_t i = 0; i < eval.n_terms(); ++i)
    (i % 2 ? odds : evens).push_back(i);
  const double total = eval.partial_energy(params, evens) +
                       eval.partial_energy(params, odds) +
                       eval.constant_term();
  EXPECT_NEAR(total, eval.energy(params), 1e-10);
}

TEST(EnergyEvaluator, ParameterShiftMatchesFiniteDifferences) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit, h);
  const std::vector<double> params = initial_parameters(ansatz, 0.15);

  const std::vector<double> exact = eval.parameter_shift_gradient(params);
  EnergyFn f = [&](const std::vector<double>& x) { return eval.energy(x); };
  const std::vector<double> fd = finite_difference_gradient(f, params, 1e-6);
  ASSERT_EQ(exact.size(), fd.size());
  for (std::size_t k = 0; k < exact.size(); ++k)
    EXPECT_NEAR(exact[k], fd[k], 1e-6) << "param " << k;
}

TEST(Vqe, H2ReachesChemicalAccuracy) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const chem::FciResult fci = chem::fci_ground_state(s.mo, 1, 1);
  VqeOptions opts;
  opts.optimizer.max_iterations = 60;
  const VqeResult r = run_vqe(s.mo, 1, 1, opts);
  // Chemical accuracy: 1.6 mHa.
  EXPECT_NEAR(r.energy, fci.energy, 1.6e-3);
  EXPECT_LT(r.energy, s.scf.energy);
  EXPECT_EQ(r.n_pauli_terms, 14u);
}

TEST(Vqe, StretchedH2CapturesStaticCorrelation) {
  const Solved s = solve(chem::Molecule::h2(2.8));
  const chem::FciResult fci = chem::fci_ground_state(s.mo, 1, 1);
  VqeOptions opts;
  opts.optimizer.max_iterations = 80;
  const VqeResult r = run_vqe(s.mo, 1, 1, opts);
  EXPECT_NEAR(r.energy, fci.energy, 1.6e-3);
  // RHF misses a lot here; VQE must recover it.
  EXPECT_LT(r.energy, s.scf.energy - 0.02);
}

TEST(Vqe, EnergyHistoryIsMonotoneWithLbfgs) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.optimizer.max_iterations = 40;
  const VqeResult r = run_vqe(s.mo, 1, 1, opts);
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_LE(r.history[i], r.history[i - 1] + 1e-9);
}

TEST(EnergyEvaluator, ParallelEnergyBitIdenticalToSerial_H4) {
  // The parallel Pauli-term sweep reduces per-term contributions in index
  // order, so the energy must match the serial sweep bit-for-bit — not just
  // to tolerance — at any thread count.
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);

  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = 4;
  const EnergyEvaluator serial(ansatz.circuit, h, serial_mps);
  const EnergyEvaluator parallel(ansatz.circuit, h, parallel_mps);

  const double e_serial = serial.energy(params);
  const double e_parallel = parallel.energy(params);
  EXPECT_EQ(e_serial, e_parallel);  // byte-identical, not EXPECT_NEAR
}

TEST(EnergyEvaluator, ParallelGradientBitIdenticalToSerial) {
  // Each of the 2N shifted-circuit evaluations is independent; entries are
  // chain-ruled in occurrence order regardless of which thread ran them.
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.15);

  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = 4;
  const EnergyEvaluator serial(ansatz.circuit, h, serial_mps);
  const EnergyEvaluator parallel(ansatz.circuit, h, parallel_mps);

  const std::vector<double> g1 = serial.parameter_shift_gradient(params);
  const std::vector<double> g4 = parallel.parameter_shift_gradient(params);
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t k = 0; k < g1.size(); ++k)
    EXPECT_EQ(g1[k], g4[k]) << "param " << k;
}

TEST(EnergyEvaluator, HadamardMemoryEfficientReportsTruncationError) {
  // With a bond cap of 1 both the Hadamard-test oracle's circuits and the
  // evaluator's prepared state must truncate, and both must say so: the
  // oracle through its out-param, the evaluator through
  // last_truncation_error() (the fidelity column of JSONL reports).
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.15);

  sim::MpsOptions tight;
  tight.max_bond = 1;
  const EnergyEvaluator eval(ansatz.circuit, h, tight);
  double worst = 0.0;
  for (const auto& [p, c] : eval.terms()) {
    double trunc = -1.0;
    sim::hadamard_test_mps(ansatz.circuit, params, p, tight, &trunc);
    EXPECT_GE(trunc, 0.0);
    worst = std::max(worst, trunc);
  }
  EXPECT_GT(worst, 0.0);

  EXPECT_EQ(eval.last_truncation_error(), 0.0);
  eval.energy(params);
  EXPECT_GT(eval.last_truncation_error(), 0.0);
}

TEST(Vqe, DistributedMatchesSerial) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.optimizer.max_iterations = 25;
  const VqeResult serial = run_vqe(s.mo, 1, 1, opts);

  double distributed_energy = 0;
  std::uint64_t bytes = 0;
  par::World world(4);
  world.run([&](par::Comm& comm) {
    const VqeResult r = run_vqe_distributed(s.mo, 1, 1, opts, comm);
    if (comm.rank() == 0) {
      distributed_energy = r.energy;
      bytes = comm.bytes_transferred();
    }
  });
  EXPECT_NEAR(distributed_energy, serial.energy, 1e-9);
  (void)bytes;
}

TEST(Vqe, DistributedRunRecordsOneSchedule) {
  // Every rank computes the same LPT partition; the run report must carry
  // it once, not once per rank.
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.optimizer.max_iterations = 2;
  const std::string path =
      ::testing::TempDir() + "q2_test_distributed_schedule.jsonl";
  obs::RunReport& report = obs::RunReport::global();
  ASSERT_TRUE(report.open(path));
  par::World world(4);
  world.run([&](par::Comm& comm) {
    (void)run_vqe_distributed(s.mo, 1, 1, opts, comm);
  });
  report.close();

  std::ifstream in(path);
  int schedules = 0, lines = 0;
  for (std::string line; std::getline(in, line); ++lines)
    if (line.find("\"kind\":\"schedule\"") != std::string::npos)
      ++schedules;
  EXPECT_GT(lines, 1);
  EXPECT_EQ(schedules, 1);
}

}  // namespace
}  // namespace q2::vqe
