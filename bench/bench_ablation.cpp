// Ablations of the design choices DESIGN.md calls out:
//  (1) LPT load balancing vs cost-oblivious round-robin for the Pauli-circuit
//      distribution (the "adapted dynamical load balancing" claim);
//  (2) gate fusion on/off for the MPS engine;
//  (3) Hadamard-test measurement vs direct expectation (the faithful-vs-fast
//      measurement paths must agree while costing very differently);
//  (4) eager SWAP routing vs the lazy-reorder compile pass (how much of the
//      two-site work per ansatz replay the permutation tracking removes).
#include "bench_util.hpp"
#include "circuit/fusion.hpp"
#include "circuit/reorder.hpp"
#include "circuit/routing.hpp"
#include "parallel/scheduler.hpp"
#include "sim/hadamard_test.hpp"
#include "sim/mps.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"

int main() {
  using namespace q2;

  bench::header("Ablation 1: LPT vs round-robin circuit distribution");
  bench::row({"system", "ranks", "LPT makespan", "RR makespan", "LPT eff",
              "RR eff"});
  for (const auto& [name, mol] :
       {std::pair<const char*, chem::Molecule>{"LiH", chem::Molecule::lih()},
        {"H2O", chem::Molecule::h2o()}}) {
    const bench::SolvedMolecule s = bench::solve(mol);
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(
        s.mo.n_orbitals(), mol.n_electrons() / 2, mol.n_electrons() / 2);
    const vqe::EnergyEvaluator eval(ansatz.circuit, h);
    const auto costs = eval.term_costs();
    for (std::size_t ranks : {16u, 64u}) {
      const par::Schedule lpt = par::lpt_schedule(costs, ranks);
      const par::Schedule rr = par::round_robin_schedule(costs, ranks);
      bench::row({name, std::to_string(ranks), bench::fmt(lpt.makespan, 1),
                  bench::fmt(rr.makespan, 1),
                  bench::fmt(100 * par::efficiency(lpt), 1) + "%",
                  bench::fmt(100 * par::efficiency(rr), 1) + "%"});
    }
  }

  bench::header("Ablation 2: gate fusion in the MPS engine");
  bench::row({"system", "gates raw", "gates fused", "raw t(s)", "fused t(s)",
              "speedup"});
  {
    const chem::Molecule mol = chem::Molecule::lih();
    const bench::SolvedMolecule s = bench::solve(mol);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(s.mo.n_orbitals(), 2, 2);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);
    // Fusion must run on the routed (nearest-neighbour) stream, and the
    // parametric RZ gates act as barriers — realistic conditions. Both
    // streams run gate by gate: Mps::run compiles, and so would fuse both.
    const circ::Circuit routed =
        circ::route_to_nearest_neighbour(ansatz.circuit);
    const circ::Circuit fused = circ::fuse_single_qubit_gates(routed);
    sim::MpsOptions mo;
    mo.max_bond = 32;
    Timer t1;
    sim::Mps a(routed.n_qubits(), mo);
    for (const circ::Gate& g : routed.gates()) a.apply(g, params);
    const double raw_s = t1.seconds();
    Timer t2;
    sim::Mps b(fused.n_qubits(), mo);
    for (const circ::Gate& g : fused.gates()) b.apply(g, params);
    const double fused_s = t2.seconds();
    bench::row({"LiH UCCSD", std::to_string(routed.size()),
                std::to_string(fused.size()), bench::fmte(raw_s),
                bench::fmte(fused_s), bench::fmt(raw_s / fused_s, 2) + "x"});
  }

  bench::header("Ablation 3: direct vs Hadamard-test measurement");
  bench::row({"system", "terms", "direct t(s)", "hadamard t(s)", "|dE|"});
  {
    const chem::Molecule mol = chem::Molecule::h2(1.4);
    const bench::SolvedMolecule s = bench::solve(mol);
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(2, 1, 1);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.1);
    const vqe::EnergyEvaluator direct(ansatz.circuit, h);
    Timer t1;
    const double e1 = direct.energy(params);
    const double direct_s = t1.seconds();
    // Hardware-faithful: one ancilla circuit per Pauli string, run serially.
    Timer t2;
    double e2 = direct.constant_term();
    for (const auto& [p, coeff] : direct.terms())
      e2 += coeff.real() * sim::hadamard_test_mps(ansatz.circuit, params, p);
    const double hadamard_s = t2.seconds();
    bench::row({"H2", std::to_string(direct.n_terms()), bench::fmte(direct_s),
                bench::fmte(hadamard_s), bench::fmte(std::abs(e1 - e2))});
  }

  bench::header("Ablation 4: eager SWAP routing vs lazy reorder compile");
  bench::row({"system", "gates eager", "gates compiled", "swaps kept",
              "eager t(s)", "compiled t(s)", "speedup"});
  {
    const chem::Molecule mol = chem::Molecule::lih();
    const bench::SolvedMolecule s = bench::solve(mol);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(s.mo.n_orbitals(), 2, 2);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);
    const circ::Circuit eager = circ::fuse_single_qubit_gates(
        circ::route_to_nearest_neighbour(ansatz.circuit));
    const circ::CompiledCircuit compiled =
        circ::compile_for_mps(ansatz.circuit);
    sim::MpsOptions mo;
    mo.max_bond = 32;
    // Gate by gate: Mps::run would compile the eager SWAPs away.
    Timer t1;
    sim::Mps a(eager.n_qubits(), mo);
    for (const circ::Gate& g : eager.gates()) a.apply(g, params);
    const double eager_s = t1.seconds();
    Timer t2;
    sim::Mps b(compiled.gates.n_qubits(), mo);
    b.run(compiled, params);
    const double compiled_s = t2.seconds();
    bench::row({"LiH UCCSD", std::to_string(eager.size()),
                std::to_string(compiled.gates.size()),
                std::to_string(compiled.stats.swaps_materialized) + "/" +
                    std::to_string(compiled.stats.swaps_eager),
                bench::fmte(eager_s), bench::fmte(compiled_s),
                bench::fmt(eager_s / compiled_s, 2) + "x"});
  }
  return 0;
}
