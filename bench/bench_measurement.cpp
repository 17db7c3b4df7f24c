// Measurement-reduction extension bench: qubit-wise commuting grouping of
// the Hamiltonian's Pauli strings (§III-D future-work territory — fewer
// basis settings means fewer circuits on hardware). Reports the raw circuit
// count vs the grouped count for molecules of growing size, validates that
// groups are simultaneously measurable, then executes the grouped direct
// measurement on H4 and shows the transfer-sweep counter drop plus the
// bit-identity of the grouped energy.
#include "bench_util.hpp"
#include "pauli/grouping.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"

int main(int argc, char** argv) {
  using namespace q2;
  bench::init(argc, argv);
  bench::header("Extension: qubit-wise commuting measurement grouping");
  bench::row({"system", "qubits", "Pauli strings", "groups", "reduction"});

  struct Case {
    const char* name;
    chem::Molecule mol;
  };
  const Case cases[] = {
      {"H2", chem::Molecule::h2(1.4)},
      {"H4", chem::Molecule::hydrogen_chain(4, 1.8)},
      {"(H2)3", chem::Molecule::h2_trimer()},
      {"LiH", chem::Molecule::lih()},
      {"H2O", chem::Molecule::h2o()},
  };
  for (const Case& c : cases) {
    const bench::SolvedMolecule s = bench::solve(c.mol);
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    std::vector<pauli::PauliString> strings;  // identity needs no circuit
    for (const auto& [p, coeff] : h.sorted_terms())
      if (!p.is_identity()) strings.push_back(p);
    const auto groups = pauli::group_qubitwise_commuting(strings);
    bench::row({c.name, std::to_string(h.n_qubits()),
                std::to_string(strings.size()), std::to_string(groups.size()),
                bench::fmt(double(strings.size()) / double(groups.size()), 1) +
                    "x"});
  }
  std::printf(
      "\nEach group is measurable in one basis setting, so the grouped count"
      " is the number\nof distinct measurement circuits a hardware VQE (or"
      " the level-2 distribution)\nactually needs.\n");

  // The grouping is also live in the MPS direct-measurement path: one
  // environment sweep per group instead of one per term, with contributions
  // reduced in fixed term order so the energy stays bit-identical.
  bench::header("Grouped direct measurement on the MPS (H4/STO-3G UCCSD)");
  {
    const bench::SolvedMolecule s =
        bench::solve(chem::Molecule::hydrogen_chain(4, 1.8));
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(s.mo.n_orbitals(), 2, 2);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);

    sim::MpsOptions opts;
    opts.max_bond = 32;
    const vqe::EnergyEvaluator grouped(ansatz.circuit, h, opts);

    // Per-term baseline: prepare the compiled state, then one standalone
    // expectation (one transfer sweep) per term, reduced in term order.
    obs::Counter& sweeps =
        obs::Registry::global().counter("mps.transfer_sweeps");
    const std::uint64_t s0 = sweeps.value();
    Timer t_flat;
    sim::Mps state(int(ansatz.circuit.n_qubits()), opts);
    state.run(grouped.compiled_ansatz(), params);
    double e_terms = 0;
    for (const auto& [p, coeff] : grouped.terms())
      e_terms += (coeff * state.expectation(p)).real();
    const double e_flat = grouped.constant_term() + e_terms;
    const double flat_s = t_flat.seconds();
    const std::uint64_t flat_sweeps = sweeps.value() - s0;

    const std::uint64_t s1 = sweeps.value();
    Timer t_grouped;
    const double e_grouped = grouped.energy(params);
    const double grouped_s = t_grouped.seconds();
    const std::uint64_t grouped_sweeps = sweeps.value() - s1;

    bench::row({"mode", "sweeps", "energy eval s", "energy"});
    bench::row({"per-term", std::to_string(flat_sweeps), bench::fmte(flat_s),
                bench::fmt(e_flat, 12)});
    bench::row({"grouped", std::to_string(grouped_sweeps),
                bench::fmte(grouped_s), bench::fmt(e_grouped, 12)});
    const bool identical = e_flat == e_grouped;
    std::printf("\ngrouped energy is %s (%.17g vs %.17g), %llu -> %llu"
                " transfer sweeps\n",
                identical ? "bit-identical" : "NOT BIT-IDENTICAL", e_grouped,
                e_flat, (unsigned long long)flat_sweeps,
                (unsigned long long)grouped_sweeps);
    if (!identical || grouped_sweeps >= flat_sweeps) {
      std::printf("FAIL\n");
      return 1;
    }
  }
  return 0;
}
