// Fig. 10: the time to simulate one VQE circuit for hydrogen chains of 6 to
// 100 atoms (12 to 200 qubits) scales linearly with the qubit count at fixed
// bond dimension. As in the paper's large-scale runs, the ansatz is the
// distance-truncated UCCSD (fixed depth per qubit; see DESIGN.md
// substitution 6) so the gate count is O(n).
#include <cmath>

#include "bench_util.hpp"
#include "circuit/reorder.hpp"
#include "sim/mps.hpp"
#include "vqe/uccsd.hpp"

int main(int argc, char** argv) {
  using namespace q2;
  const int max_atoms = argc > 1 ? std::atoi(argv[1]) : 100;

  bench::header("Fig. 10: one-circuit MPS time vs qubit count (H chains)");
  bench::row({"atoms", "qubits", "gates", "time (s)", "s/qubit", "max bond"});

  std::vector<double> xs, ys;
  for (int atoms : {6, 10, 20, 30, 40, 60, 80, 100}) {
    if (atoms > max_atoms) break;
    const std::size_t n_orb = std::size_t(atoms);
    vqe::UccsdOptions opts;
    opts.distance_window = 2;      // fixed-depth-per-qubit regime
    opts.local_generalized = true; // localized-orbital chain ansatz
    opts.trotter_steps = 2;
    const vqe::UccsdAnsatz ansatz =
        vqe::build_uccsd(n_orb, atoms / 2, atoms / 2, opts);
    // Mid-optimization-sized angles of constant magnitude along the whole
    // chain keep every bond at the cap, so the timing probes the uniform-D
    // regime the figure is about.
    std::vector<double> params(ansatz.n_parameters);
    for (std::size_t k = 0; k < params.size(); ++k)
      params[k] = (k % 2 ? -0.7 : 0.7) * (0.8 + 0.2 * double((k * 37) % 11) / 11.0);
    const circ::CompiledCircuit compiled =
        circ::compile_for_mps(ansatz.circuit);
    const circ::Circuit& routed = compiled.gates;

    sim::MpsOptions mps_opts;
    mps_opts.max_bond = 16;
    mps_opts.svd_cutoff = 0.0;  // keep D pinned: uniform per-gate cost
    Timer t;
    sim::Mps mps(routed.n_qubits(), mps_opts);
    mps.run(compiled, params);
    const double secs = t.seconds();
    xs.push_back(double(routed.n_qubits()));
    ys.push_back(secs);
    bench::row({std::to_string(atoms), std::to_string(routed.n_qubits()),
                std::to_string(routed.size()), bench::fmte(secs),
                bench::fmte(secs / routed.n_qubits()),
                std::to_string(mps.max_bond_dimension())});
  }

  // Linear-fit quality: R^2 of time vs qubits.
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  const double n = double(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double r_num = n * sxy - sx * sy;
  const double r_den =
      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  const double r2 = r_den > 0 ? (r_num / r_den) * (r_num / r_den) : 0.0;
  std::printf("\nLinear fit R^2 of time-vs-qubits: %.4f (paper: visually"
              " linear up to 200 qubits).\n", r2);
  return 0;
}
