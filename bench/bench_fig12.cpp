// Fig. 12: strong scaling of the DMET-MPS-VQE workload for the 1280-atom
// hydrogen chain, 10,240 -> 327,680 Sunway processes (665,600 -> 21,299,200
// cores). The machine model is calibrated with a *measured* per-gate MPS
// cost from this host (converted by the throughput ratio), then composes the
// paper's three-level structure. Paper: >= 92 % efficiency, ~30x speedup.
#include "bench_util.hpp"
#include "circuit/reorder.hpp"
#include "sim/mps.hpp"
#include "swsim/machine_model.hpp"
#include "vqe/uccsd.hpp"

namespace {

// Measure the per-gate, per-D^3 cost of the MPS engine on this host.
double calibrate_host_seconds_per_gate(std::size_t bond) {
  using namespace q2;
  vqe::UccsdOptions opts;
  opts.distance_window = 1;
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(8, 4, 4, opts);
  const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);
  const circ::CompiledCircuit compiled = circ::compile_for_mps(ansatz.circuit);
  const circ::Circuit& routed = compiled.gates;
  sim::MpsOptions mo;
  mo.max_bond = bond;
  Timer t;
  sim::Mps mps(routed.n_qubits(), mo);
  mps.run(compiled, params);
  const double d3 = double(bond) * double(bond) * double(bond);
  return t.seconds() / double(routed.size()) / d3;
}

}  // namespace

int main() {
  using namespace q2;
  const std::size_t bond = 64;
  const double host_cost = calibrate_host_seconds_per_gate(bond);
  // Convert host-core seconds to Sunway-process seconds via peak ratio
  // (one CG with CPE offload vs this host core; order-of-magnitude is all
  // the efficiency curve needs since it is a ratio of identical units).
  const double sunway_cost = host_cost * 0.5;

  sw::MachineModel model;
  sw::DmetWorkload w;
  w.n_fragments = 640;  // 1280 atoms, 2-atom fragments
  w.procs_per_group = 2048;
  w.vqe_iterations = 1;
  w.fragment = sw::hydrogen_fragment_workload(4, bond, sunway_cost, 12);

  bench::header("Fig. 12: strong scaling, H1280 chain (machine model)");
  bench::row({"processes", "cores", "time (s)", "speedup", "ideal",
              "efficiency"});
  const std::vector<long> procs = {10240, 20480, 40960, 81920, 163840, 327680};
  const auto pts = model.strong_scaling(w, procs);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bench::row({std::to_string(pts[i].processes), std::to_string(pts[i].cores),
                bench::fmte(pts[i].time_s), bench::fmt(pts[i].speedup, 2),
                bench::fmt(double(procs[i]) / double(procs[0]), 1),
                bench::fmt(pts[i].efficiency * 100, 1) + "%"});
  }
  std::printf(
      "\nPaper shape check: parallel efficiency exceeds 92%% and the largest"
      " run reaches\n~30x speedup over the 10,240-process baseline"
      " (ideal 32x).\n");
  std::printf("Calibration: host %.3e s/gate/D^3 at D=%zu.\n", host_cost, bond);
  return 0;
}
