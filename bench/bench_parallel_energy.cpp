// On-node parallel energy evaluation: the level-2 Pauli-measurement sweep
// and the parameter-shift gradient of a full H4/STO-3G UCCSD energy
// evaluation, serial (1 thread) versus the shared-memory pool (§IV-C folded
// on-node). Reports wall-time speedups and verifies the parallel energies
// are byte-identical to serial — the index-order reduction guarantee.
//
//   ./bench_parallel_energy [--threads=N] [reps]
//
// N defaults to 4 (the acceptance configuration); speedups are only
// meaningful with >= N hardware cores.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.hpp"
#include "parallel/thread_pool.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"

namespace {

using namespace q2;

double time_energy(const vqe::EnergyEvaluator& eval,
                   const std::vector<double>& params, int reps, double* e) {
  Timer t;
  for (int r = 0; r < reps; ++r) *e = eval.energy(params);
  return t.seconds() / reps;
}

double time_gradient(const vqe::EnergyEvaluator& eval,
                     const std::vector<double>& params, int reps,
                     std::vector<double>* g) {
  Timer t;
  for (int r = 0; r < reps; ++r) *g = eval.parameter_shift_gradient(params);
  return t.seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;

  const std::size_t n_threads = [] {
    par::ParallelOptions probe;
    const std::size_t resolved = par::resolve_threads(probe);
    // Unconfigured resolution falls back to the pool; the acceptance
    // configuration is 4 threads.
    return resolved > 1 ? resolved : std::size_t(4);
  }();

  const bench::SolvedMolecule s =
      bench::solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(4, 2, 2);
  const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);

  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = n_threads;

  bench::BenchReport report("parallel_energy");
  report.set("n_threads", double(n_threads));
  report.set("hardware_threads", double(par::ThreadPool::global().size()));
  bench::header("On-node parallel energy: H4/STO-3G UCCSD, " +
                std::to_string(n_threads) + " threads vs 1 (reps=" +
                std::to_string(reps) + ")");
  bench::row({"workload", "serial s", "parallel s", "speedup", "identical"});

  double e1 = 0, eN = 0;
  obs::Counter& sweeps = obs::Registry::global().counter("mps.transfer_sweeps");
  const vqe::EnergyEvaluator serial(ansatz.circuit, h, serial_mps);
  const vqe::EnergyEvaluator parallel(ansatz.circuit, h, parallel_mps);
  {
    const std::uint64_t s0 = sweeps.value();
    const double t1 = time_energy(serial, params, reps, &e1);
    const std::uint64_t serial_sweeps = (sweeps.value() - s0) / reps;
    const std::uint64_t sN = sweeps.value();
    const double tN = time_energy(parallel, params, reps, &eN);
    const std::uint64_t parallel_sweeps = (sweeps.value() - sN) / reps;
    const bool identical = std::memcmp(&e1, &eN, sizeof(double)) == 0 &&
                           serial_sweeps == parallel_sweeps;
    bench::row({"direct_sweep", bench::fmte(t1), bench::fmte(tN),
                bench::fmt(t1 / tN, 2), identical ? "yes" : "NO"});
    report.set("direct_sweep_serial_seconds", t1);
    report.set("direct_sweep_parallel_seconds", tN);
    report.set("direct_sweep_speedup", t1 / tN);
    report.set("direct_sweep_identical", identical);
    report.set("direct_sweep_energy", eN);
    // The sweep count is part of the determinism contract: the commuting
    // grouping decides how many environment sweeps one evaluation takes,
    // and the thread count must not change it.
    report.set("direct_sweep_transfer_sweeps", double(serial_sweeps));
  }

  {
    std::vector<double> g1, gN;
    const double t1 = time_gradient(serial, params, 1, &g1);
    const double tN = time_gradient(parallel, params, 1, &gN);
    bool identical = g1.size() == gN.size();
    for (std::size_t k = 0; identical && k < g1.size(); ++k)
      identical = std::memcmp(&g1[k], &gN[k], sizeof(double)) == 0;
    bench::row({"parameter_shift", bench::fmte(t1), bench::fmte(tN),
                bench::fmt(t1 / tN, 2), identical ? "yes" : "NO"});
    report.set("parameter_shift_serial_seconds", t1);
    report.set("parameter_shift_parallel_seconds", tN);
    report.set("parameter_shift_speedup", t1 / tN);
    report.set("parameter_shift_identical", identical);
  }

  std::printf("\nenergy(serial) = %.17g\nenergy(parallel) = %.17g\n", e1, eN);
  return report.write() ? 0 : 1;
}
