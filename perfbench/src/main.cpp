// Workload runner of the end-to-end benchmark. run.py builds this binary,
// runs one workload per process and judges the raw measurements it prints
// against the pinned references.
//
//   perfbench_workloads run --workload NAME --seed N --seconds S --trace 0|1
//                           [--trace-out FILE]
//   perfbench_workloads setup --workload NAME --seconds S
//   perfbench_workloads references [WORKLOAD...]
//
// `run` prints one JSON document: provenance, the cold set-up, every
// measured solve with its registry work counts, and (traced runs only) the
// per-layer probes. `setup` prints the timings of repeated set-ups of a VQE
// workload. `references` recomputes what pins.json records: FCI
// energies for every workload geometry, the converged energy of the windowed
// ansatz, and the exact work counts of one solve of each workload. It takes
// minutes (one H10 FCI is ~40 s on a 4-core host) and never runs in a timed
// process.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "chem/basis.hpp"
#include "chem/fci.hpp"
#include "chem/integrals.hpp"
#include "chem/scf.hpp"
#include "linalg/simd.hpp"
#include "linalg/svd.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/mps.hpp"
#include "vqe/energy.hpp"
#include "vqe/vqe_driver.hpp"
#include "workloads.hpp"

namespace {

using namespace q2;
using perfbench::Clock;
using perfbench::Counts;
using perfbench::median;
using perfbench::SpanLog;
using perfbench::timed;
using obs::JsonValue;

// Counters every solve reports; together they are the exact work of a run.
const char* const kCounters[] = {
    "mps.gates",          "la.svd.sweeps",        "la.svd.truncated_calls",
    "mps.transfer_sweeps", "work.flops",          "vqe.energy_evaluations",
    "comm.bytes",         "dmet.fragment_solves",
};

JsonValue raw(const std::string& s) { return JsonValue::raw(s); }

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::string counts_json(const Counts& c) {
  std::vector<obs::JsonField> f;
  for (const char* name : kCounters) {
    const auto it = c.find(name);
    f.emplace_back(name, JsonValue(it == c.end() ? std::uint64_t{0} : it->second));
  }
  return obs::json_object(f);
}

std::string seconds_map_json(const std::map<std::string, double>& m) {
  std::vector<obs::JsonField> f;
  for (const auto& [k, v] : m) f.emplace_back(k, JsonValue(v));
  return obs::json_object(f);
}

/// Repeats fn until it has run `min_reps` times and `min_seconds` passed
/// (capped at `max_reps`); returns each repetition's seconds.
template <typename F>
std::vector<double> repeat(int min_reps, int max_reps, double min_seconds,
                           F&& fn) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (int(out.size()) < max_reps &&
         (int(out.size()) < min_reps ||
          perfbench::seconds_between(start, Clock::now()) < min_seconds)) {
    out.push_back(timed(nullptr, "", fn));
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  return a;
}

std::string provenance(const Args& a, int ranks, std::size_t threads_per_rank,
                       const std::string& params) {
  return obs::json_object(
      {{"build_type", PERFBENCH_BUILD_TYPE},
       {"compiler", __VERSION__},
       {"simd_isa", la::simd::isa_name(la::simd::active_isa())},
       {"ranks", ranks},
       {"threads_per_rank", threads_per_rank},
       {"pool_workers", par::ThreadPool::global().size()},
       {"hardware_threads", std::thread::hardware_concurrency()},
       {"workload", a.workload},
       {"workload_parameters", raw(params)},
       {"seed", a.seed},
       {"seconds", a.seconds},
       {"trace", a.trace}});
}

std::string vqe_solve_json(const perfbench::VqeSolve& s, bool traced) {
  std::vector<std::string> its;
  for (const auto& it : s.iterations)
    its.push_back(obs::json_object(
        {{"iteration", it.iteration}, {"t_s", it.t_s}, {"energy", it.energy}}));
  return obs::json_object({{"traced", traced},
                           {"wall_s", s.wall_s},
                           {"cpu_s", s.cpu_s},
                           {"energy", s.energy},
                           {"error", s.error},
                           {"iterations", raw(json_array(its))},
                           {"counts", raw(counts_json(s.counts))}});
}

// Per-layer probes of a VQE workload: time single public calls on the
// workload's own circuit and Hamiltonian at parameters near the solve's end
// point (seeded jitter), with the workload's per-rank thread count.
std::string vqe_probes(const perfbench::VqeWorkload& w,
                       const perfbench::VqeSetup& setup,
                       const std::vector<double>& theta_end,
                       std::uint64_t seed, SpanLog* log) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> jitter(0.0, 1e-3);
  std::vector<double> theta = theta_end;
  for (double& t : theta) t += jitter(rng);

  sim::MpsOptions mps;
  mps.max_bond = w.max_bond;
  mps.parallel.n_threads = w.threads_per_rank;
  const int nq = setup.ansatz.circuit.n_qubits();

  // State preparation: Mps::run on the compiled stream.
  std::uint64_t prep_flops = 0;
  sim::Mps state(nq, mps);
  const std::vector<double> prep = repeat(5, 50, 2.0, [&] {
    const Counts c0 = perfbench::counter_snapshot();
    const Clock::time_point t0 = Clock::now();
    sim::Mps s(nq, mps);
    s.run(setup.compiled, theta);
    if (log) log->record("sim/Mps::run", t0, Clock::now());
    const Counts d = perfbench::counter_delta(c0, perfbench::counter_snapshot());
    prep_flops = d.at("work.flops");
    state = std::move(s);
  });

  // Measurement: every QWC group through Mps::expectation_batch, fanned out
  // over the workload's threads the way the evaluator sweeps groups.
  std::vector<std::vector<pauli::PauliString>> batches;
  for (const auto& g : setup.groups) {
    batches.emplace_back();
    for (std::size_t k : g.members) batches.back().push_back(setup.terms[k]);
  }
  const std::vector<double> measure = repeat(5, 50, 2.0, [&] {
    const Clock::time_point t0 = Clock::now();
    par::ParallelOptions po = mps.parallel;
    po.grain = 1;
    par::parallel_for(po, 0, batches.size(), [&](std::size_t b) {
      (void)state.expectation_batch(batches[b]);
    });
    if (log) log->record("sim/Mps::expectation_batch", t0, Clock::now());
  });

  // One whole energy evaluation through the production evaluator.
  const vqe::EnergyEvaluator evaluator(setup.ansatz.circuit, setup.hamiltonian,
                                       mps);
  const std::vector<double> energy = repeat(3, 30, 2.0, [&] {
    timed(log, "vqe/EnergyEvaluator::energy",
          [&] { (void)evaluator.energy(theta); });
  });

  // Truncated SVD on the two-site operand shapes of the prepared state.
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (int k = 0; k + 1 < nq; ++k) {
    const std::size_t dl = k > 0 ? state.bond_dimension(k - 1) : 1;
    const std::size_t dr = k + 2 < nq ? state.bond_dimension(k + 1) : 1;
    shapes.emplace_back(2 * dl, 2 * dr);
  }
  std::normal_distribution<double> unit(0.0, 1.0);
  std::vector<la::CMatrix> operands;
  for (const auto& [m, n] : shapes) {
    la::CMatrix a(m, n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = cplx(unit(rng), unit(rng));
    operands.push_back(std::move(a));
  }
  const std::vector<double> svd = repeat(5, 200, 1.0, [&] {
    timed(log, "linalg/svd_truncated", [&] {
      for (const la::CMatrix& a : operands)
        (void)la::svd_truncated(a, w.max_bond, mps.svd_cutoff, mps.parallel);
    });
  });

  return obs::json_object(
      {{"state_prep_s", median(prep)},
       {"state_prep_flops", prep_flops},
       {"measure_s", median(measure)},
       {"energy_eval_s", median(energy)},
       {"svd_call_s", median(svd) / double(operands.size())},
       {"max_bond", state.max_bond_dimension()},
       {"truncation_error", state.truncation_error()}});
}

int run_vqe_workload(const Args& a, const perfbench::VqeWorkload& w) {
  std::unique_ptr<SpanLog> log;
  if (a.trace) log = std::make_unique<SpanLog>();

  // The solve's own set-up is the run's cold one (setup.cold_s); the warm
  // repetitions behind setup_s run in separate `setup` processes.
  const perfbench::VqeSetup setup = perfbench::prepare_vqe(w, log.get());

  // Solves: repeat while another solve of the last one's length still fits
  // into the measuring window. A traced run measures one untraced and one
  // traced solve, so their ratio is the tracing overhead.
  std::vector<std::string> solves;
  std::vector<double> theta_end = vqe::initial_parameters(setup.ansatz);
  const Clock::time_point solve_start = Clock::now();
  double last = 0.0;
  for (int k = 0;; ++k) {
    const bool traced = a.trace && k % 2 == 1;
    const perfbench::VqeSolve s =
        perfbench::solve_vqe(w, setup, traced ? log.get() : nullptr);
    solves.push_back(vqe_solve_json(s, traced));
    if (!s.parameters.empty()) theta_end = s.parameters;
    last = s.wall_s;
    const double elapsed = perfbench::seconds_between(solve_start, Clock::now());
    if (a.trace ? k >= 1 : elapsed + last > a.seconds) break;
  }

  const std::string probes =
      a.trace ? vqe_probes(w, setup, theta_end, a.seed, log.get()) : "null";
  if (log && !a.trace_out.empty()) std::ofstream(a.trace_out) << log->chrome_json();

  const std::string params = obs::json_object(
      {{"molecule", "hydrogen_chain"},
       {"n_atoms", w.n_atoms},
       {"spacing_bohr", w.spacing_bohr},
       {"basis", "sto-3g"},
       {"distance_window", w.distance_window},
       {"max_bond", w.max_bond},
       {"iteration_budget", w.iteration_budget},
       {"optimizer", "lbfgs"}});
  std::printf("%s\n",
              obs::json_object(
                  {{"provenance", raw(provenance(a, w.ranks, w.threads_per_rank, params))},
                   {"problem",
                    raw(obs::json_object(
                        {{"n_qubits", setup.ansatz.circuit.n_qubits()},
                         {"n_parameters", setup.ansatz.n_parameters},
                         {"scf_converged", setup.scf_converged},
                         {"scf_iterations", setup.scf_iterations},
                         {"pauli_terms", setup.terms.size()},
                         {"pauli_groups", setup.groups.size()},
                         {"compiled_gates", setup.compiled.gates.size()},
                         {"two_qubit_gates",
                          setup.compiled.gates.two_qubit_gate_count()},
                         {"swaps_materialized",
                          setup.compiled.stats.swaps_materialized}}))},
                   {"cold_setup", raw(seconds_map_json(setup.seconds))},
                   {"solves", raw(json_array(solves))},
                   {"probes", raw(probes)},
                   {"peak_rss_mb", perfbench::peak_rss_mb()}})
                  .c_str());
  return 0;
}

// Set-up repetitions of a VQE workload for `seconds`, and at least five;
// the first is the process's cold one.
int run_setup_reps(const Args& a, const perfbench::VqeWorkload& w) {
  std::vector<std::string> reps;
  const Clock::time_point start = Clock::now();
  while (reps.size() < 5 ||
         perfbench::seconds_between(start, Clock::now()) < a.seconds)
    reps.push_back(seconds_map_json(perfbench::prepare_vqe(w, nullptr).seconds));
  std::printf("%s\n", obs::json_object({{"setup", raw(json_array(reps))}}).c_str());
  return 0;
}

std::string scan_solve_json(const perfbench::ScanSolve& s, bool traced) {
  std::vector<std::string> pts;
  for (const auto& p : s.points)
    pts.push_back(obs::json_object({{"bond_bohr", p.bond_bohr},
                                    {"ok", p.ok},
                                    {"error", p.error},
                                    {"energy", p.energy},
                                    {"converged", p.converged},
                                    {"mu_iterations", p.mu_iterations},
                                    {"to_first_solve_s", p.to_first_solve_s},
                                    {"done_s", p.done_s}}));
  return obs::json_object({{"traced", traced},
                           {"wall_s", s.wall_s},
                           {"cpu_s", s.cpu_s},
                           {"points", raw(json_array(pts))},
                           {"mu_eval_s", JsonValue(s.mu_eval_s)},
                           {"fragment_solve_s", JsonValue(s.fragment_solve_s)},
                           {"counts", raw(counts_json(s.counts))}});
}

// Chem-layer probes of the scan: integrals and RHF of every scan geometry,
// timed outside run_dmet (which performs the same calls internally).
std::string scan_probes(const perfbench::ScanWorkload& w, SpanLog* log) {
  std::vector<double> integrals, scf;
  int scf_iterations = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double ti = 0.0, ts = 0.0;
    scf_iterations = 0;
    for (double bond : w.bonds_bohr) {
      const chem::Molecule mol = chem::Molecule::hydrogen_ring(w.n_atoms, bond);
      const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
      chem::IntegralTables ints;
      ti += timed(log, "chem/compute_integrals",
                  [&] { ints = chem::compute_integrals(mol, basis); });
      ts += timed(log, "chem/rhf", [&] {
        scf_iterations += chem::rhf(mol, basis, ints).iterations;
      });
    }
    integrals.push_back(ti);
    scf.push_back(ts);
  }
  return obs::json_object({{"integrals_s", median(integrals)},
                           {"scf_s", median(scf)},
                           {"scf_iterations", scf_iterations}});
}

int run_scan_workload(const Args& a, const perfbench::ScanWorkload& w) {
  std::unique_ptr<SpanLog> log;
  if (a.trace) log = std::make_unique<SpanLog>();
  // The first scan is the cold one (its set-up is setup.cold_s); untraced and
  // traced scans alternate in a traced run.
  std::vector<std::string> solves;
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const bool traced = a.trace && k % 2 == 1;
    const perfbench::ScanSolve s =
        perfbench::solve_scan(w, traced ? log.get() : nullptr);
    solves.push_back(scan_solve_json(s, traced));
    const double elapsed = perfbench::seconds_between(start, Clock::now());
    if (k >= (a.trace ? 3 : 2) && elapsed + s.wall_s > a.seconds) break;
  }
  const std::string probes = a.trace ? scan_probes(w, log.get()) : "null";
  if (log && !a.trace_out.empty()) std::ofstream(a.trace_out) << log->chrome_json();

  std::vector<std::string> bonds;
  for (double b : w.bonds_bohr) bonds.push_back(obs::json_number(b));
  const std::string params = obs::json_object(
      {{"molecule", "hydrogen_ring"},
       {"n_atoms", w.n_atoms},
       {"bonds_bohr", raw(json_array(bonds))},
       {"basis", "sto-3g"},
       {"atoms_per_fragment", w.atoms_per_fragment},
       {"fragment_solver", "fci"},
       {"fit_chemical_potential", true}});
  std::printf("%s\n",
              obs::json_object(
                  {{"provenance", raw(provenance(a, 1, w.threads, params))},
                   {"problem",
                    raw(obs::json_object(
                        {{"n_points", w.bonds_bohr.size()},
                         {"n_fragments",
                          w.n_atoms / w.atoms_per_fragment}}))},
                   {"solves", raw(json_array(solves))},
                   {"probes", raw(probes)},
                   {"peak_rss_mb", perfbench::peak_rss_mb()}})
                  .c_str());
  return 0;
}

// ---- references -----------------------------------------------------------

double fci_energy(const chem::Molecule& mol, int n_occ) {
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  require(scf.converged, "references: RHF did not converge");
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  const chem::FciResult fci = chem::fci_ground_state(mo, n_occ, n_occ);
  require(fci.converged, "references: FCI did not converge");
  return fci.energy;
}

std::string vqe_reference(const perfbench::VqeWorkload& w) {
  const perfbench::VqeSetup setup = perfbench::prepare_vqe(w, nullptr);
  const perfbench::VqeSolve s = perfbench::solve_vqe(w, setup, nullptr);
  // The windowed ansatz cannot reach FCI; its own converged minimum is the
  // target its iterates are timed against.
  perfbench::VqeWorkload converged = w;
  converged.iteration_budget = 200;
  const perfbench::VqeSolve c = perfbench::solve_vqe(converged, setup, nullptr);
  std::vector<double> history;
  for (const auto& it : s.iterations) history.push_back(it.energy);
  return obs::json_object(
      {{"fci_energy",
        fci_energy(chem::Molecule::hydrogen_chain(w.n_atoms, w.spacing_bohr),
                   w.n_atoms / 2)},
       {"budget_energy", s.energy},
       {"budget_history", JsonValue(history)},
       {"converged_energy", c.energy},
       {"counts", raw(counts_json(s.counts))}});
}

std::string scan_reference(const perfbench::ScanWorkload& scan) {
  const perfbench::ScanSolve s = perfbench::solve_scan(scan, nullptr);
  std::vector<std::string> points;
  for (const auto& p : s.points) {
    std::fprintf(stderr, "references: FCI of the H%d ring at %.2f bohr\n",
                 scan.n_atoms, p.bond_bohr);
    points.push_back(obs::json_object(
        {{"bond_bohr", p.bond_bohr},
         {"fci_energy",
          fci_energy(chem::Molecule::hydrogen_ring(scan.n_atoms, p.bond_bohr),
                     scan.n_atoms / 2)},
         {"dmet_energy", p.energy},
         {"mu_iterations", p.mu_iterations}}));
  }
  return obs::json_object({{"points", raw(json_array(points))},
                           {"counts", raw(counts_json(s.counts))}});
}

// References of the named workloads (all three when none is named).
int run_references(std::vector<std::string> names) {
  if (names.empty()) names = {"h4_vqe", "h10_vqe_window", "h10_dmet_scan"};
  std::vector<obs::JsonField> out;
  for (const std::string& name : names) {
    std::fprintf(stderr, "references: %s\n", name.c_str());
    if (name == "h4_vqe")
      out.emplace_back(name, raw(vqe_reference(perfbench::h4_vqe())));
    else if (name == "h10_vqe_window")
      out.emplace_back(name, raw(vqe_reference(perfbench::h10_vqe_window())));
    else if (name == "h10_dmet_scan")
      out.emplace_back(name, raw(scan_reference(perfbench::h10_dmet_scan())));
    else
      throw std::runtime_error("unknown workload " + name);
  }
  std::printf("%s\n", obs::json_object(out).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The process never runs more threads than the host has cores: the pool
  // gets one worker fewer than the core count, and the calling thread is
  // the last claimant of every parallel loop.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  setenv("Q2_THREADS", std::to_string(std::max(1u, cores - 1)).c_str(), 1);
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "references")
      return run_references(std::vector<std::string>(argv + 2, argv + argc));
    if (mode != "run" && mode != "setup") {
      std::fprintf(stderr,
                   "usage: perfbench_workloads run --workload NAME --seed N "
                   "--seconds S --trace 0|1 [--trace-out FILE]\n"
                   "       perfbench_workloads setup --workload NAME "
                   "--seconds S\n"
                   "       perfbench_workloads references [WORKLOAD...]\n");
      return 2;
    }
    const Args a = parse_args(argc, argv);
    const auto vqe = mode == "run" ? run_vqe_workload : run_setup_reps;
    if (a.workload == "h4_vqe") return vqe(a, perfbench::h4_vqe());
    if (a.workload == "h10_vqe_window")
      return vqe(a, perfbench::h10_vqe_window());
    if (a.workload == "h10_dmet_scan")
      return run_scan_workload(a, perfbench::h10_dmet_scan());
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
}
