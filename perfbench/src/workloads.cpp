#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>

#include "chem/basis.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/integrals.hpp"
#include "chem/scf.hpp"
#include "dmet/dmet_driver.hpp"
#include "dmet/fragment.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/comm.hpp"
#include "vqe/vqe_driver.hpp"

namespace perfbench {

using namespace q2;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

void SpanLog::record(const std::string& name, Clock::time_point t0,
                     Clock::time_point t1) {
  static std::mutex ids_mutex;
  static std::map<std::thread::id, int> ids;
  int tid = 0;
  {
    std::lock_guard<std::mutex> lock(ids_mutex);
    tid = ids.emplace(std::this_thread::get_id(), int(ids.size())).first->second;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, 1e6 * seconds_between(origin_, t0),
                    1e6 * seconds_between(origin_, t1), tid});
}

std::string SpanLog::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out += ',';
    out += obs::json_object({{"name", s.name},
                             {"ph", "X"},
                             {"pid", 0},
                             {"tid", s.tid},
                             {"ts", s.t0_us},
                             {"dur", s.t1_us - s.t0_us}});
  }
  return out + "]}";
}

Counts counter_snapshot() {
  return obs::Registry::global().snapshot().counters;
}

Counts counter_delta(const Counts& before, const Counts& after) {
  Counts d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

// The three workloads. Each loads a different layer; README.md records why
// each exists and which end-to-end metric each layer should move.

VqeWorkload h4_vqe() {
  VqeWorkload w;
  w.name = "h4_vqe";
  w.n_atoms = 4;
  w.spacing_bohr = 1.8;
  w.distance_window = -1;
  w.max_bond = 32;
  w.iteration_budget = 4;
  w.ranks = 4;
  w.threads_per_rank = 1;
  return w;
}

VqeWorkload h10_vqe_window() {
  VqeWorkload w;
  w.name = "h10_vqe_window";
  w.n_atoms = 10;
  w.spacing_bohr = 1.8;
  w.distance_window = 2;
  w.max_bond = 32;
  w.iteration_budget = 4;
  w.ranks = 1;
  w.threads_per_rank = 4;
  return w;
}

ScanWorkload h10_dmet_scan() {
  ScanWorkload w;
  w.name = "h10_dmet_scan";
  w.n_atoms = 10;
  w.atoms_per_fragment = 2;
  w.bonds_bohr = {1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2};
  w.threads = 4;
  return w;
}

VqeSetup prepare_vqe(const VqeWorkload& w, SpanLog* log) {
  VqeSetup s;
  const Clock::time_point start = Clock::now();
  const chem::Molecule mol =
      chem::Molecule::hydrogen_chain(w.n_atoms, w.spacing_bohr);
  chem::IntegralTables ints;
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  s.seconds["integrals"] = timed(log, "chem/compute_integrals", [&] {
    ints = chem::compute_integrals(mol, basis);
  });
  chem::ScfResult scf;
  s.seconds["scf"] = timed(log, "chem/rhf", [&] {
    scf = chem::rhf(mol, basis, ints);
  });
  s.scf_iterations = scf.iterations;
  s.scf_converged = scf.converged;
  s.seconds["mo_transform"] = timed(log, "chem/transform_to_mo", [&] {
    s.mo = chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  });
  s.seconds["qubit_hamiltonian"] =
      timed(log, "chem/molecular_qubit_hamiltonian", [&] {
        s.hamiltonian = chem::molecular_qubit_hamiltonian(s.mo);
      });
  vqe::UccsdOptions ansatz_opts;
  ansatz_opts.distance_window = w.distance_window;
  s.seconds["uccsd"] = timed(log, "vqe/build_uccsd", [&] {
    s.ansatz = vqe::build_uccsd(s.mo.n_orbitals(), w.n_atoms / 2,
                                w.n_atoms / 2, ansatz_opts);
  });
  s.seconds["compile"] = timed(log, "circuit/compile_for_mps", [&] {
    s.compiled = circ::compile_for_mps(s.ansatz.circuit);
  });
  s.seconds["grouping"] = timed(log, "pauli/group_qubitwise_commuting", [&] {
    for (const auto& [p, c] : s.hamiltonian.sorted_terms())
      if (!p.is_identity()) s.terms.push_back(p);
    s.groups = pauli::group_qubitwise_commuting(s.terms);
  });
  const Clock::time_point end = Clock::now();
  if (log) log->record("setup/vqe", start, end);
  s.seconds["total"] = seconds_between(start, end);
  return s;
}

VqeSolve solve_vqe(const VqeWorkload& w, const VqeSetup& setup, SpanLog* log) {
  VqeSolve out;
  vqe::VqeOptions opts;
  opts.mps.max_bond = w.max_bond;
  opts.mps.parallel.n_threads = w.threads_per_rank;
  opts.ansatz.distance_window = w.distance_window;
  opts.optimizer.max_iterations = w.iteration_budget;

  const int n_occ = w.n_atoms / 2;
  const Counts before = counter_snapshot();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  vqe::OptimizerOptions observed = opts.optimizer;
  observed.iteration_observer = [&, prev = start](int it, double e,
                                                 double) mutable {
    const Clock::time_point now = Clock::now();
    out.iterations.push_back({it, seconds_between(start, now), e});
    if (log) log->record("vqe/iteration", prev, now);
    prev = now;
  };

  vqe::VqeResult r;
  r.energy = std::numeric_limits<double>::quiet_NaN();
  try {
    if (w.ranks > 1) {
      // run_vqe_distributed has no pre-built entry point: every rank builds
      // its own Hamiltonian, ansatz and evaluator inside the timed solve.
      par::World world(w.ranks);
      world.run([&](par::Comm& comm) {
        // Every rank walks the same trajectory; rank 0 alone observes it.
        vqe::VqeOptions mine = opts;
        if (comm.rank() == 0) mine.optimizer = observed;
        vqe::VqeResult rr =
            vqe::run_vqe_distributed(setup.mo, n_occ, n_occ, mine, comm);
        if (comm.rank() == 0) r = std::move(rr);
      });
    } else {
      // Reuses the prepared Hamiltonian and ansatz; the evaluator it
      // constructs (compile + grouping) is part of the solve.
      opts.optimizer = observed;
      r = vqe::run_vqe_on(setup.hamiltonian, setup.ansatz, opts);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  const Clock::time_point end = Clock::now();
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.wall_s = seconds_between(start, end);
  out.counts = counter_delta(before, counter_snapshot());
  if (log)
    log->record(w.ranks > 1 ? "vqe/run_vqe_distributed" : "vqe/run_vqe_on",
                start, end);
  out.energy = r.energy;
  out.parameters = r.parameters;
  return out;
}

ScanSolve solve_scan(const ScanWorkload& w, SpanLog* log) {
  ScanSolve out;
  const std::size_t n_fragments =
      std::size_t(w.n_atoms / w.atoms_per_fragment);
  dmet::DmetOptions opts;
  opts.fragments =
      dmet::uniform_atom_groups(std::size_t(w.n_atoms), w.atoms_per_fragment);
  opts.fit_chemical_potential = true;
  opts.parallel.n_threads = w.threads;

  // Wrapped FCI solver: start/end of every call, in start order. The calls
  // of one µ-evaluation all start after the previous evaluation's calls end,
  // so start index / n_fragments is the evaluation a call belongs to.
  const dmet::FragmentSolver fci = dmet::make_fci_solver();
  std::mutex calls_mutex;
  std::vector<Clock::time_point> call_start, call_end;
  const dmet::FragmentSolver wrapped =
      [&](const dmet::EmbeddingProblem& prob, const chem::MoIntegrals& mo) {
        std::size_t idx = 0;
        {
          std::lock_guard<std::mutex> lock(calls_mutex);
          idx = call_start.size();
          call_start.push_back(Clock::now());
          call_end.emplace_back();
        }
        const dmet::FragmentSolution sol = fci(prob, mo);
        const Clock::time_point t1 = Clock::now();
        std::lock_guard<std::mutex> lock(calls_mutex);
        call_end[idx] = t1;
        if (log) log->record("dmet/fci_solver", call_start[idx], t1);
        return sol;
      };

  const Counts before = counter_snapshot();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (double bond : w.bonds_bohr) {
    ScanPoint pt;
    pt.bond_bohr = bond;
    call_start.clear();
    call_end.clear();
    const Clock::time_point entry = Clock::now();
    try {
      const dmet::DmetResult r = dmet::run_dmet(
          chem::Molecule::hydrogen_ring(w.n_atoms, bond), opts, wrapped);
      pt.energy = r.energy;
      pt.converged = r.converged;
      pt.mu_iterations = r.mu_iterations;
    } catch (const std::exception& e) {
      pt.ok = false;
      pt.error = e.what();
    }
    const Clock::time_point done = Clock::now();
    if (log) log->record("dmet/run_dmet", entry, done);
    pt.done_s = seconds_between(start, done);
    if (!call_start.empty())
      pt.to_first_solve_s = seconds_between(entry, call_start.front());
    for (std::size_t e = 0; e * n_fragments < call_start.size(); ++e) {
      const std::size_t lo = e * n_fragments;
      const std::size_t hi = std::min(call_start.size(), lo + n_fragments);
      Clock::time_point last = call_end[lo];
      for (std::size_t k = lo; k < hi; ++k) last = std::max(last, call_end[k]);
      out.mu_eval_s.push_back(seconds_between(call_start[lo], last));
    }
    for (std::size_t k = 0; k < call_start.size(); ++k)
      out.fragment_solve_s.push_back(
          seconds_between(call_start[k], call_end[k]));
    out.points.push_back(pt);
  }
  const Clock::time_point end = Clock::now();
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.wall_s = seconds_between(start, end);
  out.counts = counter_delta(before, counter_snapshot());
  if (log) log->record("scan", start, end);
  return out;
}

}  // namespace perfbench
