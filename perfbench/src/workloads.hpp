// Workload definitions and measured solves for the end-to-end benchmark.
//
// Every function here calls only the public API of the q2chem modules and
// times those calls from the outside; the library's own span profile is not
// consulted. Work counts are deltas of the public obs::Registry counters
// taken around a solve, so they are exact and repeat bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "chem/mo.hpp"
#include "chem/molecule.hpp"
#include "circuit/reorder.hpp"
#include "pauli/grouping.hpp"
#include "pauli/qubit_operator.hpp"
#include "vqe/uccsd.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
/// CPU seconds consumed by every thread of this process so far.
double process_cpu_seconds();
/// Peak resident set (VmHWM) of this process in MiB; 0 when unavailable.
double peak_rss_mb();
double median(std::vector<double> v);

/// The benchmark's own spans, recorded around calls into the library when
/// tracing is on, kept in memory and written as Chrome trace_event JSON.
class SpanLog {
 public:
  SpanLog();
  void record(const std::string& name, Clock::time_point t0,
              Clock::time_point t1);
  /// Chrome trace_event document ({"traceEvents":[...]}).
  std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    double t0_us, t1_us;
    int tid;
  };
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times fn(), records a span when `log` is set, returns seconds.
template <typename F>
double timed(SpanLog* log, const char* name, F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  if (log) log->record(name, t0, t1);
  return seconds_between(t0, t1);
}

/// Registry counter values by name.
using Counts = std::map<std::string, std::uint64_t>;
Counts counter_snapshot();
/// after - before for every counter present in `after`.
Counts counter_delta(const Counts& before, const Counts& after);

struct VqeWorkload {
  std::string name;
  int n_atoms = 4;
  double spacing_bohr = 1.8;
  int distance_window = -1;  ///< UCCSD distance window; -1 = full UCCSD
  std::size_t max_bond = 32;
  int iteration_budget = 4;
  /// Simulated MPI ranks; 1 runs the serial vqe::run_vqe_on driver.
  int ranks = 1;
  /// Threads per rank, counting the rank's own thread.
  std::size_t threads_per_rank = 1;
};

struct ScanWorkload {
  std::string name;
  int n_atoms = 10;
  int atoms_per_fragment = 2;
  std::vector<double> bonds_bohr;
  std::size_t threads = 1;
};

VqeWorkload h4_vqe();
VqeWorkload h10_vqe_window();
ScanWorkload h10_dmet_scan();

/// Everything a VQE solve needs that does not depend on the parameters, and
/// what each step of building it cost.
struct VqeSetup {
  q2::chem::MoIntegrals mo;
  int scf_iterations = 0;
  bool scf_converged = false;
  q2::pauli::QubitOperator hamiltonian{1};
  q2::vqe::UccsdAnsatz ansatz;
  q2::circ::CompiledCircuit compiled;
  std::vector<q2::pauli::PauliString> terms;  ///< non-identity strings
  std::vector<q2::pauli::MeasurementGroup> groups;
  /// Step name -> seconds: integrals, scf, mo_transform, qubit_hamiltonian,
  /// uccsd, compile, grouping, total.
  std::map<std::string, double> seconds;
};

VqeSetup prepare_vqe(const VqeWorkload& w, SpanLog* log);

struct VqeIteration {
  int iteration = 0;
  double t_s = 0.0;  ///< since the solve call started
  double energy = 0.0;
};

struct VqeSolve {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double energy = 0.0;
  std::vector<double> parameters;
  std::vector<VqeIteration> iterations;
  Counts counts;  ///< registry deltas over the solve
  std::string error;  ///< what the solve threw; empty when it returned
};

/// One solve on the workload's rank/thread layout, budget-limited. A solve
/// that throws is returned with `error` set and a NaN energy.
VqeSolve solve_vqe(const VqeWorkload& w, const VqeSetup& setup, SpanLog* log);

struct ScanPoint {
  double bond_bohr = 0.0;
  double energy = 0.0;
  bool converged = false;
  bool ok = true;        ///< false when run_dmet threw
  std::string error;
  int mu_iterations = 0;
  double to_first_solve_s = 0.0;  ///< run_dmet entry -> first fragment solve
  double done_s = 0.0;            ///< point finished, since scan start
};

struct ScanSolve {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<ScanPoint> points;
  /// Wall time of every chemical-potential evaluation (one sweep of all
  /// fragment solves at one µ), first solve start to last solve end.
  std::vector<double> mu_eval_s;
  std::vector<double> fragment_solve_s;  ///< every wrapped solver call
  Counts counts;
};

ScanSolve solve_scan(const ScanWorkload& w, SpanLog* log);

}  // namespace perfbench
