// Determinism of the benchmark's exact work counts, on reduced versions of
// the three workloads: two runs must report identical counts and energies,
// and so must a run at 4 threads per rank against one at 1 thread per rank
// (the library's bit-identity contract across thread counts).
//
//   ctest --test-dir .bench_build/perfbench     (or run perfbench_determinism)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

const char* const kExactCounts[] = {
    "mps.gates",           "la.svd.sweeps", "la.svd.truncated_calls",
    "mps.transfer_sweeps", "work.flops",    "vqe.energy_evaluations",
    "dmet.fragment_solves",
};

int failures = 0;

void expect_same(const std::string& what, const perfbench::Counts& a,
                 const perfbench::Counts& b) {
  for (const char* name : kExactCounts) {
    const auto x = a.count(name) ? a.at(name) : 0;
    const auto y = b.count(name) ? b.at(name) : 0;
    if (x != y) {
      std::printf("FAIL %s: %s %llu != %llu\n", what.c_str(), name,
                  (unsigned long long)x, (unsigned long long)y);
      ++failures;
    }
  }
}

void expect_same(const std::string& what, double a, double b) {
  if (a != b) {
    std::printf("FAIL %s: energy %.17g != %.17g\n", what.c_str(), a, b);
    ++failures;
  }
}

void check_vqe(perfbench::VqeWorkload w) {
  const perfbench::VqeSetup setup = perfbench::prepare_vqe(w, nullptr);
  w.threads_per_rank = 1;
  const perfbench::VqeSolve a = perfbench::solve_vqe(w, setup, nullptr);
  const perfbench::VqeSolve b = perfbench::solve_vqe(w, setup, nullptr);
  w.threads_per_rank = 4;
  const perfbench::VqeSolve c = perfbench::solve_vqe(w, setup, nullptr);
  expect_same(w.name + " repeat", a.counts, b.counts);
  expect_same(w.name + " repeat", a.energy, b.energy);
  expect_same(w.name + " 1 vs 4 threads", a.counts, c.counts);
  expect_same(w.name + " 1 vs 4 threads", a.energy, c.energy);
  if (a.counts.at("mps.gates") == 0 || a.counts.at("la.svd.sweeps") == 0) {
    std::printf("FAIL %s: no MPS work was counted\n", w.name.c_str());
    ++failures;
  }
  std::printf("%s: %llu evaluations, %llu two-site updates, E = %.12f\n",
              w.name.c_str(),
              (unsigned long long)a.counts.at("vqe.energy_evaluations"),
              (unsigned long long)a.counts.at("mps.gates"), a.energy);
}

void check_scan(perfbench::ScanWorkload w) {
  w.threads = 1;
  const perfbench::ScanSolve a = perfbench::solve_scan(w, nullptr);
  const perfbench::ScanSolve b = perfbench::solve_scan(w, nullptr);
  w.threads = 4;
  const perfbench::ScanSolve c = perfbench::solve_scan(w, nullptr);
  expect_same(w.name + " repeat", a.counts, b.counts);
  expect_same(w.name + " 1 vs 4 threads", a.counts, c.counts);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const std::string at = w.name + " R=" + std::to_string(a.points[i].bond_bohr);
    if (!a.points[i].ok || !a.points[i].converged) {
      std::printf("FAIL %s: did not converge\n", at.c_str());
      ++failures;
    }
    for (const perfbench::ScanSolve* o : {&b, &c}) {
      expect_same(at, a.points[i].energy, o->points[i].energy);
      if (a.points[i].mu_iterations != o->points[i].mu_iterations) {
        std::printf("FAIL %s: mu-iterations %d != %d\n", at.c_str(),
                    a.points[i].mu_iterations, o->points[i].mu_iterations);
        ++failures;
      }
    }
  }
  std::printf("%s: %llu fragment solves\n", w.name.c_str(),
              (unsigned long long)a.counts.at("dmet.fragment_solves"));
}

}  // namespace

int main() {
  // Reduced sizes: one L-BFGS iteration, fewer atoms, two scan points.
  perfbench::VqeWorkload h4 = perfbench::h4_vqe();
  h4.name = "h4_vqe/2 ranks, 1 iteration";
  h4.ranks = 2;
  h4.iteration_budget = 1;
  check_vqe(h4);

  perfbench::VqeWorkload window = perfbench::h10_vqe_window();
  window.name = "h6_vqe_window/1 iteration";
  window.n_atoms = 6;
  window.iteration_budget = 1;
  check_vqe(window);

  perfbench::ScanWorkload scan = perfbench::h10_dmet_scan();
  scan.name = "h6_dmet_scan/2 points";
  scan.n_atoms = 6;
  scan.bonds_bohr = {1.6, 2.4};
  check_scan(scan);

  std::printf("%s (%d failure(s))\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
