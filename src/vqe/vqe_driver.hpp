// The complete MPS-VQE solver: UCCSD ansatz + energy evaluator + optimizer.
// run_vqe_distributed implements the paper's second parallelization level:
// Pauli-string circuits are LPT-partitioned across the ranks of a (simulated)
// MPI communicator, parameters are broadcast and energies reduced each
// iteration (Fig. 4).
#pragma once

#include "chem/mo.hpp"
#include "ckpt/checkpoint.hpp"
#include "parallel/comm.hpp"
#include "vqe/energy.hpp"
#include "vqe/optimizer.hpp"
#include "vqe/uccsd.hpp"

namespace q2::vqe {

enum class OptimizerKind { kLbfgs, kAdam, kSpsa };

struct VqeOptions {
  sim::MpsOptions mps;
  UccsdOptions ansatz;
  OptimizerOptions optimizer;
  OptimizerKind method = OptimizerKind::kLbfgs;
  double gradient_eps = 1e-5;
  /// Durable snapshot/resume of the optimizer loop (src/ckpt). When enabled,
  /// the full resumable optimizer state (plus the SPSA rng stream) is
  /// written every `every_n_iterations`; an interrupted run restarted with
  /// the same options resumes mid-optimization and produces bit-identical
  /// final energy, parameters and iteration history. In a distributed run
  /// only rank 0 writes; every rank loads the same snapshot.
  ckpt::CheckpointOptions checkpoint;
};

struct VqeResult {
  bool converged = false;
  double energy = 0.0;
  int iterations = 0;
  std::vector<double> parameters;
  std::vector<double> history;
  std::size_t n_pauli_terms = 0;
  std::size_t n_parameters = 0;
  std::size_t circuit_gates = 0;
};

/// Serial MPS-VQE on a molecular (or embedding) Hamiltonian.
VqeResult run_vqe(const chem::MoIntegrals& mo, int n_alpha, int n_beta,
                  const VqeOptions& options = {});

/// VQE on a pre-built Hamiltonian/ansatz pair (used by DMET and benches).
VqeResult run_vqe_on(const pauli::QubitOperator& hamiltonian,
                     const UccsdAnsatz& ansatz, const VqeOptions& options);

/// Level-2-parallel VQE: every rank of `comm` executes the same optimizer
/// trajectory; each energy evaluation is split over ranks by Pauli term and
/// summed with Allreduce. Deterministically identical to the serial result.
VqeResult run_vqe_distributed(const chem::MoIntegrals& mo, int n_alpha,
                              int n_beta, const VqeOptions& options,
                              par::Comm& comm);

}  // namespace q2::vqe
