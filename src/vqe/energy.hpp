// The VQE energy evaluator: prepares |psi(theta)> and measures
// E = sum_k c_k <P_k> — the paper's production scheme (§III, Fig. 9): one
// parametric ansatz replica, compiled once for the MPS engine, replayed with
// fresh parameters every evaluation and measured directly on the prepared
// state, one shared transfer sweep per qubit-wise commuting term group.
// The hardware-faithful Hadamard-test circuits of Fig. 5 stay available as
// the sim::hadamard_test_mps oracle; the store-all and per-term baselines of
// Fig. 9 live in the benches.
#pragma once

#include <atomic>
#include <vector>

#include "circuit/reorder.hpp"
#include "pauli/grouping.hpp"
#include "pauli/qubit_operator.hpp"
#include "sim/mps.hpp"

namespace q2::vqe {

class EnergyEvaluator {
 public:
  EnergyEvaluator(circ::Circuit ansatz, pauli::QubitOperator hamiltonian,
                  sim::MpsOptions mps_options = {});

  std::size_t n_terms() const { return terms_.size(); }
  std::size_t n_parameters() const { return ansatz_.parameter_count(); }

  double energy(const std::vector<double>& params) const;
  /// Contribution of a subset of Pauli terms (the unit of level-2 work).
  double partial_energy(const std::vector<double>& params,
                        const std::vector<std::size_t>& term_indices) const;

  /// Exact gradient via the parameter-shift rule: every occurrence of a
  /// parameter is an exp(-i phi/2 P) rotation, so dE/dphi =
  /// (E(phi + pi/2) - E(phi - pi/2)) / 2 per occurrence, chain-ruled through
  /// the occurrence's scale. This is what differentiation costs on hardware
  /// (two circuit evaluations per rotation); classical drivers may prefer
  /// finite differences.
  std::vector<double> parameter_shift_gradient(
      const std::vector<double>& params) const;

  /// Per-term cost estimates for LPT load balancing across ranks: the
  /// transfer-sweep length over each string's support
  /// (pauli::support_cost, the model the measurement sweep also uses).
  std::vector<double> term_costs() const;

  /// Accumulated MPS truncation error of the state prepared by the most
  /// recent energy evaluation. Used by run reports to attach a fidelity
  /// column to each VQE iteration.
  double last_truncation_error() const {
    return last_truncation_error_.load(std::memory_order_relaxed);
  }

  const circ::Circuit& ansatz() const { return ansatz_; }
  const std::vector<std::pair<pauli::PauliString, cplx>>& terms() const {
    return terms_;
  }
  double constant_term() const { return constant_; }

  /// Number of qubit-wise commuting measurement groups the sweep uses. Also
  /// exported as the "vqe.measurement_groups" gauge.
  std::size_t measurement_group_count() const { return groups_.size(); }
  /// The ansatz compiled once by circ::compile_for_mps in the constructor;
  /// every evaluation replays it.
  const circ::CompiledCircuit& compiled_ansatz() const { return compiled_; }

 private:
  /// Measures the idx-subset of terms on a prepared state, one
  /// expectation_batch per commuting group, and reduces contributions in idx
  /// order — bit-identical to a serial per-term sweep for every thread
  /// count.
  double reduce_terms(const sim::Mps& state,
                      const std::vector<std::size_t>& idx,
                      bool parallel_sweep) const;

  circ::Circuit ansatz_;
  sim::MpsOptions mps_options_;
  std::vector<std::pair<pauli::PauliString, cplx>> terms_;
  double constant_ = 0.0;
  /// Compiled-once ansatz; parameters bind at run time, so energy/gradient
  /// calls never re-route.
  circ::CompiledCircuit compiled_;
  /// QWC measurement plan over terms_.
  std::vector<pauli::MeasurementGroup> groups_;
  /// Relaxed atomic: distributed VQE calls partial_energy concurrently from
  /// rank threads; any rank's value is an equally valid report entry.
  mutable std::atomic<double> last_truncation_error_{0.0};
};

}  // namespace q2::vqe
