// Lazy qubit reordering: compiles a logical circuit into the
// nearest-neighbour form the MPS engine consumes while tracking a
// logical→physical qubit permutation instead of materializing every SWAP.
//
// The eager router (circuit/routing.hpp) brackets each long-range
// two-qubit gate with a full bubble chain both ways — 2·(d−1) SWAPs per gate.
// The compile pass here carries the permutation forward instead: logical SWAP
// gates cost nothing (a relabelling), each long-range gate emits only the
// d−1 SWAPs needed to make it adjacent, back-to-back chains from consecutive
// long-range gates cancel through a peephole, and the circuit ends in
// whatever ordering it ends in. The residual output permutation is returned
// so measurement maps logical Pauli strings onto physical sites instead of
// paying an un-routing SWAP tail. This is the one routing pass of the MPS
// engine: both Mps::run overloads execute its output.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"

namespace q2::circ {

/// A logical→physical qubit placement. `site_of(q)` is the chain site
/// currently holding logical qubit q; `logical_at(s)` is its inverse. The
/// identity permutation is the initial placement of every circuit.
class QubitPermutation {
 public:
  QubitPermutation() = default;
  explicit QubitPermutation(int n_qubits);

  int size() const { return int(site_of_.size()); }
  int site_of(int logical) const;
  int logical_at(int site) const;
  bool is_identity() const;

  /// Effect of a physical SWAP gate on sites (s1, s2): the logical qubits
  /// living there trade places.
  void swap_sites(int s1, int s2);
  /// Effect of a *logical* SWAP gate on qubits (a, b) that is never
  /// materialized: the labels trade places, the sites do not move.
  void swap_logical(int a, int b);

  /// site_of as a flat table (index = logical qubit), the form
  /// pauli::PauliString::permuted and the simulators consume.
  const std::vector<int>& site_of_map() const { return site_of_; }

  bool operator==(const QubitPermutation& o) const {
    return site_of_ == o.site_of_;
  }

 private:
  std::vector<int> site_of_;     // logical qubit -> site
  std::vector<int> logical_at_;  // site -> logical qubit
};

/// Exact work accounting of one compile (all counts are deterministic
/// functions of the input circuit; the same quantities are accumulated into
/// the obs counters "circuit.swaps_materialized", "circuit.swaps_elided" and
/// "circuit.gates_fused").
struct CompileStats {
  std::size_t swaps_eager = 0;         ///< SWAPs the eager router would emit
  std::size_t swaps_materialized = 0;  ///< SWAP gates actually emitted
  std::size_t swaps_elided = 0;        ///< swaps_eager - swaps_materialized
  std::size_t gates_fused = 0;         ///< gates removed by the fusion passes
};

/// A circuit lowered to nearest-neighbour form over *physical sites*, plus
/// the residual logical→physical permutation at its end. Running `gates`
/// from |0...0> produces the permuted state; expectation values of logical
/// observables are taken through `output_perm` (see Mps::run overloads).
struct CompiledCircuit {
  Circuit gates;
  QubitPermutation output_perm;
  CompileStats stats;
};

/// Compile `c` for the MPS engine: lazy reordering, then single-qubit fusion
/// and adjacent two-qubit fusion, so absorbed SWAPs become part of fused U4s
/// and the SVD only ever sees merged two-qubit unitaries. Parameter bindings
/// survive compilation — the compiled circuit is built once per ansatz
/// structure and replayed with fresh parameter vectors every iteration.
/// Deterministic: equal inputs produce equal outputs.
CompiledCircuit compile_for_mps(const Circuit& c);

/// Undo a residual permutation on a state vector indexed by physical sites
/// (bit s = site s): returns amplitudes indexed by logical qubits (bit q =
/// logical qubit q). Used by the simulators' to_statevector paths and the
/// cross-validation tests.
std::vector<cplx> unpermute_statevector(const std::vector<cplx>& amps,
                                        const QubitPermutation& perm);

}  // namespace q2::circ
