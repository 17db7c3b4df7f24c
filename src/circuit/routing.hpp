// Eager SWAP routing: rewrites a circuit so every two-qubit gate acts on
// adjacent qubits by bracketing each long-range gate with SWAP chains both
// ways, the way the paper's baseline MPS simulators pay for long-range
// entangling. The MPS engine does not use it — Mps::run lowers every circuit
// through circ::compile_for_mps (circuit/reorder.hpp). It stays as the oracle
// of sim::ReferenceMps, as the eager baseline the Fig. 9 bench and the
// routing ablation measure against, and as the explicit SWAP stream of the
// per-gate noise study.
#pragma once

#include "circuit/circuit.hpp"

namespace q2::circ {

/// Equivalent nearest-neighbour circuit. Gates already adjacent pass through
/// untouched; a long-range gate on (a, b) becomes swaps moving min(a,b) next
/// to max(a,b), the gate, and the reverse swaps.
Circuit route_to_nearest_neighbour(const Circuit& c);

}  // namespace q2::circ
