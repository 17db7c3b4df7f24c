#include "circuit/reorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "circuit/fusion.hpp"
#include "obs/metrics.hpp"

namespace q2::circ {
namespace {

obs::Counter& swaps_materialized_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("circuit.swaps_materialized");
  return c;
}
obs::Counter& swaps_elided_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("circuit.swaps_elided");
  return c;
}
obs::Counter& gates_fused_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("circuit.gates_fused");
  return c;
}

bool is_swap_on(const Gate& g, int s) {
  return g.kind == GateKind::kSwap &&
         ((g.qubits[0] == s && g.qubits[1] == s + 1) ||
          (g.qubits[0] == s + 1 && g.qubits[1] == s));
}

// SWAPs the eager router materializes for one gate at logical distance d:
// the bubble chain both ways, plus the adjacent SWAP itself for kSwap (which
// the lazy pass never emits at all).
std::size_t eager_swap_cost(const Gate& g) {
  const std::size_t d = std::size_t(std::abs(g.qubits[0] - g.qubits[1]));
  const std::size_t chains = d > 1 ? 2 * (d - 1) : 0;
  return chains + (g.kind == GateKind::kSwap ? 1 : 0);
}

}  // namespace

QubitPermutation::QubitPermutation(int n_qubits)
    : site_of_(std::size_t(std::max(n_qubits, 0))),
      logical_at_(site_of_.size()) {
  require(n_qubits >= 1, "QubitPermutation: need at least one qubit");
  std::iota(site_of_.begin(), site_of_.end(), 0);
  std::iota(logical_at_.begin(), logical_at_.end(), 0);
}

int QubitPermutation::site_of(int logical) const {
  require(logical >= 0 && logical < size(),
          "QubitPermutation::site_of: qubit out of range");
  return site_of_[std::size_t(logical)];
}

int QubitPermutation::logical_at(int site) const {
  require(site >= 0 && site < size(),
          "QubitPermutation::logical_at: site out of range");
  return logical_at_[std::size_t(site)];
}

bool QubitPermutation::is_identity() const {
  for (int q = 0; q < size(); ++q)
    if (site_of_[std::size_t(q)] != q) return false;
  return true;
}

void QubitPermutation::swap_sites(int s1, int s2) {
  require(s1 >= 0 && s1 < size() && s2 >= 0 && s2 < size(),
          "QubitPermutation::swap_sites: site out of range");
  const int a = logical_at_[std::size_t(s1)], b = logical_at_[std::size_t(s2)];
  std::swap(logical_at_[std::size_t(s1)], logical_at_[std::size_t(s2)]);
  std::swap(site_of_[std::size_t(a)], site_of_[std::size_t(b)]);
}

void QubitPermutation::swap_logical(int a, int b) {
  require(a >= 0 && a < size() && b >= 0 && b < size(),
          "QubitPermutation::swap_logical: qubit out of range");
  std::swap(site_of_[std::size_t(a)], site_of_[std::size_t(b)]);
  logical_at_[std::size_t(site_of_[std::size_t(a)])] = a;
  logical_at_[std::size_t(site_of_[std::size_t(b)])] = b;
}

CompiledCircuit compile_for_mps(const Circuit& c) {
  CompiledCircuit out;
  out.output_perm = QubitPermutation(c.n_qubits());
  QubitPermutation& perm = out.output_perm;

  std::vector<Gate> gates;
  gates.reserve(c.size());

  // Emit swap(s, s+1), cancelling against an identical tail SWAP: two equal
  // adjacent transpositions with nothing between them are the identity, so
  // back-to-back chains from consecutive long-range gates annihilate
  // pairwise. The permutation update happens either way — popping the old
  // SWAP and applying the new one to the tracker compose to no net move.
  auto emit_swap = [&](int s) {
    if (!gates.empty() && is_swap_on(gates.back(), s))
      gates.pop_back();
    else
      gates.push_back(make_swap(s, s + 1));
    perm.swap_sites(s, s + 1);
  };

  for (const Gate& g : c.gates()) {
    if (!g.is_two_qubit()) {
      Gate moved = g;
      moved.qubits[0] = perm.site_of(g.qubits[0]);
      gates.push_back(std::move(moved));
      continue;
    }
    out.stats.swaps_eager += eager_swap_cost(g);
    if (g.kind == GateKind::kSwap) {
      // A logical SWAP is free: relabel, emit nothing.
      perm.swap_logical(g.qubits[0], g.qubits[1]);
      continue;
    }
    int pa = perm.site_of(g.qubits[0]), pb = perm.site_of(g.qubits[1]);
    if (std::abs(pa - pb) != 1) {
      const int lo = std::min(pa, pb), hi = std::max(pa, pb);
      // Both endpoints cost d-1 SWAPs to move; the cheaper one is whichever
      // chain's first SWAP cancels against the tail of the emitted stream
      // (the common case after a previous long-range gate parked a qubit
      // here). Default: bubble the lower endpoint up, like the eager router.
      bool move_lo_up = true;
      if (!gates.empty() && is_swap_on(gates.back(), hi - 1))
        move_lo_up = false;
      if (move_lo_up)
        for (int s = lo; s <= hi - 2; ++s) emit_swap(s);
      else
        for (int s = hi - 1; s >= lo + 1; --s) emit_swap(s);
      pa = perm.site_of(g.qubits[0]);
      pb = perm.site_of(g.qubits[1]);
    }
    require(std::abs(pa - pb) == 1, "compile_for_mps: routing failed");
    Gate moved = g;
    moved.qubits[0] = pa;
    moved.qubits[1] = pb;
    gates.push_back(std::move(moved));
  }

  Circuit reordered(c.n_qubits());
  for (auto& g : gates) {
    if (g.kind == GateKind::kSwap) ++out.stats.swaps_materialized;
    reordered.append(std::move(g));
  }
  // Permutation drift can stretch an individual gate, but never below zero
  // in aggregate bookkeeping: clamp so the counter stays monotone.
  out.stats.swaps_elided =
      out.stats.swaps_eager > out.stats.swaps_materialized
          ? out.stats.swaps_eager - out.stats.swaps_materialized
          : 0;

  out.gates =
      fuse_adjacent_two_qubit_gates(fuse_single_qubit_gates(reordered));
  out.stats.gates_fused = reordered.size() - out.gates.size();

  swaps_materialized_counter().add(out.stats.swaps_materialized);
  swaps_elided_counter().add(out.stats.swaps_elided);
  gates_fused_counter().add(out.stats.gates_fused);
  return out;
}

std::vector<cplx> unpermute_statevector(const std::vector<cplx>& amps,
                                        const QubitPermutation& perm) {
  const int n = perm.size();
  require(n >= 1 && n <= 28 && amps.size() == (std::size_t(1) << n),
          "unpermute_statevector: amplitude count mismatch");
  if (perm.is_identity()) return amps;
  std::vector<cplx> out(amps.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::size_t j = 0;
    for (int q = 0; q < n; ++q)
      if ((i >> q) & 1) j |= std::size_t(1) << perm.site_of(q);
    out[i] = amps[j];
  }
  return out;
}

}  // namespace q2::circ
