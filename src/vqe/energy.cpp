#include "vqe/energy.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::vqe {
namespace {

obs::Counter& evaluation_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("vqe.energy_evaluations");
  return c;
}
obs::Counter& term_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("vqe.pauli_terms_measured");
  return c;
}
obs::Gauge& measurement_groups_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("vqe.measurement_groups");
  return g;
}

// Runs eval_one(j) for every j in [0, n) — serially below the parallel
// threshold, otherwise as one pool task per LPT bin (level-2 of the paper's
// hierarchy, folded on-node). Results must be written to per-j slots by
// eval_one; the caller reduces them in index order afterwards so the energy
// is bit-identical for every thread count.
void sweep_terms(const par::ParallelOptions& opts, std::size_t n,
                 const std::function<double(std::size_t)>& term_cost,
                 const std::function<void(std::size_t)>& eval_one) {
  const std::size_t n_threads = std::min(par::resolve_threads(opts), n);
  if (n_threads <= 1) {
    for (std::size_t j = 0; j < n; ++j) eval_one(j);
    return;
  }
  std::vector<double> costs(n);
  for (std::size_t j = 0; j < n; ++j) costs[j] = term_cost(j);
  const std::vector<std::size_t> assignment =
      par::lpt_assign(costs, n_threads);
  std::vector<std::vector<std::size_t>> bins(n_threads);
  for (std::size_t j = 0; j < n; ++j) bins[assignment[j]].push_back(j);
  par::ThreadPool::global().parallel_for(
      0, n_threads,
      [&](std::size_t b) {
        for (std::size_t j : bins[b]) eval_one(j);
      },
      /*grain=*/1, /*max_threads=*/n_threads);
}

}  // namespace

EnergyEvaluator::EnergyEvaluator(circ::Circuit ansatz,
                                 pauli::QubitOperator hamiltonian,
                                 sim::MpsOptions mps_options)
    : ansatz_(std::move(ansatz)), mps_options_(mps_options) {
  require(std::size_t(ansatz_.n_qubits()) == hamiltonian.n_qubits(),
          "EnergyEvaluator: qubit count mismatch");
  require(hamiltonian.is_hermitian(1e-8),
          "EnergyEvaluator: Hamiltonian must be Hermitian");
  for (const auto& [p, c] : hamiltonian.sorted_terms()) {
    if (p.is_identity())
      constant_ += c.real();
    else
      terms_.emplace_back(p, c);
  }
  // Compile the ansatz once: lazy reordering + fusion + residual output
  // permutation, replayed with fresh parameter vectors every evaluation.
  compiled_ = circ::compile_for_mps(ansatz_);
  std::vector<pauli::PauliString> strings;
  strings.reserve(terms_.size());
  for (const auto& [p, c] : terms_) strings.push_back(p);
  groups_ = pauli::group_qubitwise_commuting(strings);
  measurement_groups_gauge().set(double(groups_.size()));
}

double EnergyEvaluator::energy(const std::vector<double>& params) const {
  std::vector<std::size_t> all(terms_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return constant_ + partial_energy(params, all);
}

double EnergyEvaluator::partial_energy(
    const std::vector<double>& params,
    const std::vector<std::size_t>& idx) const {
  OBS_SPAN("vqe/energy");
  evaluation_counter().add();
  term_counter().add(idx.size());
  // Compiled once in the constructor; parameters bind at apply time and
  // measurement maps through the residual permutation.
  sim::Mps state(ansatz_.n_qubits(), mps_options_);
  state.run(compiled_, params);
  last_truncation_error_.store(state.truncation_error(),
                               std::memory_order_relaxed);
  OBS_SPAN("vqe/measure");
  return reduce_terms(state, idx, /*parallel_sweep=*/true);
}

std::vector<double> EnergyEvaluator::term_costs() const {
  // Cost model: the measurement sweep length — the transfer contraction
  // spans the string's support. pauli::support_cost is the one model shared
  // with the measurement sweeps, so the LPT balancer and the sweep itself
  // cannot drift apart.
  std::vector<double> costs;
  costs.reserve(terms_.size());
  for (const auto& [p, c] : terms_) costs.push_back(pauli::support_cost(p));
  return costs;
}

std::vector<double> EnergyEvaluator::parameter_shift_gradient(
    const std::vector<double>& params) const {
  std::vector<double> grad(n_parameters(), 0.0);
  std::vector<std::size_t> all(terms_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  // Evaluate the energy with one occurrence's angle overridden. Builds its
  // own circuit and engine, so concurrent calls are independent. The cached
  // compiled stream is copied with just the occurrence's gate
  // de-parameterized — no re-routing or re-fusion per evaluation (every
  // compile pass preserves the relative order of parametric gates, so the
  // k-th parametric gate of the compiled stream is the k-th of the ansatz).
  // The inner term sweep stays serial (the 2N shifted circuits already fan
  // out below); reduce_terms keeps the term-order reduction either way.
  auto energy_with_override = [&](std::size_t occurrence, double delta) {
    circ::CompiledCircuit shifted;
    shifted.gates = circ::Circuit(compiled_.gates.n_qubits());
    shifted.output_perm = compiled_.output_perm;
    std::size_t seen = 0;
    for (circ::Gate g : compiled_.gates.gates()) {
      if (g.is_parametric()) {
        if (seen == occurrence) {
          g.theta = g.angle(params) + delta;
          g.param_index = -1;
          g.param_scale = 1.0;
        }
        ++seen;
      }
      shifted.gates.append(std::move(g));
    }
    sim::Mps state(ansatz_.n_qubits(), mps_options_);
    state.run(shifted, params);
    return reduce_terms(state, all, /*parallel_sweep=*/false);
  };

  // Every shifted-circuit evaluation is independent: 2 per parametric-gate
  // occurrence. Fan the 2N evaluations out, then chain-rule serially so each
  // gradient entry is assembled in occurrence order (deterministic).
  std::vector<const circ::Gate*> occurrences;
  for (const circ::Gate& g : ansatz_.gates())
    if (g.is_parametric()) occurrences.push_back(&g);
  std::vector<double> shifted_e(2 * occurrences.size());
  par::ParallelOptions opts = mps_options_.parallel;
  opts.grain = 1;  // each evaluation is a full circuit run
  par::parallel_for(opts, 0, shifted_e.size(), [&](std::size_t j) {
    OBS_SPAN("vqe/shifted_circuit");
    const std::size_t occ = j / 2;
    const double delta = (j % 2 == 0) ? kPi / 2 : -kPi / 2;
    shifted_e[j] = energy_with_override(occ, delta);
  });
  for (std::size_t occ = 0; occ < occurrences.size(); ++occ) {
    const circ::Gate& g = *occurrences[occ];
    grad[std::size_t(g.param_index)] +=
        g.param_scale * 0.5 * (shifted_e[2 * occ] - shifted_e[2 * occ + 1]);
  }
  return grad;
}

double EnergyEvaluator::reduce_terms(const sim::Mps& state,
                                     const std::vector<std::size_t>& idx,
                                     bool parallel_sweep) const {
  // Per-term contributions against the shared read-only state, written to
  // per-idx slots and reduced in index order below — the same addition
  // sequence as a serial per-term loop, so the energy is bit-identical for
  // every thread count (expectation_batch guarantees per-term values match
  // the standalone expectation exactly).
  std::vector<double> contrib(idx.size());
  constexpr std::size_t kNoSlot = std::size_t(-1);
  std::vector<std::size_t> slot(terms_.size(), kNoSlot);
  for (std::size_t j = 0; j < idx.size(); ++j) slot[idx[j]] = j;
  // Restrict the precomputed plan to the requested subset (partial_energy
  // on a distributed rank sees only its LPT share of the terms).
  struct SubGroup {
    const pauli::MeasurementGroup* group;
    std::vector<std::size_t> members;
  };
  std::vector<SubGroup> subs;
  subs.reserve(groups_.size());
  for (const auto& g : groups_) {
    std::vector<std::size_t> members;
    for (std::size_t k : g.members)
      if (slot[k] != kNoSlot) members.push_back(k);
    if (!members.empty()) subs.push_back({&g, std::move(members)});
  }
  auto eval_group = [&](std::size_t gi) {
    const SubGroup& sub = subs[gi];
    std::vector<pauli::PauliString> strings;
    strings.reserve(sub.members.size());
    for (std::size_t k : sub.members) strings.push_back(terms_[k].first);
    const std::vector<cplx> values = state.expectation_batch(strings);
    for (std::size_t t = 0; t < sub.members.size(); ++t) {
      const std::size_t k = sub.members[t];
      contrib[slot[k]] = (terms_[k].second * values[t]).real();
    }
  };
  auto group_cost = [&](std::size_t gi) {
    return pauli::support_cost(subs[gi].group->lo, subs[gi].group->hi);
  };
  if (parallel_sweep)
    sweep_terms(mps_options_.parallel, subs.size(), group_cost, eval_group);
  else
    for (std::size_t gi = 0; gi < subs.size(); ++gi) eval_group(gi);
  double e = 0;
  for (double c : contrib) e += c;
  // The sweep's own arithmetic beyond the per-term expectations: one
  // coefficient multiply per term plus the index-order reduction.
  obs::WorkCounter::charge(2 * std::uint64_t(idx.size()),
                           std::uint64_t(idx.size()) * sizeof(double));
  return e;
}

}  // namespace q2::vqe
