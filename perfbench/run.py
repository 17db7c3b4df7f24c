#!/usr/bin/env python3
"""End-to-end benchmark of the q2chem MPS-VQE + DMET stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --recompute-pins [--workload NAME] [--write]

The first form builds the workload runner from source (into .bench_build/ at
the repository root), runs one workload in its own process, checks every
operation against pins.json and prints, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it is
the run's provenance block; the full record (raw measurements, checks and
work-count drift) is written to .bench_build/results/.

The second form recomputes the pinned references (FCI energies of every
workload geometry, converged ansatz energies, exact work counts). It takes
about a quarter of an hour on a 4-core host and prints the differences from
pins.json; --write replaces pins.json with the fresh values.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY_DIR = BUILD / "perfbench"
BINARY = BINARY_DIR / "perfbench_workloads"
PINS = HERE / "pins.json"

WORKLOADS = ("h4_vqe", "h10_vqe_window", "h10_dmet_scan")
# Hard time limit for one workload process; the whole command must end
# within 180 s.
RUN_TIMEOUT_S = 170

# Metric names and units are those BENCHMARK.json declares.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER_NAMES = [m["name"] for m in BENCHMARK["per_layer"]]

# Warm set-up repetitions run in separate processes, one per core at a time,
# each repeating the set-up for SETUP_SECONDS (and at least four times) after
# its cold first repetition: one round before the solves and one after.
# setup_s is the mean of the warm repetitions pooled over all set-up processes
# of a run, i.e. their total time over their number, as solve_s is the time
# of a whole solve. A set-up is single-threaded and short, and on a shared
# virtual machine one repetition runs either at the core's own speed or up to
# 1.7x slower while a neighbour contends for that core (a 13 ms H4 set-up
# reads 8 or 14 ms, flipping within a second). The median of such a two-mode
# sample jumps between the modes from run to run; the mean moves smoothly
# with the share of contended time.
SETUP_SECONDS = 5


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the workload runner; a no-op when it is current."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BINARY_DIR / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BINARY_DIR),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", str(BINARY_DIR), "-j", jobs,
                        "--target", "perfbench_workloads"],
                       check=True, stdout=sys.stderr)


def run_binary(args, timeout):
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout)


def setup_round(workload):
    """Runs one `setup` process per core at once. Returns the warm
    repetitions of each process that succeeded, and a problem for each one
    that did not."""
    procs = [subprocess.Popen([str(BINARY), "setup", "--workload", workload,
                               "--seconds", str(SETUP_SECONDS)],
                              stdout=subprocess.PIPE, text=True)
             for _ in os.sched_getaffinity(0)]
    samples, problems = [], []
    try:
        for p in procs:
            try:
                out, _ = p.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                problems.append("set-up process timed out")
                continue
            if p.returncode:
                problems.append(f"set-up process exited with {p.returncode}")
                continue
            samples.append(json.loads(out)["setup"][1:])
        return samples, problems
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()


def host_steal_seconds():
    """CPU seconds the hypervisor has withheld from this VM's vCPUs so far
    (the `steal` column of /proc/stat), summed over vCPUs; 0 when unknown."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def med(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


class Checks:
    """Operations attempted/failed, with a reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def operation(self, name, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"operation": name, "problems": problems})


def work_counts_drift(counts, pinned):
    """Exact work counts that differ from the pinned ones. A changed count is
    how an optimisation shows, so drift is reported, not failed."""
    return {k: {"pinned": pinned[k], "measured": v}
            for k, v in counts.items() if k in pinned and pinned[k] != v}


# ---- VQE workloads ---------------------------------------------------------

def first_at_target(iterations, target, target_mha):
    for it in iterations:
        if abs(it["energy"] - target) * 1e3 <= target_mha:
            return it
    return None


def vqe_result(name, raw, pins, trace):
    pin = pins[name]
    prob = raw["problem"]
    fci = pin["fci_energy"]
    # h4_vqe's full UCCSD reaches FCI; the windowed ansatz is timed against
    # its own converged minimum.
    target = fci if name == "h4_vqe" else pin["converged_energy"]
    # Distance from the target an iterate must reach; README.md shows that
    # each workload's value has margin on both sides of its iterates.
    target_mha = pin["target_mha"]
    untraced = [s for s in raw["solves"] if not s["traced"]]
    traced = [s for s in raw["solves"] if s["traced"]]

    checks = Checks()
    if raw["setup_failures"]:
        checks.operation("setup_processes", raw["setup_failures"])
    setup_problems = []
    if not prob["scf_converged"]:
        setup_problems.append("RHF did not converge")
    for key in ("n_qubits", "n_parameters", "pauli_terms"):
        if prob[key] != pin["problem"][key]:
            setup_problems.append(
                f"{key} {prob[key]} != pinned {pin['problem'][key]}")
    counts0 = raw["solves"][0]["counts"]
    for i, s in enumerate(raw["solves"]):
        problems = list(setup_problems)
        e = s["energy"]
        if s["error"]:
            problems.append(f"solve failed: {s['error']}")
        elif not finite(e) or not all(finite(it["energy"]) for it in s["iterations"]):
            problems.append("non-finite energy")
        elif e < fci - 1e-6:
            problems.append(f"energy {e:.10f} below FCI {fci:.10f}")
        if len(s["iterations"]) != pin["iteration_budget"]:
            problems.append(f"{len(s['iterations'])} iterations, budget "
                            f"{pin['iteration_budget']}")
        if first_at_target(s["iterations"], target, target_mha) is None:
            problems.append(f"no iterate within {target_mha} mHa of target")
        if s["counts"] != counts0:
            problems.append("work counts differ between solves of one run")
        checks.operation(f"solve{i}", problems)

    evals = counts0["vqe.energy_evaluations"]
    ranks = raw["provenance"]["ranks"]
    threads = raw["provenance"]["threads_per_rank"]
    budget = pin["iteration_budget"]
    warm = [r for process in raw["setup_processes"] for r in process]

    def warm_setup(step):
        return mean([r[step] for r in warm])

    def reach(s):
        hit = first_at_target(s["iterations"], target, target_mha)
        return hit if hit else {"t_s": s["wall_s"], "iteration": budget + 1}

    if not trace:
        intervals = [b["t_s"] - a["t_s"] for s in untraced
                     for a, b in zip(s["iterations"], s["iterations"][1:])]
        metrics = {
            "solve_s": med([s["wall_s"] for s in untraced]),
            "setup_s": warm_setup("total"),
            "vqe_iter_s": med(intervals),
            "time_to_target_s": med([reach(s)["t_s"] for s in untraced]),
            # A solve without a finite energy counts as E = 0 (and failed).
            "energy_error_mha": max(
                abs((s["energy"] if finite(s["energy"]) else 0.0) - fci) * 1e3
                for s in untraced),
            "cpu_s": med([s["cpu_s"] for s in untraced]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    else:
        pr = raw["probes"]
        base = untraced[0]
        metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
        metrics.update({
            "chem.integrals_s": warm_setup("integrals"),
            "chem.scf_s": warm_setup("scf"),
            "chem.scf_iterations": prob["scf_iterations"],
            "chem.qubit_hamiltonian_s": warm_setup("qubit_hamiltonian"),
            "pauli.terms": prob["pauli_terms"],
            "pauli.groups": prob["pauli_groups"],
            "pauli.grouping_s": warm_setup("grouping"),
            "circuit.compile_s": warm_setup("compile"),
            "circuit.compiled_gates": prob["compiled_gates"],
            "circuit.two_qubit_gates": prob["two_qubit_gates"],
            "circuit.swaps_materialized": prob["swaps_materialized"],
            "sim.state_prep_ms": pr["state_prep_s"] * 1e3,
            "sim.measure_ms": pr["measure_s"] * 1e3,
            "sim.two_site_updates_per_eval": counts0["mps.gates"] / evals,
            "sim.transfer_sweeps_per_eval":
                counts0["mps.transfer_sweeps"] / evals,
            "sim.max_bond": pr["max_bond"],
            "sim.truncation_error": pr["truncation_error"],
            "linalg.svd_sweeps_per_call":
                counts0["la.svd.sweeps"] / counts0["la.svd.truncated_calls"],
            "linalg.svd_us_per_call": pr["svd_call_s"] * 1e6,
            "linalg.flops_per_eval": counts0["work.flops"] / evals,
            "linalg.state_prep_gflops":
                pr["state_prep_flops"] / pr["state_prep_s"] / 1e9,
            "vqe.energy_eval_ms": pr["energy_eval_s"] * 1e3,
            "vqe.evals_per_iter": evals / ranks / budget,
            "vqe.iterations_to_target": reach(base)["iteration"],
            "parallel.evals_all_ranks_per_iter": evals / budget,
            "parallel.comm_bytes_per_iter": counts0["comm.bytes"] / budget,
            "parallel.core_utilisation":
                base["cpu_s"] / (base["wall_s"] * ranks * threads),
            "obs.tracing_overhead":
                med([s["wall_s"] for s in traced]) /
                med([s["wall_s"] for s in untraced]),
            "setup.cold_s": raw["cold_setup"]["total"],
        })
    drift = work_counts_drift(counts0, pin["counts"])
    if untraced[0]["energy"] != pin["budget_energy"]:
        drift["budget_energy"] = {"pinned": pin["budget_energy"],
                                  "measured": untraced[0]["energy"]}
    return checks, metrics, drift


# ---- DMET scan -------------------------------------------------------------

def scan_result(name, raw, pins, trace):
    pin = pins[name]
    pinned = {p["bond_bohr"]: p for p in pin["points"]}
    untraced = [s for s in raw["solves"] if not s["traced"]]
    traced = [s for s in raw["solves"] if s["traced"]]

    checks = Checks()
    counts0 = raw["solves"][0]["counts"]
    mu0 = [p["mu_iterations"] for p in raw["solves"][0]["points"]]
    errors = []
    for i, s in enumerate(raw["solves"]):
        if len(s["points"]) != len(pinned):
            checks.operation(f"scan{i}", [f"{len(s['points'])} points, "
                                          f"pinned {len(pinned)}"])
        for p, mu in zip(s["points"], mu0):
            problems = []
            ref = pinned.get(p["bond_bohr"])
            if not p["ok"]:
                problems.append(f"run_dmet failed: {p['error']}")
            elif ref is None:
                problems.append("geometry has no pinned reference")
            elif not finite(p["energy"]):
                problems.append("non-finite energy")
            elif not p["converged"]:
                problems.append("chemical-potential fit did not converge")
            elif abs(p["energy"] - ref["dmet_energy"]) > pin["energy_tolerance_ha"]:
                problems.append(f"energy {p['energy']:.10f} != pinned "
                                f"{ref['dmet_energy']:.10f}")
            else:
                errors.append(abs(p["energy"] - ref["fci_energy"]) * 1e3)
            if p["mu_iterations"] != mu:
                problems.append("µ-iterations differ between scans of one run")
            checks.operation(f"scan{i}/R={p['bond_bohr']}", problems)
        if s["counts"] != counts0:
            checks.operation(f"scan{i}/counts",
                             ["work counts differ between scans of one run"])

    def first_point_s(s):
        good = [p["done_s"] for p in s["points"] if p["ok"] and p["converged"]]
        return good[0] if good else s["wall_s"]

    walls = [s["wall_s"] for s in untraced]
    if not trace:
        metrics = {
            "solve_s": med(walls),
            "setup_s": med([sum(p["to_first_solve_s"] for p in s["points"])
                            for s in untraced[1:] or untraced]),
            "vqe_iter_s": med([t for s in untraced for t in s["mu_eval_s"]]),
            "time_to_target_s": med([first_point_s(s) for s in untraced]),
            "energy_error_mha": max(errors) if errors else 0.0,
            "cpu_s": med([s["cpu_s"] for s in untraced]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    else:
        pr = raw["probes"]
        mu_total = sum(mu0)
        metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
        metrics.update({
            "chem.integrals_s": pr["integrals_s"],
            "chem.scf_s": pr["scf_s"],
            "chem.scf_iterations": pr["scf_iterations"],
            "chem.fci_solve_ms": med([t for s in raw["solves"]
                                      for t in s["fragment_solve_s"]]) * 1e3,
            "parallel.core_utilisation":
                med([s["cpu_s"] / (s["wall_s"] * raw["provenance"]["threads_per_rank"])
                     for s in untraced]),
            "dmet.mu_iterations": mu_total,
            "dmet.fragment_solves": counts0["dmet.fragment_solves"],
            "dmet.cycle_ms": med(walls) / mu_total * 1e3,
            "dmet.to_first_solve_ms": med([p["to_first_solve_s"]
                                           for s in untraced
                                           for p in s["points"]]) * 1e3,
            "dmet.solver_share": med([sum(s["mu_eval_s"]) / s["wall_s"]
                                      for s in untraced]),
            "obs.tracing_overhead": med([s["wall_s"] for s in traced]) / med(walls),
            "setup.cold_s": sum(p["to_first_solve_s"]
                                for p in raw["solves"][0]["points"]),
        })
    drift = work_counts_drift(counts0, pin["counts"])
    drift.update({f"mu_iterations@R={b}": {"pinned": pinned[b]["mu_iterations"],
                                           "measured": m}
                  for b, m in zip(pinned, mu0)
                  if pinned[b]["mu_iterations"] != m})
    return checks, metrics, drift


# ---- entry points ----------------------------------------------------------

def run_workload(args):
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    build()
    pins = json.loads(PINS.read_text())
    trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    trace_out.parent.mkdir(exist_ok=True)
    vqe = args.workload != "h10_dmet_scan"
    steal0 = host_steal_seconds()
    setups, setup_failures = setup_round(args.workload) if vqe else ([], [])
    raw = run_binary(["run", "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--trace-out", str(trace_out)],
                     RUN_TIMEOUT_S)
    if vqe:
        after, failures = setup_round(args.workload)
        raw["setup_processes"] = setups + after
        raw["setup_failures"] = setup_failures + failures
    judge = vqe_result if vqe else scan_result
    checks, metrics, drift = judge(args.workload, raw, pins, args.trace == 1)

    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    # Steal time during the run shows when the host took the cores away;
    # timings from such a run are not comparable.
    prov = dict(raw["provenance"], git_commit=git_commit(),
                host_steal_cpu_s=round(host_steal_seconds() - steal0, 2))
    record = dict(result, provenance=prov, failures=checks.failures,
                  work_count_drift=drift, raw=raw)
    out = BUILD / "results" / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    for f in checks.failures:
        log(f"FAILED {f['operation']}: {'; '.join(f['problems'])}")
    if drift:
        log(f"work counts differ from pins.json: {json.dumps(drift)}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


def recompute_pins(write, args_workload):
    build()
    log("recomputing references (FCI of every geometry); this takes minutes")
    names = [args_workload] if args_workload else []
    fresh = run_binary(["references"] + names, None)
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = json.loads(json.dumps(old))  # keeps tolerances and problem sizes
    for name in ("h4_vqe", "h10_vqe_window"):
        if name not in fresh:
            continue
        new.setdefault(name, {}).update(
            {k: fresh[name][k] for k in ("fci_energy", "budget_energy",
                                         "budget_history", "converged_energy",
                                         "counts")})
    if "h10_dmet_scan" in fresh:
        new.setdefault("h10_dmet_scan", {}).update(fresh["h10_dmet_scan"])

    diffs = []

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) | set(b)):
                walk(a.get(k), b.get(k), f"{path}.{k}" if path else k)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, float) and isinstance(b, float):
            if abs(a - b) > 1e-9:
                diffs.append(f"{path}: pinned {a!r}, recomputed {b!r}")
        elif a != b:
            diffs.append(f"{path}: pinned {a!r}, recomputed {b!r}")

    walk(old, new, "")
    for d in diffs:
        print(d)
    print(f"{len(diffs)} difference(s) from {PINS.name}")
    if write:
        PINS.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {PINS}")
    return 1 if diffs and not write else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--recompute-pins", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    if args.recompute_pins:
        sys.exit(recompute_pins(args.write, args.workload))
    if not args.workload:
        ap.error("--workload is required")
    try:
        run_workload(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"no result: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
