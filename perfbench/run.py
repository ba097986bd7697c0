#!/usr/bin/env python3
"""Benchmark for kappalab: three correctness-gated workloads.

Run from the root of a source checkout; the package is imported from
``src/`` and never from an installed copy.

    python3 perfbench/run.py                    # every workload, each in a fresh process
    python3 perfbench/run.py --workload exhaustive --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sampled --trace 1   # per-layer numbers

``--trace 0`` repeats the workload for ``--seconds`` seconds (at least
once) and reports medians of the end-to-end metrics. ``--trace 1`` runs one
traced pass between two untraced ones and reports the per-layer metrics and
the tracing overhead. Every answer is checked against known values; a wrong one
is counted in ``failed``, and the command exits 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See ``perfbench/README.md`` for the workloads and what each
metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WORKLOADS = ("exhaustive", "sampled", "table")


# ---------------------------------------------------------------------------
# environment


def require_source() -> None:
    if not (SRC / "kappalab" / "__init__.py").is_file():
        print(f"perfbench: no kappalab package under {SRC}", file=sys.stderr)
        sys.exit(2)


def import_kappalab():
    """Import kappalab from this checkout's src/, or exit 2 if it is missing."""
    require_source()
    sys.path.insert(0, str(SRC))
    import kappalab
    import kappalab.cli

    if Path(kappalab.__file__).resolve().parent != SRC / "kappalab":
        print(f"perfbench: imported kappalab from {kappalab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return kappalab


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (git failed)"


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "not installed"


def cpu_s() -> float:
    """User+sys time of this process plus every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ---------------------------------------------------------------------------
# independent check: components by plain DFS over adjacency lists


def component_sizes(neighbors, removed) -> list[int]:
    seen = set(removed)
    sizes = []
    for root in range(len(neighbors)):
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            v = stack.pop()
            size += 1
            for u in neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        sizes.append(size)
    return sorted(sizes)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """One library or CLI call: its checked answer and its exact work counts."""

    name: str
    ok: bool
    subsets: int = 0
    rows: int = 0
    counts: tuple = ()
    detail: str = ""


# graph, ell, kappa_ell, subsets explored, first witness in lex order
KAPPA_CASES = (
    ("ag4", 2, 4, 326, (0, 1, 5, 8)),
    ("ag4", 3, 6, 1703, (0, 1, 3, 5, 8, 11)),
    ("ag4", 4, 8, 3314, (0, 1, 2, 3, 4, 5, 8, 11)),
    ("s4", 3, 8, 543210, (0, 1, 2, 4, 8, 10, 17, 23)),
    ("s4", 4, 10, 2628908, (0, 1, 2, 4, 6, 8, 10, 17, 22, 23)),
)
# graph, size bound, rule, subsets checked, outcome counts, exceptional faults
CENSUS_CASES = (
    ("s4", 8, "s2-4n-8", 1271626, (
        ("other,2-path", 48), ("other,4-cycle", 12), ("other,edge", 780),
        ("other,other", 3), ("other,singleton", 23568),
        ("other,singleton,singleton", 72),
    ), 63),
    ("ag4", 5, "ag-4n-11", 1586, (
        ("4-cycle,2-path", 24), ("4-cycle,4-cycle", 3), ("other,edge", 24),
        ("other,singleton", 96),
    ), 27),
)
# graph, kappa, subsets scanned, disconnecting, singleton cuts, exceptional cuts
HYPER_CASES = (
    ("s4", 5, 42504, 24, 24, ()),
    ("ag4", 4, 495, 15, 12, ((0, 3, 8, 11), (1, 5, 6, 10), (2, 4, 7, 9))),
)
# graph, rule, fault size: the four criterion-8 rules
SAMPLED_RULES = (
    ("ag5", "ag-6n-20", 10),
    ("ag5", "ag-8n-29", 11),
    ("s5", "s2-6n-17", 13),
    ("s5", "s2-8n-25", 15),
)
SAMPLED_TRIALS = 40_000
TABLE_ARGV = ["table", "--families", "ag,s2", "--n-max", "8", "--budget", "5000"]
TABLE_REFERENCE = HERE / "table_reference.csv"


def run_exhaustive(kl, graphs, seed, jobs) -> list[Op]:
    ops = []
    for key, ell, value, explored, witness in KAPPA_CASES:
        G = graphs[key]
        r = kl.kappa_ell_exhaustive(G, ell, jobs=jobs)
        fault = r.witness.fault if r.witness else None
        ok = (
            r.value == value and r.explored == explored and fault == witness
            and not r.inconclusive
            and len(component_sizes(G.neighbors, fault)) >= ell
        )
        ops.append(Op(f"kappa {key} ell={ell}", ok, subsets=r.explored,
                      counts=(r.value, r.explored, fault),
                      detail=f"value={r.value} explored={r.explored}"))
    for key, bound, rule, checked, outcomes, n_exc in CENSUS_CASES:
        r = kl.verify_cut_structure(graphs[key], bound, rule, jobs=jobs)
        examined = sum(c for _, c in r.outcome_counts)
        ok = (
            r.instances_checked == checked and r.outcome_counts == outcomes
            and len(r.exceptional_faults) == n_exc and not r.violations
        )
        ops.append(Op(f"census {key} {rule}@{bound}", ok, subsets=r.instances_checked,
                      counts=(r.instances_checked, r.outcome_counts, r.exceptional_faults),
                      detail=f"checked={r.instances_checked} examined={examined} "
                             f"exceptional={len(r.exceptional_faults)}"))
    for key, kappa, scanned, disconnecting, singletons, exceptional in HYPER_CASES:
        G = graphs[key]
        r = kl.hyper_connectivity_scan(G, kappa, jobs=jobs)
        ok = (
            (r.scanned, r.disconnecting, r.singleton_cuts, r.exceptional)
            == (scanned, disconnecting, singletons, exceptional)
            and r.hyper_connected == (not exceptional)
            # each exceptional AG_4 cut leaves two 4-cycles
            and all(component_sizes(G.neighbors, f) == [4, 4] for f in r.exceptional)
        )
        ops.append(Op(f"hyper {key} kappa={kappa}", ok, subsets=r.scanned,
                      counts=(r.scanned, r.disconnecting, r.singleton_cuts, r.exceptional),
                      detail=f"scanned={r.scanned} disconnecting={r.disconnecting} "
                             f"exceptional={len(r.exceptional)}"))
    return ops


def run_sampled(kl, graphs, seed, jobs) -> list[Op]:
    ops = []
    for key, rule, size in SAMPLED_RULES:
        r = kl.verify_cut_structure(
            graphs[key], size, rule, mode="sampled", trials=SAMPLED_TRIALS,
            seed=seed, jobs=jobs,
        )
        examined = sum(c for _, c in r.outcome_counts)
        ok = (
            not r.violations and r.mode == "sampled" and r.trials == SAMPLED_TRIALS
            and r.seed == seed and r.instances_checked == SAMPLED_TRIALS
        )
        ops.append(Op(f"sampled {key} {rule}@{size}", ok, subsets=r.instances_checked,
                      counts=(r.instances_checked, r.outcome_counts, r.exceptional_faults),
                      detail=f"checked={r.instances_checked} examined={examined} "
                             f"violations={len(r.violations)}"))
    return ops


def run_table(kl, graphs, seed, jobs) -> list[Op]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = kl.cli.main(TABLE_ARGV + ["--jobs", str(jobs)])
    text = buf.getvalue()
    lines = text.splitlines()
    rows = max(len(lines) - 1, 0)
    ok = code == 0 and text.encode() == TABLE_REFERENCE.read_bytes()
    return [Op("cli table", ok, rows=rows, counts=(code, text),
               detail=f"exit={code} rows={rows} "
                      f"match_true={sum(line.count(',True,') for line in lines)}")]


@dataclass(frozen=True)
class Workload:
    graphs: dict  # name -> (kappalab build function name, n)
    jobs: int
    run: Callable[..., list[Op]]


WORKLOAD_SPECS = {
    "exhaustive": Workload({"ag4": ("build_ag", 4), "s4": ("build_splitstar", 4)}, 1,
                           run_exhaustive),
    "sampled": Workload({"ag5": ("build_ag", 5), "s5": ("build_splitstar", 5)}, 2,
                        run_sampled),
    "table": Workload({}, 1, run_table),
}


def build_graphs(kl, spec: Workload) -> dict:
    return {key: getattr(kl, build)(n) for key, (build, n) in spec.graphs.items()}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    ops: list[Op]


def timed_pass(kl, spec, graphs, seed, jobs) -> Pass:
    gc.collect()
    c0 = cpu_s()
    t0 = time.perf_counter()
    ops = spec.run(kl, graphs, seed, jobs)
    wall = time.perf_counter() - t0
    return Pass(wall, cpu_s() - c0, ops)


def setup_probe(workload: str) -> None:
    """Child process: time import plus graph build, print seconds."""
    t0 = time.perf_counter()
    kl = import_kappalab()
    build_graphs(kl, WORKLOAD_SPECS[workload])
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if out.returncode != 0:
            print(f"perfbench: setup probe failed: {out.stderr.strip()}", file=sys.stderr)
            sys.exit(2)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def check_counts(passes: list[Pass]) -> None:
    """Mark as wrong every op whose exact counts differ from the first pass."""
    first = {op.name: op.counts for op in passes[0].ops}
    for p in passes[1:]:
        for op in p.ops:
            if op.counts != first.get(op.name):
                print(f"COUNT MISMATCH: {op.name} differs between passes of the same code")
                op.ok = False


def report_ops(passes: list[Pass]) -> tuple[int, int]:
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if not op.ok)
    for op in passes[0].ops:
        print(f"op {op.name}: {'ok' if op.ok else 'WRONG'} {op.detail}")
    for p in passes[1:]:
        for op in p.ops:
            if not op.ok:
                print(f"op {op.name}: WRONG {op.detail}")
    return attempted, failed


def print_metric(name, value, unit, note=""):
    shown = str(value) if isinstance(value, int) else f"{value:.6g}"
    print(f"metric {name} = {shown} {unit}" + (f"  ({note})" if note else ""))


def untraced_run(kl, spec, graphs, seed, jobs, seconds, setup_times):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(kl, spec, graphs, seed, jobs))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            break
    check_counts(passes)
    attempted, failed = report_ops(passes)
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes: " + " ".join(f"{w:.4g}" for w in walls),
        "setup_s": f"median of {len(setup_times)} fresh processes: "
                   + " ".join(f"{t:.4g}" for t in setup_times),
    }
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, notes.get(name, ""))
    subsets = sum(op.subsets for op in passes[0].ops)
    rows = sum(op.rows for op in passes[0].ops)
    if subsets:
        print_metric("subsets_per_s", subsets / wall, "1/s", f"{subsets} subsets per pass")
    if rows:
        print_metric("rows_per_s", rows / wall, "1/s", f"{rows} rows per pass")
    print_metric("ops_failed_frac", failed / attempted, "ratio",
                 f"{failed} wrong of {attempted} calls")
    return metrics, attempted, failed


def traced_run(kl, spec, graphs, seed, jobs):
    from tracer import Tracer

    # untraced passes on both sides of the traced one, so host drift cancels
    before = timed_pass(kl, spec, graphs, seed, jobs)
    with Tracer(kl) as tracer:
        graphs = build_graphs(kl, spec)
        traced = timed_pass(kl, spec, graphs, seed, jobs)
    after = timed_pass(kl, spec, graphs, seed, jobs)
    passes = [before, traced, after]
    rows = sum(op.rows for op in traced.ops)
    metrics = tracer.metrics(rows)
    if jobs > 1:
        with Tracer(kl) as inline:
            serial = timed_pass(kl, spec, graphs, seed, 1)
        passes.append(serial)
        metrics.update(inline.kernel_metrics())
        print(f"note: connectivity.* and lemmas.sample_* come from a jobs=1 pass; "
              f"pool workers (jobs={jobs}) keep their own counters")
    check_counts(passes)
    attempted, failed = report_ops(passes)
    untraced_s = (before.wall_s + after.wall_s) / 2
    metrics["trace.overhead_frac"] = ((traced.wall_s - untraced_s) / untraced_s, "ratio")
    print(f"note: traced wall_s {traced.wall_s:.4g} s, untraced {before.wall_s:.4g} s "
          f"before and {after.wall_s:.4g} s after (jobs={jobs})")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    return metrics, attempted, failed


def run_workload(args) -> int:
    require_source()
    budget_env = os.environ.pop("KAPPALAB_BUDGET", None)
    spec = WORKLOAD_SPECS[args.workload]
    jobs = min(spec.jobs, nproc())
    setup_times = [] if args.trace else measure_setup(args.workload)
    kl = import_kappalab()
    graphs = build_graphs(kl, spec)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": jobs, "nproc": nproc(),
        "python": platform.python_version(), "numpy": package_version("numpy"),
        "commit": git_commit(),
        "KAPPALAB_BUDGET": "unset" if budget_env is None else f"removed (was {budget_env!r})",
    }
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, attempted, failed = traced_run(kl, spec, graphs, args.seed, jobs)
    else:
        metrics, attempted, failed = untraced_run(
            kl, spec, graphs, args.seed, jobs, args.seconds, setup_times
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; exit 1 if any of them fails."""
    summary, status = {}, 0
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(f"== {workload}\n{out.stdout}")
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        summary[workload] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if out.returncode != 0:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        os.environ.pop("KAPPALAB_BUDGET", None)
        setup_probe(args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
