"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete. The heavy scans (S_4^2 exhaustive,
the C(60,6) sweep, and the million-trial samplings) use all available cores
and stay well inside their stated wall-clock limits.
"""

import json
import math
import os
import random
import time

import pytest

from kappalab.cli import main as cli_main
from kappalab.connectivity import vertex_connectivity
from kappalab.graphs import BitGraph, build_ag, build_splitstar
from kappalab.kappa import (
    construct_paper_cut,
    hyper_connectivity_scan,
    kappa_ell_exhaustive,
    kappa_ell_witness_search,
    kappa_formula,
    verify_cut,
    CutWitness,
)
from kappalab.lemmas import (
    verify_cut_structure,
    verify_neighbor_bounds,
)
from kappalab.perms import Perm

from .oracles import adjacency_dict, oracle_kappa_ell, random_connected_graph

JOBS = os.cpu_count() or 1
SAMPLING_SEED = 20260810

_s4_exhaustive_cache = {}


def record(number: int, name: str, elapsed: float, ok: bool = True, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s){suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_ag4_exhaustive_exactness(ag4):
    start = time.perf_counter()
    k3 = kappa_ell_exhaustive(ag4, 3)
    k4 = kappa_ell_exhaustive(ag4, 4)
    elapsed = time.perf_counter() - start
    ok = k3.value == 6 and k4.value == 8 and elapsed < 5.0
    record(1, "AG4 exhaustive kappa_3/kappa_4", elapsed, ok,
           f"kappa_3={k3.value} kappa_4={k4.value}")


def test_criterion_02_s4_exhaustive_exactness(s4):
    start = time.perf_counter()
    values = {}
    for ell, want in ((3, 8), (4, 10), (5, 12)):
        res = kappa_ell_exhaustive(s4, ell, jobs=JOBS)
        _s4_exhaustive_cache[ell] = res
        values[ell] = res.value
    elapsed = time.perf_counter() - start
    ok = values == {3: 8, 4: 10, 5: 12} and elapsed < 600.0
    record(2, "S4^2 exhaustive kappa_3/4/5", elapsed, ok, f"values={values}")


def test_criterion_03_ag4_exception_census(ag4):
    start = time.perf_counter()
    report = verify_cut_structure(ag4, 5, "ag-4n-11")
    counts = dict(report.outcome_counts)
    special = tuple(
        sorted(ag4.vertex_id(Perm.from_text(t)) for t in ("1234", "2143", "3412", "4321"))
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.violations == ()
        and report.instances_checked == sum(math.comb(12, k) for k in range(6))
        and counts.get("4-cycle,4-cycle") == 3
        and counts.get("4-cycle,2-path") == 24
        and special in report.exceptional_faults
        and elapsed < 5.0
    )
    record(3, "AG4 exception census (495+792 subsets)", elapsed, ok,
           f"outcomes={sorted(counts.items())}")


def test_criterion_04_ag5_hyper_connectivity(ag5):
    start = time.perf_counter()
    kappa = vertex_connectivity(ag5)
    report = hyper_connectivity_scan(ag5, kappa, jobs=JOBS)
    elapsed = time.perf_counter() - start
    ok = (
        kappa == 6
        and report.scanned == math.comb(60, 6)
        and report.evaluated == math.comb(59, 5)
        and report.hyper_connected
        and report.exceptional == ()
        and report.disconnecting == report.singleton_cuts == 60
        and elapsed < 1800.0
    )
    record(4, "AG5 hyper-connectivity sweep of C(60,6)", elapsed, ok,
           f"scanned={report.scanned} disconnecting={report.disconnecting}")


def test_criterion_05_ag_neighbor_bound_tightness(ag4, ag5):
    start = time.perf_counter()
    minima = (
        verify_neighbor_bounds(ag4, 3).min_attained,
        verify_neighbor_bounds(ag5, 3).min_attained,
        verify_neighbor_bounds(ag5, 4).min_attained,
    )
    elapsed = time.perf_counter() - start
    ok = minima == (8, 14, 16) and elapsed < 120.0
    record(5, "AG neighbor-bound tightness (exhaustive minima)", elapsed, ok,
           f"minima={minima}")


def test_criterion_06_splitstar_neighbor_bounds(s4):
    start = time.perf_counter()
    minima = tuple(verify_neighbor_bounds(s4, size).min_attained for size in (2, 3, 4))
    elapsed = time.perf_counter() - start
    ok = minima == (8, 10, 12) and elapsed < 120.0
    record(6, "S4^2 neighbor-bound tightness", elapsed, ok, f"minima={minima}")


@pytest.mark.parametrize("family,n", [("ag", 5), ("ag", 6), ("ag", 7), ("ag", 8),
                                      ("s2", 5), ("s2", 6), ("s2", 7)])
def test_criterion_07_paper_cut_witnesses(family, n):
    start = time.perf_counter()
    G = build_ag(n) if family == "ag" else build_splitstar(n)
    got = {}
    for ell in (3, 4, 5):
        witness = construct_paper_cut(G, ell)
        recheck = verify_cut(G, witness.fault, ell)
        assert isinstance(recheck, CutWitness)
        assert witness.report.count >= ell
        got[ell] = len(witness.fault)
    want = {ell: kappa_formula(family, ell, n) for ell in (3, 4, 5)}
    elapsed = time.perf_counter() - start
    ok = got == want and elapsed < 60.0
    record(7, f"paper-cut witnesses {family} n={n}", elapsed, ok, f"sizes={got}")


def test_criterion_07_cross_consistency(ag4, s4):
    # the substitution noted in the criterion: monotonicity and
    # witness >= exhaustive wherever both tiers run
    start = time.perf_counter()
    checks = []
    ag_vals = {ell: kappa_ell_exhaustive(ag4, ell).value for ell in (2, 3, 4)}
    checks.append(list(ag_vals.values()) == sorted(ag_vals.values()))
    s4_vals = {
        ell: _s4_exhaustive_cache[ell].value
        if ell in _s4_exhaustive_cache
        else kappa_ell_exhaustive(s4, ell, jobs=JOBS).value
        for ell in (3, 4, 5)
    }
    checks.append(list(s4_vals.values()) == sorted(s4_vals.values()))
    for ell in (3, 4):
        checks.append(kappa_ell_witness_search(ag4, ell, 1).value == ag_vals[ell])
    for ell in (3, 4, 5):
        checks.append(kappa_ell_witness_search(s4, ell, 1).value == s4_vals[ell])
    elapsed = time.perf_counter() - start
    record(7, "solver cross-consistency (monotone; witness = exhaustive at n=4)",
           elapsed, all(checks), f"ag={ag_vals} s2={s4_vals}")


SAMPLED_RULES = [
    ("ag", 5, "ag-6n-20", 10),
    ("ag", 5, "ag-6n-19", 11),
    ("ag", 5, "ag-8n-29", 11),
    ("s2", 5, "s2-6n-17", 13),
    ("s2", 5, "s2-8n-25", 15),
]


@pytest.mark.parametrize("family,n,rule,bound", SAMPLED_RULES)
def test_criterion_08_structural_sampling(family, n, rule, bound, ag5, s5):
    G = ag5 if family == "ag" else s5
    start = time.perf_counter()
    report = verify_cut_structure(
        G, bound, rule, mode="sampled", trials=1_000_000, seed=SAMPLING_SEED,
        jobs=JOBS,
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.violations == ()
        and report.trials == 1_000_000
        and report.seed == SAMPLING_SEED
        and elapsed < 1800.0
    )
    record(8, f"sampled census {rule} at |F|={bound}", elapsed, ok,
           f"trials=10^6 seed={report.seed} outcomes={report.outcome_counts}")


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(987654321)
    failures = []
    for index in range(20):
        n, edges = random_connected_graph(rng, max_vertices=14)
        G = BitGraph.from_edges(n, edges)
        adj = adjacency_dict(G)
        for ell in (2, 3, 4):
            fast = kappa_ell_exhaustive(G, ell).value
            brute = oracle_kappa_ell(adj, ell)
            if fast != brute:
                failures.append((index, ell, fast, brute))
        if kappa_ell_exhaustive(G, 2).value != vertex_connectivity(G):
            failures.append((index, "kappa2-vs-maxflow"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    record(9, "oracle equivalence on 20 random graphs", elapsed, ok, str(failures))


DETERMINISM_COMMANDS = [
    ["gen", "--family", "ag", "--n", "4", "--format", "dimacs"],
    ["gen", "--family", "s2", "--n", "4", "--format", "json"],
    ["kappa", "--family", "ag", "--n", "4", "--ell", "3", "--exhaustive"],
    ["kappa", "--family", "ag", "--n", "5", "--ell", "3", "--witness", "--B", "1"],
    ["verify", "--lemma", "cut-structure", "--family", "ag", "--n", "4",
     "--bound", "5"],
    # 63 exceptional faults, each rebuilt from the orbit's one examined fault
    ["verify", "--lemma", "cut-structure", "--family", "s2", "--n", "4",
     "--bound", "8"],
    ["verify", "--lemma", "cut-structure", "--family", "ag", "--n", "5",
     "--bound", "10", "--mode", "sampled", "--trials", "5000", "--seed", "3"],
    ["table", "--families", "ag,s2", "--n-max", "5", "--budget", "5000"],
]


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    problems = []
    for idx, command in enumerate(DETERMINISM_COMMANDS):
        payloads = {}
        for jobs in (1, 4, 8):
            outputs = []
            for rerun in (0, 1):
                path = tmp_path / f"c{idx}-j{jobs}-r{rerun}.out"
                # gen has no --jobs: its runs are reruns at every jobs value
                jobs_argv = [] if command[0] == "gen" else ["--jobs", str(jobs)]
                code = cli_main(command + jobs_argv + ["--output", str(path)])
                if code != 0:
                    problems.append((command[0], jobs, "exit", code))
                outputs.append(path.read_bytes())
            if outputs[0] != outputs[1]:
                problems.append((command[0], jobs, "rerun-differs"))
            payloads[jobs] = outputs[0]
        # across jobs, only the recorded jobs value may differ
        stripped = set()
        for jobs, blob in payloads.items():
            text = blob.decode()
            if text.startswith("{"):
                data = json.loads(text)
                data.pop("jobs", None)
                stripped.add(json.dumps(data, sort_keys=True))
            else:
                stripped.add(text)
        if len(stripped) != 1:
            problems.append((command[0], "cross-jobs-differs"))
    elapsed = time.perf_counter() - start
    record(10, "determinism at jobs in {1,4,8}", elapsed, not problems, str(problems))
