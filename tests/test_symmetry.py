"""The left-translation quotient of the subset scans against the full scans.

On AG_n and S_n^2 the level scan, the hyper scan and the registered
cut-structure censuses test only the fault sets through vertex 0. The
tests run each call a second time with the gate forced off, so that every
fault set is tested, and require equal results. The hyper scan and the
censuses examine one fault set per orbit, weighted by the orbit size; that
weight is checked against brute-force orbits.
"""

import dataclasses
import itertools
import math
import random

import pytest

from kappalab import kappa, lemmas
from kappalab.connectivity import components
from kappalab.graphs import (BitGraph, CayleyGraph, build_ag, build_splitstar, left_translations,
                             mask_of)
from kappalab.kappa import PAPER_SETS, hyper_connectivity_scan, kappa_ell_exhaustive, scan_tasks
from kappalab.lemmas import CUT_RULES, verify_cut_structure
from kappalab.perms import Perm

from .oracles import lex_fault_masks
from .test_lemmas import add_edge, drop_edge


@pytest.fixture
def full_scan(monkeypatch):
    """Run a scan with the quotient switched off."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(kappa, "left_translations", lambda G: None)
            m.setattr(lemmas, "left_translations", lambda G: None)
            return fn(*args, **kwargs)

    return run


@pytest.fixture
def report_calls(monkeypatch):
    """A one-item list counting the census's ``component_report`` calls."""
    calls = [0]
    report = kappa.component_report

    def counted(*args):
        calls[0] += 1
        return report(*args)

    monkeypatch.setattr(kappa, "component_report", counted)
    return calls


class TestGate:
    @pytest.mark.parametrize("build,n", [(build_ag, 3), (build_ag, 5), (build_splitstar, 4)])
    def test_accepts_built_graphs(self, build, n):
        assert left_translations(build(n)) is not None

    def test_rejects_edited_and_plain_graphs(self, ag4, s4):
        assert left_translations(BitGraph(ag4.neighbors)) is None
        assert left_translations(drop_edge(ag4, 0, ag4.neighbors[0][0])) is None
        assert left_translations(add_edge(s4, 0, 23)) is None
        relabelled = CayleyGraph(ag4.neighbors, ag4.family, ag4.n, ag4.labels[1:] + ag4.labels[:1])
        assert left_translations(relabelled) is None
        other_family = CayleyGraph(s4.neighbors, "ag", 4, s4.labels)
        assert left_translations(other_family) is None

    def test_answer_is_kept_on_the_graph(self):
        G = build_ag(4)
        tr = left_translations(G)
        assert tr is not None and left_translations(G) is tr
        # copies made after the answer was kept must still be checked afresh
        assert left_translations(drop_edge(G, 0, G.neighbors[0][0])) is None
        assert left_translations(dataclasses.replace(G, labels=G.labels[::-1])) is None

    def test_translates_are_automorphisms(self, s4):
        tr = left_translations(s4)
        edges = set(s4.edges())
        for u, v in edges:
            moved = zip(tr.translates((u,)), tr.translates((v,)))
            assert {tuple(sorted((a[0], b[0]))) for a, b in moved} <= edges
        # translate w maps vertex 0 to w, so the translates of {0} are all vertices
        assert tr.translates((0,)) == [(w,) for w in range(24)]

    def test_pinned_tasks_are_the_lex_first_sets_through_zero(self):
        for V, k in ((12, 4), (24, 5), (60, 3)):
            tasks = scan_tasks(V, k, True)
            faults = [fm for t in tasks for fm in lex_fault_masks(V, *t)]
            full = [fm for t in scan_tasks(V, k, False) for fm in lex_fault_masks(V, *t)]
            assert faults == full[: math.comb(V - 1, k - 1)]
            assert all(fm & 1 for fm in faults)


class TestOrbitSize:
    @pytest.mark.parametrize("graph,k_max", [("ag4", 6), ("s4", 4)])
    def test_weights_the_least_pinned_translate_by_its_orbit(self, graph, k_max, request):
        G = request.getfixturevalue(graph)
        tr, V, tables = left_translations(G), G.vertex_count, {}
        stabilised = 0
        for k in range(1, k_max + 1):
            level = 0
            for rest in itertools.combinations(range(1, V), k - 1):
                fm = mask_of((0,) + rest)
                translates = tr.translates((0,) + rest)
                least = min(mask_of(t) for t in translates if 0 in t)
                weight = tr.orbit_size(fm, tables)
                assert weight == (len(set(translates)) if fm == least else 0), rest
                stabilised += 0 < weight < V
                level += weight
            assert level == math.comb(V, k)
        assert stabilised == {"ag4": 30, "s4": 62}[graph]
        assert set(vars(tr)) == {"symbols", "id_of"}  # the tables stay with the caller

    @pytest.mark.parametrize("graph,ids,weight", [("ag4", (0, 3, 8, 11), 3), ("s4", None, 6)])
    def test_klein_four_group_is_its_own_stabiliser(self, graph, ids, weight, request):
        G = request.getfixturevalue(graph)
        S = tuple(sorted(G.vertex_id(Perm(p)) for p in PAPER_SETS[G.family]))
        assert ids is None or S == ids
        assert left_translations(G).orbit_size(mask_of(S), {}) == weight
        if ids:  # AG_4's exceptional hyper cut
            assert S in hyper_connectivity_scan(G, 4).exceptional


class TestLevelScan:
    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_ag4_matches_full_scan(self, ag4, full_scan, ell):
        pinned = kappa_ell_exhaustive(ag4, ell)
        full = full_scan(kappa_ell_exhaustive, ag4, ell)
        assert pinned.to_json_dict(ag4) == full.to_json_dict(ag4)
        assert full.evaluated == full.explored
        assert pinned.evaluated < pinned.explored

    @pytest.mark.parametrize("ell,k_max", [(2, None), (3, None), (4, 7), (5, 7)])
    def test_s4_matches_full_scan(self, s4, full_scan, ell, k_max):
        pinned = kappa_ell_exhaustive(s4, ell, k_max=k_max, jobs=2)
        full = full_scan(kappa_ell_exhaustive, s4, ell, k_max=k_max)
        assert pinned.to_json_dict(s4) == full.to_json_dict(s4)
        assert pinned.evaluated < full.evaluated == full.explored

    def test_s4_ell2_counts(self, s4):
        # kappa(S_4^2) = 5: levels 0..4 whole, level 5 up to the lex-first cut
        r = kappa_ell_exhaustive(s4, 2)
        assert r.value == 5 and 0 in r.witness.fault
        before = sum(math.comb(24, k) for k in range(5))
        pinned_before = 1 + sum(math.comb(23, k - 1) for k in range(1, 5))
        assert r.explored - before == r.evaluated - pinned_before

    def test_ag5_ell2_matches_full_scan(self, ag5, full_scan):
        pinned = kappa_ell_exhaustive(ag5, 2, jobs=2)
        full = full_scan(kappa_ell_exhaustive, ag5, 2, jobs=2)
        assert pinned.to_json_dict(ag5) == full.to_json_dict(ag5)
        assert (pinned.value, full.evaluated) == (6, 7_290_661)
        assert pinned.evaluated == 1_794_870

    def test_edited_graph_takes_full_scan(self, ag4):
        r = kappa_ell_exhaustive(drop_edge(ag4, 0, ag4.neighbors[0][0]), 3)
        assert r.evaluated == r.explored


class TestHyperScan:
    @pytest.mark.parametrize("graph,kappa_value", [("ag4", 4), ("s4", 5)])
    def test_matches_full_scan(self, graph, kappa_value, full_scan, request):
        G = request.getfixturevalue(graph)
        V = G.vertex_count
        for k in (kappa_value, kappa_value + 1):
            pinned = hyper_connectivity_scan(G, k)
            full = full_scan(hyper_connectivity_scan, G, k)
            assert pinned.to_json_dict(G) == full.to_json_dict(G)
            assert pinned.evaluated == math.comb(V - 1, k - 1)
            assert full.evaluated == full.scanned == math.comb(V, k)

    def test_edited_graph_takes_full_scan(self, ag4):
        G = drop_edge(ag4, 0, ag4.neighbors[0][0])
        r = hyper_connectivity_scan(G, 3)
        assert r.evaluated == r.scanned == math.comb(12, 3)


class TestCensus:
    @pytest.mark.parametrize(
        "graph,bound,rule",
        [
            ("ag4", 5, "ag-4n-11"),
            ("ag4", 6, "ag-4n-11"),  # violations: their orbits are rebuilt
            ("ag4", 9, "ag-4n-11"),
            ("s4", 8, "s2-4n-8"),
        ],
    )
    def test_matches_full_scan(self, graph, bound, rule, full_scan, request):
        G = request.getfixturevalue(graph)
        pinned = verify_cut_structure(G, bound, rule, jobs=2)
        full = full_scan(verify_cut_structure, G, bound, rule)
        assert pinned.to_json_dict() == full.to_json_dict()
        assert full.evaluated == full.instances_checked
        V = G.vertex_count
        assert pinned.evaluated == 1 + sum(math.comb(V - 1, k - 1) for k in range(1, bound + 1))
        if bound == 6:
            assert pinned.violations

    def test_ag5_ag4n11_bound5_matches_full_scan(self, ag5, full_scan):
        pinned = verify_cut_structure(ag5, 5, "ag-4n-11", jobs=2)
        full = full_scan(verify_cut_structure, ag5, 5, "ag-4n-11", jobs=2)
        assert pinned.to_json_dict() == full.to_json_dict()
        assert pinned.instances_checked == full.evaluated == 5_985_198
        assert pinned.evaluated == 489_407

    @pytest.mark.parametrize("rule", sorted(CUT_RULES))
    def test_every_registered_rule(self, rule, ag4, s4, full_scan):
        G = {"ag": ag4, "s2": s4}[CUT_RULES[rule].family]
        pinned = verify_cut_structure(G, 6, rule)
        full = full_scan(verify_cut_structure, G, 6, rule)
        assert pinned.to_json_dict() == full.to_json_dict()
        assert sum(c for _, c in pinned.outcome_counts) > 0

    def test_edited_graph_takes_full_scan(self, ag4):
        r = verify_cut_structure(drop_edge(ag4, 0, ag4.neighbors[0][0]), 4, "ag-4n-11")
        assert r.evaluated == r.instances_checked

    @pytest.mark.parametrize(
        "graph,bound,rule,reports,hits",
        [("s4", 8, "s2-4n-8", 1_025, 24_483), ("ag4", 5, "ag-4n-11", 13, 147)],
    )
    def test_reports_one_fault_per_orbit(self, graph, bound, rule, reports, hits,
                                         report_calls, request):
        # a full scan reports every hit through vertex 0: 7,967 on S_4^2, 60 on AG_4
        r = verify_cut_structure(request.getfixturevalue(graph), bound, rule)
        assert (report_calls[0], sum(c for _, c in r.outcome_counts)) == (reports, hits)

    def test_edited_graph_reports_every_hit(self, ag4, report_calls):
        r = verify_cut_structure(drop_edge(ag4, 0, ag4.neighbors[0][0]), 5, "ag-4n-11")
        assert report_calls[0] == sum(c for _, c in r.outcome_counts) > 0

    def test_size_tie_orbit_has_one_outcome(self, s4):
        # On S_4^2 this 13-fault leaves a 4-cycle and an "other" component of
        # the same size; report order puts the 4-cycle first on every translate.
        fault = (1, 3, 4, 6, 10, 11, 12, 14, 15, 16, 17, 19, 22)
        reports = [components(s4, f) for f in left_translations(s4).translates(fault)]
        outcomes = set(_outcomes(s4, CUT_RULES["s2-4n-8"], reports))
        assert outcomes == {("4-cycle,other,edge,singleton", False, True)}

    def test_size_ties_have_one_outcome_per_orbit(self, s4, ag4):
        rng = random.Random(2018)
        for G, sizes, draws in ((s4, range(10, 21), 150), (ag4, range(3, 10), 100)):
            tr = left_translations(G)
            rules = [rule for rule in CUT_RULES.values() if rule.family == G.family]
            tied = 0
            for k in sizes:
                for _ in range(draws):
                    fault = tuple(sorted(rng.sample(range(G.vertex_count), k)))
                    sizes_left = components(G, fault).sizes()
                    if len(set(sizes_left)) == len(sizes_left):
                        continue
                    tied += 1
                    reports = [components(G, f) for f in tr.translates(fault)]
                    for rule in rules:
                        assert len(set(_outcomes(G, rule, reports))) == 1, (fault, rule.key)
            assert tied >= 50


def _outcomes(G, rule, reports):
    """The (signature, verdict, exceptional flag) of each report under ``rule``."""
    for report in reports:
        yield (kappa._signature(report), rule.allowed(G, report),
               rule.exceptional is not None and rule.exceptional(report))
