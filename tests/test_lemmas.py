import itertools
import json
from collections import Counter

import pytest

from kappalab import lemmas
from kappalab.connectivity import common_neighbors, ids_of, is_independent, neighborhood
from kappalab.graphs import CayleyGraph, build_ag, build_splitstar
from kappalab.kappa import witness_families
from kappalab.lemmas import (
    CUT_RULES,
    rule_for,
    sample_subset,
    verify_basic_ag,
    verify_claims_123,
    verify_cut_structure,
    verify_neighbor_bounds,
    verify_remark_constructions,
)
from kappalab.perms import Perm

import random

from .oracles import oracle_sample_subset, oracle_witness_families


def vid(G, text):
    return G.vertex_id(Perm.from_text(text))


def drop_edge(G, u, v):
    assert G.has_edge(u, v)
    neighbors = list(G.neighbors)
    neighbors[u] = tuple(x for x in neighbors[u] if x != v)
    neighbors[v] = tuple(x for x in neighbors[v] if x != u)
    return CayleyGraph(tuple(neighbors), G.family, G.n, G.labels)


def add_edge(G, u, v):
    assert not G.has_edge(u, v)
    neighbors = list(G.neighbors)
    neighbors[u] = tuple(sorted(neighbors[u] + (v,)))
    neighbors[v] = tuple(sorted(neighbors[v] + (u,)))
    return CayleyGraph(tuple(neighbors), G.family, G.n, G.labels)


class TestBasicAg:
    @pytest.mark.parametrize("n", [4, 5])
    def test_consistent(self, request, n):
        report = verify_basic_ag(request.getfixturevalue(f"ag{n}"))
        assert report.verdict == "consistent"
        assert report.mode == "exhaustive"
        assert report.instances_checked > 0

    def test_mutation_control_external_edge(self, ag4):
        u = vid(ag4, "1234")
        ext = next(v for v in ag4.neighbors[u] if ag4.last_symbol(v) != 4)
        corrupted = drop_edge(ag4, u, ext)
        report = verify_basic_ag(corrupted)
        assert report.verdict == "violated"
        assert any(v["check"] == "external-edge-count" for v in report.violations)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_basic_ag(build_ag(3))


class TestNeighborBoundsAg:
    def test_ag4_minima_tight(self, ag4):
        assert verify_neighbor_bounds(ag4, 3).min_attained == 8
        assert verify_neighbor_bounds(ag4, 4).min_attained == 8

    def test_ag5_minima_tight(self, ag5):
        r3 = verify_neighbor_bounds(ag5, 3)
        r4 = verify_neighbor_bounds(ag5, 4)
        assert (r3.verdict, r3.min_attained) == ("consistent", 14)
        assert (r4.verdict, r4.min_attained) == ("consistent", 16)

    def test_ag6_sampled(self, ag6):
        report = verify_neighbor_bounds(ag6, 3, trials=2000, seed=5)
        assert report.mode == "sampled"
        assert report.verdict == "consistent (sampled)"
        assert report.min_attained >= 6 * 6 - 16

    def test_mutation_control(self, ag4):
        corrupted = drop_edge(ag4, vid(ag4, "4321"), vid(ag4, "3241"))
        report = verify_neighbor_bounds(corrupted, 3)
        assert report.verdict == "violated"
        assert report.min_attained < 8

    def test_enumerator_matches_brute_force(self, ag4):
        # the exhaustive bounds read the part-size-1 witness families, in lex order
        got = [ids_of(union) for union, _ in witness_families(ag4.adj_masks, 3, 1)]
        want = sorted(tuple(sorted(set().union(*f))) for f in oracle_witness_families(ag4, 3, 1))
        assert got == want
        assert all(is_independent(ag4, S) for S in want)
        report = verify_neighbor_bounds(ag4, 3)
        assert report.instances_checked == len(want)
        assert report.min_attained == min(len(neighborhood(ag4, S)) for S in want)


class TestSplitstarBounds:
    def test_s4_minima_tight(self, s4):
        for size, want in ((2, 8), (3, 10), (4, 12)):
            report = verify_neighbor_bounds(s4, size)
            assert report.verdict == "consistent"
            assert report.min_attained == want

    def test_s5_sampled(self, s5):
        report = verify_neighbor_bounds(s5, 2, trials=3000, seed=1)
        assert report.mode == "sampled"
        assert report.verdict == "consistent (sampled)"
        assert report.min_attained >= 4 * 5 - 8

    def test_mutation_control(self, s4):
        # make some independent pair's neighborhood fall under 4n-8
        base = verify_neighbor_bounds(s4, 2)
        assert base.min_attained == 8
        u = 0
        v = next(
            x
            for x in range(1, 24)
            if not s4.has_edge(0, x) and len(common_neighbors(s4, 0, x)) == 2
        )
        spare = next(
            x
            for x in s4.neighbors[u]
            if x not in common_neighbors(s4, u, v) and not s4.has_edge(x, v) and x != v
        )
        report = verify_neighbor_bounds(drop_edge(s4, u, spare), 2)
        assert report.verdict == "violated"


class TestClaims:
    def test_ag4_fully_consistent(self, ag4):
        report = verify_claims_123(ag4)
        assert report.verdict == "consistent"

    def test_ag5_finds_the_claim3_counterexamples(self, ag5):
        # the stated cross cap (adjacent or at most one shared neighbor)
        # fails for 12 pairs at n=5: (e gi+)gj- and (e gi+)gk+ always share
        # x gk- = y gj+ on top of e gi+, via gk+ gj+ = gj- gk-
        report = verify_claims_123(ag5)
        assert report.verdict == "violated"
        kinds = Counter(v["check"] for v in report.violations)
        assert kinds == {"claim3-cross-cap": 12}
        assert {"check": "claim3-cross-cap", "pair": ["14235", "53241"]} in report.violations

    def test_hand_checked_counterexample(self, ag5):
        x, y = vid(ag5, "14235"), vid(ag5, "53241")
        assert not ag5.has_edge(x, y)
        shared = {ag5.label_text(z) for z in common_neighbors(ag5, x, y)}
        assert shared == {"31245", "45231"}

    def test_paper_point_values(self, ag5):
        pairs = {
            ("43215", "53241"): {"31245"},
            ("43215", "45312"): {"24315"},
            ("43215", "54321"): set(),
            ("14235", "15243"): {"31245"},
            ("14235", "13425"): {"21435"},
            ("14235", "15324"): set(),
        }
        for (a, b), want in pairs.items():
            got = {ag5.label_text(z) for z in common_neighbors(ag5, vid(ag5, a), vid(ag5, b))}
            assert got == want, (a, b)

    def test_mutation_control_independence(self, ag5):
        # joining two members of N+- must trip the independence check
        x, y = vid(ag5, "14235"), vid(ag5, "13425")
        assert not ag5.has_edge(x, y)
        report = verify_claims_123(add_edge(ag5, x, y))
        assert any(v["check"] == "npm-independent" for v in report.violations)


class TestCutStructure:
    def test_ag4_census(self, ag4):
        report = verify_cut_structure(ag4, 5, "ag-4n-11")
        assert report.verdict == "consistent"
        assert report.instances_checked == sum(
            len(list(itertools.combinations(range(12), k))) for k in range(6)
        )
        counts = dict(report.outcome_counts)
        assert counts["4-cycle,4-cycle"] == 3
        assert counts["4-cycle,2-path"] == 24
        special = tuple(sorted(vid(ag4, t) for t in ("1234", "2143", "3412", "4321")))
        assert special in report.exceptional_faults

    def test_s4_census_bound_8(self, s4):
        report = verify_cut_structure(s4, 8, "s2-4n-8", jobs=2)
        assert report.verdict == "consistent"
        counts = dict(report.outcome_counts)
        # the printed clauses cover everything below the bound; at |F| = 8
        # exactly, the n=4 exceptional outcomes appear: split-off 2-paths and
        # 4-cycles plus three balanced 8/8 halvings
        assert set(counts) == {
            "other,singleton",
            "other,edge",
            "other,singleton,singleton",
            "other,2-path",
            "other,4-cycle",
            "other,other",
        }
        assert counts["other,2-path"] == 48
        assert counts["other,4-cycle"] == 12
        assert counts["other,other"] == 3
        assert len(report.exceptional_faults) == 63

    def test_s4_clauses_exact_below_bound(self, s4):
        report = verify_cut_structure(s4, 7, "s2-4n-8")
        assert report.verdict == "consistent"
        assert set(dict(report.outcome_counts)) == {"other,singleton", "other,edge"}
        assert report.exceptional_faults == ()

    def test_sampled_deterministic_and_job_invariant(self, ag5):
        kwargs = dict(mode="sampled", trials=4000, seed=77)
        r1 = verify_cut_structure(ag5, 10, "ag-6n-20", jobs=1, **kwargs)
        r2 = verify_cut_structure(ag5, 10, "ag-6n-20", jobs=2, **kwargs)
        assert r1 == r2
        assert r1.trials == 4000

    def test_sampled_seed_changes_draws(self, ag5):
        r1 = verify_cut_structure(ag5, 10, "ag-6n-20", mode="sampled", trials=500, seed=1)
        r2 = verify_cut_structure(ag5, 10, "ag-6n-20", mode="sampled", trials=500, seed=2)
        assert r1.seed != r2.seed

    def test_sampled_zero_trials_keeps_seed(self, ag5):
        r = verify_cut_structure(ag5, 10, "ag-6n-20", mode="sampled", trials=0, seed=5)
        assert (r.mode, r.trials, r.seed, r.instances_checked) == ("sampled", 0, 5, 0)

    def test_mutation_control(self, ag4):
        # dropping a triangle edge creates a 5-cut isolating two singletons,
        # which the two-component rule must reject
        u, v = 0, vid(ag4, "3124")
        corrupted = drop_edge(ag4, u, v)
        report = verify_cut_structure(corrupted, 5, "ag-4n-11")
        assert report.verdict == "violated"

    def test_budget_guard(self, s4):
        with pytest.raises(ValueError):
            verify_cut_structure(s4, 8, "s2-4n-8", budget=100)

    def test_rule_of_the_other_family_raises(self, ag4, s4):
        with pytest.raises(ValueError, match="rule ag-4n-11 applies to ag graphs, got s2"):
            verify_cut_structure(s4, 5, "ag-4n-11")
        with pytest.raises(ValueError, match="rule s2-4n-8 applies to s2 graphs, got ag"):
            verify_cut_structure(ag4, 3, "s2-4n-8", mode="sampled", trials=10)

    def test_rule_selection(self, ag4):
        assert rule_for("ag", 4, 5).key == "ag-4n-11"
        assert rule_for("ag", 5, 10).key == "ag-6n-20"
        assert rule_for("ag", 5, 11).key == "ag-6n-19"
        assert rule_for("s2", 5, 15).key == "s2-8n-25"
        with pytest.raises(ValueError):
            rule_for("ag", 4, 20)
        # a census takes a registered key only: no predicate, rule object or other key
        for rule in (lambda G, rep: True, CUT_RULES["ag-4n-11"], "ag-4n-12"):
            with pytest.raises(ValueError, match="unknown cut-structure rule"):
                verify_cut_structure(ag4, 4, rule)


class TestRemark:
    @pytest.mark.parametrize("n,want3,want4", [(4, 8, 8), (5, 14, 16), (6, 20, 24)])
    def test_minima(self, request, n, want3, want4):
        report = verify_remark_constructions(request.getfixturevalue(f"ag{n}"))
        assert report.verdict == "consistent"
        assert report.notes[0] == f"three-set minimum {want3}, four-set minimum {want4}"

    def test_mutation_control(self, ag4):
        report = verify_remark_constructions(
            add_edge(ag4, vid(ag4, "1234"), vid(ag4, "4321"))
        )
        assert report.verdict == "violated"
        assert any(v["check"] == "independence" for v in report.violations)


class TestGraphScope:
    """Every verifier reads its family and n from the graph it is given."""

    CHECKS = {
        "basic": verify_basic_ag,
        "claims": verify_claims_123,
        "remark": verify_remark_constructions,
        "bounds-3": lambda G: verify_neighbor_bounds(G, 3),
    }

    @pytest.mark.parametrize("check,graph", [
        ("basic", "ag5"), ("claims", "ag4"), ("remark", "ag5"), ("bounds-3", "ag4"),
        ("bounds-3", "s4"),
    ])
    def test_report_reads_the_graph(self, request, check, graph):
        G = request.getfixturevalue(graph)
        report = self.CHECKS[check](G)
        assert (report.family, report.n, report.mode) == (G.family, G.n, "exhaustive")
        assert report.verdict == "consistent"

    @pytest.mark.parametrize("check", ["basic", "claims", "remark"])
    def test_graph_of_the_other_family_raises(self, s4, check):
        with pytest.raises(ValueError, match="applies to ag graphs, got s2"):
            self.CHECKS[check](s4)

    @pytest.mark.parametrize("check,build,n", [
        ("basic", build_ag, 3), ("basic", build_ag, 7), ("claims", build_ag, 3),
        ("claims", build_ag, 7), ("remark", build_ag, 3), ("bounds-3", build_ag, 3),
        ("bounds-3", build_ag, 7), ("bounds-3", build_splitstar, 3),
        ("bounds-3", build_splitstar, 6),
    ])
    def test_n_outside_the_range_raises(self, check, build, n):
        with pytest.raises(ValueError, match=f"supports 4 <= n <= \\d, got {n}"):
            self.CHECKS[check](build(n))

    def test_set_size_is_read_per_family(self, ag4, s4):
        assert verify_neighbor_bounds(s4, 2).lemma_id == "splitstar-bounds-2"
        with pytest.raises(ValueError, match="set_size on ag must be one of"):
            verify_neighbor_bounds(ag4, 2)
        with pytest.raises(ValueError, match="set_size on s2 must be one of"):
            verify_neighbor_bounds(s4, 5)


class TestSampling:
    def test_fisher_yates_prefix_uniformity_smoke(self):
        rng = random.Random(0)
        counts = Counter(tuple(sorted(sample_subset(rng, 5, 2))) for _ in range(20000))
        assert len(counts) == 10
        assert min(counts.values()) > 1700  # ~2000 each

    def test_seeded_reproducibility(self):
        a = [sample_subset(random.Random(42), 30, 6) for _ in range(3)]
        b = [sample_subset(random.Random(42), 30, 6) for _ in range(3)]
        assert a == b

    @pytest.mark.parametrize("V", [1, 2, 7, 60, 120, 360])
    def test_draws_follow_the_randrange_stream(self, V):
        for k in sorted({0, 1, V - 1, V}):
            for seed in (0, 1, 2024):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):  # consecutive draws share one stream
                    assert sample_subset(rng, V, k) == sorted(oracle_sample_subset(ref, V, k))
                assert rng.getstate() == ref.getstate()
                for chunk in (0, 63):  # the draws of a sampled census chunk, in draw order
                    rng = random.Random(lemmas._chunk_seed(seed, chunk))
                    ref = random.Random(lemmas._chunk_seed(seed, chunk))
                    want = [oracle_sample_subset(ref, V, k) for _ in range(20)]
                    assert list(itertools.islice(lemmas._subset_draws(rng, V, k), 20)) == want
                    assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("V,k", [(5, 6), (5, -1), (0, 1)])
    def test_size_outside_range_raises(self, V, k):
        with pytest.raises(ValueError, match="subset size"):
            sample_subset(random.Random(0), V, k)

    def test_sampled_reports_match_the_randrange_stream(self, ag4, ag5, ag6, s5,
                                                         monkeypatch):
        # the four sampled rules of the benchmark, plus AG_4, whose V - i runs
        # through a power of two (8); the benchmark shapes never do
        cases = [(ag5, "ag-6n-20", 10), (ag5, "ag-8n-29", 11), (s5, "s2-6n-17", 13),
                 (s5, "s2-8n-25", 15), (ag4, "ag-4n-11", 5)]

        def reports(jobs):
            census = [
                verify_cut_structure(G, size, rule, mode="sampled", trials=5000, seed=9,
                                     jobs=jobs)
                for G, rule, size in cases
            ]
            bounds = [verify_neighbor_bounds(ag6, 3, trials=300, seed=4),
                      verify_neighbor_bounds(s5, 2, trials=300, seed=4)]
            return [json.dumps(r.to_json_dict()) for r in census + bounds]

        def oracle_draws(rng, V, k):
            while True:
                yield oracle_sample_subset(rng, V, k)

        got = [reports(1), reports(2)]
        monkeypatch.setattr(lemmas, "_subset_draws", oracle_draws)
        assert got == [reports(1), reports(2)]


class TestRemarkLargerSizes:
    def test_n7_minima(self):
        report = verify_remark_constructions(build_ag(7))
        assert report.verdict == "consistent"
        assert report.notes[0] == "three-set minimum 26, four-set minimum 32"
