import dataclasses
import gc
import itertools
import math
import random
import tracemalloc

import pytest

from kappalab import _parallel
from kappalab.connectivity import (
    common_neighbors,
    component_masks,
    components,
    ids_of,
    is_connected_after,
    is_independent,
    mask_of,
    neighborhood,
    vertex_connectivity,
)
from kappalab.graphs import (FAMILY_AG, FAMILY_SPLIT_STAR, MAX_N_AG, MAX_N_SPLIT_STAR, BitGraph,
                             build_ag, build_family, build_splitstar, left_translations,
                             to_dimacs, to_json_dict)
from kappalab.kappa import (
    DEFAULT_BUDGET,
    PAPER_SETS,
    SCAN_BATCH,
    BudgetExceeded,
    CutRefusal,
    CutWitness,
    Tier,
    comb_lex_rank,
    construct_paper_cut,
    hyper_connectivity_scan,
    kappa_ell_exhaustive,
    kappa_ell_witness_search,
    lex_batches,
    level_tasks,
    mask_batches,
    remark_independent_set,
    scan_hits,
    scan_tasks,
    verify_cut,
    _connected_parts,
)
from kappalab.lemmas import independent_sets_containing_zero, verify_cut_structure
from kappalab.perms import Perm

from .oracles import (
    adjacency_dict,
    lex_fault_masks,
    oracle_lanes,
    oracle_components,
    oracle_disconnected,
    random_connected_graph,
    sparse_random_graph,
)


def vids(G, *texts):
    return [G.vertex_id(Perm.from_text(t)) for t in texts]


def paper_set(G, size):
    """The first ``size`` members of the family's PAPER_SETS group, as vertex ids."""
    rest = tuple(range(5, G.n + 1))
    return [G.vertex_id(Perm(p + rest)) for p in PAPER_SETS[G.family][:size]]


# every (family, n) of the paper table
PAPER_ROWS = [(FAMILY_AG, n) for n in range(4, MAX_N_AG + 1)] + [
    (FAMILY_SPLIT_STAR, n) for n in range(4, MAX_N_SPLIT_STAR + 1)
]


def complete_graph(n):
    return BitGraph.from_edges(n, itertools.combinations(range(n), 2))


class TestVerifyCut:
    def test_accepts_lemma_33_style_cut(self, ag4):
        S = vids(ag4, "1234", "4321", "3412")
        F = neighborhood(ag4, S)
        outcome = verify_cut(ag4, F, 4)
        assert isinstance(outcome, CutWitness)
        assert outcome.report.count == 4
        # at n=4 the "large" component is the single leftover vertex 2143
        singles = [c for c in outcome.report.components if len(c) == 1]
        assert len(singles) >= 3
        assert set(S).issubset({c[0] for c in singles})

    def test_refuses_empty_fault(self, ag4):
        outcome = verify_cut(ag4, (), 2)
        assert isinstance(outcome, CutRefusal)
        assert outcome.component_count == 1

    def test_refuses_two_component_cut_for_three(self, ag4):
        F = vids(ag4, "1234", "2143", "3412", "4321")
        outcome = verify_cut(ag4, F, 3)
        assert isinstance(outcome, CutRefusal)
        assert outcome.component_count == 2

    def test_accepts_via_fewer_than_ell_clause(self, ag4):
        outcome = verify_cut(ag4, range(10), 3)  # 2 survivors < 3
        assert isinstance(outcome, CutWitness)


class TestExhaustive:
    def test_ag4_ell3(self, ag4):
        res = kappa_ell_exhaustive(ag4, 3)
        assert res.value == 6
        assert res.tier is Tier.EXHAUSTIVE
        assert isinstance(res.witness, CutWitness)

    def test_ag4_ell4(self, ag4):
        assert kappa_ell_exhaustive(ag4, 4).value == 8

    def test_ag4_ell2_matches_vertex_connectivity(self, ag4):
        assert kappa_ell_exhaustive(ag4, 2).value == vertex_connectivity(ag4) == 4

    def test_k4_rule_clause(self):
        res = kappa_ell_exhaustive(complete_graph(4), 3)
        assert res.value == 2
        assert res.tier is Tier.RULE_FEWER_THAN_ELL
        assert isinstance(res.witness, CutWitness)

    def test_witness_reverifies(self, ag4):
        res = kappa_ell_exhaustive(ag4, 3)
        again = verify_cut(ag4, res.witness.fault, 3)
        assert isinstance(again, CutWitness)

    def test_witness_is_lex_smallest_at_its_level(self, ag4):
        res = kappa_ell_exhaustive(ag4, 3)
        fault = res.witness.fault
        for F in itertools.combinations(range(12), 6):
            if F == fault:
                break
            assert components(ag4, F).count < 3

    def test_explored_counts_lex_position(self, ag4):
        res = kappa_ell_exhaustive(ag4, 3)
        below = sum(math.comb(12, j) for j in range(6))
        position = list(itertools.combinations(range(12), 6)).index(res.witness.fault)
        assert res.explored == below + position + 1

    def test_budget_makes_inconclusive(self, ag4):
        res = kappa_ell_exhaustive(ag4, 3, budget=100)
        assert res.value is None
        assert res.inconclusive
        assert res.inconclusive_above == 2  # levels 0..2 fit in 100 subsets

    def test_k_max_definitive_no_cut(self, ag4):
        res = kappa_ell_exhaustive(ag4, 3, k_max=5)
        assert res.value is None
        assert not res.inconclusive

    def test_monotone_in_ell(self, ag4):
        values = [kappa_ell_exhaustive(ag4, ell).value for ell in (2, 3, 4)]
        assert values == sorted(values)

    def test_jobs_do_not_change_result(self, ag4):
        res1 = kappa_ell_exhaustive(ag4, 3, jobs=1)
        res2 = kappa_ell_exhaustive(ag4, 3, jobs=2)
        res3 = kappa_ell_exhaustive(ag4, 3, jobs=5)
        assert res1 == res2 == res3

    def test_pool_is_capped_at_the_core_count(self, monkeypatch):
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        with _parallel.TaskRunner(50, None) as runner:
            assert runner.jobs == runner._pool._processes == 2
            assert runner.map(abs, [-3, 4, -5]) == [3, 4, 5]

    def test_rejects_ell_below_two(self, ag4):
        with pytest.raises(ValueError):
            kappa_ell_exhaustive(ag4, 1)

    def test_rejects_negative_k_max(self, ag4):
        with pytest.raises(ValueError, match="k_max"):
            kappa_ell_exhaustive(ag4, 3, k_max=-1)


class TestWitnessSearch:
    def test_ag5_ell3_b1(self, ag5):
        res = kappa_ell_witness_search(ag5, 3, 1)
        assert res.value == 10
        assert res.tier is Tier.WITNESS_UPPER_BOUND
        assert res.part_size_bound == 1

    def test_ag5_ell5_b1(self, ag5):
        assert kappa_ell_witness_search(ag5, 5, 1).value == 16

    def test_s5_ell4_b1(self, s5):
        assert kappa_ell_witness_search(s5, 4, 1).value == 16

    def test_equals_exhaustive_on_ag4(self, ag4):
        for ell in (3, 4):
            assert (
                kappa_ell_witness_search(ag4, ell, 1).value
                == kappa_ell_exhaustive(ag4, ell).value
            )

    def test_equals_exhaustive_on_s4_ell3(self, s4):
        assert (
            kappa_ell_witness_search(s4, 3, 1).value
            == kappa_ell_exhaustive(s4, 3).value
            == 8
        )

    @pytest.mark.parametrize(
        "graph, ell, expected",
        [("ag4", 3, 7), ("ag4", 4, 11), ("s4", 3, 18)],
    )
    def test_explored_counts_every_family_at_b1(self, graph, ell, expected, request):
        # with B=1 every complete family is an independent (ell-1)-set holding 0
        G = request.getfixturevalue(graph)
        count = sum(1 for _ in independent_sets_containing_zero(G, ell - 1))
        assert count == expected
        assert kappa_ell_witness_search(G, ell, 1).explored == expected

    @pytest.mark.parametrize(
        "graph, ell, B", [("ag4", 3, 1), ("ag4", 4, 2), ("s4", 3, 1), ("ag5", 3, 2)]
    )
    def test_budget_leaves_in_budget_results_unchanged(self, graph, ell, B, request):
        G = request.getfixturevalue(graph)
        free = kappa_ell_witness_search(G, ell, B)
        assert free.budget == DEFAULT_BUDGET
        tight = kappa_ell_witness_search(G, ell, B, budget=free.explored)
        assert tight.budget == free.explored
        assert dataclasses.replace(tight, budget=DEFAULT_BUDGET) == free
        with pytest.raises(BudgetExceeded):
            kappa_ell_witness_search(G, ell, B, budget=free.explored - 1)

    @pytest.mark.parametrize(
        "graph, ell", [("ag4", 3), ("ag4", 4), ("s4", 3), ("s4", 4), ("ag5", 3), ("ag5", 4)]
    )
    def test_returns_lex_smallest_minimum_cut_at_b1(self, graph, ell, request):
        # with B=1 the families are the independent (ell-1)-sets holding 0
        G = request.getfixturevalue(graph)
        keys = []
        for S in independent_sets_containing_zero(G, ell - 1):
            fault = tuple(sorted(neighborhood(G, S)))
            if len(S) + len(fault) < G.vertex_count:
                keys.append((len(fault), fault))
        assert kappa_ell_witness_search(G, ell, 1).witness.fault == min(keys)[1]

    def test_monotone_nonincreasing_in_b(self, ag4):
        v1 = kappa_ell_witness_search(ag4, 3, 1).value
        v2 = kappa_ell_witness_search(ag4, 3, 2).value
        assert v2 <= v1

    def test_witness_reverifies(self, ag5):
        res = kappa_ell_witness_search(ag5, 4, 1)
        assert isinstance(verify_cut(ag5, res.witness.fault, 4), CutWitness)

    def test_upper_bounds_exhaustive_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(6, 10)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45
            ]
            G = BitGraph.from_edges(n, edges)
            if not is_connected_after(G.adj_masks, G.full_mask):
                continue
            exact = kappa_ell_exhaustive(G, 3)
            try:
                bound = kappa_ell_witness_search(G, 3, 2)
            except ValueError:
                continue  # no valid family with small parts
            assert exact.value is not None
            assert bound.value >= exact.value


class TestConnectedPartsEnumeration:
    def brute_connected_sets(self, G, anchor, max_size, banned_mask):
        out = set()
        ids = [
            v
            for v in range(G.vertex_count)
            if not banned_mask >> v & 1 and v != anchor
        ]
        for size in range(0, max_size):
            for extra in itertools.combinations(ids, size):
                sub = (anchor,) + extra
                m = mask_of(sub)
                if is_connected_after(G.adj_masks, m):
                    out.add(m)
        return out

    def test_matches_brute_force(self, ag4):
        rng = random.Random(3)
        for _ in range(12):
            banned = mask_of(rng.sample(range(12), rng.randint(0, 6)))
            anchor = next(v for v in range(12) if not banned >> v & 1)
            banned_full = banned | ((1 << anchor) - 1)
            for max_size in (1, 2, 3):
                got = set(_connected_parts(ag4.adj_masks, anchor, max_size, banned_full))
                want = self.brute_connected_sets(ag4, anchor, max_size, banned_full)
                assert got == want

    def test_no_duplicates(self, s4):
        parts = list(_connected_parts(s4.adj_masks, 0, 4, 0))
        assert len(parts) == len(set(parts))


class TestPaperCuts:
    def test_ag4_ell4(self, ag4):
        w = construct_paper_cut(ag4, 4)
        assert len(w.fault) == 8
        assert w.report.count == 4

    def test_ag5_all_ells(self, ag5):
        for ell, expect in ((3, 10), (4, 14), (5, 16)):
            w = construct_paper_cut(ag5, ell)
            assert len(w.fault) == expect
            assert w.report.count >= ell

    def test_s4_ell3_structure(self, s4):
        w = construct_paper_cut(s4, 3)
        assert len(w.fault) == 8
        assert w.report.count == 3
        singles = [c[0] for c in w.report.components if len(c) == 1]
        assert len(singles) == 2
        u, v = singles
        assert is_independent(s4, [u, v])
        assert len(common_neighbors(s4, u, v)) == 2

    def test_s4_all_ells(self, s4):
        for ell, expect in ((3, 8), (4, 10), (5, 12)):
            w = construct_paper_cut(s4, ell)
            assert len(w.fault) == expect
            assert w.report.count >= ell

    def test_report_lists_component_ids_only_when_read(self):
        G = build_ag(7)
        w = construct_paper_cut(G, 3)
        assert "components" not in vars(w.report)
        assert w.report.sizes() == tuple(m.bit_count() for m in w.report.masks)
        assert w.report.components == tuple(map(ids_of, w.report.masks))
        assert "components" in vars(w.report)
        report = components(G, w.fault)  # verify_cut has read w.report.fault
        assert "fault" not in vars(report)
        assert report.fault == ids_of(report.fault_mask) == w.fault
        assert "fault" in vars(report)

    def test_only_a_scan_builds_the_adjacency_masks(self):
        for G in (build_ag(7), build_splitstar(7)):
            to_json_dict(G)
            to_dimacs(G)
            for ell in (3, 4, 5):
                w = construct_paper_cut(G, ell)
                assert verify_cut(G, w.fault, ell) == w
            S = paper_set(G, 3)
            assert common_neighbors(G, S[0], S[1]) and is_independent(G, S)
            kappa_ell_exhaustive(G, 2, k_max=1)  # no level has a hit, so no kernel call
            assert "adj_masks" not in vars(G)
            kappa_ell_witness_search(G, 2)  # reads the masks on its first step
            masks = vars(G)["adj_masks"]
            assert G.adj_masks is masks
            assert masks == tuple(map(mask_of, G.neighbors))

    @pytest.mark.parametrize("family, n", PAPER_ROWS)
    def test_paper_set_prefixes_are_independent(self, family, n):
        G = build_family(family, n)
        assert is_independent(G, paper_set(G, 4))  # so is every prefix

    @pytest.mark.parametrize("family, n", PAPER_ROWS)
    def test_paper_set_members_are_singleton_components(self, family, n):
        G = build_family(family, n)
        for ell in (3, 4, 5) if family == FAMILY_SPLIT_STAR or n >= 5 else (3, 4):
            S = paper_set(G, ell - 1)
            w = construct_paper_cut(G, ell)
            assert w.fault == tuple(sorted(neighborhood(G, S)))
            assert {1 << v for v in S} <= {m for m in w.report.masks if m.bit_count() == 1}

    @pytest.mark.parametrize("n", range(4, MAX_N_AG + 1))
    def test_ag_paper_set_is_the_remark_four_set(self, n):
        G = build_ag(n)
        assert set(paper_set(G, 4)) == set(remark_independent_set(G, 4, 3, 4))

    def test_out_of_range_rejected(self, ag4):
        with pytest.raises(ValueError):
            construct_paper_cut(ag4, 5)  # needs n >= 5
        with pytest.raises(ValueError):
            construct_paper_cut(ag4, 6)
        with pytest.raises(ValueError):
            construct_paper_cut(build_splitstar(3), 3)

    def test_remark_sets_are_independent_with_tight_neighborhoods(self, ag5):
        for i, j in itertools.permutations(range(3, 6), 2):
            s3 = remark_independent_set(ag5, 3, i, j)
            s4_ = remark_independent_set(ag5, 4, i, j)
            assert is_independent(ag5, s3)
            assert is_independent(ag5, s4_)
            assert len(neighborhood(ag5, s3)) == 6 * 5 - 16
            assert len(neighborhood(ag5, s4_)) == 8 * 5 - 24

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_remark_neighborhood_matches_inclusion_exclusion(self, n, ag4, ag5, ag6):
        # |N(S)| = sum of degrees minus the union of pairwise intersections,
        # the bookkeeping the lower-bound case analysis rests on
        G = {4: ag4, 5: ag5, 6: ag6}[n]
        for size in (3, 4):
            S = remark_independent_set(G, size, 3, 4)
            pairwise = set()
            for a in range(size):
                for b in range(a + 1, size):
                    pairwise |= common_neighbors(G, S[a], S[b])
            assert len(neighborhood(G, S)) == size * (2 * n - 4) - len(pairwise)


class TestHyperScan:
    def test_ag4_not_hyper_connected(self, ag4):
        rep = hyper_connectivity_scan(ag4, vertex_connectivity(ag4))
        assert rep.scanned == math.comb(12, 4) == 495
        assert not rep.hyper_connected
        # derived by this exhaustive scan: 12 singleton cuts N(v) plus the
        # three independent 4-sets whose removal leaves two 4-cycles
        assert rep.disconnecting == 15
        assert rep.singleton_cuts == 12
        assert len(rep.exceptional) == 3
        special = tuple(sorted(vids(ag4, "1234", "2143", "3412", "4321")))
        assert special in rep.exceptional

    def test_exceptional_cuts_split_into_two_four_cycles(self, ag4):
        rep = hyper_connectivity_scan(ag4, 4)
        for fault in rep.exceptional:
            report = components(ag4, fault)
            assert report.count == 2
            assert {s.value for s in report.shapes} == {"4-cycle"}

    def test_budget_refusal(self, ag4):
        rep = hyper_connectivity_scan(ag4, 4, budget=10)
        assert rep.inconclusive
        assert not rep.hyper_connected

    @pytest.mark.parametrize("kappa", [-1, 13])
    def test_kappa_outside_the_vertex_range_is_refused(self, ag4, kappa):
        # once a bare math.comb error (-1) and an empty report (13 > V = 12)
        with pytest.raises(ValueError, match=f"kappa must be between 0 and 12, got {kappa}"):
            hyper_connectivity_scan(ag4, kappa)

    def test_jobs_do_not_change_report(self, ag4):
        assert hyper_connectivity_scan(ag4, 4, jobs=1) == hyper_connectivity_scan(
            ag4, 4, jobs=3
        )

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20261017)
        graphs = [random_connected_graph(rng, max_vertices=10) for _ in range(6)]
        graphs.append((5, [(0, 1), (1, 2), (3, 4)]))  # disconnected: the empty fault cuts it
        seen_singleton = seen_exceptional = False
        for n, edges in graphs:
            G = BitGraph.from_edges(n, edges)
            adj = adjacency_dict(G)
            for k in range(n + 1):
                disconnecting = singletons = 0
                exceptional = []
                for F in itertools.combinations(range(n), k):
                    comps = oracle_components(adj, F)
                    if len(comps) < 2:
                        continue
                    disconnecting += 1
                    if len(comps) == 2 and min(map(len, comps)) == 1:
                        singletons += 1
                    else:
                        exceptional.append(F)
                rep = hyper_connectivity_scan(G, k)
                assert rep.scanned == math.comb(n, k)
                assert rep.disconnecting == disconnecting
                assert rep.singleton_cuts == singletons
                assert rep.exceptional == tuple(exceptional)
                seen_singleton |= singletons > 0
                seen_exceptional |= bool(exceptional)
        assert seen_singleton and seen_exceptional
        assert hyper_connectivity_scan(G, 0).exceptional == ((),)


class TestScanHits:
    @pytest.mark.parametrize("count", [1, SCAN_BATCH - 1, SCAN_BATCH, SCAN_BATCH + 1])
    def test_matches_component_masks_loop(self, count):
        rng = random.Random(count)
        G = sparse_random_graph(rng, 24)
        faults = [mask_of(rng.sample(range(24), rng.randint(0, 24))) for _ in range(count)]
        for need in (2, 3, 4):
            want = [
                fm for fm in faults
                if len(component_masks(G.adj_masks, G.full_mask ^ fm)) >= need
            ]
            assert list(scan_hits(G, mask_batches(24, faults), need)) == want
        hits = set(scan_hits(G, mask_batches(24, iter(faults)), 2))
        assert [fm in hits for fm in faults] == oracle_disconnected(G, faults)

    @pytest.mark.parametrize("V", [65, 257, 300])
    def test_mask_source_reads_back_the_oracle_faults(self, V):
        # a ring with a few chords, so some faults disconnect and some do not;
        # V crosses the 64-bit word and the TRANSPOSE_CHUNK window
        rng = random.Random(V)
        chords = [tuple(rng.sample(range(V), 2)) for _ in range(V // 8)]
        G = BitGraph.from_edges(V, [(v, (v + 1) % V) for v in range(V)] + chords)
        faults = [mask_of(rng.sample(range(V), rng.randint(0, 6))) for _ in range(150)]
        faults += [G.full_mask, G.full_mask ^ 1 << (V - 1), 1 << (V - 1) | 1 << (V - 3)]
        disconnected = oracle_disconnected(G, faults)
        assert 0 < sum(disconnected) < len(faults)
        hits = list(scan_hits(G, mask_batches(V, faults), 2))
        assert hits == [fm for fm, d in zip(faults, disconnected) if d]
        adj = adjacency_dict(G)
        for fm in hits:
            comps = component_masks(G.adj_masks, G.full_mask ^ fm)
            want = oracle_components(adj, ids_of(fm))
            assert set(frozenset(ids_of(c)) for c in comps) == set(want)

    @pytest.mark.parametrize("need, limit", [(2, 3), (3, 3), (4, 0)])
    def test_lex_source_matches_mask_source(self, s4, need, limit):
        # the pinned task (7, (0,), 1) has a dead prefix vertex below its start;
        # (7, (1,), 2) keeps vertex 0 alive below its start and kills vertex 1.
        # A reducer reads the first ``limit`` components of a hit itself.
        adj, full = s4.adj_masks, s4.full_mask
        for task in scan_tasks(24, 7, True)[:3] + scan_tasks(24, 7, False)[1:2]:
            faults = list(lex_fault_masks(24, *task))
            want = [
                (fm, component_masks(adj, full ^ fm, limit))
                for fm in faults
                if len(component_masks(adj, full ^ fm, need)) >= need
            ]
            hits = list(scan_hits(s4, lex_batches(24, *task), need))
            assert [(fm, component_masks(adj, full ^ fm, limit)) for fm in hits] == want
            assert hits == list(scan_hits(s4, mask_batches(24, faults), need))

    def test_rejects_need_below_two(self, ag4):
        with pytest.raises(ValueError):
            list(scan_hits(ag4, mask_batches(12, [0]), 1))


def assert_source_matches_oracle(V, task, batches=None):
    """The lane batches of a task (the first ``batches`` of them, or all) equal
    the oracle lex source transposed by the mask source (itself checked against
    ``oracle_lanes`` below)."""
    limit = None if batches is None else batches * SCAN_BATCH
    masks = list(itertools.islice(lex_fault_masks(V, *task), limit))
    want = [masks[i : i + SCAN_BATCH] for i in range(0, len(masks), SCAN_BATCH)]
    got = list(itertools.islice(lex_batches(V, *task), batches))
    assert len(got) == len(want)
    for alive, masks in zip(got, want):
        assert alive == next(mask_batches(V, masks))


class TestLexBatches:
    @pytest.mark.parametrize("V", [1, 7, 12])
    def test_every_task_matches_oracle(self, V):
        for k in range(V + 1):
            for pinned in (False, True):
                for task in scan_tasks(V, k, pinned):
                    assert_source_matches_oracle(V, task)

    def test_every_task_of_24_starts_like_oracle(self):
        # all 2**24 subsets would take minutes through the oracle: the first
        # batch of every task covers its pattern head, levels 0..3 and
        # 21..24 are checked whole, and the boundary tasks below check seams
        for k in range(25):
            whole = k <= 3 or k >= 21
            for pinned in (False, True):
                for task in scan_tasks(24, k, pinned):
                    assert_source_matches_oracle(24, task, None if whole else 1)

    @pytest.mark.parametrize(
        "V, task",
        [
            (SCAN_BATCH - 1, (1, (), 0)),  # r = 1: lanes SCAN_BATCH - 1 .. + 1
            (SCAN_BATCH, (1, (), 0)),
            (SCAN_BATCH + 1, (1, (), 0)),
            (SCAN_BATCH + 3, (3, (0, 1), 3)),  # SCAN_BATCH lanes after a prefix
            (70, (3, (0,), 6)),  # C(64, 2) = 2016 lanes, one whole kept block
            (70, (3, (0,), 5)),  # C(65, 2) = 2080 lanes
            (27, (4, (0,), 2)),  # C(25, 3) = 2300 lanes
            (30, (5, (1, 3), 4)),  # prefix vertex 1, vertices 0 and 2 alive in every lane
            (20, (20, (), 0)),  # r = m
            (20, (3, (2, 5, 9), 10)),  # r = 0
            (40, (6, (), 1)),  # C(39, 6) = 3.3M lanes: the first batches only
        ],
    )
    def test_boundary_tasks_match_oracle(self, V, task):
        assert_source_matches_oracle(V, task, batches=3)

    def test_rank_is_lex_position(self):
        for n, k in ((8, 3), (10, 4), (6, 0), (6, 6), (1, 1), (40, 1)):
            for idx, comb in enumerate(itertools.combinations(range(n), k)):
                assert comb_lex_rank(comb, n) == idx

    def test_large_graph_scan_recurses_only_r_deep(self):
        # level 2 of AG_7 is one task with r = 1 and m = 2519 lanes
        res = kappa_ell_exhaustive(build_ag(7), 2, k_max=2)
        assert (res.value, res.explored, res.evaluated) == (None, 3_176_461, 2_521)


class TestMaskBatches:
    @pytest.mark.parametrize("V", [1, 9, 255, 256, 257, 600])
    def test_lanes_are_the_transposed_masks(self, V):
        rng = random.Random(V)
        full = (1 << V) - 1
        masks = [0, full] + [mask_of(rng.sample(range(V), rng.randint(0, V))) for _ in range(70)]
        masks *= 30  # 2160 faults: one whole batch and a part
        got = list(mask_batches(V, iter(masks)))
        assert [len(alive) for alive in got] == [V, V]
        for alive, lo in zip(got, (0, SCAN_BATCH)):
            assert alive == oracle_lanes(masks[lo : lo + SCAN_BATCH], V)

    def test_transpose_memory_is_bounded_by_the_lanes(self):
        # one batch of 2048 random 20-sets on AG_7, whose lane ints take 0.65 MB;
        # a transpose of the whole batch at once peaked at 11 MB
        V = build_ag(7).vertex_count
        rng = random.Random(7)
        masks = [mask_of(rng.sample(range(V), 20)) for _ in range(SCAN_BATCH)]
        tracemalloc.start()
        try:
            next(mask_batches(V, masks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestScanMemory:
    """tracemalloc peaks of the scans stay at or below their figures before
    the lane source (378,341 and 646,313 bytes on Python 3.11), so the kept
    pattern blocks and the batch lists cannot grow unnoticed."""

    def traced_peak(self, fn):
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_s4_ell4_level_scan(self):
        G = build_splitstar(4)
        left_translations(G)
        assert self.traced_peak(lambda: kappa_ell_exhaustive(G, 4)) <= 380_000

    def test_s4_census_at_bound_8(self):
        G = build_splitstar(4)
        left_translations(G)
        assert self.traced_peak(lambda: verify_cut_structure(G, 8, "s2-4n-8")) <= 650_000

    def test_ag8_build_and_paper_cuts_hold_no_adjacency_masks(self):
        # 56.4 MB while every graph kept one V-bit mask per vertex (48.8 MiB on AG_8)
        def build_and_cut():
            G = build_ag(8)
            for ell in (3, 4, 5):
                construct_paper_cut(G, ell)

        assert self.traced_peak(build_and_cut) <= 16_000_000


class TestAg4EightCutCensus:
    def test_size8_cuts_with_four_components(self, ag4):
        # inspection of the uniqueness remark: every such cut is the
        # complement of an independent 4-set; there are exactly 9 of them
        # (the perfect matchings of Q_3 under AG_4 = L(Q_3)), in two
        # automorphism orbits, 3 of which also appear as the exceptional
        # 4-cycle/4-cycle cuts.
        hits = [
            F
            for F in itertools.combinations(range(12), 8)
            if components(ag4, F).count >= 4
        ]
        assert len(hits) == 9
        survivors = [frozenset(range(12)) - set(F) for F in hits]
        for S in survivors:
            assert is_independent(ag4, S)
        exceptional = {
            frozenset(f) for f in hyper_connectivity_scan(ag4, 4).exceptional
        }
        assert exceptional <= set(survivors)


class TestEnumerationHelpers:
    def test_comb_lex_rank_matches_itertools(self):
        for n, k in ((8, 3), (10, 4), (6, 0)):
            for idx, comb in enumerate(itertools.combinations(range(n), k)):
                assert comb_lex_rank(comb, n) == idx

    def test_level_tasks_cover_exactly(self):
        V, k = 9, 4
        tasks = level_tasks(V, k, target=10)
        assert len(tasks) > 1
        seen = []
        for prefix, start in tasks:
            for comb in itertools.combinations(range(start, V), k - len(prefix)):
                seen.append(prefix + comb)
        assert seen == list(itertools.combinations(range(V), k))

    def test_level_tasks_leave_no_garbage_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for V, k in ((24, 10), (59, 5), (9, 4), (60, 0), (23, 9)):
                scan_tasks(V, k, True)
                scan_tasks(V, k, False)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "family, n, search",
        [
            ("s2", 5, lambda G: construct_paper_cut(G, 5)),
            ("s2", 7, lambda G: [construct_paper_cut(G, ell) for ell in (3, 4, 5)]),
            ("ag", 5, lambda G: kappa_ell_witness_search(G, 4, 2)),
            ("ag", 5, lambda G: list(independent_sets_containing_zero(G, 2))),
        ],
        ids=["tight-set-s5", "tight-sets-s7", "witness-search", "independent-sets"],
    )
    def test_searches_leave_no_garbage_cycles(self, family, n, search):
        G = build_ag(n) if family == "ag" else build_splitstar(n)
        gc.collect()
        gc.disable()
        try:
            search(G)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAgainstSubsetOracle:
    def test_small_graph_values_match_brute_force(self):
        rng = random.Random(42)
        for _ in range(5):
            n = rng.randint(5, 8)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            ]
            G = BitGraph.from_edges(n, edges)
            adj = adjacency_dict(G)
            if len(oracle_components(adj, ())) != 1:
                continue
            for ell in (2, 3):
                res = kappa_ell_exhaustive(G, ell)
                brute = None
                for k in range(n + 1):
                    for F in itertools.combinations(range(n), k):
                        if n - k < ell or len(oracle_components(adj, F)) >= ell:
                            brute = k
                            break
                    if brute is not None:
                        break
                assert res.value == brute
