import itertools
import math
import random

import pytest

from kappalab.connectivity import (
    common_neighbors,
    component_masks,
    components,
    is_connected_after,
    is_independent,
    mask_of,
    neighborhood,
    vertex_connectivity,
)
from kappalab.graphs import BitGraph, build_splitstar
from kappalab.kappa import (
    SCAN_BATCH,
    CutRefusal,
    CutWitness,
    Tier,
    WitnessFamily,
    comb_lex_rank,
    construct_paper_cut,
    hyper_connectivity_scan,
    kappa_ell_exhaustive,
    kappa_ell_witness_search,
    level_tasks,
    remark_independent_set,
    scan_hits,
    verify_cut,
    _connected_parts,
)
from kappalab.lemmas import independent_sets_containing_zero
from kappalab.perms import Perm

from .oracles import (
    adjacency_dict,
    oracle_components,
    oracle_disconnected,
    random_connected_graph,
    sparse_random_graph,
)


def vids(G, *texts):
    return [G.vertex_id(Perm.from_text(t)) for t in texts]


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

    def test_rejects_ell_below_two(self, ag4):
        with pytest.raises(ValueError):
            kappa_ell_exhaustive(ag4, 1)


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


class TestWitnessFamilySoundness:
    def _random_family(self, rng, G, ell, B):
        # grow ell-1 random connected parts, then validate
        order = list(range(G.vertex_count))
        rng.shuffle(order)
        parts = []
        used = 0
        blocked = 0
        for anchor in order:
            if len(parts) == ell - 1:
                break
            if blocked >> anchor & 1:
                continue
            part = 1 << anchor
            for _ in range(rng.randint(0, B - 1)):
                from kappalab.connectivity import neighborhood_mask

                cands = neighborhood_mask(G, part) & ~blocked
                if not cands:
                    break
                choices = []
                m = cands
                while m:
                    low = m & -m
                    choices.append(low.bit_length() - 1)
                    m ^= low
                part |= 1 << rng.choice(choices)
            from kappalab.connectivity import ids_of, neighborhood_mask

            parts.append(tuple(ids_of(part)))
            used |= part
            blocked = used | neighborhood_mask(G, used)
        if len(parts) < ell - 1:
            return None
        return WitnessFamily(tuple(parts))

    def test_valid_families_certify(self, ag4, s4):
        # 1000 random valid families per graph, mixed part counts and sizes
        for G, seed in ((ag4, 11), (s4, 13)):
            rng = random.Random(seed)
            checked = 0
            attempts = 0
            while checked < 1000 and attempts < 40000:
                attempts += 1
                ell = rng.choice((3, 4))
                B = rng.choice((1, 2, 3))
                fam = self._random_family(rng, G, ell, B)
                if fam is None or not fam.is_valid(G):
                    continue
                checked += 1
                report = components(G, fam.fault(G))
                assert report.count >= ell
            assert checked == 1000


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
        parts = _connected_parts(s4.adj_masks, 0, 4, 0)
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

    def test_jobs_do_not_change_report(self, ag4):
        assert hyper_connectivity_scan(ag4, 4, jobs=1) == hyper_connectivity_scan(
            ag4, 4, jobs=3
        )

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20261017)
        seen_singleton = seen_exceptional = False
        for _ in range(6):
            n, edges = random_connected_graph(rng, max_vertices=10)
            G = BitGraph.from_edges(n, edges)
            adj = adjacency_dict(G)
            kappa = vertex_connectivity(G)
            for k in (kappa, kappa + 1):
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


class TestScanHits:
    @pytest.mark.parametrize("count", [1, SCAN_BATCH - 1, SCAN_BATCH, SCAN_BATCH + 1])
    def test_matches_component_masks_loop(self, count):
        rng = random.Random(count)
        G = sparse_random_graph(rng, 24)
        faults = [mask_of(rng.sample(range(24), rng.randint(0, 24))) for _ in range(count)]
        for need, limit in ((2, 2), (2, 3), (3, 0)):
            want = []
            for fm in faults:
                comps = component_masks(G.adj_masks, G.full_mask ^ fm, limit)
                if len(comps) >= need:
                    want.append((fm, comps))
            assert list(scan_hits(G, faults, need, limit)) == want
        hits = {fm for fm, _ in scan_hits(G, iter(faults), 2, 2)}
        assert [fm in hits for fm in faults] == oracle_disconnected(G, faults)

    def test_rejects_need_below_two(self, ag4):
        with pytest.raises(ValueError):
            list(scan_hits(ag4, [0], 1, 0))


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
