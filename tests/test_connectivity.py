import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kappalab.connectivity import (
    Shape,
    _max_vertex_disjoint_paths,
    _split_network,
    common_neighbors,
    component_masks,
    component_report,
    components,
    count_components,
    ids_of,
    is_independent,
    mask_of,
    neighborhood,
    split_lanes,
    vertex_connectivity,
)
from kappalab.graphs import BitGraph, build_ag, build_splitstar
from kappalab.kappa import construct_paper_cut
from kappalab.perms import Perm

from .oracles import (
    adjacency_dict,
    oracle_components,
    oracle_disconnected,
    oracle_lanes,
    oracle_shape,
    random_connected_graph,
    sparse_random_graph,
)


def vids(G, *texts):
    return [G.vertex_id(Perm.from_text(t)) for t in texts]


def complete_graph(n):
    return BitGraph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n):
    return BitGraph.from_edges(n, zip(range(n - 1), range(1, n)))


def barbell_graph(m):
    """Two m-cliques on 0..m-1 and m..2m-1, joined by the bridge (m - 1, m)."""
    cliques = itertools.combinations(range(m), 2), itertools.combinations(range(m, 2 * m), 2)
    return BitGraph.from_edges(2 * m, itertools.chain(*cliques, [(m - 1, m)]))


AG4_FOUR_CYCLE_FAULT = ("1234", "2143", "3412", "4321")


class TestComponents:
    def test_empty_fault_one_component(self, ag4):
        report = components(ag4, ())
        assert report.count == 1
        assert report.sizes() == (12,)

    def test_ag4_two_four_cycles(self, ag4):
        report = components(ag4, vids(ag4, *AG4_FOUR_CYCLE_FAULT))
        assert report.count == 2
        assert report.shapes == (Shape.FOUR_CYCLE, Shape.FOUR_CYCLE)

    def test_ag4_four_cycle_and_two_path(self, ag4):
        report = components(ag4, vids(ag4, *AG4_FOUR_CYCLE_FAULT, "2314"))
        assert report.count == 2
        assert report.shapes == (Shape.FOUR_CYCLE, Shape.TWO_PATH)

    def test_ordering_size_desc_then_min_id(self, ag4):
        report = components(ag4, vids(ag4, *AG4_FOUR_CYCLE_FAULT))
        sizes = report.sizes()
        assert sizes == tuple(sorted(sizes, reverse=True))
        assert report.components[0][0] < report.components[1][0]

    def test_equal_sizes_are_ordered_by_shape_then_min_id(self):
        # sizes 4, 4, 3, 3, 1, 1, with each shape class on higher ids than
        # the other shape of its size: a 3-cycle 0-2, a 2-path 3-5, a star
        # ("other") 6-9, a 4-cycle 10-13, and the singletons 14 and 15
        G = BitGraph.from_edges(16, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7), (6, 8),
                                     (6, 9), (10, 11), (11, 12), (12, 13), (10, 13)])
        report = components(G, ())
        assert report.shapes == (Shape.FOUR_CYCLE, Shape.OTHER, Shape.TWO_PATH,
                                 Shape.THREE_CYCLE, Shape.SINGLETON, Shape.SINGLETON)
        assert [c[0] for c in report.components] == [10, 6, 3, 0, 14, 15]
        masks = component_masks(G.adj_masks, G.full_mask)
        assert component_report(G.neighbors, 0, masks[::-1]) == report

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_faults(self, ag4, data):
        k = data.draw(st.integers(0, 8))
        F = data.draw(st.sets(st.integers(0, 11), min_size=k, max_size=k))
        report = components(ag4, F)
        oracle = oracle_components(adjacency_dict(ag4), F)
        assert set(map(frozenset, report.components)) == set(oracle)
        assert sum(report.sizes()) + len(F) == ag4.vertex_count
        in_id_order = sorted(oracle, key=min)
        alive = ag4.full_mask & ~mask_of(F)
        for limit in range(4):
            masks = component_masks(ag4.adj_masks, alive, limit)
            want = in_id_order[:limit] if limit else in_id_order
            assert [frozenset(ids_of(m)) for m in masks] == want

    def test_rejects_out_of_range_ids(self, ag4):
        with pytest.raises(ValueError):
            components(ag4, [99])


class TestNeighbourListWalk:
    """``components`` walks neighbour lists; the scans' ``component_masks``
    walks ``adj_masks``. Both must give the same report."""

    @staticmethod
    def faults(G, rng):
        V = G.vertex_count
        yield ()
        yield range(1, V)  # all but one
        yield range(V)  # nothing left
        independent = set()
        for v in rng.sample(range(V), V):
            if independent.isdisjoint(G.neighbors[v]):
                independent.add(v)
        yield set(range(V)) - independent  # every survivor a singleton
        yield neighborhood(G, sorted(independent)[:5])  # five singletons and the rest
        for _ in range(20):
            yield rng.sample(range(V), rng.randint(0, V - 1))

    @staticmethod
    def assert_walk_agrees(G, F):
        fm = mask_of(F)
        want = component_report(G.neighbors, fm, component_masks(G.adj_masks, G.full_mask ^ fm))
        got = components(G, F)
        assert got == want
        assert got.fault == tuple(sorted(set(F)))
        assert got.components == want.components
        return got

    def assert_walks_agree(self, G, seed):
        for F in self.faults(G, random.Random(seed)):
            self.assert_walk_agrees(G, F)

    @pytest.mark.parametrize("build,n", [(build_ag, n) for n in range(3, 7)]
                             + [(build_splitstar, n) for n in range(3, 6)])
    def test_matches_mask_walk_on_built_graphs(self, build, n):
        self.assert_walks_agree(build(n), n)

    @pytest.mark.parametrize("V", [63, 64, 65, 129])
    def test_matches_mask_walk_on_random_graphs(self, V):
        rng = random.Random(V)
        for _ in range(3):
            self.assert_walks_agree(sparse_random_graph(rng, V), rng.random())

    def test_two_large_components(self):
        # the walk stops only when at most one region grows, so two regions of
        # more than V/4 vertices each must both run to their ends
        path, barbell = path_graph(65), barbell_graph(20)
        assert self.assert_walk_agrees(path, [32]).sizes() == (32, 32)
        assert self.assert_walk_agrees(path, [10, 40]).sizes() == (29, 24, 10)
        assert self.assert_walk_agrees(barbell, [19]).sizes() == (20, 19)
        assert self.assert_walk_agrees(barbell, [5, 19, 33]).sizes() == (19, 18)

    def test_single_boundary_vertex(self, ag4):
        # a single region: the walk stops after its first step
        path = path_graph(65)
        assert self.assert_walk_agrees(path, [0]).sizes() == (64,)
        assert self.assert_walk_agrees(path, range(40, 65)).sizes() == (40,)
        assert self.assert_walk_agrees(barbell_graph(20), range(20, 40)).sizes() == (20,)
        for v in range(12):
            assert self.assert_walk_agrees(ag4, set(range(12)) - {v}).sizes() == (1,)

    @pytest.mark.parametrize("build,n", [(build_ag, 4), (build_splitstar, 4), (build_ag, 5)])
    def test_empty_and_full_faults(self, build, n):
        G = build(n)
        assert self.assert_walk_agrees(G, ()).masks == (G.full_mask,)
        assert self.assert_walk_agrees(G, range(G.vertex_count)).masks == ()

    def test_untouched_component_of_a_disconnected_graph(self, ag4):
        # AG_4 beside a 30-vertex path: G is not connected, so a fault inside
        # one part must not stop the walk before it reaches the other
        tail = [(u + 12, v + 12) for u, v in path_graph(30).edges()]
        G = BitGraph.from_edges(42, list(ag4.edges()) + tail)
        assert not G.connected
        four_cycles = vids(ag4, *AG4_FOUR_CYCLE_FAULT)
        assert self.assert_walk_agrees(G, four_cycles).sizes() == (30, 4, 4)
        assert self.assert_walk_agrees(G, [20]).sizes() == (21, 12, 8)
        assert self.assert_walk_agrees(G, ag4.neighbors[0]).sizes() == (30, 7, 1)

    def test_connected_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(27)
        graphs = [build_ag(n) for n in range(3, 7)] + [build_splitstar(n) for n in range(3, 6)]
        graphs += [sparse_random_graph(rng, V) for V in (1, 2, 5, 20, 63, 64, 65, 129) * 3]
        graphs += [BitGraph.from_edges(*random_connected_graph(rng)) for _ in range(10)]
        verdicts = set()
        for G in graphs:
            H = nx.Graph()
            H.add_nodes_from(range(G.vertex_count))
            H.add_edges_from(G.edges())
            assert G.connected == nx.is_connected(H)
            assert G.connected == (components(G, ()).count == 1)
            verdicts.add(G.connected)
        assert verdicts == {False, True}

    def test_paper_cuts_walk_under_a_quarter_of_the_neighbour_lists(self):
        class CountingNeighbors(tuple):
            reads = 0

            def __getitem__(self, v):
                CountingNeighbors.reads += 1
                return tuple.__getitem__(self, v)

        def reads(G, F):
            H = BitGraph(CountingNeighbors(G.neighbors))
            assert H.connected and CountingNeighbors.reads >= H.vertex_count
            CountingNeighbors.reads = 0
            assert components(H, F) == components(G, F)
            return CountingNeighbors.reads

        G = build_ag(7)
        for ell in (3, 4, 5):
            assert reads(G, construct_paper_cut(G, ell).fault) < G.vertex_count / 4
        # the regions take turns: the long side of a path stops growing as
        # soon as the short side has ended
        assert reads(path_graph(1000), [5]) < 20

    @pytest.mark.parametrize("build,n", [(build_ag, 7), (build_splitstar, 6)])
    def test_matches_mask_walk_on_paper_cuts(self, build, n):
        G = build(n)
        for ell in (3, 4, 5):
            F = construct_paper_cut(G, ell).fault
            want = component_masks(G.adj_masks, G.full_mask ^ mask_of(F))
            assert components(G, F) == component_report(G.neighbors, mask_of(F), want)
            assert len(want) == ell

    @pytest.mark.parametrize("F", [[-1], [3, 12], [0, 11, 12]])
    def test_out_of_range_id_raises(self, ag4, F):
        with pytest.raises(ValueError, match="out-of-range vertex ids"):
            components(ag4, F)

    @staticmethod
    def walk_peak(G, F):
        tracemalloc.start()
        try:
            components(G, F)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_walk_memory_is_bytes_per_vertex(self):
        # on an AG_8 paper cut the walk peaked at 0.15 MB on Python 3.11; a set
        # of the V reached ids, as an earlier walk of all of G kept, took it to
        # 2.05 MB
        G = build_ag(8)
        F = construct_paper_cut(G, 3).fault
        assert self.walk_peak(G, F) < 1_250_000

    def test_first_walk_memory_includes_the_connectivity_walk(self):
        # a graph that was not built here finds G.connected on its first walk
        # by walking all of G: 0.99 MB on AG_8 on Python 3.11
        G = build_ag(8)
        F = construct_paper_cut(G, 3).fault
        H = BitGraph(G.neighbors)
        assert "connected" not in vars(H)
        assert self.walk_peak(H, F) < 1_250_000
        assert vars(H)["connected"] is True


class TestWordWalk:
    """``ids_of`` and ``component_masks`` walk masks a 64-bit word at a time."""

    @pytest.mark.parametrize("L", [1, 64, 65, 200, 20_160])
    def test_ids_of_matches_plain_scan(self, L):
        rng = random.Random(L)
        edges = mask_of(b for b in (0, 63, 64, 65, 127, 128, L - 1) if b < L)
        masks = [0, edges, (1 << L) - 1, 1 << (L - 1)]
        masks += [edges | rng.getrandbits(L) for _ in range(3)]
        masks += [edges | mask_of(rng.sample(range(L), min(L, 5))) for _ in range(3)]
        for m in masks:
            assert list(ids_of(m)) == [i for i in range(L) if m >> i & 1]

    @staticmethod
    def assert_components_match(G, removed):
        want = [mask_of(c) for c in sorted(oracle_components(adjacency_dict(G), removed), key=min)]
        alive = G.full_mask & ~mask_of(removed)
        for limit in range(4):
            assert component_masks(G.adj_masks, alive, limit) == (want[:limit] if limit else want)

    @pytest.mark.parametrize("V", [63, 64, 65, 129, 1000])
    def test_component_masks_match_oracle_on_sparse_graphs(self, V):
        rng = random.Random(V)
        for _ in range(3):
            G = sparse_random_graph(rng, V)
            for _ in range(3):
                self.assert_components_match(G, rng.sample(range(V), rng.randint(0, V // 8)))

    @pytest.mark.parametrize("relabel", [False, True])
    def test_component_masks_match_oracle_on_a_cut_path(self, relabel):
        rng = random.Random(1000)
        order = list(range(1000))
        if relabel:  # path edges then jump between far-apart words
            rng.shuffle(order)
        G = BitGraph.from_edges(1000, zip(order, order[1:]))
        for cuts in (0, 1, 3, 20):
            self.assert_components_match(G, rng.sample(range(1000), cuts))


def disconnected_lanes(G, masks):
    return split_lanes(G.neighbors, oracle_lanes(masks, G.vertex_count), 2)


class TestDisconnectedLanes:
    @pytest.mark.parametrize("V", [1, 7, 8, 9, 24, 63, 64, 65, 120])
    def test_matches_oracle_on_random_graphs(self, V):
        rng = random.Random(V)
        full = (1 << V) - 1
        for _ in range(6):
            G = sparse_random_graph(rng, V)
            faults = [0, full] + [
                mask_of(rng.sample(range(V), rng.randint(0, V))) for _ in range(40)
            ]
            lanes = disconnected_lanes(G, faults)
            assert [bool(lanes >> j & 1) for j in range(len(faults))] == oracle_disconnected(
                G, faults
            )
            assert lanes >> len(faults) == 0

    @pytest.mark.parametrize("need", [2, 3, 4, 5])
    def test_need_matches_component_count(self, need):
        rng = random.Random(need)
        seen = set()
        for V in (5, 12, 24, 40):
            G = sparse_random_graph(rng, V)
            adj = adjacency_dict(G)
            faults = [0] + [mask_of(rng.sample(range(V), rng.randint(0, V))) for _ in range(60)]
            lanes = split_lanes(G.neighbors, oracle_lanes(faults, V), need)
            got = [bool(lanes >> j & 1) for j in range(len(faults))]
            want = [
                len(oracle_components(adj, ids_of(fm))) >= need for fm in faults
            ]
            assert got == want
            assert got == [
                len(component_masks(G.adj_masks, G.full_mask ^ fm)) >= need for fm in faults
            ]
            seen.update(want)
        assert seen == {True, False}

    def test_isolated_vertices_and_disconnected_graphs(self):
        empty = BitGraph.from_edges(5, [])
        # no edges: two or more survivors are always disconnected
        faults = [0, 0b11110, 0b11100, 0b11111]
        assert disconnected_lanes(empty, faults) == 0b0101
        assert split_lanes(empty.neighbors, oracle_lanes(faults, 5), 4) == 0b0001
        two_triangles = BitGraph.from_edges(6, [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1)])
        faults = [0, 0b010101, 0b101010, 0b000011, 0b111111]
        assert disconnected_lanes(two_triangles, faults) == 0b01001
        assert split_lanes(two_triangles.neighbors, oracle_lanes(faults, 6), 3) == 0
        assert disconnected_lanes(two_triangles, []) == 0


class TestShapes:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_classification_matches_census_oracle(self, s4, data):
        F = data.draw(st.sets(st.integers(0, 23), min_size=8, max_size=16))
        report = components(s4, F)
        adj = adjacency_dict(s4)
        for comp, shape in zip(report.components, report.shapes):
            if len(comp) <= 4:
                assert shape.value == oracle_shape(adj, comp)

    def test_triangle_plus_pendant_is_not_a_four_cycle(self):
        G = BitGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        report = components(G, ())
        assert report.shapes == (Shape.OTHER,)


class TestNeighborhood:
    def test_empty(self, ag4):
        assert neighborhood(ag4, ()) == frozenset()

    def test_ag4_independent_triple_has_eight_neighbors(self, ag4):
        S = vids(ag4, "1234", "4321", "3412")
        assert len(neighborhood(ag4, S)) == 8

    def test_ag5_identity_degree(self, ag5):
        assert len(neighborhood(ag5, vids(ag5, "12345"))) == 6

    def test_excludes_the_set_itself(self, ag4):
        S = vids(ag4, "1234", "2314")  # adjacent pair
        assert neighborhood(ag4, S).isdisjoint(S)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_union_bound(self, ag5, data):
        S1 = data.draw(st.sets(st.integers(0, 59), max_size=5))
        S2 = data.draw(st.sets(st.integers(0, 59), max_size=5))
        lhs = neighborhood(ag5, S1 | S2)
        rhs = neighborhood(ag5, S1) | neighborhood(ag5, S2) | S1 | S2
        assert lhs <= rhs


class TestCommonNeighbors:
    def test_paper_pair_ag5(self, ag5):
        u, v = vids(ag5, "14235", "32415")
        expected = set(vids(ag5, "43215", "21435"))
        assert common_neighbors(ag5, u, v) == expected

    def test_cap_of_two_exhaustive(self, ag4, ag5):
        for G in (ag4, ag5):
            for u in range(G.vertex_count):
                for v in range(u + 1, G.vertex_count):
                    if not G.has_edge(u, v):
                        assert len(common_neighbors(G, u, v)) <= 2

    def test_distance_three_pairs_share_nothing(self, s4):
        # BFS distances recomputed here independently of the graphs module
        for u in range(s4.vertex_count):
            dist = {u: 0}
            frontier = [u]
            while frontier:
                nxt = []
                for a in frontier:
                    for b in s4.neighbors[a]:
                        if b not in dist:
                            dist[b] = dist[a] + 1
                            nxt.append(b)
                frontier = nxt
            for v in range(s4.vertex_count):
                if v != u and dist[v] >= 3:
                    assert common_neighbors(s4, u, v) == frozenset()

    def test_rejects_equal_vertices(self, ag4):
        with pytest.raises(ValueError):
            common_neighbors(ag4, 3, 3)

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -12), (0, 12), (12, 3)])
    def test_rejects_out_of_range_ids(self, ag4, u, v):
        with pytest.raises(ValueError, match="out-of-range"):
            common_neighbors(ag4, u, v)


class TestIsIndependent:
    def test_known_independent_set(self, ag4):
        assert is_independent(ag4, vids(ag4, "1234", "4321", "3412"))

    def test_singleton(self, ag4):
        assert is_independent(ag4, [5])

    def test_edge_endpoints(self, ag4):
        u = 0
        v = ag4.neighbors[0][0]
        assert not is_independent(ag4, [u, v])

    @pytest.mark.parametrize("S", [[-1], [3, 12]])
    def test_out_of_range_ids_rejected_with_neighborhood(self, ag4, S):
        with pytest.raises(ValueError):
            is_independent(ag4, S)
        with pytest.raises(ValueError):
            neighborhood(ag4, S)


class TestVertexConnectivity:
    def test_ag4(self, ag4):
        assert vertex_connectivity(ag4) == 4

    def test_ag5(self, ag5):
        assert vertex_connectivity(ag5) == 6

    def test_ag6(self, ag6):
        assert vertex_connectivity(ag6) == 8

    def test_s4(self, s4):
        assert vertex_connectivity(s4) == 5

    def test_s5(self, s5):
        assert vertex_connectivity(s5) == 7

    @pytest.mark.parametrize("graph,want", [("ag6", 8), ("s5", 7)])
    def test_matches_networkx(self, graph, want, request):
        nx = pytest.importorskip("networkx")
        G = request.getfixturevalue(graph)
        H = nx.Graph(list(G.edges()))
        assert nx.node_connectivity(H) == vertex_connectivity(G) == want

    def test_complete_graph_convention(self):
        assert vertex_connectivity(complete_graph(5)) == 4

    def test_cycle(self):
        G = BitGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert vertex_connectivity(G) == 2

    def test_path_has_cut_vertex(self):
        G = BitGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert vertex_connectivity(G) == 1

    def test_matches_deletion_oracle_on_random_graphs(self):
        # oracle: smallest vertex subset whose removal disconnects the graph
        rng = random.Random(20260810)
        for _ in range(8):
            n, edges = random_connected_graph(rng, max_vertices=9)
            G = BitGraph.from_edges(n, edges)
            adj = adjacency_dict(G)
            brute = None
            for k in range(n - 1):
                if any(
                    len(oracle_components(adj, F)) >= 2
                    for F in itertools.combinations(range(n), k)
                ):
                    brute = k
                    break
            assert brute is not None
            assert vertex_connectivity(G) == brute


    def test_max_flow_matches_networkx_on_random_graphs(self):
        # 200 graphs of 2-12 vertices at four densities; some are disconnected
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.connectivity import local_node_connectivity

        rng = random.Random(20261019)
        pairs = 0
        for i in range(200):
            n = 2 + int(rng.random() * 11)
            density = (0.15, 0.3, 0.5, 0.8)[i % 4]
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            G = BitGraph.from_edges(n, edges)
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from(edges)
            assert vertex_connectivity(G) == nx.node_connectivity(H)
            network = _split_network(G)
            for s, t in itertools.combinations(range(n), 2):
                if G.has_edge(s, t):
                    continue
                want = local_node_connectivity(H, s, t)
                for cap in range(max(want - 1, 0), want + 2):
                    assert _max_vertex_disjoint_paths(network, s, t, cap) == min(want, cap)
                pairs += 1
            assert network == _split_network(G)  # every pair works on its own copy
        assert pairs > 2000

class TestCountComponents:
    def test_early_exit_lower_bounds_true_count(self, ag4):
        F = vids(ag4, *AG4_FOUR_CYCLE_FAULT)
        alive = ag4.full_mask
        for v in F:
            alive &= ~(1 << v)
        assert count_components(ag4.adj_masks, alive) == 2
        assert count_components(ag4.adj_masks, alive, stop_at=2) == 2
        assert count_components(ag4.adj_masks, alive, stop_at=1) == 1


class TestEveryBuiltGraphConnected:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_ag_connected(self, n):
        from kappalab.graphs import build_ag

        G = build_ag(n)
        assert components(G, ()).count == 1

    @pytest.mark.parametrize("n", range(3, 7))
    def test_splitstar_connected(self, n):
        from kappalab.graphs import build_splitstar

        G = build_splitstar(n)
        assert components(G, ()).count == 1


class TestReportJson:
    def test_component_report_schema(self, ag4):
        report = components(ag4, vids(ag4, *AG4_FOUR_CYCLE_FAULT))
        data = report.to_json_dict(ag4)
        assert set(data) == {"fault", "count", "components"}
        assert data["count"] == 2
        assert data["components"][0]["shape"] == "4-cycle"
        assert data["components"][0]["vertices"][0].isdigit()
        assert sorted(data["fault"]) == data["fault"]
