import collections
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from operator import itemgetter

import pytest

from kappalab.graphs import (
    BitGraph,
    _moves,
    _sorted_ids,
    _vertex_symbols,
    build_ag,
    build_family,
    build_splitstar,
    external_edge_count,
    mask_of,
    out_neighbors,
    to_dimacs,
    to_json_dict,
)
from kappalab.perms import Perm, even_rank, exchange, parity, Parity, rank, rot_minus, rot_plus

from .oracles import oracle_cayley_graph


def bfs_distances(G, source):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in G.neighbors[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def last_symbol_parts(G):
    """The vertices of G by last symbol, 1..n."""
    return {i: [v for v in range(G.vertex_count) if G.last_symbol(v) == i]
            for i in range(1, G.n + 1)}


def parity_halves(G):
    """The even and the odd vertices of G."""
    even = [v for v in range(G.vertex_count) if parity(G.label(v)) is Parity.EVEN]
    return even, sorted(set(range(G.vertex_count)) - set(even))


def exchange_id(G, v):
    return G.vertex_id(exchange(G.label(v)))


class TestBuildAg:
    def test_ag3_is_a_triangle(self):
        G = build_ag(3)
        assert G.vertex_count == 3
        assert G.edge_count == 3
        assert all(G.degree(v) == 2 for v in range(3))

    def test_ag4_counts(self, ag4):
        assert ag4.vertex_count == 12
        assert ag4.edge_count == 24
        assert all(ag4.degree(v) == 4 for v in range(12))

    def test_ag5_counts(self, ag5):
        # n!(n-2)/2 edges; consistent with handshake over 60 vertices of degree 6
        assert ag5.vertex_count == 60
        assert ag5.edge_count == 180
        assert all(ag5.degree(v) == 6 for v in range(60))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_handshake_and_edge_formula(self, n):
        G = build_ag(n)
        assert G.vertex_count == math.factorial(n) // 2
        assert sum(G.degree(v) for v in range(G.vertex_count)) == 2 * G.edge_count
        assert G.edge_count == math.factorial(n) * (n - 2) // 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_ag(2)
        with pytest.raises(ValueError):
            build_ag(9)

    def test_simple_and_symmetric(self, ag4):
        for u in range(ag4.vertex_count):
            assert not ag4.has_edge(u, u)
            for v in ag4.neighbors[u]:
                assert ag4.has_edge(v, u)

    def test_all_labels_even(self, ag5):
        assert all(parity(ag5.label(v)) is Parity.EVEN for v in range(ag5.vertex_count))


@pytest.mark.parametrize(
    "family, n",
    [("ag", n) for n in range(3, 8)] + [("s2", n) for n in range(3, 8)],
)
def test_build_matches_ranking_oracle(family, n):
    G = build_ag(n) if family == "ag" else build_splitstar(n)
    neighbors, masks, labels = oracle_cayley_graph(family, n)
    assert (G.neighbors, G.adj_masks, G.labels) == (
        neighbors, masks, tuple(p.symbols for p in labels))


@pytest.mark.parametrize("family", ["ag", "s2"])
def test_field_ranks_match_perms_at_the_field_width_edges(family):
    # AG_8's 20,160 ids fill 16-bit fields below the guard bit, though its lex
    # ranks reach 40,319; S_8^2's 40,320 labels (one past the largest graph
    # built) take 32-bit fields
    symbols = _vertex_symbols(family, 8)
    rng = random.Random(8)
    tables = [list(range(8))] + _moves(family, 8)
    tables += [[s - 1 for s in symbols[v]] for v in rng.sample(range(len(symbols)), 3)]
    rows, unsorted = _sorted_ids(symbols, tables), _sorted_ids(symbols, tables[-1:])
    id_of = even_rank if family == "ag" else rank
    for v in rng.sample(range(len(symbols)), 300):
        want = [id_of(Perm(tuple(symbols[v][j] for j in t))) for t in tables]
        assert rows[v] == tuple(sorted(want))
        assert unsorted[v] == (want[-1],)


def test_build_memory_is_bounded():
    # ids are looked up in one list, so the neighbour tuples share V int
    # objects (fresh ints per entry would add 6.8 MB); the build peaked at
    # 6.29 MB on Python 3.11
    tracemalloc.start()
    try:
        G = build_ag(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({id(u) for ns in G.neighbors for u in ns}) <= G.vertex_count
    assert peak < 8_500_000


EVERY_BUILDABLE = [("ag", n) for n in range(3, 9)] + [("s2", n) for n in range(3, 8)]


class TestConnectedFlag:
    """A built graph carries ``connected``; any other graph walks for it."""

    def test_a_fresh_build_carries_the_flag(self):
        assert vars(build_ag(8))["connected"] is True

    @pytest.mark.parametrize("family, n", EVERY_BUILDABLE)
    def test_a_walk_finds_the_carried_value(self, family, n):
        H = BitGraph(build_family(family, n).neighbors)
        assert "connected" not in vars(H)
        assert H.connected is True

    def test_an_edited_copy_walks(self):
        G = build_ag(6)
        u, v = 0, G.neighbors[0][0]
        neighbors = list(G.neighbors)
        neighbors[u] = tuple(x for x in neighbors[u] if x != v)
        neighbors[v] = tuple(x for x in neighbors[v] if x != u)
        H = dataclasses.replace(G, neighbors=tuple(neighbors))
        assert "connected" not in vars(H)
        assert H.connected is True and "connected" in vars(H)
        for x in G.neighbors[0]:  # vertex 0 cut off: the walk finds two components
            neighbors[x] = tuple(y for y in neighbors[x] if y != 0)
        neighbors[0] = ()
        assert dataclasses.replace(G, neighbors=tuple(neighbors)).connected is False
        assert vars(G)["connected"] is True


@pytest.mark.parametrize("family, n", EVERY_BUILDABLE)
def test_composed_columns_match_one_column_per_move(family, n):
    # the build ranks each g_i- as g_i+'s position table read twice; here
    # every generator gets its own column, each move applied to every label
    G = build_ag(n) if family == "ag" else build_splitstar(n)
    identity = Perm.identity(n)
    images = [rot(identity, i) for rot in (rot_plus, rot_minus) for i in range(3, n + 1)]
    if family == "s2":
        images.append(exchange(identity))
    moves = [itemgetter(*(s - 1 for s in q.symbols)) for q in images]
    id_of = {s: v for v, s in enumerate(G.labels)}
    for s, ns in zip(G.labels, G.neighbors):
        assert ns == tuple(sorted(id_of[move(s)] for move in moves))


@pytest.mark.parametrize("n", range(3, 9))
def test_ag_vertex_symbols_are_the_even_permutations_in_lex_order(n):
    perms = (Perm(p) for p in itertools.permutations(range(1, n + 1)))
    evens = tuple(p.symbols for p in perms if parity(p) is Parity.EVEN)
    assert _vertex_symbols("ag", n) == evens
    assert [even_rank(Perm(s)) for s in evens] == list(range(len(evens)))


@pytest.mark.parametrize("family, n", EVERY_BUILDABLE)
def test_labels_are_symbol_tuples(family, n):
    G = build_ag(n) if family == "ag" else build_splitstar(n)
    for v, symbols in enumerate(G.labels):
        assert type(symbols) is tuple
        p = G.label(v)
        assert p.symbols == symbols
        assert G.label_text(v) == p.text()
        assert G.last_symbol(v) == p.symbols[-1]


def test_build_constructs_no_perm_per_vertex(monkeypatch):
    made = []
    post_init = Perm.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Perm, "__post_init__", counted)
    G = build_ag(7)
    assert len(made) < 10 * G.n


@pytest.mark.parametrize("family, n", EVERY_BUILDABLE)
def test_build_neighbours_are_distinct_and_sorted(family, n):
    G = build_ag(n) if family == "ag" else build_splitstar(n)
    degree = 2 * n - 4 if family == "ag" else 2 * n - 3
    for ns, m in zip(G.neighbors, G.adj_masks):
        assert len(ns) == degree
        assert all(a < b for a, b in zip(ns, ns[1:]))
        assert m == mask_of(ns)


class TestBuildSplitstar:
    def test_s3_counts(self):
        G = build_splitstar(3)
        assert G.vertex_count == 6
        assert all(G.degree(v) == 3 for v in range(6))

    def test_s4_counts(self, s4):
        assert s4.vertex_count == 24
        assert all(s4.degree(v) == 5 for v in range(24))
        # handshake: 24 * 5 / 2
        assert s4.edge_count == 60

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_splitstar(2)
        with pytest.raises(ValueError):
            build_splitstar(8)


class TestClassifyEdge:
    """Edges by generator and by last-symbol locality."""

    def test_two_exchange_matching(self, s4):
        u = s4.vertex_id(Perm.from_text("1234"))
        v = s4.vertex_id(Perm.from_text("2134"))
        assert s4.has_edge(u, v)
        assert exchange_id(s4, u) == v
        assert parity(s4.label(u)) is not parity(s4.label(v))

    def test_internal_rotation(self, ag4):
        u = ag4.vertex_id(Perm.from_text("1234"))
        v = ag4.vertex_id(Perm.from_text("2314"))
        assert ag4.has_edge(u, v)
        assert ag4.label(v) == rot_minus(ag4.label(u), 3)
        assert ag4.last_symbol(u) == ag4.last_symbol(v)

    def test_external_edge_found_in_adjacency(self, ag4):
        # derived from the built graph: the edges whose endpoints end
        # differently are exactly the g_n+ / g_n- rotations
        u = ag4.vertex_id(Perm.from_text("1234"))
        externals = [v for v in ag4.neighbors[u] if ag4.last_symbol(v) != 4]
        p = ag4.label(u)
        assert sorted(externals) == sorted(ag4.vertex_id(rot(p, 4)) for rot in (rot_plus, rot_minus))

    def test_ag_edges_never_two_exchange(self, ag4):
        for u, v in ag4.edges():
            assert exchange(ag4.label(u)) != ag4.label(v)


class TestDecompose:
    """The last-symbol parts of AG_n and S_n^2, copies of AG_{n-1} and S_{n-1}^2."""

    def test_ag4_parts(self, ag4):
        parts = last_symbol_parts(ag4)
        assert sorted(parts) == [1, 2, 3, 4]
        assert all(len(vs) == 3 for vs in parts.values())

    def test_s4_parts(self, s4):
        parts = last_symbol_parts(s4)
        assert all(len(vs) == 6 for vs in parts.values())

    def test_parts_partition_vertices(self, ag5):
        parts = last_symbol_parts(ag5)
        seen = sorted(v for vs in parts.values() for v in vs)
        assert seen == list(range(ag5.vertex_count))

    @pytest.mark.parametrize("n", [4, 5])
    def test_ag_part_isomorphic_to_smaller_ag(self, n):
        # relabeling map: drop last symbol, compress, fix parity by swapping
        # the symbols 1 and 2 when n - i is odd
        G = build_ag(n)
        H = build_ag(n - 1)
        for i, part in last_symbol_parts(G).items():
            def project(v):
                prefix = G.label(v).symbols[:-1]
                ordered = sorted(prefix)
                compressed = [ordered.index(s) + 1 for s in prefix]
                if (n - i) % 2 == 1:
                    compressed = [
                        2 if s == 1 else 1 if s == 2 else s for s in compressed
                    ]
                return H.vertex_id(Perm(tuple(compressed)))

            mapped = {v: project(v) for v in part}
            assert sorted(mapped.values()) == list(range(H.vertex_count))
            part_set = set(part)
            for v in part:
                internal = [u for u in G.neighbors[v] if u in part_set]
                assert sorted(mapped[u] for u in internal) == list(
                    H.neighbors[mapped[v]]
                )

    def test_splitstar_part_isomorphic_to_smaller_splitstar(self, s4):
        H = build_splitstar(3)
        for i, part in last_symbol_parts(s4).items():
            def project(v):
                prefix = s4.label(v).symbols[:-1]
                ordered = sorted(prefix)
                return H.vertex_id(Perm(tuple(ordered.index(s) + 1 for s in prefix)))

            mapped = {v: project(v) for v in part}
            assert sorted(mapped.values()) == list(range(H.vertex_count))
            part_set = set(part)
            for v in part:
                internal = [u for u in s4.neighbors[v] if u in part_set]
                assert sorted(mapped[u] for u in internal) == list(
                    H.neighbors[mapped[v]]
                )


class TestExternalEdgeCount:
    def test_ag4_pair(self, ag4):
        assert external_edge_count(ag4, 1, 2) == 2

    def test_s4_pair(self, s4):
        assert external_edge_count(s4, 1, 2) == 4

    def test_ag5_all_pairs_equal_six(self, ag5):
        counts = {
            external_edge_count(ag5, i, j)
            for i, j in itertools.combinations(range(1, 6), 2)
        }
        assert counts == {6}

    @pytest.mark.parametrize("n", [4, 5])
    def test_ag_counts_constant_across_pairs(self, n):
        G = build_ag(n)
        counts = {
            external_edge_count(G, i, j)
            for i, j in itertools.combinations(range(1, n + 1), 2)
        }
        assert counts == {math.factorial(n - 2)}

    def test_rejects_equal_parts(self, ag4):
        with pytest.raises(ValueError):
            external_edge_count(ag4, 2, 2)

    @pytest.mark.parametrize("build,n", [(build_ag, 4), (build_ag, 5), (build_ag, 6),
                                         (build_splitstar, 4), (build_splitstar, 5)])
    def test_every_pair_matches_an_edge_count(self, build, n):
        G = build(n)
        between = collections.Counter(
            frozenset((G.last_symbol(u), G.last_symbol(v))) for u, v in G.edges())
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert external_edge_count(G, i, j) == between[frozenset((i, j))]
        assert "adj_masks" not in vars(G)


class TestParitySplit:
    """The even and odd halves of S_4^2 and the 2-exchange matching between them."""

    def test_halves_and_matching(self, s4):
        even, odd = parity_halves(s4)
        assert len(even) == len(odd) == 12
        matching = {tuple(sorted((v, exchange_id(s4, v)))) for v in even}
        assert len(matching) == 12
        assert all(s4.has_edge(u, v) for u, v in matching)

    def test_matching_is_perfect(self, s4):
        even, odd = parity_halves(s4)
        assert sorted(exchange_id(s4, v) for v in even) == odd

    def test_even_half_internal_edges_match_ag4(self, s4, ag4):
        # non-matching edges inside the even half form a copy of AG_4
        even = set(parity_halves(s4)[0])
        internal = [
            (u, v) for u, v in s4.edges() if u in even and v in even
        ]
        assert len(internal) == ag4.edge_count == 24

    def test_odd_half_internal_edges_match_ag4_count(self, s4):
        odd = set(parity_halves(s4)[1])
        internal = [(u, v) for u, v in s4.edges() if u in odd and v in odd]
        assert len(internal) == 24

    def test_two_exchange_map_is_an_isomorphism_between_halves(self, s4):
        # composing with the 2-exchange sends the odd half onto the even half
        # and carries 3-rotation edges to 3-rotation edges
        even, odd = parity_halves(s4)
        odd = set(odd)
        phi = {v: exchange_id(s4, v) for v in odd}
        assert sorted(phi.values()) == even
        for u in odd:
            rotation_nbrs = [v for v in s4.neighbors[u] if v in odd]
            mapped = {phi[v] for v in rotation_nbrs}
            even_nbrs = {v for v in s4.neighbors[phi[u]] if v not in odd}
            assert mapped == even_nbrs


class TestOutNeighbors:
    def test_ag4_out_neighbors_in_distinct_parts(self, ag4):
        for v in range(ag4.vertex_count):
            outs = out_neighbors(ag4, v)
            assert len(outs) == 2
            assert ag4.last_symbol(outs[0]) != ag4.last_symbol(outs[1])

    def test_s4_out_neighbors_adjacent(self, s4):
        for v in range(s4.vertex_count):
            outs = out_neighbors(s4, v)
            assert len(outs) == 2
            assert s4.has_edge(outs[0], outs[1])

    def test_in_plus_out_is_degree(self, ag4):
        v = ag4.vertex_id(Perm.from_text("1234"))
        ins = [u for u in ag4.neighbors[v] if u not in out_neighbors(ag4, v)]
        assert len(ins) + len(out_neighbors(ag4, v)) == 4


class TestCommonNeighborBounds:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_ag_nonadjacent_pairs_share_at_most_two(self, n, ag4, ag5, ag6):
        G = {4: ag4, 5: ag5, 6: ag6}[n]
        for u in range(G.vertex_count):
            mu = G.adj_masks[u]
            for v in range(u + 1, G.vertex_count):
                if not G.has_edge(u, v):
                    assert (mu & G.adj_masks[v]).bit_count() <= 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_splitstar_distance_based_bounds(self, n, s4, s5):
        G = {4: s4, 5: s5}[n]
        for u in range(G.vertex_count):
            dist = bfs_distances(G, u)
            mu = G.adj_masks[u]
            for v in range(u + 1, G.vertex_count):
                shared = (mu & G.adj_masks[v]).bit_count()
                d = dist[v]
                if d == 1:
                    assert shared <= 1
                elif d == 2:
                    assert shared <= 2
                else:
                    assert shared == 0


class TestExports:
    def test_dimacs_header_and_shape(self, ag4):
        text = to_dimacs(ag4)
        lines = text.strip().split("\n")
        assert lines[0] == "p edge 12 24"
        assert len(lines) == 25
        assert lines[1].startswith("e ")
        # 1-based endpoints, sorted lexicographically
        pairs = [tuple(map(int, ln.split()[1:])) for ln in lines[1:]]
        assert pairs == sorted(pairs)
        assert min(p[0] for p in pairs) == 1

    def test_json_dict_round_trips(self, s4):
        data = to_json_dict(s4)
        assert data["family"] == "s2"
        assert data["n"] == 4
        assert data["vertices"][0] == "1234"
        assert len(data["edges"]) == 60
        json.dumps(data)  # serializable

    def test_edges_sorted(self, s4):
        data = to_json_dict(s4)
        assert data["edges"] == sorted(data["edges"])


class TestBitGraphFixtureSupport:
    def test_from_edges(self):
        G = BitGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert G.edge_count == 4
        assert G.neighbors[0] == (1, 3)
        assert G.adj_masks[0] == 0b1010

    def test_from_edges_rejects_loops(self):
        with pytest.raises(ValueError):
            BitGraph.from_edges(2, [(0, 0)])

    @pytest.mark.parametrize("edges", [[(-1, 0), (0, 1)], [(0, 1), (1, 3)]])
    def test_from_edges_rejects_ids_outside_the_vertex_range(self, edges):
        # a negative id used to wrap around the list into an asymmetric graph,
        # and an id >= V used to raise a bare IndexError
        with pytest.raises(ValueError, match=r"edge \((-1, 0|1, 3)\)"):
            BitGraph.from_edges(3, edges)
