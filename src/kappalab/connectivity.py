"""Components of G - F, small-component shapes, neighborhoods, and exact
vertex connectivity.

Components are found by two walks, each chosen by its caller. The subset
scans walk bitmask adjacency (``BitGraph.adj_masks``): :func:`split_lanes`
flags, for a batch of faults at once (one int per vertex whose bit j says the
vertex survives fault j), those leaving at least ``need`` components, and
:func:`component_masks` returns the components of each hit
(:func:`count_components` and :func:`is_connected_after` are views of it).
:func:`components`, which ``verify_cut`` and the paper cuts call on graphs of up
to 20,160 vertices, walks the neighbour lists instead, marking reached vertices
in a bytearray; it, :func:`component_report` and the neighbourhood helpers
never build the masks.
Vertex sets cross the API boundary as plain iterables of ids and come back as
sorted tuples or frozensets; inside they are bitmasks, built by ``mask_of`` and
listed by ``ids_of`` (both from :mod:`kappalab.graphs`). A :class:`ComponentReport`
keeps its fault and component masks and lists their ids only when ``fault`` or
``components`` is read.
Every bit walk here peels 64-bit words, so its Python steps are linear in the
mask length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .graphs import BitGraph, ids_of, mask_of

__all__ = [
    "Shape",
    "ComponentReport",
    "components",
    "component_report",
    "component_masks",
    "split_lanes",
    "count_components",
    "is_connected_after",
    "neighborhood",
    "common_neighbors",
    "is_independent",
    "vertex_connectivity",
    "mask_of",
    "ids_of",
]


def component_masks(adj: tuple[int, ...], alive: int, limit: int = 0) -> list[int]:
    """Connected components of the subgraph induced by ``alive``, as masks.

    Components come in order of their lowest vertex id; with ``limit`` > 0
    only the first ``limit`` of them are found. Every component count, and
    every component report a census makes, runs through it; :func:`components`
    walks the neighbour lists instead.
    """
    comps = []
    remaining = alive
    while remaining:
        comp = frontier = remaining & -remaining
        remaining ^= comp
        while frontier:
            nxt = 0
            m = frontier
            off = -1  # the ids_of word walk, inlined
            while m:
                word = m & 0xFFFFFFFFFFFFFFFF
                while word:
                    low = word & -word
                    nxt |= adj[off + low.bit_length()]
                    word ^= low
                m >>= 64
                off += 64
            frontier = nxt & remaining
            remaining ^= frontier
            comp |= frontier
        comps.append(comp)
        if len(comps) == limit:
            break
    return comps


def split_lanes(neighbors: tuple[tuple[int, ...], ...], alive: list[int], need: int) -> int:
    """Bit j is set iff the vertices alive in lane j induce at least ``need`` components.

    ``neighbors`` are the adjacency lists of G and ``alive[v]`` has bit j set
    iff vertex v survives in lane j, so every big-int operation below acts on
    all lanes at once. ``need - 1`` times, each lane is seeded at its lowest
    survivor, reachability is relaxed along the edges until no lane changes,
    and the component reached is removed.
    """
    for _ in range(need - 1):
        reach = []
        seen = 0
        for a in alive:
            reach.append(a & ~seen)
            seen |= a
        if not seen:
            return 0
        changed = True
        while changed:
            changed = False
            for v, ns in enumerate(neighbors):
                r = reach[v]
                for u in ns:
                    r |= reach[u]
                r &= alive[v]
                if r != reach[v]:
                    reach[v] = r
                    changed = True
        alive = [a ^ r for a, r in zip(alive, reach)]  # r is a subset of a
    out = 0
    for a in alive:
        out |= a
    return out


def count_components(adj: tuple[int, ...], alive: int, stop_at: int = 0) -> int:
    """Number of components induced by ``alive``; early exit at ``stop_at``."""
    return len(component_masks(adj, alive, stop_at))


def is_connected_after(adj: tuple[int, ...], alive: int) -> bool:
    """True iff the subgraph induced by ``alive`` is connected (or empty)."""
    return len(component_masks(adj, alive, 2)) <= 1


class Shape(Enum):
    SINGLETON = "singleton"
    EDGE = "edge"
    TWO_PATH = "2-path"
    THREE_CYCLE = "3-cycle"
    FOUR_CYCLE = "4-cycle"
    OTHER = "other"


_SHAPE_RANK = {shape: rank for rank, shape in enumerate(Shape)}


def _classify_mask(neighbors: tuple[tuple[int, ...], ...], comp: int) -> Shape:
    size = comp.bit_count()
    if size == 1:
        return Shape.SINGLETON
    if size == 2:
        return Shape.EDGE
    if size > 4:
        return Shape.OTHER
    degrees = [sum(comp >> u & 1 for u in neighbors[v]) for v in ids_of(comp)]
    edges = sum(degrees) // 2
    if size == 3:
        return Shape.THREE_CYCLE if edges == 3 else Shape.TWO_PATH
    if size == 4 and edges == 4 and all(d == 2 for d in degrees):
        return Shape.FOUR_CYCLE
    return Shape.OTHER


def _vertex_ids(G: BitGraph, S) -> tuple[int, ...]:
    ids = tuple(sorted(set(S)))
    if ids and not (0 <= ids[0] and ids[-1] < G.vertex_count):
        raise ValueError("vertex set contains out-of-range vertex ids")
    return ids


@dataclass(frozen=True)
class ComponentReport:
    """Components of G - F as masks, in the order of :func:`component_report`."""

    fault_mask: int
    masks: tuple[int, ...]
    shapes: tuple[Shape, ...]

    @cached_property
    def fault(self) -> tuple[int, ...]:
        """The fault's vertex ids, listed on first read."""
        return ids_of(self.fault_mask)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The vertex ids of each component, listed on first read."""
        return tuple(map(ids_of, self.masks))

    @property
    def count(self) -> int:
        return len(self.masks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    def to_json_dict(self, G: BitGraph) -> dict:
        return {
            "fault": list(self.fault),
            "count": self.count,
            "components": [
                {
                    "size": len(comp),
                    "shape": shape.value,
                    "vertices": [G.label_text(v) for v in comp],
                }
                for comp, shape in zip(self.components, self.shapes)
            ],
        }


def component_report(neighbors: tuple[tuple[int, ...], ...], fault_mask: int,
                     masks) -> ComponentReport:
    """The report of G - F from F's mask and all of G - F's component masks.

    Components go largest first, then in :class:`Shape` order, then by lowest
    id. Automorphisms keep sizes and shapes, so the shapes in this order are
    the same on every translate of a fault.
    """
    ranked = sorted(
        ((m, _classify_mask(neighbors, m)) for m in masks),
        key=lambda ms: (-ms[0].bit_count(), _SHAPE_RANK[ms[1]], ms[0] & -ms[0]),
    )
    return ComponentReport(fault_mask, tuple(m for m, _ in ranked), tuple(s for _, s in ranked))


def components(G: BitGraph, F) -> ComponentReport:
    """The report of G - F from a frontier walk of G's neighbour lists.

    A ``reached`` byte per vertex marks F and every vertex walked, so the
    walk holds V bytes and one frontier, never a set of V ids. Roots go in
    increasing id, as in :func:`component_masks`. Each mask is parsed once
    from a V-digit binary string, in time linear in V.
    """
    fault = _vertex_ids(G, F)
    neighbors, V = G.neighbors, G.vertex_count
    reached, masks = bytearray(V), []
    for v in fault:
        reached[v] = 1
    root = reached.find(0)
    while root >= 0:
        digits, frontier = bytearray(b"0") * V, [root]
        while frontier:
            for v in frontier:
                reached[v] = 1
                digits[~v] = 49  # the "1" of bit v
            frontier = [u for u in set().union(*map(neighbors.__getitem__, frontier))
                        if not reached[u]]
        masks.append(int(digits, 2))
        root = reached.find(0, root)
    return component_report(neighbors, mask_of(fault), masks)


def neighborhood(G: BitGraph, S: Iterable[int]) -> frozenset[int]:
    """N(S): vertices outside S adjacent to some member of S."""
    S = frozenset(_vertex_ids(G, S))
    return frozenset().union(*map(G.neighbors.__getitem__, S)) - S


def common_neighbors(G: BitGraph, u: int, v: int) -> frozenset[int]:
    if u == v:
        raise ValueError("common_neighbors requires distinct vertices")
    _vertex_ids(G, (u, v))  # range check
    return frozenset(G.neighbors[u]).intersection(G.neighbors[v])


def is_independent(G: BitGraph, S: Iterable[int]) -> bool:
    S = frozenset(_vertex_ids(G, S))
    return not any(S.intersection(G.neighbors[v]) for v in S)


def _max_vertex_disjoint_paths(G: BitGraph, s: int, t: int, cap: int) -> int:
    """Number of internally vertex-disjoint s-t paths, stopping at ``cap``.

    Unit-capacity vertex-split network solved by BFS augmenting paths: node v
    becomes v_in = 2v, v_out = 2v + 1 with an arc of capacity one between
    them; every edge contributes arcs u_out -> v_in and v_out -> u_in.
    """
    # node encoding: v_in = 2v, v_out = 2v + 1
    split_used = [False] * G.vertex_count
    edge_flow: set[tuple[int, int]] = set()  # (u, v) means arc u_out -> v_in carries flow
    start, goal = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent: dict[int, int] = {start: start}
        queue = deque([start])
        found = False
        while queue and not found:
            node = queue.popleft()
            v, is_out = divmod(node, 2)
            if is_out:
                for u in G.neighbors[v]:
                    nxt = 2 * u
                    if nxt not in parent and (v, u) not in edge_flow:
                        parent[nxt] = node
                        if nxt == goal:
                            found = True
                            break
                        queue.append(nxt)
                if not found and split_used[v] and 2 * v not in parent:
                    parent[2 * v] = node  # residual of the saturated split arc
                    queue.append(2 * v)
            else:
                if not split_used[v] and 2 * v + 1 not in parent:
                    parent[2 * v + 1] = node
                    queue.append(2 * v + 1)
                for u in G.neighbors[v]:
                    if (u, v) in edge_flow and 2 * u + 1 not in parent:
                        parent[2 * u + 1] = node  # cancel flow on u_out -> v_in
                        queue.append(2 * u + 1)
        if not found:
            return flow
        node = goal
        while node != start:
            prev = parent[node]
            pv, p_out = divmod(prev, 2)
            nv, n_out = divmod(node, 2)
            if p_out and not n_out:
                if pv == nv:
                    split_used[pv] = False
                else:
                    edge_flow.add((pv, nv))
            else:
                if pv == nv:
                    split_used[pv] = True
                else:
                    edge_flow.discard((nv, pv))
            node = prev
        flow += 1
    return flow


def vertex_connectivity(G: BitGraph) -> int:
    """Exact kappa(G) via max-flow over the standard pair scheme.

    Fix a minimum-degree vertex v0; take the minimum of the max-flow values
    to every non-neighbor of v0 and between every nonadjacent pair of
    neighbors of v0. Complete graphs return |V| - 1 by convention.
    """
    V = G.vertex_count
    if V < 2:
        return V - 1 if V else 0
    v0 = min(range(V), key=G.degree)
    best = G.degree(v0)
    if best == V - 1:
        return V - 1
    non_neighbors = [
        t for t in range(V) if t != v0 and not G.has_edge(v0, t)
    ]
    for t in non_neighbors:
        best = min(best, _max_vertex_disjoint_paths(G, v0, t, best))
    ns = G.neighbors[v0]
    for a in range(len(ns)):
        for b in range(a + 1, len(ns)):
            if not G.has_edge(ns[a], ns[b]):
                best = min(best, _max_vertex_disjoint_paths(G, ns[a], ns[b], best))
    return best
