"""Independent brute-force oracles used to check the package's fast paths.

Everything in here is deliberately naive: dict-of-sets adjacency, full
subset enumeration, no bitmasks, no early exits shared with the code under
test.
"""

import itertools
import math
import random

from kappalab.connectivity import mask_of
from kappalab.graphs import BitGraph
from kappalab.perms import even_rank, even_unrank, exchange, rank, rot_minus, rot_plus, unrank


def adjacency_dict(G):
    return {v: set(G.neighbors[v]) for v in range(G.vertex_count)}


def oracle_components(adj, removed):
    """Connected components of G - removed as a list of frozensets."""
    removed = set(removed)
    seen = set(removed)
    comps = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def oracle_disconnected(G, fault_masks):
    """For each fault mask, whether G minus it has two or more components."""
    adj = adjacency_dict(G)
    return [
        len(oracle_components(adj, [v for v in adj if fm >> v & 1])) >= 2
        for fm in fault_masks
    ]


def lex_fault_masks(V: int, k: int, prefix: tuple[int, ...], start: int):
    """Fault masks of the level-task ``(k, prefix, start)``, in lex order.

    There are ``math.comb(V - start, k - len(prefix))`` of them.
    """
    pmask = mask_of(prefix)
    bits = [1 << v for v in range(start, V)]
    for comb in itertools.combinations(bits, k - len(prefix)):
        yield pmask + sum(comb)


def oracle_lanes(masks, V):
    """Bit j of entry v is set iff vertex v is not in ``masks[j]``."""
    return [sum(1 << j for j, m in enumerate(masks) if not m >> v & 1) for v in range(V)]


def oracle_sample_subset(rng: random.Random, V: int, k: int):
    """Uniform k-subset of range(V) by Fisher-Yates prefix, in draw order,
    one ``randrange`` call per index."""
    pool = list(range(V))
    for i in range(k):
        j = rng.randrange(i, V)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def oracle_shape(adj, comp):
    """Classify a component by direct edge counting."""
    comp = set(comp)
    edges = sum(len(adj[v] & comp) for v in comp) // 2
    size = len(comp)
    if size == 1:
        return "singleton"
    if size == 2:
        return "edge"
    if size == 3:
        return "3-cycle" if edges == 3 else "2-path"
    if size == 4 and edges == 4 and all(len(adj[v] & comp) == 2 for v in comp):
        return "4-cycle"
    return "other"


def oracle_kappa_ell(adj, ell):
    """Smallest |F| leaving >= ell components or < ell vertices; all subsets."""
    vertices = sorted(adj)
    n = len(vertices)
    for k in range(n + 1):
        for F in itertools.combinations(vertices, k):
            if n - k < ell:
                return k
            if len(oracle_components(adj, F)) >= ell:
                return k
    raise AssertionError("unreachable: removing everything leaves 0 < ell vertices")


def random_connected_graph(rng: random.Random, max_vertices=14):
    """A random connected, non-complete graph as (vertex_count, edge list)."""
    while True:
        n = rng.randint(4, max_vertices)
        p = rng.uniform(0.25, 0.7)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if len(edges) == n * (n - 1) // 2:
            continue
        if len(oracle_components(adj, ())) == 1:
            return n, edges


def sparse_random_graph(rng: random.Random, n: int):
    """A random graph on n vertices with average degree 1-4, so isolated
    vertices and several components are common."""
    p = rng.uniform(1, 4) / max(n - 1, 1)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return BitGraph.from_edges(n, edges)


def oracle_cayley_graph(family, n):
    """(neighbors, adj_masks, labels) of AG_n ("ag") or S_n^2 ("s2") by the
    definition: label k is the unranked k-th vertex, and each neighbour is a
    generator applied to the label as a Perm, then ranked."""
    if family == "ag":
        count, label_of, id_of = math.factorial(n) // 2, even_unrank, even_rank
    else:
        count, label_of, id_of = math.factorial(n), unrank, rank
    labels = tuple(label_of(k, n) for k in range(count))
    neighbors = []
    for p in labels:
        images = [rot(p, i) for rot in (rot_plus, rot_minus) for i in range(3, n + 1)]
        if family == "s2":
            images.append(exchange(p))
        neighbors.append(tuple(sorted({id_of(q) for q in images})))
    masks = tuple(sum(1 << u for u in ns) for ns in neighbors)
    return tuple(neighbors), masks, labels
