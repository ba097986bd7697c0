"""Independent brute-force oracles used to check the package's fast paths.

Everything in here is deliberately naive: dict-of-sets adjacency, full
subset enumeration, no bitmasks, no early exits shared with the code under
test. The one exception is :func:`ascending_kappa_ell`, the unreduced order
of the exhaustive tier's level search: it is given each level's first cut.
"""

import itertools
import math
import random

from kappalab.connectivity import mask_of
from kappalab.graphs import BitGraph
from kappalab.kappa import SCAN_BATCH, KappaResult, Tier, comb_lex_rank, verify_cut
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


def lex_fault_masks(V: int, k: int, lo: int, hi: int):
    """Fault masks of the level task ``(k, lo, hi)``: the k-subsets of
    ``range(V)`` of lex ranks ``lo..hi-1``, in lex order."""
    return map(mask_of, itertools.islice(itertools.combinations(range(V), k), lo, hi))


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


def oracle_draw_lanes(rng: random.Random, V: int, k: int, trials: int):
    """``trials`` draws of :func:`oracle_sample_subset` as the lane batches of
    :func:`oracle_lanes`, ``SCAN_BATCH`` draws each."""
    masks = [mask_of(oracle_sample_subset(rng, V, k)) for _ in range(trials)]
    for lo in range(0, trials, SCAN_BATCH):
        yield oracle_lanes(masks[lo : lo + SCAN_BATCH], V)


def id_batches(V: int, faults):
    """Faults on ``range(V)``, each given as its vertex ids, as lane batches,
    ``SCAN_BATCH`` at a time, in order: vertex v is dead in lane j iff fault j holds v."""
    faults = iter(faults)
    while batch := list(itertools.islice(faults, SCAN_BATCH)):
        dead = [0] * V
        for j, fault in enumerate(batch):
            bit = 1 << j
            for v in fault:
                dead[v] |= bit
        lanes = (1 << len(batch)) - 1
        yield [lanes ^ d for d in dead]


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


def oracle_first_cut(G, k, ell):
    """The lex-first k-subset of G's vertices whose removal leaves at least
    ``ell`` components, or None."""
    adj = adjacency_dict(G)
    return next((F for F in itertools.combinations(range(G.vertex_count), k)
                 if len(oracle_components(adj, F)) >= ell), None)


def ascending_kappa_ell(G, ell, k_max, budget, first_cut):
    """The result ``kappa_ell_exhaustive`` must give, from levels 0, 1, 2, ...
    scanned whole in turn: the first to cut gives the value and its lex-first
    cut ``first_cut(k)`` (None if the level holds no cut) the witness, unless
    the fewer-than-l clause at |V| - l + 1 comes first, ``k_max`` is passed
    or a level does not fit what is left of the budget."""
    V = G.vertex_count
    rule_k = max(V - ell + 1, 0)
    cap = rule_k if k_max is None else min(k_max, rule_k)
    explored = 0
    for k in range(cap + 1):
        if k == rule_k:
            witness = verify_cut(G, tuple(range(k)), ell)
            return KappaResult(ell, k, Tier.RULE_FEWER_THAN_ELL, witness, explored, budget, cap)
        if explored + math.comb(V, k) > budget:
            return KappaResult(ell, None, Tier.EXHAUSTIVE, None, explored, budget, cap,
                               inconclusive_above=k - 1)
        hit = first_cut(k)
        if hit is not None:
            explored += comb_lex_rank(hit, V) + 1
            return KappaResult(ell, k, Tier.EXHAUSTIVE, verify_cut(G, hit, ell), explored,
                               budget, cap)
        explored += math.comb(V, k)
    return KappaResult(ell, None, Tier.EXHAUSTIVE, None, explored, budget, cap)


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


def oracle_witness_families(G, parts, B):
    """Every family of ``parts`` pairwise nonadjacent connected parts of size
    <= B with one part through vertex 0, each as a set of frozensets.

    Parts are found by testing every vertex subset of size <= B for induced
    connectivity, families by testing every combination of parts."""
    adj = adjacency_dict(G)
    pieces = [
        frozenset(S)
        for k in range(1, B + 1)
        for S in itertools.combinations(adj, k)
        if len(oracle_components({v: adj[v] & set(S) for v in S}, ())) == 1
    ]

    def apart(P, Q):
        return not P & Q and not any(adj[v] & Q for v in P)

    families = []
    for first in (P for P in pieces if 0 in P):
        rest = [P for P in pieces if apart(first, P)]
        for others in itertools.combinations(rest, parts - 1):
            if all(apart(P, Q) for P, Q in itertools.combinations(others, 2)):
                families.append({first, *others})
    return families


def oracle_witness_cut(G, families, ell):
    """The lex-smallest minimum N(union) over ``families`` whose removal leaves
    at least ``ell`` components or fewer than ``ell`` vertices, or None."""
    adj = adjacency_dict(G)
    keys = []
    for family in families:
        union = set().union(*family)
        fault = sorted(set().union(*(adj[v] for v in union)) - union)
        if len(adj) - len(fault) < ell or len(oracle_components(adj, fault)) >= ell:
            keys.append((len(fault), tuple(fault)))
    return min(keys)[1] if keys else None
