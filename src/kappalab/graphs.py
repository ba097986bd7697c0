"""Construction of alternating group graphs AG_n and split-stars S_n^2.

Both families are Cayley graphs on permutations of ``1..n``:

* AG_n: vertices are the even permutations, edges the triple rotations
  g_i+ / g_i- for 3 <= i <= n; (2n-4)-regular with n!/2 vertices.
* S_n^2: vertices are all permutations, edges the rotations plus the
  2-exchange g_12; (2n-3)-regular with n! vertices.

Generators act on positions, so the build applies each g_i+ (and g_12 on
S_n^2) to the symbol tuples as a fixed position table, one column of
neighbour ids per generator. g_i- is g_i+ applied twice, so its column is the
g_i+ column composed with itself, with no relabel pass of its own. Vertex ids
are lex positions (among the even permutations for AG), equal to
``even_rank`` / ``rank``, so id 0 is
always the identity. ``CayleyGraph.labels`` keeps those symbol tuples, and
``label(v)`` wraps one in a :class:`~kappalab.perms.Perm` only when a caller
asks. Left multiplication relabels symbols and commutes with the generators,
so it is a vertex-transitive group of automorphisms (:class:`LeftTranslations`);
the subset scans use it to test only the fault sets through vertex 0.

A :class:`BitGraph` holds sorted neighbour lists only. Its ``adj_masks``,
one bitmask per vertex, are derived from them the first time a subset scan
reads them, so building and cutting ``AG_8`` never holds its V^2 bits.
Vertex sets are also bitmasks (bit v set iff v is in the set): :func:`mask_of`
builds one and :func:`ids_of` lists one. ``ids_of`` walks the mask a 64-bit
word at a time: one Python step per word and per set bit, linear in the mask
length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

from .perms import Perm, even_rank, exchange, rank, rot_plus, symbols_text

FAMILY_AG = "ag"
FAMILY_SPLIT_STAR = "s2"

MAX_N_AG = 8          # 20160 vertices
MAX_N_SPLIT_STAR = 7  # 5040 vertices

__all__ = [
    "FAMILY_AG",
    "FAMILY_SPLIT_STAR",
    "MAX_N_AG",
    "MAX_N_SPLIT_STAR",
    "BitGraph",
    "CayleyGraph",
    "LeftTranslations",
    "build_ag",
    "build_splitstar",
    "build_family",
    "external_edge_count",
    "left_translations",
    "out_neighbors",
    "to_dimacs",
    "to_json_dict",
    "mask_of",
    "ids_of",
]


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask of a set of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def ids_of(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` in increasing order, peeled a 64-bit word at a time."""
    out = []
    off = -1  # the word's offset - 1, so a bit's id is off + its bit_length()
    while mask:
        word = mask & 0xFFFFFFFFFFFFFFFF
        while word:
            low = word & -word
            out.append(off + low.bit_length())
            word ^= low
        mask >>= 64
        off += 64
    return tuple(out)


@dataclass(frozen=True)
class BitGraph:
    """Immutable undirected graph over vertices ``0..V-1``: sorted neighbour
    tuples, and ``adj_masks``, one bitmask per vertex, built on first read."""

    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of, self.neighbors))

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.neighbors) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u, ns in enumerate(self.neighbors):
            for v in ns:
                if v > u:
                    yield (u, v)

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "BitGraph":
        adj = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(tuple(tuple(sorted(ns)) for ns in adj))

    def label_text(self, v: int) -> str:
        return str(v)


@dataclass(frozen=True)
class CayleyGraph(BitGraph):
    """AG_n or S_n^2 with vertex labels attached: ``labels[v]`` is the symbol tuple of v."""

    family: str
    n: int
    labels: tuple[tuple[int, ...], ...]

    @property
    def is_splitstar(self) -> bool:
        return self.family == FAMILY_SPLIT_STAR

    def vertex_id(self, p: Perm) -> int:
        return rank(p) if self.is_splitstar else even_rank(p)

    def label(self, v: int) -> Perm:
        return Perm(self.labels[v])

    def label_text(self, v: int) -> str:
        return symbols_text(self.labels[v])

    def last_symbol(self, v: int) -> int:
        return self.labels[v][-1]

    @cached_property
    def translations(self) -> LeftTranslations | None:
        """:func:`left_translations` of this graph, checked on first use only."""
        if self.family not in (FAMILY_AG, FAMILY_SPLIT_STAR):
            return None
        if self.labels != _vertex_symbols(self.family, self.n):
            return None
        translations = LeftTranslations(self.labels)
        moves = _moves(self.family, self.n)
        if self.neighbors != _neighbor_ids(self.labels, translations.id_of, moves):
            return None
        return translations


def _moves(family: str, n: int) -> tuple[list, list]:
    """The g_i+ (3 <= i <= n), then the family's other generators (g_12 on
    S_n^2), as position tables on symbol tuples. Each g_i- is g_i+ applied
    twice, so it needs no table of its own."""
    identity = Perm.identity(n)
    images = [rot_plus(identity, i) for i in range(3, n + 1)]
    if family == FAMILY_SPLIT_STAR:
        images.append(exchange(identity))
    if identity in images:
        raise AssertionError("generator produced a self-loop")
    tables = [itemgetter(*(s - 1 for s in image.symbols)) for image in images]
    return tables[: n - 2], tables[n - 2 :]


def _vertex_symbols(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Symbol tuples of the vertices in lex order; a vertex id is its index."""
    perms = itertools.permutations(range(1, n + 1))
    if family == FAMILY_SPLIT_STAR:
        return tuple(perms)
    # a permutation is even iff the digit sum of its Lehmer code is, and the
    # codes run in the same lex order as the permutations. Prepending a digit
    # of radix m joins m copies of the parity bytes, flipped under odd digits.
    even, odd = b"\1", b"\0"
    for m in range(2, n + 1):
        even, odd = b"".join(((even, odd) * m)[:m]), b"".join(((odd, even) * m)[:m])
    return tuple(itertools.compress(perms, even))


def _neighbor_ids(symbols, id_of: dict, moves) -> tuple[tuple[int, ...], ...]:
    # one column of ids per generator; distinct generators give distinct
    # neighbours. A g_i- column is its g_i+ column composed with itself.
    rotations, others = moves
    plus = [list(map(id_of.__getitem__, map(g, symbols))) for g in rotations]
    columns = plus + [map(c.__getitem__, c) for c in plus]
    columns += [map(id_of.__getitem__, map(g, symbols)) for g in others]
    return tuple(map(tuple, map(sorted, zip(*columns))))


def _build(family: str, n: int) -> CayleyGraph:
    symbols = _vertex_symbols(family, n)
    id_of = {s: v for v, s in enumerate(symbols)}
    return CayleyGraph(_neighbor_ids(symbols, id_of, _moves(family, n)), family, n, symbols)


def build_ag(n: int) -> CayleyGraph:
    """Build AG_n for 3 <= n <= 8."""
    if not 3 <= n <= MAX_N_AG:
        raise ValueError(f"AG_n supported for 3 <= n <= {MAX_N_AG}, got {n}")
    return _build(FAMILY_AG, n)


def build_splitstar(n: int) -> CayleyGraph:
    """Build S_n^2 for 3 <= n <= 7."""
    if not 3 <= n <= MAX_N_SPLIT_STAR:
        raise ValueError(f"S_n^2 supported for 3 <= n <= {MAX_N_SPLIT_STAR}, got {n}")
    return _build(FAMILY_SPLIT_STAR, n)


def build_family(family: str, n: int) -> CayleyGraph:
    if family == FAMILY_AG:
        return build_ag(n)
    if family == FAMILY_SPLIT_STAR:
        return build_splitstar(n)
    raise ValueError(f"unknown family {family!r}")


class LeftTranslations:
    """The left multiplications p -> h p of a Cayley graph on permutations.

    Generators act on positions and h relabels symbols, so each h is an
    automorphism. There is exactly one translation moving vertex 0 to any
    given vertex w (h = the label of w), so every vertex set has a translate
    through vertex 0.
    """

    def __init__(self, symbols):
        self.symbols = symbols
        self.id_of = {s: v for v, s in enumerate(symbols)}

    def translates(self, fault) -> list[tuple[int, ...]]:
        """h F for every label h, in vertex order (translate w maps vertex 0 to w)."""
        # h p in one-line notation is (h[p_1 - 1], ..., h[p_n - 1])
        relabel = [itemgetter(*(s - 1 for s in self.symbols[v])) for v in fault]
        id_of = self.id_of
        return [tuple(sorted(id_of[g(h)] for g in relabel)) for h in self.symbols]

    def orbit_size(self, fault_mask: int, tables: dict) -> int:
        """V / |stabiliser of F| if F, a fault through 0, is its least pinned translate, else 0.

        F's translates through 0 are p_v^-1 F for v in F (p_v the label of v);
        the stabiliser holds the p_v with p_v^-1 F = F. ``tables`` maps v to its
        list u -> ``1 << id(p_v^-1 p_u)``, built on first use and kept for one scan.
        """
        members = ids_of(fault_mask)
        fixed = 1
        for v in members[1:]:
            table = tables.get(v)
            if table is None:
                relabel = dict(zip(self.symbols[v], itertools.count(1))).__getitem__  # p_v^-1
                table = tables[v] = [1 << self.id_of[tuple(map(relabel, s))] for s in self.symbols]
            moved = sum(map(table.__getitem__, members))  # distinct bits: the sum is the OR
            if moved < fault_mask:
                return 0
            fixed += moved == fault_mask
        return len(self.symbols) // fixed

    def orbits(self, faults) -> tuple[tuple[int, ...], ...]:
        """Every translate of every fault, once each, sorted by (size, ids)."""
        found = {t for f in faults for t in self.translates(f)}
        return tuple(sorted(found, key=lambda f: (len(f), f)))


def left_translations(G: BitGraph) -> LeftTranslations | None:
    """G's left translations if G is exactly AG_n or S_n^2 as built here, else None.

    Checks the labels and ``neighbors`` against the family's generators
    vertex by vertex, so an edited copy of a built graph, or a
    plain BitGraph, gets None. Memory stays linear in the vertex count. The
    graph is immutable, so the answer is kept on it (``CayleyGraph.translations``)
    and later scans of the same graph object do not check again.
    """
    return G.translations if isinstance(G, CayleyGraph) else None


def external_edge_count(G: CayleyGraph, i: int, j: int) -> int:
    """Number of edges joining the last-symbol-i and last-symbol-j parts."""
    if i == j:
        raise ValueError("part indices must differ")
    if not (1 <= i <= G.n and 1 <= j <= G.n):
        raise ValueError(f"part indices must lie in 1..{G.n}")
    mask_j = mask_of(v for v in range(G.vertex_count) if G.last_symbol(v) == j)
    count = 0
    for v in range(G.vertex_count):
        if G.last_symbol(v) == i:
            count += (G.adj_masks[v] & mask_j).bit_count()
    return count


def out_neighbors(G: CayleyGraph, v: int) -> tuple[int, ...]:
    """Neighbors of v lying in a different last-symbol part."""
    last = G.last_symbol(v)
    return tuple(u for u in G.neighbors[v] if G.last_symbol(u) != last)


def to_dimacs(G: CayleyGraph) -> str:
    """DIMACS-like edge list, vertices 1-based, edges sorted by (u, v)."""
    lines = [f"p edge {G.vertex_count} {G.edge_count}"]
    for u, v in G.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def to_json_dict(G: CayleyGraph) -> dict:
    return {
        "family": G.family,
        "n": G.n,
        "vertices": [G.label_text(v) for v in range(G.vertex_count)],
        "edges": [[u, v] for u, v in G.edges()],
    }
