"""Construction of alternating group graphs AG_n and split-stars S_n^2.

Both families are Cayley graphs on permutations of ``1..n``:

* AG_n: vertices are the even permutations, edges the triple rotations
  g_i+ / g_i- for 3 <= i <= n; (2n-4)-regular with n!/2 vertices.
* S_n^2: vertices are all permutations, edges the rotations plus the
  2-exchange g_12; (2n-3)-regular with n! vertices.

Vertex ids are lex positions (among the even permutations for AG), equal to
``even_rank`` / ``rank``, so id 0 is the identity. Generators act on
positions, so each is a position table (g_i- is g_i+ read twice), and
:func:`_sorted_ids` ranks every label read at every table at once, on ints
with one W-bit field per vertex (see :func:`_field_ranks`), then sorts each
vertex's ids with a compare-exchange network. ``CayleyGraph.labels`` keeps
the symbol tuples; ``label(v)`` wraps one in a :class:`~kappalab.perms.Perm`
on request. Left multiplication relabels symbols and commutes with the
generators, so it is a vertex-transitive group of automorphisms
(:class:`LeftTranslations`), which a built graph carries: the subset scans
use it to test only the fault sets through vertex 0, and a census to keep
one fault per orbit; any other graph takes the full scan.

A :class:`BitGraph` holds sorted neighbour lists only. Its ``adj_masks``
(a bitmask per vertex) are derived when a subset scan first reads them, so
building and cutting ``AG_8`` never holds its V^2 bits, and a graph not built
here finds its ``connected`` flag by one walk on first read. Vertex sets are
bitmasks (bit v set iff v is in the set), built by :func:`mask_of` and listed
a 64-bit word at a time by :func:`ids_of`.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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
    tuples; ``adj_masks`` (a bitmask per vertex) and ``connected`` on first read,
    unless the graph was built with ``connected`` already in its ``__dict__``."""

    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of, self.neighbors))

    @cached_property
    def connected(self) -> bool:
        from .connectivity import _walk  # connectivity imports this module
        return len(_walk(self, ())) <= 1

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
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an id outside 0..{vertex_count - 1}")
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


def _moves(family: str, n: int) -> list[list[int]]:
    """The g_i+ (3 <= i <= n), then the family's other generators (g_12 on
    S_n^2), as 0-based position tables: ``p g`` is ``p`` read at g's table.
    Each g_i- is g_i+ applied twice, so :func:`_build` reads its table twice."""
    identity = Perm.identity(n)
    images = [rot_plus(identity, i) for i in range(3, n + 1)]
    if family == FAMILY_SPLIT_STAR:
        images.append(exchange(identity))
    if identity in images:
        raise AssertionError("generator produced a self-loop")
    return [[s - 1 for s in image.symbols] for image in images]


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


def _field_ranks(symbols, tables, W: int, ones: int) -> list[int]:
    """For each position table, the ids of all labels read at it, as one int of
    V W-bit fields (field v for label v; ``ones`` has 1 in every field); the
    labels are all of S_n or of A_n in lex order, and a table of A_n keeps them even."""
    V, n, B = len(symbols), len(symbols[0]), W // 8
    top = ones << (W - 1)
    flat, field, rows = bytes(itertools.chain.from_iterable(symbols)), bytearray(V * B), []
    for j in range(n):  # rows[j]: symbol j of every label
        field[::B] = flat[j::n]
        rows.append(int.from_bytes(field, "little"))
    # the lex rank is the sum over j of (n-1-j)! times digit j, the number of
    # later positions holding a smaller symbol. On A_n the id is rank // 2
    # (even_rank), which drops the last digit, of weight 1, and halves the rest.
    even = V < math.factorial(n)
    weights = [math.factorial(n - 1 - j) >> even for j in range(n - 2 if even else n - 1)]
    columns = [0] * len(tables)
    for a in range(n):  # the digits of every table at the position where it reads a
        guarded = rows[a] | top
        # smaller[b]: 1 where the symbol at b is smaller than the one at a
        smaller = {b: (guarded - rows[b]) >> (W - 1) & ones for b in range(n) if b != a}
        for i, t in enumerate(tables):
            j = t.index(a)
            if j < len(weights):
                columns[i] += sum(map(smaller.__getitem__, t[j + 1:])) * weights[j]
    return columns


def _sorted_ids(symbols, tables) -> tuple[tuple[int, ...], ...]:
    """For each label, in id order, the ids of the label read at every position
    table (see :func:`_field_ranks`), ascending.

    Every step acts on all V labels at once through ints of V W-bit fields,
    with W = 16 while V < 2^15, so ids stay below each field's top bit, the
    guard of every comparison.
    """
    V = len(symbols)
    B = 2 if V < 1 << 15 else 4  # bytes a field
    W, ones = 8 * B, int.from_bytes((b"\1" + bytes(B - 1)) * V, "little")
    columns = _field_ranks(symbols, tables, W, ones)
    top, field = ones << (W - 1), (1 << W) - 1
    for k in range(len(columns)):  # odd-even transposition sort of the columns, field-wise
        for i in range(k & 1, len(columns) - 1, 2):
            x, y = columns[i], columns[i + 1]
            swap = (x ^ y) & (((x | top) - y) >> (W - 1) & ones) * field
            columns[i], columns[i + 1] = x ^ swap, y ^ swap
    for i, c in enumerate(columns):
        columns[i] = array("H" if B == 2 else "I", c.to_bytes(V * B, "little"))
        if sys.byteorder == "big":
            columns[i].byteswap()
    ids = list(range(V))  # the neighbour tuples share these V int objects
    return tuple(zip(*[map(ids.__getitem__, c) for c in columns]))


def _build(family: str, n: int) -> CayleyGraph:
    symbols = _vertex_symbols(family, n)
    tables = _moves(family, n)
    tables += [[t[j] for j in t] for t in tables[: n - 2]]  # g_i- is g_i+ twice
    # distinct generators give distinct neighbours, so no tuple repeats an id
    G = CayleyGraph(_sorted_ids(symbols, tables), family, n, symbols)
    G.__dict__["connected"] = True  # the generators generate A_n or S_n
    G.__dict__["translations"] = LeftTranslations(symbols)
    return G


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
    automorphism. Exactly one, h = the label of w, moves vertex 0 to vertex
    w, so every vertex set has a translate through vertex 0. Its ``id_of``
    dict is built with the first table of :meth:`least_translates`.
    """

    def __init__(self, symbols):
        self.symbols = symbols

    @cached_property
    def id_of(self) -> dict[tuple[int, ...], int]:
        return {s: v for v, s in enumerate(self.symbols)}

    def translates(self, fault) -> list[tuple[int, ...]]:
        """h F for every label h, in vertex order (translate w maps vertex 0 to w)."""
        # h p in one-line notation is (h[p_1 - 1], ..., h[p_n - 1]): h read at p's positions
        tables = [[s - 1 for s in self.symbols[v]] for v in fault]
        return list(_sorted_ids(self.symbols, tables)) if fault else [()] * len(self.symbols)

    def least_translates(self, alive: list[int], lanes: int, tables: dict) -> tuple[int, Counter]:
        """The ``lanes`` of a batch whose fault F (bit clear in ``alive[w]`` iff
        F holds w; F holds 0) is the least of its translates p_v^-1 F, v in F.

        p_v^-1 F (p_v the label of v) holds w iff F holds id(p_v p_w). For each
        v >= 1, the kept lanes whose F holds v compare it with F from w = V-1
        down and drop if it is the smaller mask. Also returns, by lane index,
        the number of v with p_v^-1 F = F: a kept F's orbit has V / (1 + that
        number) faults. ``tables`` keeps v's list w -> id(p_v p_w), w from V-1
        down to 1, from its first use on, for one scan.
        """
        dead = [lanes & ~a for a in alive]
        high = dead[:0:-1]  # vertices V-1 down to 1
        fixed = Counter()
        for v in range(1, len(dead)):
            todo = lanes & dead[v]
            if not todo:
                continue
            table = tables.get(v)
            if table is None:
                h = (0,) + self.symbols[v]  # p_v, read at 1-based symbols
                table = tables[v] = [self.id_of[tuple(map(h.__getitem__, p))]
                                     for p in self.symbols[:0:-1]]
            for f, u in zip(high, table):
                diff = (dead[u] ^ f) & todo  # the lanes where exactly one holds w
                if diff:
                    lanes ^= diff & f  # F holds w, its translate does not
                    todo ^= diff
                    if not todo:
                        break
            fixed.update(ids_of(todo))  # p_v^-1 F = F
        return lanes, fixed

    def orbits(self, faults) -> tuple[tuple[int, ...], ...]:
        """Every translate of every fault, once each, sorted by (size, ids)."""
        found = {t for f in faults for t in self.translates(f)}
        return tuple(sorted(found, key=lambda f: (len(f), f)))


def left_translations(G: BitGraph) -> LeftTranslations | None:
    """G's left translations if G was returned by :func:`build_ag` or
    :func:`build_splitstar`, which put them in its ``__dict__``, else None: a
    plain, hand-made or edited graph (``dataclasses.replace``) gets None even
    when equal to a built one; ``copy`` and ``pickle`` copies keep them."""
    return vars(G).get("translations")


def external_edge_count(G: CayleyGraph, i: int, j: int) -> int:
    """Number of edges joining the last-symbol-i and last-symbol-j parts."""
    if i == j:
        raise ValueError("part indices must differ")
    if not (1 <= i <= G.n and 1 <= j <= G.n):
        raise ValueError(f"part indices must lie in 1..{G.n}")
    last = G.last_symbol
    return sum(last(u) == j for v in range(G.vertex_count) if last(v) == i for u in G.neighbors[v])


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
