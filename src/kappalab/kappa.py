"""Tiered computation of the l-component connectivity kappa_l.

kappa_l(G) is the minimum number of vertices whose removal leaves at least
l components or fewer than l vertices. Three tiers:

* :func:`kappa_ell_exhaustive` - level-by-level subset enumeration; exact,
  and the oracle every other tier is judged against.
* :func:`kappa_ell_witness_search` - bounded search over the families of l-1
  disjoint, pairwise nonadjacent, connected parts that :func:`witness_families`
  lists; always an upper bound.
* :func:`construct_paper_cut` - the explicit tight cuts N(S), S the first
  l-1 members of one fixed independent 4-set per family (:data:`PAPER_SETS`),
  verified on the built graph.

:func:`verify_cut` certifies any fault set against the definition, and
:func:`hyper_connectivity_scan` censuses all minimum-size cuts.

Every subset scan (the exhaustive tier, the hyper scan and the
cut-structure censuses in :mod:`kappalab.lemmas`) runs on one engine in lane
space, ``SCAN_BATCH`` faults at a time, one bit lane per fault.
:func:`level_tasks` splits a level into jobs-independent tasks;
:func:`lex_batches` hands over a task's faults in lex order already
transposed, from the combination patterns of the lex recursion, and
:func:`id_batches` sets the lanes of any other stream of faults from their
vertex ids.
A batch is a list of V ints, bit j of ``alive[v]`` set iff vertex v survives
fault j. :func:`scan_hits` runs :func:`~kappalab.connectivity.split_lanes`
on each batch and yields the mask of each fault leaving enough components,
read back from the vertices dead in its lane. The level scan stops at the
first hit; the hyper scan and the cut-structure censuses of
:mod:`kappalab.lemmas` are censuses, all run by :func:`run_census`. On a
graph that :func:`left_translations` accepts, :func:`scan_tasks` keeps only
the fault sets through vertex 0; a census examines only the least of each
orbit's translates among them, weighted by the orbit size
(:meth:`~kappalab.graphs.LeftTranslations.orbit_size`). ``explored`` and
``scanned`` count the subsets covered, ``evaluated`` the subsets tested.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from ._parallel import TaskRunner, worker_state
from .connectivity import (
    ComponentReport,
    component_masks,
    component_report,
    components,
    ids_of,
    mask_of,
    neighborhood,
    split_lanes,
)
from .graphs import FAMILY_AG, FAMILY_SPLIT_STAR, BitGraph, CayleyGraph, left_translations
from .perms import Perm, rot_minus, rot_plus

DEFAULT_BUDGET = 10**8  # explored-subset cap, not wall time
SCAN_BATCH = 2048  # lanes per split_lanes call in scan_hits

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "Tier",
    "CutWitness",
    "CutRefusal",
    "KappaResult",
    "HyperScanReport",
    "verify_cut",
    "kappa_ell_exhaustive",
    "kappa_ell_witness_search",
    "witness_families",
    "construct_paper_cut",
    "kappa_formula",
    "kappa_formula_text",
    "remark_independent_set",
    "hyper_connectivity_scan",
    "comb_lex_rank",
    "level_tasks",
    "scan_tasks",
    "lex_batches",
    "id_batches",
    "scan_hits",
    "level_faults",
    "run_census",
]


class BudgetExceeded(ValueError):
    """A scan or search would go past its budget."""


class Tier(Enum):
    EXHAUSTIVE = "Exhaustive"
    WITNESS_UPPER_BOUND = "WitnessUpperBound"
    RULE_FEWER_THAN_ELL = "RuleFewerThanEll"


@dataclass(frozen=True)
class CutWitness:
    """A fault set certified against the kappa_l definition."""

    fault: tuple[int, ...]
    report: ComponentReport
    ell: int

    def to_json_dict(self, G: BitGraph) -> dict:
        return {
            "fault": [G.label_text(v) for v in self.fault],
            "count": self.report.count,
            "components": self.report.to_json_dict(G)["components"],
        }


@dataclass(frozen=True)
class CutRefusal:
    """verify_cut outcome for a fault set that does not qualify."""

    fault: tuple[int, ...]
    ell: int
    component_count: int


def verify_cut(G: BitGraph, F, ell: int) -> CutWitness | CutRefusal:
    """Certify F: accepted iff G - F has >= ell components or < ell vertices."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    report = components(G, F)
    fault = report.fault
    if report.count >= ell or G.vertex_count - len(fault) < ell:
        return CutWitness(fault, report, ell)
    return CutRefusal(fault, ell, report.count)


@dataclass(frozen=True)
class KappaResult:
    ell: int
    value: int | None  # None: no qualifying cut found (see inconclusive_above)
    tier: Tier
    witness: CutWitness | None
    explored: int
    budget: int
    k_max: int
    inconclusive_above: int | None = None  # set only when the budget stopped the scan
    part_size_bound: int | None = None  # witness tier's B
    evaluated: int | None = None  # subsets the exhaustive tier tested; not in JSON

    @property
    def inconclusive(self) -> bool:
        return self.inconclusive_above is not None

    def to_json_dict(self, G: BitGraph) -> dict:
        return {
            "ell": self.ell,
            "value": self.value,
            "tier": self.tier.value,
            "witness": None if self.witness is None else self.witness.to_json_dict(G),
            "explored": self.explored,
            "budget": self.budget,
            "k_max": self.k_max,
            "inconclusive_above": self.inconclusive_above,
            "part_size_bound": self.part_size_bound,
        }


def comb_lex_rank(comb: tuple[int, ...], n: int) -> int:
    """Rank of a sorted combination within lexicographic C(n, k) order."""
    k = len(comb)
    rank = 0
    prev = -1
    for i, c in enumerate(comb):
        for j in range(prev + 1, c):
            rank += math.comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def level_tasks(V: int, k: int, target: int = 200_000) -> list[tuple[tuple[int, ...], int]]:
    """Split lex enumeration of C(V, k) into (prefix, start) tasks.

    Task (p, s) covers all combinations p + c with c drawn from
    range(s, V); tasks are in lex order and independent of the job count.
    """
    tasks: list[tuple[tuple[int, ...], int]] = []
    stack = [((), 0, k)]
    while stack:
        prefix, start, remaining = stack.pop()
        if remaining <= 1 or math.comb(V - start, remaining) <= target:
            tasks.append((prefix, start))
        else:  # pushed last to first, so the smallest next element is split first
            stack += [
                (prefix + (nxt,), nxt + 1, remaining - 1)
                for nxt in range(V - remaining, start - 1, -1)
            ]
    return tasks


def scan_tasks(V: int, k: int, pinned: bool) -> list[tuple[int, tuple[int, ...], int]]:
    """The ``(k, prefix, start)`` tasks of a level-k scan, in lex order.

    ``pinned`` (k >= 1) keeps the k-sets containing vertex 0: the first
    ``C(V-1, k-1)`` sets of the level in lex order, split like level k-1 of
    the other V-1 vertices.
    """
    if pinned and k:
        return [
            (k, (0,) + tuple(v + 1 for v in prefix), start + 1)
            for prefix, start in level_tasks(V - 1, k - 1)
        ]
    return [(k, prefix, start) for prefix, start in level_tasks(V, k)]


def _lex_patterns(pats: list[int], e0: int, m: int, r: int, lo: int, hi: int, at: int, blocks):
    """Set bit ``at + x - lo`` of ``pats[e0 + i]`` for each lex rank x in
    ``lo..hi-1`` of the r-combinations of ``range(m)`` whose combination holds i.

    The first C(m-1, r-1) sets hold element 0 and an (r-1)-set of the rest;
    the others are the r-sets of the rest, so the recursion is r deep.
    ``blocks`` keeps the patterns of whole blocks of at most ``SCAN_BATCH``
    ranks by (m, r); building one (r >= 2, so m <= 64) recurses m deep.
    """
    if r == 1:  # a diagonal
        for x in range(lo, hi):
            pats[e0 + x] |= 1 << (at + x - lo)
        return
    while lo < hi:
        if lo == 0 and hi == math.comb(m, r) <= SCAN_BATCH:  # a whole block
            for i, p in enumerate(blocks.get((m, r)) or _block(m, r, blocks), e0):
                pats[i] |= p << at
            return
        lead = math.comb(m - 1, r - 1)
        if lo < lead:
            b = min(hi, lead)
            pats[e0] |= ((1 << (b - lo)) - 1) << at
            _lex_patterns(pats, e0 + 1, m - 1, r - 1, lo, b, at, blocks)
            at += b - lo
            lo = lead
        e0, m, lo, hi = e0 + 1, m - 1, lo - lead, hi - lead


def _block(m: int, r: int, blocks) -> list[int]:
    """The patterns of all C(m, r) r-combinations of ``range(m)``, r >= 2, kept in ``blocks``."""
    lead = math.comb(m - 1, r - 1)
    pats = blocks[m, r] = [(1 << lead) - 1] + [0] * (m - 1)
    _lex_patterns(pats, 1, m - 1, r - 1, 0, lead, 0, blocks)
    _lex_patterns(pats, 1, m - 1, r, 0, math.comb(m - 1, r), lead, blocks)
    return pats


def lex_batches(V: int, k: int, prefix: tuple[int, ...], start: int):
    """The faults of the level task ``(k, prefix, start)`` as lane batches, in lex order.

    A batch is ``SCAN_BATCH`` consecutive lex ranks: a prefix vertex is dead in
    every lane, any other vertex below ``start`` alive, and vertex
    ``start + i`` dead in the lanes whose combination holds i.
    """
    m, r = V - start, k - len(prefix)
    pmask, total, blocks = mask_of(prefix), math.comb(m, r), {}
    for lo in range(0, total, SCAN_BATCH):
        count = min(SCAN_BATCH, total - lo)
        lanes, pats = (1 << count) - 1, [0] * m
        if r:
            _lex_patterns(pats, 0, m, r, lo, lo + count, 0, blocks)
        yield [0 if pmask >> v & 1 else lanes for v in range(start)] + [lanes ^ p for p in pats]


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


def scan_hits(G: BitGraph, batches, need: int):
    """The mask of each fault leaving at least ``need`` components, in lane order.

    This is the one subset-scan engine. Its two reducers are the level scan
    and :func:`run_census`, which finds each hit's components with
    :func:`component_masks`. Each lane batch is filtered by
    :func:`split_lanes`; only the lanes it flags are read back into a fault
    mask, the vertices dead in the lane. ``need`` must be at least 2.
    """
    if need < 2:
        raise ValueError("need must be >= 2")
    for alive in batches:
        flagged = split_lanes(G.neighbors, alive, need)
        while flagged:
            low = flagged & -flagged
            flagged ^= low
            # one binary digit per vertex, vertex V-1 first: "1" where it is dead
            yield int("".join(["0" if a & low else "1" for a in reversed(alive)]), 2)


def _signature(report: ComponentReport) -> str:
    return ",".join(s.value for s in report.shapes)


def _census(task):
    """Examine the disconnecting faults of one census task against the rule.

    ``faults(task)`` gives the task's lane batches and fault count. Returns
    the violating faults, the outcome tally, the exceptional faults and the
    fault count; only the faults kept (or read by the rule) are listed as ids.
    A pinned census (``translations`` set) examines only the least translate
    through vertex 0 of each hit and tallies it by its orbit size (level 0,
    the empty fault, cuts none of these connected graphs).
    """
    state = worker_state()
    G, rule, exceptional = state["graph"], state["rule"], state["exceptional"]
    translations = state["translations"]
    batches, tested = state["faults"](task)
    violations: list[tuple[int, ...]] = []
    outcomes: Counter[str] = Counter()
    exc_faults: list[tuple[int, ...]] = []
    for fm in scan_hits(G, batches, 2):
        weight = translations.orbit_size(fm, state["tables"]) if translations else 1
        if not weight:
            continue
        report = component_report(G.neighbors, fm, component_masks(G.adj_masks, G.full_mask ^ fm))
        outcomes[_signature(report)] += weight
        if not rule(G, report):
            violations.append(report.fault)
        elif exceptional is not None and exceptional(report):
            exc_faults.append(report.fault)
    return violations, outcomes, exc_faults, tested


def level_faults(task):
    """The lane batches and fault count of the level task ``(k, prefix, start)``."""
    k, prefix, start = task
    V = worker_state()["graph"].vertex_count
    return lex_batches(V, *task), math.comb(V - start, k - len(prefix))


def run_census(G: BitGraph, rule, exceptional, translations, faults, tasks, jobs: int):
    """The census of ``tasks``, each read by ``faults`` (as :func:`level_faults`).

    ``rule(G, report)`` says whether a disconnecting fault is allowed and
    ``exceptional(report)`` (or None) whether an allowed one is listed.
    Returns ``(violations, outcome_counts, exceptional, evaluated)``: the
    fault lists in task order, or expanded to orbits and sorted by (size, ids)
    when ``translations`` is set; the signature tally as sorted
    ``(signature, count)`` pairs; and the number of faults tested.
    """
    state = {"graph": G, "rule": rule, "exceptional": exceptional,
             "translations": translations, "faults": faults, "tables": {}}
    with TaskRunner(jobs, state) as runner:
        results = runner.map(_census, tasks)
    violations = [f for r in results for f in r[0]]
    exc = [f for r in results for f in r[2]]
    outcomes = sum((r[1] for r in results), Counter())
    if translations is not None:
        violations, exc = translations.orbits(violations), translations.orbits(exc)
    evaluated = sum(r[3] for r in results)
    return tuple(violations), tuple(sorted(outcomes.items())), tuple(exc), evaluated


def _scan_level_worker(task):
    """First F (lex order) in this task's range with >= ell components."""
    state = worker_state()
    G, ell = state["graph"], state["ell"]
    for fm in scan_hits(G, lex_batches(G.vertex_count, *task), ell):
        return ids_of(fm)
    return None


def kappa_ell_exhaustive(
    G: BitGraph,
    ell: int,
    k_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> KappaResult:
    """Exact kappa_l by enumerating fault sets level by level in lex order.

    Levels are scanned in ascending size, so the first qualifying size is the
    exact value. The fewer-than-l-vertices clause fires at |V| - l + 1
    without enumeration. A level is only scanned when it fits the remaining
    subset budget whole; otherwise the result is inconclusive above the last
    completed level.

    On AG_n and S_n^2 a level k >= 1 tests only the k-sets through vertex 0:
    a translate of any cut through 0 is a cut, and those sets come first in
    lex order, so the witness and ``explored`` are those of the full scan.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    V = G.vertex_count
    rule_k = max(V - ell + 1, 0)
    cap = rule_k if k_max is None else min(k_max, rule_k)
    explored = evaluated = 0
    pinned = left_translations(G) is not None
    state = {"graph": G, "ell": ell}
    with TaskRunner(jobs, state) as runner:
        for k in range(cap + 1):
            if k == rule_k:
                fault = tuple(range(k))
                witness = verify_cut(G, fault, ell)
                assert isinstance(witness, CutWitness)
                return KappaResult(
                    ell, k, Tier.RULE_FEWER_THAN_ELL, witness, explored, budget, cap,
                    evaluated=evaluated,
                )
            level = math.comb(V, k)
            if explored + level > budget:
                return KappaResult(
                    ell, None, Tier.EXHAUSTIVE, None, explored, budget, cap,
                    inconclusive_above=k - 1, evaluated=evaluated,
                )
            hit = runner.first_hit(_scan_level_worker, scan_tasks(V, k, pinned))
            if hit is not None:
                # a pinned hit holds vertex 0, so its lex rank is the same in both scans
                before_hit = comb_lex_rank(hit, V) + 1
                explored += before_hit
                evaluated += before_hit
                witness = verify_cut(G, hit, ell)
                assert isinstance(witness, CutWitness)
                return KappaResult(
                    ell, k, Tier.EXHAUSTIVE, witness, explored, budget, cap,
                    evaluated=evaluated,
                )
            explored += level
            evaluated += math.comb(V - 1, k - 1) if pinned and k else level
    return KappaResult(
        ell, None, Tier.EXHAUSTIVE, None, explored, budget, cap, evaluated=evaluated
    )


def _connected_parts(adj, anchor: int, max_size: int, banned: int):
    """Masks of connected sets containing ``anchor`` with min id = anchor, lazily.

    Uniqueness by the usual extension scheme: candidates are scanned in
    ascending id order and a skipped candidate stays excluded in the whole
    subtree. ``banned`` must already contain all ids below ``anchor``.
    """
    stack = [(1 << anchor, 1, adj[anchor] & ~banned & ~(1 << anchor), 0)]
    while stack:
        sub, size, ext, dead = stack.pop()
        yield sub
        if size == max_size:
            continue
        children = []
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            grown = sub | low
            children.append((grown, size + 1, (ext | adj[v] & ~banned) & ~(grown | dead), dead))
            dead |= low  # a skipped candidate stays out of the later subtrees
        stack += reversed(children)  # popped in ascending order


def _later_parts(adj, max_size: int, blocked: int, start: int):
    """``(part, anchor)`` for the connected parts avoiding ``blocked``, anchors from ``start`` up."""
    for a in range(start, len(adj)):
        if not blocked >> a & 1:
            for pmask in _connected_parts(adj, a, max_size, blocked | (1 << a) - 1):
                yield pmask, a


def witness_families(adj, parts: int, B: int):
    """``(union, nbhd)`` of each family of ``parts`` pairwise nonadjacent
    connected parts of size <= B, the first through vertex 0.

    Lazy and depth first, parts in increasing least id, so at B = 1 the unions
    are the independent ``parts``-sets through 0 in lex order. N(union) is
    ``nbhd & ~union``. The stack is explicit: no depth hits the recursion limit.
    """
    # (union, nbhd, next parts) for each partial family on the current path
    stack = [(0, 0, ((p, 0) for p in _connected_parts(adj, 0, B, 0)))]
    while stack:
        union, nbhd, nexts = stack[-1]
        step = next(nexts, None)
        if step is None:
            stack.pop()
            continue
        pmask, a = step
        union |= pmask
        for v in ids_of(pmask):
            nbhd |= adj[v]
        if len(stack) == parts:
            yield union, nbhd
        else:
            stack.append((union, nbhd, _later_parts(adj, B, union | nbhd, a + 1)))


def kappa_ell_witness_search(
    G: BitGraph, ell: int, B: int = 1, budget: int = DEFAULT_BUDGET
) -> KappaResult:
    """Cheapest witness family with parts of size <= B.

    Exploits vertex-transitivity of the target families by pinning the first
    part to contain vertex 0; parts are enumerated with strictly increasing
    minimum ids. Returns an upper bound on kappa_l, monotone nonincreasing
    in B, with the lexicographically smallest fault set among the minima.
    Raises :class:`BudgetExceeded` once it visits more than ``budget``
    complete families (the count reported as ``explored``). Parts are made
    lazily, so the search stops there whatever B is; only parts that leave
    no room for a family go uncounted. The search is exhaustive over families,
    so its cost grows steeply with B: on S_5^2 at l = 5, B = 1 returns 20 after
    188,826 families (0.6 s) and B = 2 passes 10^6 families in 3.1 s (2 cores,
    Python 3.11.7).
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if B < 1:
        raise ValueError("B must be >= 1")
    full = G.full_mask
    best: tuple[int, tuple[int, ...]] | None = None  # (size, fault)
    explored = 0  # complete witness families visited
    for union, nbhd in witness_families(G.adj_masks, ell - 1, B):
        explored += 1
        if explored > budget:
            raise BudgetExceeded(f"witness search visited more than {budget} families")
        fault_mask = nbhd & ~union
        if not full & ~union & ~fault_mask and union.bit_count() >= ell:
            continue  # only the l - 1 parts are left, and at least l vertices
        size = fault_mask.bit_count()
        if best is not None and size > best[0]:
            continue  # a larger fault never has the smaller (size, ids) key
        fault = ids_of(fault_mask)
        if best is None or (size, fault) < best:
            best = (size, fault)
    if best is None:
        raise ValueError(f"no witness family with {ell - 1} parts of size <= {B}")
    value, fault = best
    witness = verify_cut(G, fault, ell)
    assert isinstance(witness, CutWitness)
    return KappaResult(
        ell,
        value,
        Tier.WITNESS_UPPER_BOUND,
        witness,
        explored=explored,
        budget=budget,
        k_max=value,
        part_size_bound=B,
    )


def remark_independent_set(G: CayleyGraph, size: int, i: int, j: int) -> tuple[int, ...]:
    """The explicit independent 3- or 4-set built from double rotations at e.

    size 3: {e, (e gi+)gj+, (e gj+)gi+}; size 4 adds ((e gj+)gi-)gj+.
    Valid for distinct i, j in 3..n; the neighborhood sizes are 6n-16 and
    8n-24 on AG_n.
    """
    if size not in (3, 4):
        raise ValueError("remark sets have size 3 or 4")
    if i == j or not (3 <= i <= G.n and 3 <= j <= G.n):
        raise ValueError(f"need distinct rotation indices in 3..{G.n}")
    e = Perm.identity(G.n)
    members = [
        e,
        rot_plus(rot_plus(e, i), j),
        rot_plus(rot_plus(e, j), i),
    ]
    if size == 4:
        members.append(rot_plus(rot_minus(rot_plus(e, j), i), j))
    return tuple(G.vertex_id(p) for p in members)


# the paper's kappa_l = a*n - b from n = min_n on, as (a, b, min_n) per (family, l)
KAPPA_FORMULAS = {
    (FAMILY_AG, 3): (4, 10, 4),
    (FAMILY_AG, 4): (6, 16, 4),
    (FAMILY_AG, 5): (8, 24, 5),
    (FAMILY_SPLIT_STAR, 3): (4, 8, 4),
    (FAMILY_SPLIT_STAR, 4): (6, 14, 4),
    (FAMILY_SPLIT_STAR, 5): (8, 20, 4),
}


# S for the paper cut N(S) of l = 3, 4, 5: the first l-1 members of a Klein
# four-group on positions 1..4 (positions 5..n fixed). AG_n: the double
# transpositions; 1234, 3412, 4321, 2143 is the Remark 4-set at i, j = 3, 4.
# S_n^2: the group generated by (2 3) and (1 4).
PAPER_SETS = {
    FAMILY_AG: ((1, 2, 3, 4), (3, 4, 1, 2), (4, 3, 2, 1), (2, 1, 4, 3)),
    FAMILY_SPLIT_STAR: ((1, 2, 3, 4), (1, 3, 2, 4), (4, 2, 3, 1), (4, 3, 2, 1)),
}


def kappa_formula(family: str, ell: int, n: int) -> int:
    a, b, _ = KAPPA_FORMULAS[(family, ell)]
    return a * n - b


def kappa_formula_text(family: str, ell: int) -> str:
    a, b, _ = KAPPA_FORMULAS[(family, ell)]
    return f"{a}n-{b}"


def construct_paper_cut(G: CayleyGraph, ell: int) -> CutWitness:
    """The explicit cut achieving the kappa_l formula for the family.

    Removes N(S) for S the first l-1 members of the family's
    :data:`PAPER_SETS` group, extended by the identity on 5..n. On AG_n the
    first two are opposite corners of a 4-cycle through e and the first three
    and four are the double-rotation sets of the Remark (i, j = 3, 4); on
    S_n^2 they are the split-star analogues. Each member is left as a
    singleton component.
    """
    if ell not in (3, 4, 5):
        raise ValueError("paper cuts exist for ell in {3, 4, 5}")
    n = G.n
    n_min = KAPPA_FORMULAS[(G.family, ell)][2]
    if n < n_min:
        raise ValueError(f"{G.family} paper cut for ell={ell} needs n >= {n_min}, got {n}")
    rest = tuple(range(5, n + 1))
    S = [G.vertex_id(Perm(p + rest)) for p in PAPER_SETS[G.family][: ell - 1]]
    fault = tuple(sorted(neighborhood(G, S)))
    expected = kappa_formula(G.family, ell, n)
    if len(fault) != expected:
        raise AssertionError(
            f"paper cut size {len(fault)} != formula value {expected}"
        )
    witness = verify_cut(G, fault, ell)
    if isinstance(witness, CutRefusal):
        raise AssertionError(
            f"paper cut left only {witness.component_count} components"
        )
    return witness


@dataclass(frozen=True)
class HyperScanReport:
    """Census of all fault sets of size kappa(G)."""

    kappa: int
    scanned: int  # subsets covered
    disconnecting: int
    singleton_cuts: int  # cuts leaving exactly two components, one a singleton
    exceptional: tuple[tuple[int, ...], ...]  # every other disconnecting cut
    inconclusive: bool = False
    evaluated: int = 0  # subsets tested; not in JSON

    @property
    def hyper_connected(self) -> bool:
        return not self.inconclusive and self.disconnecting > 0 and not self.exceptional

    def to_json_dict(self, G: BitGraph) -> dict:
        return {
            "kappa": self.kappa,
            "scanned": self.scanned,
            "disconnecting": self.disconnecting,
            "singleton_cuts": self.singleton_cuts,
            "exceptional": [
                [G.label_text(v) for v in fault] for fault in self.exceptional
            ],
            "hyper_connected": self.hyper_connected,
            "inconclusive": self.inconclusive,
        }


def _allow_every_cut(G, report) -> bool:
    return True


def _not_a_singleton_split(report: ComponentReport) -> bool:
    """True unless the cut leaves exactly two components, the smaller a singleton."""
    return report.count != 2 or report.sizes()[1] != 1


def hyper_connectivity_scan(
    G: BitGraph,
    kappa: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> HyperScanReport:
    """Scan every |F| = kappa subset; classify all disconnecting ones.

    ``kappa`` is the known connectivity (callers may pass
    :func:`~kappalab.connectivity.vertex_connectivity`). This is the census
    of the one level kappa: every cut is allowed, and a cut is exceptional
    unless it leaves exactly two components, the smaller a singleton. On
    AG_n and S_n^2 only the least translate through vertex 0 of each cut is
    examined, counted once per member of its orbit; the exceptional cuts are
    expanded to orbits.
    """
    V = G.vertex_count
    if not 0 <= kappa <= V:
        raise ValueError(f"kappa must be between 0 and {V}, got {kappa}")
    total = math.comb(V, kappa)
    if total > budget:
        return HyperScanReport(kappa, 0, 0, 0, (), inconclusive=True)
    translations = left_translations(G)
    tasks = scan_tasks(V, kappa, translations is not None)
    _, outcome_counts, exceptional, evaluated = run_census(
        G, _allow_every_cut, _not_a_singleton_split, translations, level_faults, tasks, jobs
    )
    disconnecting = sum(c for _, c in outcome_counts)
    return HyperScanReport(kappa, total, disconnecting, disconnecting - len(exceptional),
                           exceptional, evaluated=evaluated)
