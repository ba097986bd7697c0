"""Tiered computation of the l-component connectivity kappa_l.

kappa_l(G) is the minimum number of vertices whose removal leaves at least
l components or fewer than l vertices. Three tiers:

* :func:`kappa_ell_exhaustive` - whole-level subset scans searched downward;
  exact, and the oracle every other tier is judged against.
* :func:`kappa_ell_witness_search` - bounded search over the families of l-1
  disjoint, pairwise nonadjacent, connected parts that :func:`witness_families`
  lists; always an upper bound.
* :func:`construct_paper_cut` - the explicit tight cuts N(S), S the first
  l-1 members of one fixed independent 4-set per family (:data:`PAPER_SETS`),
  verified on the built graph.

:func:`verify_cut` certifies any fault set against the definition, and
:func:`hyper_connectivity_scan` censuses all minimum-size cuts.

Every subset scan (the exhaustive tier, the hyper scan and the
cut-structure censuses) runs on one engine in lane space, ``SCAN_BATCH``
faults at a time: a batch is a list of V ints, bit j of ``alive[v]`` set iff
vertex v survives fault j. :func:`scan_tasks` splits a level into
jobs-independent intervals of lex ranks, and :func:`lex_batches` sets an
interval's lanes from the patterns of the lex recursion; the sampled
censuses set theirs as they draw (``lemmas._draw_lanes``). :func:`scan_hits`
filters each batch with :func:`~kappalab.connectivity.split_lanes` and reads
back the mask of each fault leaving enough components. A level scan stops
at its first hit; a cut-free level has none below it, so the exact tier
searches its levels downward. :func:`run_census` reduces a census's hits.
A graph from ``build_ag`` or ``build_splitstar`` carries its
:func:`left_translations`: only its fault sets through vertex 0 are
scanned, and a census keeps on the lanes only each orbit's least translate,
weighted by its orbit size (``least_translates``). ``explored`` and
``scanned`` count the subsets covered, ``evaluated`` the subsets tested.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from ._parallel import TaskRunner, worker_state
from .connectivity import (
    ComponentReport,
    Shape,
    component_masks,
    component_report,
    components,
    ids_of,
    neighborhood,
    split_lanes,
)
from .graphs import FAMILY_AG, FAMILY_SPLIT_STAR, BitGraph, CayleyGraph, left_translations
from .perms import Perm, rot_minus, rot_plus

DEFAULT_BUDGET = 10**8  # explored-subset cap, not wall time
SCAN_BATCH = 2048  # lanes per split_lanes call in scan_hits
TASK_RANKS = 16 * SCAN_BATCH  # lex ranks per scan task

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "Tier",
    "CutWitness",
    "CutRefusal",
    "KappaResult",
    "HyperScanReport",
    "SmallParts",
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
    "scan_tasks",
    "lex_batches",
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


class _LevelTasks(Sequence):
    """The tasks of :func:`scan_tasks`, each made from its first rank in ``starts`` when read."""

    def __init__(self, k: int, total: int, starts: range):
        self.k, self.total, self.starts = k, total, starts

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _LevelTasks(self.k, self.total, self.starts[i])
        return self.k, self.starts[i], min(self.starts[i] + TASK_RANKS, self.total)


def scan_tasks(V: int, k: int, pinned: bool) -> Sequence[tuple[int, int, int]]:
    """The ``(k, lo, hi)`` tasks of a level-k scan: consecutive lex-rank
    intervals ``lo..hi-1`` of the k-subsets of ``range(V)``, each
    ``TASK_RANKS`` long but the last, independent of the job count.

    ``pinned`` (k >= 1) keeps the k-sets containing vertex 0: the first
    ``C(V-1, k-1)`` ranks of the level.
    """
    total = math.comb(V - 1, k - 1) if pinned and k else math.comb(V, k)
    return _LevelTasks(k, total, range(0, total, TASK_RANKS))


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


def lex_batches(V: int, k: int, lo: int, hi: int):
    """The k-subsets of ``range(V)`` of lex ranks ``lo..hi-1`` as lane batches
    of ``SCAN_BATCH`` consecutive ranks, in order: vertex v is dead in the
    lanes whose set holds v."""
    blocks = {}
    for start in range(lo, hi, SCAN_BATCH):
        end = min(start + SCAN_BATCH, hi)
        lanes, pats = (1 << (end - start)) - 1, [0] * V
        if k:
            _lex_patterns(pats, 0, V, k, start, end, 0, blocks)
        yield [lanes ^ p for p in pats]


def scan_hits(G: BitGraph, batches, need: int, translations=None, tables=None):
    """``(mask, weight)`` of each fault leaving at least ``need`` (>= 2) components, in lane order.

    The one subset-scan engine: only the lanes :func:`split_lanes` flags are
    read back, as the vertices dead in the lane, of weight 1. With
    ``translations`` (every fault holds 0), its ``least_translates`` (tables
    kept in ``tables``) first drops each flagged lane but every orbit's least
    translate, which is weighted by its orbit size.
    """
    if need < 2:
        raise ValueError("need must be >= 2")
    orbit, fixed = (1 if translations is None else G.vertex_count), Counter()
    for alive in batches:
        flagged = split_lanes(G.neighbors, alive, need)
        if translations is not None:
            flagged, fixed = translations.least_translates(alive, flagged, tables)
        for j in ids_of(flagged):
            low = 1 << j  # read back one digit per vertex, V-1 first: "1" where it is dead
            yield (int("".join(["0" if a & low else "1" for a in reversed(alive)]), 2),
                   orbit // (1 + fixed.get(j, 0)))


@dataclass(frozen=True)
class SmallParts:
    """A census rule as data, called as ``(G, report)``: a cut into two
    components is allowed iff either one's shape is in ``pair``, a cut into
    more iff the shapes after the largest, in report order, are in ``parts``."""

    pair: frozenset[Shape]
    parts: frozenset[tuple[Shape, ...]]

    def __call__(self, G: BitGraph, report: ComponentReport) -> bool:
        if report.count == 2:
            return not self.pair.isdisjoint(report.shapes)
        return report.shapes[1:] in self.parts


def _signature(report: ComponentReport) -> str:
    return ",".join(s.value for s in report.shapes)


def _census(task):
    """Examine the disconnecting faults of one census task against the rule.

    ``faults(task)`` gives the task's lane batches and fault count. Returns
    the violating faults, the outcome tally, the exceptional faults and the
    fault count; only the faults kept (or read by the rule) are listed as ids.
    A pinned census gets one fault per orbit from :func:`scan_hits`, with its
    orbit size as weight (level 0, the empty fault, cuts none of these graphs).
    """
    state = worker_state()
    G, rule, exceptional = state["graph"], state["rule"], state["exceptional"]
    batches, tested = state["faults"](task)
    violations: list[tuple[int, ...]] = []
    outcomes: Counter[str] = Counter()
    exc_faults: list[tuple[int, ...]] = []
    for fm, weight in scan_hits(G, batches, 2, state["translations"], state["tables"]):
        report = component_report(G.neighbors, fm, component_masks(G.adj_masks, G.full_mask ^ fm))
        outcomes[_signature(report)] += weight
        if not rule(G, report):
            violations.append(report.fault)
        elif exceptional is not None and exceptional(report):
            exc_faults.append(report.fault)
    return violations, outcomes, exc_faults, tested


def level_faults(task):
    """The lane batches and fault count of the level task ``(k, lo, hi)``."""
    _, lo, hi = task
    return lex_batches(worker_state()["graph"].vertex_count, *task), hi - lo


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
    for fm, _ in scan_hits(G, lex_batches(G.vertex_count, *task), ell):
        return ids_of(fm)
    return None


def kappa_ell_exhaustive(
    G: BitGraph,
    ell: int,
    k_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> KappaResult:
    """Exact kappa_l by scanning whole levels of fault sets in lex order.

    Below the fewer-than-l-vertices clause at k = |V| - l + 1, a k-set cut
    stays one with a vertex added from a component of two or more vertices,
    or else from its l + 1 or more singletons. So the search scans ``top``,
    the last level under the clause and ``k_max`` that fits the budget whole
    with all below it, then ``top - 1, top - 3, top - 7, ...`` while they
    cut, and bisects to the lowest cutting level, the value, whose lex-first
    hit is the witness. ``explored`` counts as an ascending scan would (the
    levels below and the hit's rank + 1); ``evaluated`` the subsets tested.

    On AG_n and S_n^2 a level k >= 1 tests only the k-sets through vertex 0:
    a translate of any cut through 0 is a cut, and those sets come first in
    lex order, so the witness and ``explored`` are those of the full scan.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    V = G.vertex_count
    rule_k = max(V - ell + 1, 0)
    cap = rule_k if k_max is None else min(k_max, rule_k)
    top, explored = -1, 0  # the last level the budget covers whole, and the subsets up to it
    while top < min(cap, rule_k - 1) and explored + math.comb(V, top + 1) <= budget:
        top += 1
        explored += math.comb(V, top)
    lo, hi, step, hit, evaluated = -1, top + 1, 1, None, 0  # levels <= lo are cut-free, hi cuts
    with TaskRunner(jobs, {"graph": G, "ell": ell}) as runner:
        while lo + 1 < hi:  # gallop down from top until a level is cut-free, then bisect
            k = max(top + 1 - step, 0) if lo < 0 else (lo + hi) // 2
            tasks = scan_tasks(V, k, left_translations(G) is not None)
            level_hit = runner.first_hit(_scan_level_worker, tasks)
            if level_hit is None:
                lo = k
                evaluated += tasks[-1][2]  # the pinned or whole level's rank count
            else:  # a pinned hit holds vertex 0, so its lex rank is the same in both scans
                hi, hit, step = k, level_hit, 2 * step
                evaluated += comb_lex_rank(hit, V) + 1
    if hit is not None:
        explored = sum(math.comb(V, j) for j in range(hi)) + comb_lex_rank(hit, V) + 1
        value, tier, fault = hi, Tier.EXHAUSTIVE, hit
    elif top + 1 == rule_k <= cap:
        value, tier, fault = rule_k, Tier.RULE_FEWER_THAN_ELL, tuple(range(rule_k))
    else:  # no value: the budget stopped the search above top, or else k_max did
        return KappaResult(ell, None, Tier.EXHAUSTIVE, None, explored, budget, cap,
                           inconclusive_above=top if top < cap else None, evaluated=evaluated)
    witness = verify_cut(G, fault, ell)
    assert isinstance(witness, CutWitness)
    return KappaResult(ell, value, tier, witness, explored, budget, cap, evaluated=evaluated)


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
    free = ((1 << len(adj)) - 1 & ~blocked) >> start << start
    while free:
        low = free & -free
        free ^= low
        a = low.bit_length() - 1
        for pmask in _connected_parts(adj, a, max_size, blocked | low - 1):
            yield pmask, a


def witness_families(adj, parts: int, B: int, cap: int | None = None):
    """``(union, nbhd)`` of each family of ``parts`` pairwise nonadjacent
    connected parts of size <= B, the first through vertex 0, whose cut
    N(union) = ``nbhd & ~union`` has fewer than ``cap`` vertices, if given.

    Lazy and depth first, parts in increasing least id, so at B = 1 the unions
    are the independent ``parts``-sets through 0 in lex order. Later parts avoid
    ``union | nbhd``, so a partial family's cut only grows: it is dropped once
    the cut reaches ``cap``, and the rest come in their uncapped order. At B = 1
    a vertex v adds deg(v) minus its neighbours in the cut, so once ``need =
    cut + min degree - cap + 1`` is positive, only vertices with ``need`` such
    neighbours come next (read off two planes: one such neighbour, and two).
    The stack is explicit: no depth hits the recursion limit.
    """
    look = cap is not None and B == 1
    min_deg = min(m.bit_count() for m in adj) if look else 0
    # (union, nbhd, the two planes, next parts) for each partial family on the path
    stack = [(0, 0, 0, 0, ((p, 0) for p in _connected_parts(adj, 0, B, 0)))]
    while stack:
        union, nbhd, one, two, nexts = stack[-1]
        step = next(nexts, None)
        if step is None:
            stack.pop()
            continue
        pmask, a = step
        union |= pmask
        grown = nbhd
        for v in ids_of(pmask):
            grown |= adj[v]
        cut = (grown & ~union).bit_count()
        if cap is not None and cut >= cap:
            continue
        if len(stack) == parts:
            yield union, grown
            continue
        blocked = union | grown
        if look:
            for u in ids_of(grown & ~nbhd):  # the vertices new to N(partial)
                two |= one & adj[u]
                one |= adj[u]
            need = cut + min_deg - cap + 1
            if need > 0:
                blocked |= ~(one if need == 1 else two)
        stack.append((union, grown, one, two, _later_parts(adj, B, blocked, a + 1)))


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
    Python 3.11.7). Where no family's cut qualifies, the result is the
    fewer-than-l cut ``range(V - l + 1)``, of tier ``RULE_FEWER_THAN_ELL``.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if B < 1:
        raise ValueError("B must be >= 1")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
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
    fault = best[1] if best else tuple(range(G.vertex_count - ell + 1))  # the fewer-than-l cut
    witness = verify_cut(G, fault, ell)
    assert isinstance(witness, CutWitness)
    tier = Tier.WITNESS_UPPER_BOUND if best else Tier.RULE_FEWER_THAN_ELL
    return KappaResult(ell, len(fault), tier, witness, explored=explored,
                       budget=budget, k_max=len(fault), part_size_bound=B)


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
        raise AssertionError(f"paper cut size {len(fault)} != formula value {expected}")
    witness = verify_cut(G, fault, ell)
    if isinstance(witness, CutRefusal):
        raise AssertionError(f"paper cut left only {witness.component_count} components")
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


# the hyper scan's rule: a cut may only split off one singleton
_SINGLETON_SPLIT = SmallParts(frozenset({Shape.SINGLETON}), frozenset())


def hyper_connectivity_scan(
    G: BitGraph,
    kappa: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> HyperScanReport:
    """Scan every |F| = kappa subset; classify all disconnecting ones.

    ``kappa`` is the known connectivity (callers may pass
    :func:`~kappalab.connectivity.vertex_connectivity`). This is the census
    of the one level kappa under the rule ``SmallParts({singleton}, {})``:
    its exceptional cuts are the cuts that rule refuses, every cut except
    those leaving exactly two components, one a singleton. On AG_n and S_n^2
    the census reads back only the least translate through vertex 0 of each
    cut, counted once per member of its orbit, and expands the exceptional
    cuts to orbits.
    """
    V = G.vertex_count
    if not 0 <= kappa <= V:
        raise ValueError(f"kappa must be between 0 and {V}, got {kappa}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    total = math.comb(V, kappa)
    if total > budget:
        return HyperScanReport(kappa, 0, 0, 0, (), inconclusive=True)
    translations = left_translations(G)
    tasks = scan_tasks(V, kappa, translations is not None)
    exceptional, outcome_counts, _, evaluated = run_census(
        G, _SINGLETON_SPLIT, None, translations, level_faults, tasks, jobs
    )
    disconnecting = sum(c for _, c in outcome_counts)
    return HyperScanReport(kappa, total, disconnecting, disconnecting - len(exceptional),
                           exceptional, evaluated=evaluated)
