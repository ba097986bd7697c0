"""Machine verification of the structural facts behind the connectivity
results: external-edge counts, common-neighbor caps, neighborhood lower
bounds over independent sets, the double-rotation neighbor algebra around
the identity, and the allowed component structures under small vertex cuts.

Every verifier takes the built graph first and reads its family and n from
it, raising ``ValueError`` on a graph of another family or an n outside its
range. Each returns a :class:`VerificationReport`; exhaustive runs check
every instance. Only the cut-structure census also samples: it draws seeded
uniform fault sets (Fisher-Yates prefix, drawing from the stream exactly as
``random.Random.randrange`` does) and reports them as "consistent (sampled)",
never as proved.

The cut-structure rules live here, keyed by family and bound (``ag-6n-20``:
faults of up to 6n-20 vertices); the n >= 5 rules are rows of
:class:`kappalab.kappa.SmallParts`. Their censuses, exhaustive and sampled,
run on the census reducer :func:`kappalab.kappa.run_census`, which the hyper
scan shares. This module only hands it the sampled faults: :func:`_draw_lanes`,
the one sampler, sets each drawn vertex's lane bit as it is drawn, never
listing a draw's ids (:func:`sample_subset` reads one draw back as ids). The
neighborhood bounds are exact at every n they take: they read the independent
sets through vertex 0 from :func:`kappalab.kappa.witness_families`, capped at
the bound plus one, so only the sets at or under the bound are listed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from ._parallel import worker_state
from .connectivity import (
    ComponentReport,
    Shape,
    common_neighbors,
    components,
    ids_of,
    is_independent,
    mask_of,
    neighborhood,
)
from .graphs import (
    FAMILY_AG,
    FAMILY_SPLIT_STAR,
    CayleyGraph,
    external_edge_count,
    left_translations,
    out_neighbors,
)
from .kappa import (
    DEFAULT_BUDGET,
    SCAN_BATCH,
    BudgetExceeded,
    SmallParts,
    kappa_formula,
    level_faults,
    remark_independent_set,
    run_census,
    scan_tasks,
    witness_families,
)
from .perms import Perm, rot_minus, rot_plus

SAMPLE_CHUNKS = 64  # fixed partition of sampled trials; independent of jobs

__all__ = [
    "BudgetExceeded",
    "VerificationReport",
    "CutStructureRule",
    "CUT_RULES",
    "rule_for",
    "N_RANGES",
    "check_scope",
    "verify_basic_ag",
    "verify_neighbor_bounds",
    "verify_claims_123",
    "verify_cut_structure",
    "verify_remark_constructions",
    "sample_subset",
]


@dataclass(frozen=True)
class VerificationReport:
    lemma_id: str
    family: str
    n: int
    mode: str  # "exhaustive" | "sampled"
    instances_checked: int
    violations: tuple[dict, ...]
    trials: int | None = None
    seed: int | None = None
    min_attained: int | None = None
    notes: tuple[str, ...] = ()
    # cut-structure censuses: tally of component signatures over all
    # disconnecting faults, plus the faults hitting an exceptional clause
    outcome_counts: tuple[tuple[str, int], ...] = ()
    exceptional_faults: tuple[tuple[int, ...], ...] = ()
    evaluated: int | None = None  # subsets a census tested; not in JSON

    @property
    def verdict(self) -> str:
        if self.violations:
            return "violated"
        if self.mode == "exhaustive":
            return "consistent"
        return f"consistent ({self.mode})"

    def to_json_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "family": self.family,
            "n": self.n,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "instances_checked": self.instances_checked,
            "min_attained": self.min_attained,
            "violations": list(self.violations),
            "verdict": self.verdict,
            "notes": list(self.notes),
            "outcome_counts": [[sig, c] for sig, c in self.outcome_counts],
            "exceptional_faults": [list(f) for f in self.exceptional_faults],
        }


PIN_NOTE = "independent sets pinned to contain the identity (vertex-transitivity)"


# the n range of each verifier on each family it takes; the CLI reads it too,
# to refuse an n before it builds the graph
N_RANGES = {
    "verify_basic_ag": {FAMILY_AG: range(4, 7)},
    "verify_neighbor_bounds": {FAMILY_AG: range(4, 7), FAMILY_SPLIT_STAR: range(4, 6)},
    "verify_claims_123": {FAMILY_AG: range(4, 7)},
    "verify_remark_constructions": {FAMILY_AG: range(4, 9)},
}


def check_scope(verifier: str, family: str, n: int) -> None:
    """Raise ``ValueError`` unless ``verifier`` takes the graph of this family and n."""
    families = N_RANGES[verifier]
    if family not in families:
        raise ValueError(f"{verifier} applies to {' or '.join(families)} graphs, got {family}")
    ns = families[family]
    if n not in ns:
        raise ValueError(f"{verifier} supports {ns[0]} <= n <= {ns[-1]}, got {n}")


# ---------------------------------------------------------------------------
# basic structure of AG_n


def verify_basic_ag(G: CayleyGraph) -> VerificationReport:
    """External-edge counts, out-neighbor spread, and the 2-common-neighbor cap.

    Checks, exhaustively: (1) every pair of last-symbol parts is joined by
    exactly (n-2)! external edges; (2) the two out-neighbors of every vertex
    lie in distinct parts; (3) nonadjacent vertices share at most two
    neighbors.
    """
    check_scope("verify_basic_ag", G.family, G.n)
    n = G.n
    violations: list[dict] = []
    checked = 0
    expected = math.factorial(n - 2)

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checked += 1
            got = external_edge_count(G, i, j)
            if got != expected:
                violations.append(
                    {"check": "external-edge-count", "parts": [i, j], "got": got,
                     "expected": expected}
                )

    for v in range(G.vertex_count):
        checked += 1
        outs = out_neighbors(G, v)
        if len(outs) != 2 or G.last_symbol(outs[0]) == G.last_symbol(outs[1]):
            violations.append(
                {"check": "out-neighbors", "vertex": v,
                 "out_parts": sorted(G.last_symbol(u) for u in outs)}
            )

    for u in range(G.vertex_count):
        mu = G.adj_masks[u]
        for v in range(u + 1, G.vertex_count):
            if mu >> v & 1:
                continue
            checked += 1
            shared = (mu & G.adj_masks[v]).bit_count()
            if shared > 2:
                violations.append(
                    {"check": "common-neighbor-cap", "pair": [u, v], "got": shared}
                )

    return VerificationReport(
        "basic", FAMILY_AG, n, "exhaustive", checked, tuple(violations)
    )


# ---------------------------------------------------------------------------
# neighborhood lower bounds over independent sets


# per family: the independent-set sizes and the lemma id prefix of the
# neighborhood bounds
NEIGHBOR_BOUNDS = {
    FAMILY_AG: ((3, 4), "neighbor-bounds"),
    FAMILY_SPLIT_STAR: ((2, 3, 4), "splitstar-bounds"),
}


def verify_neighbor_bounds(G: CayleyGraph, set_size: int) -> VerificationReport:
    """|N(S)| >= kappa_{s+1}, the paper's formula, over independent s-sets S.

    On AG_n (4 <= n <= 6) the bounds are 6n-16 and 8n-24 for sizes 3 and 4;
    on S_n^2 (n in {4, 5}) they are 4n-8, 6n-14 and 8n-20 for sizes 2, 3 and
    4. Exact at every n: the sets through vertex 0 come from
    :func:`~kappalab.kappa.witness_families` capped at the bound plus one, so
    ``instances_checked`` counts the sets with |N(S)| at or under the bound
    (the sets the cap lets through) and ``min_attained`` is the exact minimum
    whenever one of them exists. Where none does, every set exceeds the bound:
    ``min_attained`` is None and a note says so.
    """
    check_scope("verify_neighbor_bounds", G.family, G.n)
    sizes, lemma = NEIGHBOR_BOUNDS[G.family]
    if set_size not in sizes:
        raise ValueError(f"set_size on {G.family} must be one of {sizes}, got {set_size}")
    bound = kappa_formula(G.family, set_size + 1, G.n)
    violations: list[dict] = []
    checked = 0
    attained: int | None = None
    for union, nbhd in witness_families(G.adj_masks, set_size, 1, cap=bound + 1):
        checked += 1
        got = (nbhd & ~union).bit_count()
        if attained is None or got < attained:
            attained = got
        if got < bound:
            violations.append(
                {"set": [G.label_text(v) for v in ids_of(union)], "neighborhood": got,
                 "bound": bound}
            )
    notes = (PIN_NOTE,)
    if attained is None:
        notes += (f"every independent {set_size}-set has |N(S)| > {bound}: none attains the bound",)
    return VerificationReport(
        f"{lemma}-{set_size}", G.family, G.n, "exhaustive", checked, tuple(violations),
        min_attained=attained, notes=notes,
    )


# ---------------------------------------------------------------------------
# the double-rotation neighbor algebra around the identity


def verify_claims_123(G: CayleyGraph) -> VerificationReport:
    """Verify the second-neighborhood algebra of the identity in AG_n.

    Materializes N+, N-, N++, N+-, N-+, N-- by generator application and
    checks: N++ = N--; every x in N++ shares exactly {e gi+, e gj-} with e;
    pairwise common-neighbor caps within and across the second-neighborhood
    classes; independence of N+- and of N-+; and that each vertex of N+- has
    at most one neighbor in N-+ (and vice versa).
    """
    check_scope("verify_claims_123", G.family, G.n)
    n = G.n
    e = Perm.identity(n)
    idx = G.vertex_id
    violations: list[dict] = []
    checked = 0

    n_plus = {i: idx(rot_plus(e, i)) for i in range(3, n + 1)}
    n_minus = {i: idx(rot_minus(e, i)) for i in range(3, n + 1)}
    ne_set = set(n_plus.values()) | set(n_minus.values())

    pairs = [(i, j) for i in range(3, n + 1) for j in range(3, n + 1) if i != j]
    npp = {(i, j): idx(rot_plus(rot_plus(e, i), j)) for i, j in pairs}
    npm = {(i, j): idx(rot_minus(rot_plus(e, i), j)) for i, j in pairs}
    nmp = {(i, j): idx(rot_plus(rot_minus(e, i), j)) for i, j in pairs}
    nmm = {(i, j): idx(rot_minus(rot_minus(e, i), j)) for i, j in pairs}

    checked += 1
    if set(npp.values()) != set(nmm.values()):
        violations.append({"check": "npp-equals-nmm"})

    for (i, j), x in npp.items():
        checked += 1
        expected = {n_plus[i], n_minus[j]}
        got = set(common_neighbors(G, 0, x))
        if got != expected:
            violations.append(
                {"check": "npp-shares-two-with-e", "i": i, "j": j,
                 "got": sorted(got), "expected": sorted(expected)}
            )

    def cap_check(name, vertex_set, cap, z_must_be_near_e=False):
        nonlocal checked
        vs = sorted(set(vertex_set))
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                x, y = vs[a], vs[b]
                checked += 1
                commons = common_neighbors(G, x, y)
                if len(commons) > cap:
                    violations.append(
                        {"check": name, "pair": [G.label_text(x), G.label_text(y)],
                         "got": len(commons)}
                    )
                elif z_must_be_near_e and any(z not in ne_set for z in commons):
                    violations.append(
                        {"check": name + "-z-location",
                         "pair": [G.label_text(x), G.label_text(y)]}
                    )

    cap_check("claim1-npp-pairs", npp.values(), 1, z_must_be_near_e=True)
    cap_check("claim2-npm-pairs", npm.values(), 1)
    cap_check("claim2-nmp-pairs", nmp.values(), 1)

    npp_set = set(npp.values())
    for x in sorted(set(npm.values()) | set(nmp.values())):
        for y in sorted(npp_set):
            if x == y:
                continue
            checked += 1
            if G.has_edge(x, y):
                continue
            if len(common_neighbors(G, x, y)) > 1:
                violations.append(
                    {"check": "claim3-cross-cap",
                     "pair": [G.label_text(x), G.label_text(y)]}
                )

    for name, vertex_set in (("npm-independent", npm), ("nmp-independent", nmp)):
        checked += 1
        if not is_independent(G, set(vertex_set.values())):
            violations.append({"check": name})

    for name, src, dst in (("npm-to-nmp-degree", npm, nmp), ("nmp-to-npm-degree", nmp, npm)):
        dst_mask = mask_of(dst.values())
        for x in sorted(set(src.values())):
            checked += 1
            if (G.adj_masks[x] & dst_mask).bit_count() > 1:
                violations.append({"check": name, "vertex": G.label_text(x)})

    return VerificationReport(
        "claims", FAMILY_AG, n, "exhaustive", checked, tuple(violations)
    )


# ---------------------------------------------------------------------------
# component structure under small vertex cuts


@dataclass(frozen=True)
class CutStructureRule:
    """Allowed component structures for faults of up to a*n - b vertices, n >= min_n."""

    family: str
    a: int
    b: int
    min_n: int
    allowed: Callable[[CayleyGraph, ComponentReport], bool]
    # marks the allowed outcomes listed one by one, those of the n=4 clauses:
    # a 4-cycle, and on S_4^2 also a 2-path or the split into two 8-vertex halves
    exceptional: Callable[[ComponentReport], bool] | None = None

    @property
    def key(self) -> str:
        return f"{self.family}-{self.a}n-{self.b}"

    def covers(self, family: str, n: int, bound: int) -> bool:
        """True iff the rule speaks for faults of up to ``bound`` vertices of G_n."""
        return self.family == family and n >= self.min_n and self.a * n - self.b >= bound


_S, _E, _P, _C3 = Shape.SINGLETON, Shape.EDGE, Shape.TWO_PATH, Shape.THREE_CYCLE


def _rule_ag_4n11(G, report) -> bool:
    n = G.n
    if report.count != 2:
        return False
    fsize = report.fault_mask.bit_count()
    if Shape.SINGLETON in report.shapes:
        return True
    if Shape.EDGE in report.shapes and fsize == 4 * n - 11:
        return True
    if n == 4:
        if report.shapes == (Shape.FOUR_CYCLE, Shape.FOUR_CYCLE) and fsize == 4:
            return True
        if set(report.shapes) == {Shape.FOUR_CYCLE, Shape.TWO_PATH} and fsize == 5:
            return True
    return False


def _rule_s2_4n8(G, report) -> bool:
    n, fsize = G.n, report.fault_mask.bit_count()
    if report.count == 2:
        if Shape.SINGLETON in report.shapes:
            return True
        if Shape.EDGE in report.shapes:
            u, v = report.components[report.shapes.index(Shape.EDGE)]
            a = G.labels[u]
            if G.labels[v] == (a[1], a[0]) + a[2:]:  # the 2-exchange edge
                return fsize == 4 * n - 8
            # surviving 3-rotation edge: one shared neighbor, at most one
            # fault vertex beyond N({u, v})
            return (
                len(common_neighbors(G, u, v)) == 1
                and fsize <= len(neighborhood(G, (u, v))) + 1
            )
        # n=4 exceptional clauses, all at |F| = 4n-8 exactly: a 2-path or
        # 4-cycle split off, or the balanced split into two 8-vertex halves
        if n == 4 and fsize == 8:
            if Shape.TWO_PATH in report.shapes or Shape.FOUR_CYCLE in report.shapes:
                return True
            if report.sizes() == (8, 8):
                return True
        return False
    if report.count == 3:
        if report.shapes[1:] != (_S, _S):
            return False
        u = report.components[1][0]
        v = report.components[2][0]
        expected = set(G.neighbors[u]) | set(G.neighbors[v])
        return (
            set(report.fault) == expected
            and len(common_neighbors(G, u, v)) == 2
            and fsize == 4 * n - 8
        )
    return False


def _has_four_cycle(report: ComponentReport) -> bool:
    return Shape.FOUR_CYCLE in report.shapes


def _s2_exceptional(report: ComponentReport) -> bool:
    if Shape.FOUR_CYCLE in report.shapes or Shape.TWO_PATH in report.shapes:
        return True
    return report.count == 2 and report.sizes() == (8, 8)


# the n >= 5 rules as data: the shapes a two-way cut may split off, and the
# parts a wider cut may leave beside the largest component (shared by S_n^2)
_SMALL_6N20 = SmallParts(frozenset({_S, _E}), frozenset({(_S, _S)}))
_SMALL_6N19 = SmallParts(frozenset({_S, _E, _P}), frozenset({(_S, _S)}))
_SMALL_8N29 = SmallParts(frozenset({_S, _E, _P, _C3}),
                         frozenset({(_S, _S), (_E, _S), (_S, _S, _S)}))

CUT_RULES: dict[str, CutStructureRule] = {
    rule.key: rule
    for rule in (
        CutStructureRule(FAMILY_AG, 4, 11, 4, _rule_ag_4n11, _has_four_cycle),
        CutStructureRule(FAMILY_AG, 6, 20, 5, _SMALL_6N20),
        CutStructureRule(FAMILY_AG, 6, 19, 5, _SMALL_6N19),
        CutStructureRule(FAMILY_AG, 8, 29, 5, _SMALL_8N29),
        CutStructureRule(FAMILY_SPLIT_STAR, 4, 8, 4, _rule_s2_4n8, _s2_exceptional),
        CutStructureRule(FAMILY_SPLIT_STAR, 6, 17, 5, _SMALL_6N19),
        CutStructureRule(FAMILY_SPLIT_STAR, 8, 25, 5, _SMALL_8N29),
    )
}


def rule_for(family: str, n: int, bound: int) -> CutStructureRule:
    """The strictest registered rule covering faults of the given bound."""
    for rule in CUT_RULES.values():
        if rule.covers(family, n, bound):
            return rule
    raise ValueError(f"no cut-structure rule for family={family}, n={n}, bound={bound}")


def _draw_lanes(rng: random.Random, V: int, k: int, trials: int):
    """``trials`` uniform k-subsets of range(V) by Fisher-Yates prefix, as lane
    batches of ``SCAN_BATCH`` draws: vertex v is dead in lane j iff draw j holds v.

    Step i draws as ``rng.randrange(i, V)`` does: ``getrandbits`` of the bit
    length of V - i until below V - i. Each vertex sets its lane bit as it is
    drawn; step i writes only position r, as no later step reads position i."""
    getrandbits = rng.getrandbits
    steps = [(i, V - i, (V - i).bit_length()) for i in range(k)]
    ids = list(range(V))
    for start in range(0, trials, SCAN_BATCH):
        dead = [0] * V
        lanes = (1 << min(SCAN_BATCH, trials - start)) - 1
        bit = 1
        while bit <= lanes:
            pool = ids[:]
            for i, n, b in steps:
                r = getrandbits(b)
                while r >= n:
                    r = getrandbits(b)
                r += i
                v = pool[r]
                pool[r] = pool[i]
                dead[v] |= bit
            bit <<= 1
        yield [lanes ^ d for d in dead]


def sample_subset(rng: random.Random, V: int, k: int) -> list[int]:
    """Uniform k-subset of range(V) by Fisher-Yates prefix, sorted: one draw of
    :func:`_draw_lanes`, read back as the ids of its dead lanes."""
    if not 0 <= k <= V:
        raise ValueError(f"subset size must be between 0 and {V}, got {k}")
    return [v for v, alive in enumerate(next(_draw_lanes(rng, V, k, 1))) if not alive]


def _chunk_seed(seed: int, chunk: int) -> int:
    return (seed * 0x9E3779B1 + chunk) & 0x7FFFFFFFFFFFFFFF


def _sampled_faults(task):
    """The lane batches and fault count of the sampled task
    ``(size, seed, chunk, trials)``, read by :func:`~kappalab.kappa.run_census`."""
    size, seed, chunk, trials = task
    V = worker_state()["graph"].vertex_count
    return _draw_lanes(random.Random(_chunk_seed(seed, chunk)), V, size, trials), trials


def _violation_payload(G, report: ComponentReport) -> dict:
    return {
        "fault": list(report.fault),
        "fault_labels": [G.label_text(v) for v in report.fault],
        "count": report.count,
        "sizes": list(report.sizes()),
        "shapes": [s.value for s in report.shapes],
    }


def verify_cut_structure(
    G: CayleyGraph,
    size_bound: int,
    rule: str,
    mode: str = "exhaustive",
    trials: int = 1_000_000,
    seed: int = 0,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Census of component structures for all (or sampled) faults of bounded size.

    ``rule`` is a :data:`CUT_RULES` key, which the report carries as its
    ``lemma_id``; anything else, or a rule of the other family, raises
    ``ValueError``. Its n and bound scope is not checked, so a census may run
    a rule past its bound to find where it fails. Exhaustive mode
    enumerates every fault of size 0..size_bound; sampled mode draws
    ``trials`` faults of size exactly ``size_bound``. Every fault whose
    removal disconnects the graph must satisfy the rule; all others are
    skipped.

    An exhaustive census on a graph from ``build_ag`` or ``build_splitstar``
    reads back one fault per orbit, the least translate through vertex 0, and
    drops the others on the lanes (every outcome is the same on all
    translates); it tallies that fault by its orbit size, and expands fault
    lists to orbits, sorted by (size, ids) as the full scan lists them.
    ``instances_checked`` still counts every fault covered. Edited or
    hand-made graphs and sampled runs examine every fault they cover.
    """
    if not isinstance(rule, str) or rule not in CUT_RULES:
        raise ValueError(f"unknown cut-structure rule {rule!r}")
    cut_rule = CUT_RULES[rule]
    if cut_rule.family != G.family:
        raise ValueError(f"rule {rule} applies to {cut_rule.family} graphs, got {G.family}")
    V = G.vertex_count
    if not 0 <= size_bound <= V:
        raise ValueError(f"fault size bound must be between 0 and {V}, got {size_bound}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if mode == "exhaustive":
        checked = sum(math.comb(V, k) for k in range(size_bound + 1))
        if checked > budget:
            raise BudgetExceeded(
                f"exhaustive census of {checked} subsets exceeds budget {budget}"
            )
        translations = left_translations(G)
        pinned = translations is not None
        tasks = [t for k in range(size_bound + 1) for t in scan_tasks(V, k, pinned)]
        faults, report_trials = level_faults, None
    elif mode == "sampled":
        base, rem = divmod(trials, SAMPLE_CHUNKS)
        per_chunk = [base + (chunk < rem) for chunk in range(SAMPLE_CHUNKS)]
        tasks = [(size_bound, seed, chunk, t) for chunk, t in enumerate(per_chunk) if t]
        checked, faults, report_trials, translations = trials, _sampled_faults, trials, None
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    violations, outcome_counts, exc, evaluated = run_census(
        G, cut_rule.allowed, cut_rule.exceptional, translations, faults, tasks, jobs
    )
    return VerificationReport(
        rule, G.family, G.n, mode, checked,
        tuple(_violation_payload(G, components(G, f)) for f in violations),
        trials=report_trials, seed=None if report_trials is None else seed,
        outcome_counts=outcome_counts, exceptional_faults=exc, evaluated=evaluated,
    )


# ---------------------------------------------------------------------------
# the explicit tight constructions


def verify_remark_constructions(G: CayleyGraph) -> VerificationReport:
    """Independence and exact neighborhood sizes of the double-rotation sets.

    For every valid index pair: the 3-set {e, (e gi+)gj+, (e gj+)gi+} has
    |N(S)| = kappa_4 = 6n-16 and the 4-set with ((e gj+)gi-)gj+ added has
    kappa_5 = 8n-24.
    """
    check_scope("verify_remark_constructions", G.family, G.n)
    n = G.n
    violations: list[dict] = []
    checked = 0
    minima = {3: None, 4: None}

    def consider(size, i, j):
        nonlocal checked
        checked += 1
        S = remark_independent_set(G, size, i, j)
        got = len(neighborhood(G, S))
        expected = kappa_formula(FAMILY_AG, size + 1, n)
        if minima[size] is None or got < minima[size]:
            minima[size] = got
        if not is_independent(G, S):
            violations.append({"check": "independence", "size": size, "i": i, "j": j})
        if got != expected:
            violations.append(
                {"check": "neighborhood-size", "size": size, "i": i, "j": j,
                 "got": got, "expected": expected}
            )

    for i in range(3, n + 1):
        for j in range(3, n + 1):
            if i == j:
                continue
            if i < j:
                consider(3, i, j)
            consider(4, i, j)

    return VerificationReport(
        "remark", FAMILY_AG, n, "exhaustive", checked, tuple(violations),
        min_attained=minima[3],
        notes=(f"three-set minimum {minima[3]}, four-set minimum {minima[4]}",),
    )
