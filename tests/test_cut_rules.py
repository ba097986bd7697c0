"""The cut-structure rules as data: `SmallParts` on hand-built reports, and
goldens of every rule's verdicts and of the rule each scope selects."""

import hashlib
import random

import pytest

from kappalab import kappa
from kappalab.connectivity import ComponentReport, Shape, components, neighborhood
from kappalab.graphs import FAMILY_AG, FAMILY_SPLIT_STAR, MAX_N_AG, MAX_N_SPLIT_STAR
from kappalab.kappa import SmallParts
from kappalab.lemmas import CUT_RULES, rule_for

S, E, P, C3, C4, O = (Shape.SINGLETON, Shape.EDGE, Shape.TWO_PATH, Shape.THREE_CYCLE,
                      Shape.FOUR_CYCLE, Shape.OTHER)
SIZE = {S: 1, E: 2, P: 3, C3: 3, C4: 4, O: 9}


def report(*shapes):
    """A report whose components have these shapes, in this order, on disjoint
    runs of vertex ids; `SmallParts` reads only the shapes."""
    masks, at = [], 0
    for shape in shapes:
        masks.append(((1 << SIZE[shape]) - 1) << at)
        at += SIZE[shape]
    return ComponentReport(0, tuple(masks), shapes)


class TestSmallParts:
    RULE = SmallParts(frozenset({S, E, P}), frozenset({(S, S), (E, S)}))

    @pytest.mark.parametrize("shapes,allowed", [
        ((O, S), True), ((O, E), True), ((O, P), True), ((O, C3), False), ((O, C4), False),
        ((O, O), False),
        # two components: either one may be the small part
        ((C4, P), True), ((P, C3), True), ((C3, C3), False),
        # more: every part after the largest, in report order
        ((O, S, S), True), ((O, E, S), True), ((O, S, E), False), ((O, E, E), False),
        ((O, S, S, S), False), ((S, S, S), True),
        # no cut
        ((O,), False), ((), False),
    ])
    def test_verdicts(self, shapes, allowed):
        assert self.RULE(None, report(*shapes)) is allowed

    def test_is_a_frozen_picklable_value(self):
        import pickle

        assert pickle.loads(pickle.dumps(self.RULE)) == self.RULE
        with pytest.raises(AttributeError):
            self.RULE.pair = frozenset()

    def test_two_path_and_three_cycle_pass_only_by_either_component(self, s4):
        # a 2-path and a 3-cycle of equal size: the 3-cycle is the smaller by
        # report order, and only the 2-path is in s2-6n-17's pair
        fault = (1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 18, 19, 20, 22, 23)
        rep = components(s4, fault)
        assert rep.shapes == (P, C3)
        assert CUT_RULES["s2-6n-17"].allowed(s4, rep)
        assert not CUT_RULES["ag-6n-20"].allowed(s4, rep)

    def test_hyper_scan_rule_refuses_all_but_singleton_splits(self):
        rule = kappa._SINGLETON_SPLIT
        assert rule(None, report(O, S)) and rule(None, report(S, S))
        for shapes in ((O, E), (O, S, S), (O, O), (O,)):
            assert not rule(None, report(*shapes))


class TestRuleRows:
    def test_keys_read_the_bound(self):
        for key, rule in CUT_RULES.items():
            assert key == rule.key == f"{rule.family}-{rule.a}n-{rule.b}"
            for n in (4, 5, 9):
                bound = rule.a * n - rule.b
                assert rule.covers(rule.family, n, bound) is (n >= rule.min_n)
                assert not rule.covers(rule.family, n, bound + 1)

    def test_the_n_ge_5_rules_are_small_parts_rows(self):
        for key in ("ag-6n-20", "ag-6n-19", "ag-8n-29", "s2-6n-17", "s2-8n-25"):
            assert isinstance(CUT_RULES[key].allowed, SmallParts)
            assert CUT_RULES[key].exceptional is None
        assert CUT_RULES["s2-6n-17"].allowed == CUT_RULES["ag-6n-19"].allowed
        assert CUT_RULES["s2-8n-25"].allowed == CUT_RULES["ag-8n-29"].allowed


# ---------------------------------------------------------------------------
# verdict golden: recorded from the hand-written rules these rows replaced


def _draw(rng, pool, k):
    """k members of ``pool`` by a Fisher-Yates prefix that reads only
    ``rng.random()``, whose stream Python keeps fixed across versions."""
    pool = list(pool)
    for i in range(k):
        j = i + int(rng.random() * (len(pool) - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def random_faults(G, per_size, seed):
    """``per_size`` seeded random faults of every size 0..V."""
    rng, V = random.Random(seed), G.vertex_count
    return [sorted(_draw(rng, range(V), k)) for k in range(V + 1) for _ in range(per_size)]


def neighborhood_faults(G, bounds, per_bound, seed):
    """For each bound, ``per_bound`` faults N(S) plus random vertices outside
    S, of a random size up to the bound. S holds 1-3 vertices, each after the
    first half the time a neighbour of an earlier one, so edges, 2-paths and
    3-cycles are cut off as well as singletons."""
    rng, V = random.Random(seed), G.vertex_count
    faults = []
    for bound in bounds:
        made = 0
        while made < per_bound:
            S = {int(rng.random() * V)}
            for _ in range(int(rng.random() * 3)):
                if rng.random() < 0.5:
                    u = sorted(S)[int(rng.random() * len(S))]
                    S.add(G.neighbors[u][int(rng.random() * len(G.neighbors[u]))])
                else:
                    S.add(int(rng.random() * V))
            N = neighborhood(G, S)
            if len(N) > bound:
                continue
            extra = int(rng.random() * (bound - len(N) + 1))
            faults.append(sorted(N | set(_draw(rng, sorted(set(range(V)) - N - S), extra))))
            made += 1
    return faults


def verdicts(G, faults):
    """Per rule key of G's family, and ``hyper`` for the hyper scan: the number
    of disconnecting reports, how many the rule allows (or the hyper scan
    lists as exceptional), and a digest of every verdict in order."""
    reports = [r for r in (components(G, f) for f in faults) if r.count >= 2]
    out = {}
    for key, rule in CUT_RULES.items():
        if rule.family != G.family:
            continue
        marks = [
            ("a" if rule.allowed(G, r) else "r")
            + ("-" if rule.exceptional is None else "x" if rule.exceptional(r) else ".")
            for r in reports
        ]
        out[key] = (len(reports), sum(m[0] == "a" for m in marks),
                    hashlib.sha256("".join(marks).encode()).hexdigest()[:16])
    marks = ["." if kappa._SINGLETON_SPLIT(G, r) else "x" for r in reports]
    out["hyper"] = (len(reports), marks.count("x"),
                    hashlib.sha256("".join(marks).encode()).hexdigest()[:16])
    return out


CORPORA = {
    "ag4-random": ("ag4", lambda G: random_faults(G, 60, 4)),
    "s4-random": ("s4", lambda G: random_faults(G, 60, 42)),
    "ag5-cuts": ("ag5", lambda G: neighborhood_faults(G, (9, 10, 11), 200, 5)),
    "s5-cuts": ("s5", lambda G: neighborhood_faults(G, (12, 13, 15), 200, 52)),
}

VERDICT_GOLDEN = {
    "ag4-random": {
        "ag-4n-11": (208, 146, "0b898c422bd80f49"),
        "ag-6n-19": (208, 204, "aab94737fcd887f3"),
        "ag-6n-20": (208, 197, "f1df63940bfca265"),
        "ag-8n-29": (208, 208, "bb90a7a683938312"),
        "hyper": (208, 65, "6b4967946bb54228"),
    },
    "ag5-cuts": {
        "ag-4n-11": (600, 471, "8ec82575a1160ba5"),
        "ag-6n-19": (600, 600, "4160a24ed18f34fc"),
        "ag-6n-20": (600, 581, "25516af1026693bf"),
        "ag-8n-29": (600, 600, "4160a24ed18f34fc"),
        "hyper": (600, 241, "073307829d046aeb"),
    },
    "s4-random": {
        "hyper": (552, 340, "86370ef70dd4c2a2"),
        "s2-4n-8": (552, 212, "9ab4efe0d60fd42a"),
        "s2-6n-17": (552, 376, "20a17e78a72eb337"),
        "s2-8n-25": (552, 475, "b55396a659b91e15"),
    },
    "s5-cuts": {
        "hyper": (600, 272, "5808a1ef9e600605"),
        "s2-4n-8": (600, 480, "db5996c4feb2e240"),
        "s2-6n-17": (600, 595, "8743c0850f3230d1"),
        "s2-8n-25": (600, 600, "4160a24ed18f34fc"),
    },
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_verdict_golden(request, corpus):
    graph, make = CORPORA[corpus]
    G = request.getfixturevalue(graph)
    assert verdicts(G, make(G)) == VERDICT_GOLDEN[corpus]


# ---------------------------------------------------------------------------
# scope golden: rule_for over every n and every bound 0..8n, as runs
# (key or None for ValueError, first bound, last bound)

SCOPE_GOLDEN = {
    ("ag", 4): [
        ("ag-4n-11", 0, 5), (None, 6, 32),
    ],
    ("ag", 5): [
        ("ag-4n-11", 0, 9), ("ag-6n-20", 10, 10), ("ag-6n-19", 11, 11), (None, 12, 40),
    ],
    ("ag", 6): [
        ("ag-4n-11", 0, 13), ("ag-6n-20", 14, 16), ("ag-6n-19", 17, 17),
        ("ag-8n-29", 18, 19), (None, 20, 48),
    ],
    ("ag", 7): [
        ("ag-4n-11", 0, 17), ("ag-6n-20", 18, 22), ("ag-6n-19", 23, 23),
        ("ag-8n-29", 24, 27), (None, 28, 56),
    ],
    ("ag", 8): [
        ("ag-4n-11", 0, 21), ("ag-6n-20", 22, 28), ("ag-6n-19", 29, 29),
        ("ag-8n-29", 30, 35), (None, 36, 64),
    ],
    ("s2", 4): [
        ("s2-4n-8", 0, 8), (None, 9, 32),
    ],
    ("s2", 5): [
        ("s2-4n-8", 0, 12), ("s2-6n-17", 13, 13), ("s2-8n-25", 14, 15), (None, 16, 40),
    ],
    ("s2", 6): [
        ("s2-4n-8", 0, 16), ("s2-6n-17", 17, 19), ("s2-8n-25", 20, 23), (None, 24, 48),
    ],
    ("s2", 7): [
        ("s2-4n-8", 0, 20), ("s2-6n-17", 21, 25), ("s2-8n-25", 26, 31), (None, 32, 56),
    ],
}


def scope_runs(family, n):
    runs = []
    for bound in range(8 * n + 1):
        try:
            key = rule_for(family, n, bound).key
        except ValueError as err:
            assert str(err) == (
                f"no cut-structure rule for family={family}, n={n}, bound={bound}")
            key = None
        if runs and runs[-1][0] == key:
            runs[-1][2] = bound
        else:
            runs.append([key, bound, bound])
    return [tuple(run) for run in runs]


@pytest.mark.parametrize("family,n", [
    *((FAMILY_AG, n) for n in range(4, MAX_N_AG + 1)),
    *((FAMILY_SPLIT_STAR, n) for n in range(4, MAX_N_SPLIT_STAR + 1)),
])
def test_scope_golden(family, n):
    assert scope_runs(family, n) == SCOPE_GOLDEN[family, n]
