"""Command-line front end: generate/export graphs, run the kappa solvers and
lemma verifiers, and reproduce the concluding connectivity table.

Exit codes: 0 success/consistent, 1 I/O failure, 2 usage error,
3 inconclusive (budget exhausted), 4 violation found.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from ._parallel import usable_cpus
from .graphs import (
    FAMILY_AG,
    FAMILY_SPLIT_STAR,
    MAX_N_AG,
    MAX_N_SPLIT_STAR,
    build_family,
    to_dimacs,
    to_json_dict,
)
from .kappa import (
    DEFAULT_BUDGET,
    KAPPA_FORMULAS,
    Tier,
    construct_paper_cut,
    kappa_ell_exhaustive,
    kappa_ell_witness_search,
    kappa_formula,
    kappa_formula_text,
)
from .lemmas import (
    CUT_RULES,
    N_RANGES,
    BudgetExceeded,
    check_scope,
    rule_for,
    verify_basic_ag,
    verify_claims_123,
    verify_cut_structure,
    verify_neighbor_bounds,
    verify_remark_constructions,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_VIOLATION = 4

# static reference data for the h-extra connectivity column: (a, b, min_n) for
# a*n - b from n = min_n on; shown beside the computed kappa_ell, never computed
H_EXTRA_REFERENCE = {
    (FAMILY_AG, 1): (4, 11, 5),
    (FAMILY_AG, 2): (6, 19, 5),
    (FAMILY_AG, 3): (8, 28, 5),
    (FAMILY_SPLIT_STAR, 1): (4, 9, 4),
    (FAMILY_SPLIT_STAR, 2): (6, 16, 4),
    (FAMILY_SPLIT_STAR, 3): (8, 24, 4),
}

# the lemma-specific verify options, in the order an unread one is reported;
# the defaults of those a run may leave out; the two only a sampled run reads
VERIFY_OPTIONS = ("set_size", "bound", "rule", "mode", "trials", "seed")
VERIFY_DEFAULTS = dict(rule=None, mode="exhaustive", trials=1_000_000, seed=0)
SAMPLING = ("trials", "seed")


def _verify_cut_structure(G, bound, rule, mode, jobs, budget, **sampling):
    rule = CUT_RULES[rule] if rule else rule_for(G.family, G.n, bound)
    if not rule.covers(G.family, G.n, bound):
        raise ValueError(f"rule {rule.key} does not cover {G.family} n={G.n} bound={bound}")
    return verify_cut_structure(G, bound, rule.key, mode=mode, jobs=jobs, budget=budget,
                                **sampling)


# lemma id -> (the family it is defined on, None for either; its verifier; the
# options it reads besides SAMPLING, required unless in VERIFY_DEFAULTS;
# whether a run samples, None for never)
LEMMAS = {
    "basic": (FAMILY_AG, verify_basic_ag, (), None),
    "neighbor-bounds": (FAMILY_AG, verify_neighbor_bounds, ("set_size",), None),
    "claims": (FAMILY_AG, verify_claims_123, (), None),
    "cut-structure": (None, _verify_cut_structure, ("bound", "rule", "mode", "jobs", "budget"),
                      lambda args: args.mode == "sampled"),
    "splitstar-bounds": (FAMILY_SPLIT_STAR, verify_neighbor_bounds, ("set_size",), None),
    "remark": (FAMILY_AG, verify_remark_constructions, (), None),
}


def _default_budget() -> int:
    env = os.environ.get("KAPPALAB_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"KAPPALAB_BUDGET must be an integer, got {env!r}") from None


def _resolve_jobs(jobs: int) -> int:
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs or usable_cpus()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_gen(args) -> int:
    G = build_family(args.family, args.n)
    if args.format == "dimacs":
        text = to_dimacs(G)
    else:
        text = _canonical_json({"schema": SCHEMA_VERSION, **to_json_dict(G)})
    _write_output(text, args.output)
    return EXIT_OK


def cmd_kappa(args) -> int:
    if args.witness and args.k_max is not None:
        raise ValueError("--k-max applies to the exhaustive tier only, not to --witness")
    if not args.witness and args.B is not None:
        raise ValueError("--B applies to --witness only, not to the exhaustive tier")
    G = build_family(args.family, args.n)
    if args.witness:
        B = 1 if args.B is None else args.B
        result = kappa_ell_witness_search(G, args.ell, B, budget=args.budget)
    else:
        result = kappa_ell_exhaustive(
            G, args.ell, k_max=args.k_max, budget=args.budget, jobs=args.jobs
        )
    payload = {"schema": SCHEMA_VERSION, "family": args.family, "n": args.n, "jobs": args.jobs,
               **result.to_json_dict(G)}
    _write_output(_canonical_json(payload), args.output)
    return EXIT_INCONCLUSIVE if result.inconclusive else EXIT_OK


def cmd_verify(args) -> int:
    family, verifier, options, sampled = LEMMAS[args.lemma]
    if family not in (None, args.family):
        raise ValueError(f"{args.lemma} applies to --family {family} only, got {args.family}")
    if sampled and sampled(args):
        options += SAMPLING
    for option in VERIFY_OPTIONS:
        if getattr(args, option) is not None and option not in options:
            run = " on an exhaustive run" if sampled and option in SAMPLING else ""
            raise ValueError(f"{args.lemma} does not read --{option.replace('_', '-')}{run}")
    for option in options:
        if getattr(args, option) is None:
            if option not in VERIFY_DEFAULTS:
                raise ValueError(f"{args.lemma} requires --{option.replace('_', '-')}")
            setattr(args, option, VERIFY_DEFAULTS[option])
    # refuse an n the verifier does not take before building the graph; an n
    # no graph is built for keeps the build's own message
    if verifier.__name__ in N_RANGES and 3 <= args.n <= _max_n(args.family):
        check_scope(verifier.__name__, args.family, args.n)
    G = build_family(args.family, args.n)
    report = verifier(G, **{option: getattr(args, option) for option in options})
    payload = {"schema": SCHEMA_VERSION, "jobs": args.jobs, **report.to_json_dict()}
    _write_output(_canonical_json(payload), args.output)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _max_n(family: str) -> int:
    return MAX_N_AG if family == FAMILY_AG else MAX_N_SPLIT_STAR


def _table_rows(families, n_max, ells):
    for family in families:
        top = min(n_max, _max_n(family))
        for ell in ells:
            for n in range(KAPPA_FORMULAS[(family, ell)][2], top + 1):
                yield family, ell, n


def _table_row(G, family, ell, n, budget, jobs):
    formula = kappa_formula(family, ell, n)
    exhaustive_cost = sum(math.comb(G.vertex_count, k) for k in range(formula + 1))
    if exhaustive_cost <= budget:
        result = kappa_ell_exhaustive(G, ell, k_max=formula, budget=budget, jobs=jobs)
        value, tier = result.value, result.tier.value
    else:
        value, tier = len(construct_paper_cut(G, ell).fault), Tier.WITNESS_UPPER_BOUND.value
    h = ell - 2
    a, b, h_min_n = H_EXTRA_REFERENCE[(family, h)]
    return {
        "family": family,
        "ell": ell,
        "n": n,
        "formula": kappa_formula_text(family, ell),
        "formula_value": formula,
        "value": value,
        "tier": tier,
        "match": value == formula,
        "h": h,
        "h_extra_formula": f"{a}n-{b}",
        "h_extra_value": a * n - b if n >= h_min_n else "",
        "h_extra_note": "not computed (static reference)",
    }


TABLE_FIELDS = [
    "family", "ell", "n", "formula", "formula_value", "value", "tier",
    "match", "h", "h_extra_formula", "h_extra_value", "h_extra_note",
]


def cmd_table(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for f in families:
        if f not in (FAMILY_AG, FAMILY_SPLIT_STAR):
            raise ValueError(f"unknown family {f!r}")
    try:  # empty entries are skipped, as in --families
        ells = sorted(int(e) for e in args.ells.split(",") if e.strip())
        if any(e not in (3, 4, 5) for e in ells):
            raise ValueError
    except ValueError:
        raise ValueError("ells must be drawn from {3, 4, 5}") from None
    for name, entries in (("families", families), ("ells", ells)):
        if len(set(entries)) < len(entries):
            raise ValueError(f"--{name} repeats an entry")
    rows = list(_table_rows(families, args.n_max, ells))
    if not rows:
        raise ValueError(f"no table rows for --families {args.families!r} "
                         f"--ells {args.ells!r} --n-max {args.n_max}")
    done = {}  # each graph is built once and gives all of its rows
    for family, n in dict.fromkeys((family, n) for family, _, n in rows):
        G = build_family(family, n)
        for row in rows:
            if (row[0], row[2]) == (family, n):
                done[row] = _table_row(G, *row, args.budget, args.jobs)
        del G  # freed before the next build, so one graph is alive at a time
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TABLE_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(done.__getitem__, rows))
    _write_output(buf.getvalue(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappalab",
        description="Alternating group graphs and split-stars: construction, "
        "component connectivity, and structural verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_family=True, scans=True):
        if with_family:
            p.add_argument("--family", choices=[FAMILY_AG, FAMILY_SPLIT_STAR], required=True)
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if scans:
            p.add_argument("--jobs", type=int, default=1, help="worker count; 0 = auto")
            p.add_argument("--budget", type=int, default=None,
                           help="explored-subset budget")

    p_gen = sub.add_parser("gen", help="build and export a graph")
    add_common(p_gen, scans=False)
    p_gen.add_argument("--format", choices=["dimacs", "json"], default="json")
    p_gen.set_defaults(func=cmd_gen)

    p_kappa = sub.add_parser("kappa", help="compute kappa_ell")
    add_common(p_kappa)
    p_kappa.add_argument("--ell", type=int, required=True)
    tier = p_kappa.add_mutually_exclusive_group()
    tier.add_argument("--exhaustive", action="store_true", default=True)
    tier.add_argument("--witness", action="store_true", default=False)
    p_kappa.add_argument("--B", type=int, help="witness part size bound (default 1); "
                         "the search is exhaustive over families, its cost steep in B")
    p_kappa.add_argument("--k-max", type=int, default=None)
    p_kappa.set_defaults(func=cmd_kappa)

    p_verify = sub.add_parser("verify", help="run a lemma verifier")
    add_common(p_verify)
    p_verify.add_argument("--lemma", required=True, choices=list(LEMMAS))
    p_verify.add_argument("--set-size", type=int)
    p_verify.add_argument("--bound", type=int)
    p_verify.add_argument("--rule", choices=sorted(CUT_RULES))
    p_verify.add_argument("--mode", choices=["exhaustive", "sampled"])
    p_verify.add_argument("--trials", type=int,
                          help="sampled faults; only cut-structure --mode sampled reads it")
    p_verify.add_argument("--seed", type=int,
                          help="sampling seed; only cut-structure --mode sampled reads it")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="reproduce the kappa_ell table as CSV")
    add_common(p_table, with_family=False)
    p_table.add_argument("--families", default="ag,s2")
    p_table.add_argument("--ells", default="3,4,5")
    p_table.add_argument("--n-max", type=int, default=8)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "budget"):  # gen takes neither --budget nor --jobs
            if args.budget is None:
                args.budget = _default_budget()
            if args.budget < 0:
                raise ValueError(f"budget must be >= 0, got {args.budget}")
            args.jobs = _resolve_jobs(args.jobs)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"kappalab: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"kappalab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"kappalab: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
