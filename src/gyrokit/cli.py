"""Command-line surface.

Exit codes: 0 success or property true, 1 usage/parse error, 2 property
false or axiom violation, 3 resource cap exceeded.  Output is byte-stable
for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .core import (
    AxiomError,
    GyroTable,
    InternalConsistencyError,
    MalformedTableError,
    ResourceCapError,
    verify_axioms,
)
from .gyrofile import GyroParseError, format_gyro, load_rows, load_table, save_table
from .substructure import NotPartition, enumerate_subgyrogroups, index
from .normality import NotNormal, is_normal, normal_closure, try_quotient
from .commutator import commutator_subgyrogroup, hunt_commutator_normality, nc_commutator
from .nuclei import left_nucleus, lg_prime, lg_sharp, lmlt, middle_nucleus, radical, right_nucleus
from .search import (
    MODE_EXHAUSTIVE,
    MODE_FIRST_NONASSOCIATIVE,
    SearchConfig,
    are_isomorphic,
    run_search,
)
from .sweep import run_theorem_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_CAP = 3


def _parse_set(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise GyroParseError(f"bad element list {raw!r}") from None


def cmd_verify(args) -> int:
    try:
        rows = load_rows(args.path)
    except (OSError, GyroParseError) as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    report = verify_axioms(rows)
    if report.passed:
        print(f"PASS order={report.order}")
        return EXIT_OK
    print(f"FAIL order={report.order}")
    for v in report.violations:
        print(f"  {v.axiom} witness={list(v.witness)} {v.detail}")
    return EXIT_PROPERTY


def analyze_object(g: GyroTable) -> dict:
    """Structure report; every field is recomputable from the owning module."""
    lattice = enumerate_subgyrogroups(g)
    normals = [list(s.members) for s in lattice if is_normal(g, s)]
    return {
        "order": g.order,
        "group": g.is_group(),
        "gyrocommutative": g.is_gyrocommutative(),
        "right_identity": g.right_identity_holds(),
        "commutator_subgyrogroup": list(commutator_subgyrogroup(g).members),
        "nc_commutator": list(nc_commutator(g).members),
        "left_nucleus": list(left_nucleus(g).members),
        "middle_nucleus": list(middle_nucleus(g).members),
        "right_nucleus": list(right_nucleus(g).members),
        "radical": list(radical(g).members),
        "lmlt_order": lmlt(g).order,
        "lg_sharp_size": len(lg_sharp(g)),
        "lg_prime_size": len(lg_prime(g)),
        "normal_subgyrogroups": normals,
    }


def cmd_analyze(args) -> int:
    g = load_table(args.path)
    obj = analyze_object(g)
    if args.json:
        print(json.dumps(obj, sort_keys=True))
        return EXIT_OK
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key}: {value}")
    return EXIT_OK


def cmd_quotient(args) -> int:
    g = load_table(args.path)
    q = try_quotient(g, _parse_set(args.set))
    print(format_gyro(q.table), end="")
    return EXIT_OK


def cmd_closure(args) -> int:
    g = load_table(args.path)
    closure = normal_closure(g, _parse_set(args.set))
    print(" ".join(str(m) for m in closure.members))
    return EXIT_OK


def cmd_index(args) -> int:
    g = load_table(args.path)
    print(index(g, _parse_set(args.set)))
    return EXIT_OK


def cmd_iso(args) -> int:
    g = load_table(args.path1)
    h = load_table(args.path2)
    ok, witness = are_isomorphic(g, h)
    if ok:
        print(f"isomorphic witness={list(witness.images)}")
        return EXIT_OK
    print("not isomorphic")
    return EXIT_PROPERTY


def cmd_search(args) -> int:
    mode = MODE_FIRST_NONASSOCIATIVE if args.first_nonassociative else MODE_EXHAUSTIVE
    config = SearchConfig(
        order=args.order,
        mode=mode,
        max_results=args.max_results,
        time_budget=args.time_budget,
    )
    result = run_search(config)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, table in enumerate(result.tables):
            save_table(out_dir / f"{args.order}-{i}.gyro", table)
        print(f"wrote {len(result.tables)} tables to {out_dir}")
    else:
        for table in result.tables:
            print(format_gyro(table), end="")
    if not result.complete:
        print("TIME BUDGET EXCEEDED: results are partial")
        return EXIT_CAP
    if mode == MODE_FIRST_NONASSOCIATIVE and not result.tables:
        print("no nonassociative table found")
        return EXIT_PROPERTY
    return EXIT_OK


def _collect_corpus(dir_path: str) -> list[tuple[str, GyroTable]]:
    paths = sorted(Path(dir_path).glob("*.gyro"))
    if not paths:
        raise GyroParseError(f"no .gyro files in {dir_path}")
    return [(p.name, load_table(p)) for p in paths]


def cmd_sweep(args) -> int:
    corpus = _collect_corpus(args.dir)
    report = run_theorem_sweep(corpus)
    print(report.render(), end="")
    return EXIT_OK if report.failures == 0 else EXIT_PROPERTY


def cmd_hunt(args) -> int:
    if not args.corpus and not args.orders:
        print("nothing to hunt over; pass --corpus and/or --orders")
        return EXIT_USAGE
    if args.time_budget is not None and args.time_budget <= 0:
        raise ValueError("time_budget must be positive")
    named = _collect_corpus(args.corpus) if args.corpus else []
    complete = True
    # one deadline for the whole command: each order gets the time left
    deadline = None if args.time_budget is None else time.monotonic() + args.time_budget
    for order in args.orders or []:
        budget = None if deadline is None else deadline - time.monotonic()
        if budget is not None and budget <= 0:
            complete = False
            break
        result = run_search(SearchConfig(order=order, time_budget=budget))
        complete = complete and result.complete
        for i, table in enumerate(result.tables):
            named.append((f"search-{order}-{i}", table))
    counterexamples = 0
    for rec in hunt_commutator_normality(sorted(named, key=lambda nt: nt[0])):
        status = "normal" if rec.commutators_normal else "NOT NORMAL"
        print(
            f"{rec.name} order={rec.order} commutator-subgyrogroup={list(rec.commutator_members)} {status}"
        )
        if not rec.commutators_normal:
            counterexamples += 1
    if counterexamples:
        print(f"counterexamples found: {counterexamples}")
    else:
        print(f"no counterexample among {len(named)} instances")
    if not complete:
        print("TIME BUDGET EXCEEDED: results are partial")
        return EXIT_CAP
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrokit", description="finite gyrogroup toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a .gyro file against the axioms")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="full structure report for a .gyro file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quotient", help="quotient table by a normal subgyrogroup")
    p.add_argument("path")
    p.add_argument("--set", required=True, help="comma-separated members")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("closure", help="normal closure of an element set")
    p.add_argument("path")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("index", help="coset index of a subgyrogroup")
    p.add_argument("path")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("iso", help="test two tables for isomorphism")
    p.add_argument("path1")
    p.add_argument("path2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("search", help="enumerate gyrogroup tables of an order")
    p.add_argument("order", type=int)
    p.add_argument("--first-nonassociative", action="store_true")
    p.add_argument("--max-results", type=int)
    p.add_argument("--time-budget", type=float, help="seconds")
    p.add_argument("--out", help="directory for emitted .gyro files")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep-theorems", help="run the invariant suite over a corpus")
    p.add_argument("dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "hunt", help="search instances for a non-normal commutator subgyrogroup"
    )
    p.add_argument("--corpus", help="directory of .gyro files")
    p.add_argument("--orders", type=int, nargs="*", help="orders to search exhaustively")
    p.add_argument("--time-budget", type=float)
    p.set_defaults(func=cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except AxiomError as exc:
        print(f"axiom violation: {exc}")
        return EXIT_PROPERTY
    except (GyroParseError, MalformedTableError, OSError, ValueError) as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    except NotNormal as exc:
        print(f"not normal: {exc}")
        return EXIT_PROPERTY
    except NotPartition as exc:
        print(f"cosets do not partition: {exc}")
        return EXIT_PROPERTY
    except ResourceCapError as exc:
        print(f"resource cap exceeded ({exc.cap_name}): {exc}")
        return EXIT_CAP
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}")
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
