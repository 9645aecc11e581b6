"""The four benchmark workloads: seeded inputs, one timed pass, answer checks.

Every workload hands gyrokit only ``.gyro`` text (``census`` hands it only an
order).  Each input table is relabelled by a seeded random permutation that
fixes 0; the inverse relabelling stays here and maps each answer back to the
original labels, where it is compared with ``reference.json``.  One
*operation* is one table or one order processed; an operation fails when its
answer differs from the reference or when its call raises.

Each workload has three steps:

* ``make_inputs(gk, seed)`` -- set-up, not part of ``wall_s``: a list of
  input sets, one per pass, used in turn;
* ``run_pass(gk, inputs)`` -- the timed pass over one input set;
* ``answers(inputs, results)`` -- results mapped back to original labels,
  one entry per operation, in the form ``reference.json`` records.

``gk`` is a namespace of imported gyrokit modules.  Passes look functions up
through it at call time, so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

MEMBER_LIST = re.compile(r"\[[\d, ]*\]")
# How much a pass costs depends on the labels (a check stops at the first
# failing element it meets), by up to 20% for one verify-64 mutant, so a
# seed yields several relabelled input sets and passes take them in turn.
VARIANTS = 8


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def random_relabelling(rng: random.Random, n: int) -> list[int]:
    """A random permutation of 0..n-1 that fixes 0 (original -> new)."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel_rows(rows, sigma) -> list[list[int]]:
    n = len(rows)
    new = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new[sigma[x]][sigma[y]] = sigma[rows[x][y]]
    return new


def inverse(sigma) -> list[int]:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return inv


def map_members(members, inv) -> list[int]:
    return sorted(inv[m] for m in members)


def first_nonassociative_8(gk):
    """``na8``: the first nonassociative order-8 table the search finds."""
    config = gk.search.SearchConfig(order=8, mode=gk.search.MODE_FIRST_NONASSOCIATIVE)
    return gk.search.run_search(config).tables[0]


class _Relabelled:
    """A workload over named tables, each relabelled by its own seeded
    permutation.  ``originals`` lists every table the reference covers;
    ``select`` picks the ones a seed runs (all of them by default)."""

    name = ""

    def originals(self, gk) -> list[tuple[str, list]]:
        raise NotImplementedError

    def select(self, names: list[str], rng: random.Random) -> list[str]:
        return names

    def make_inputs(self, gk, seed: int | None):
        """``VARIANTS`` input sets of (name, .gyro text, inverse relabelling).
        Seed ``None`` gives one set in the original labels with every table,
        for recording."""
        originals = dict(self.originals(gk))
        if seed is None:
            return [[(name, gk.gyrofile.format_gyro(rows), list(range(len(rows))))
                     for name, rows in originals.items()]]
        rng = random.Random(f"{self.name}/{seed}")
        variants = []
        for _ in range(VARIANTS):
            inputs = []
            for name in self.select(list(originals), rng):
                rows = originals[name]
                sigma = random_relabelling(rng, len(rows))
                inputs.append((name, gk.gyrofile.format_gyro(relabel_rows(rows, sigma)), inverse(sigma)))
            variants.append(inputs)
        return variants


class SweepCorpus(_Relabelled):
    """``run_theorem_sweep`` over the acceptance corpus: the 14 groups of
    order <= 8 plus ``na8``."""

    name = "sweep-corpus"

    def originals(self, gk):
        corpus = dict(gk.catalog.all_groups())
        corpus["na8"] = first_nonassociative_8(gk)
        return [(name, corpus[name].table) for name in sorted(corpus)]

    def run_pass(self, gk, inputs):
        named = [(name, gk.core.GyroTable(gk.gyrofile.parse_gyro(text))) for name, text, _ in inputs]
        return gk.sweep.run_theorem_sweep(named)

    @staticmethod
    def normalise_detail(detail: str, inv) -> str:
        """Map every member list in a finding back to original labels.

        Lists are sorted after mapping, a list of lists is sorted as a set,
        and ``; ``-separated entries are sorted, because their order follows
        the labels."""
        def one(match):
            body = match.group()[1:-1]
            return str(map_members([int(t) for t in body.split(",") if t.strip()], inv))

        entries = []
        for entry in detail.split("; "):
            entry = MEMBER_LIST.sub(one, entry)
            key, sep, value = entry.partition("=")
            if value.startswith("[["):
                entry = key + sep + str(sorted(json.loads(value)))
            entries.append(entry)
        return "; ".join(sorted(entries))

    def answers(self, inputs, report) -> dict:
        """Per table, the digest of its normalised lines; plus the summary."""
        invs = {name: inv for name, _, inv in inputs}
        lines: dict[str, list[str]] = {name: [] for name in invs}
        for line in report.lines:
            parts = line.split(" :: ")
            if len(parts) > 3:
                parts[3] = self.normalise_detail(parts[3], invs[parts[0]])
            lines[parts[0]].append(" :: ".join(parts))
        out = {name: digest(ls) for name, ls in lines.items()}
        out["summary"] = (
            f"checks={report.passes + report.failures} pass={report.passes} "
            f"fail={report.failures} findings={report.findings}"
        )
        return out


class Census:
    """Exhaustive ``run_search`` for orders 1 to 8.

    The workload has no input table, so it ignores the seed."""

    name = "census"

    def make_inputs(self, gk, seed: int | None):
        return [list(range(1, 9))]

    def run_pass(self, gk, inputs):
        return [gk.search.run_search(gk.search.SearchConfig(order=k)) for k in inputs]

    def answers(self, inputs, results) -> dict:
        return {
            str(k): {
                "complete": r.complete,
                "classes": len(r.tables),
                "tables": digest([t.table for t in r.tables]),
            }
            for k, r in zip(inputs, results)
        }


class AnalyzeProducts(_Relabelled):
    """``cli.analyze_object`` (``gyrokit analyze --json``) on na8xZ2 and na8xV4."""

    name = "analyze-products"

    def originals(self, gk):
        na8 = first_nonassociative_8(gk)
        return [
            ("na8xZ2", gk.core.direct_product(na8, gk.catalog.cyclic(2)).table),
            ("na8xV4", gk.core.direct_product(na8, gk.catalog.klein_four()).table),
        ]

    def run_pass(self, gk, inputs):
        out = []
        for _, text, _ in inputs:
            g = gk.core.GyroTable(gk.gyrofile.parse_gyro(text))
            out.append(json.dumps(gk.cli.analyze_object(g), sort_keys=True))
        return out

    @staticmethod
    def normalise(obj: dict, inv) -> dict:
        """Member lists mapped back and sorted; lists of lists compared as sets."""
        out = {}
        for key, value in obj.items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                value = sorted(map_members(v, inv) for v in value)
            elif isinstance(value, list):
                value = map_members(value, inv)
            out[key] = value
        return out

    def answers(self, inputs, texts) -> dict:
        return {name: self.normalise(json.loads(t), inv) for (name, _, inv), t in zip(inputs, texts)}


class Verify64(_Relabelled):
    """``parse_gyro`` + ``verify_axioms`` (``gyrokit verify``) on na8xZ8 and
    three mutants of it.

    A mutant swaps two nonzero entries of one row, outside row and column 0,
    so rows stay permutations, every column keeps its 0 and the full G3/G4
    scans run.  Each input set draws its three mutants from a fixed pool of
    eight with the seed's generator."""

    name = "verify-64"
    pool_size = 8
    mutants_per_pass = 3

    def originals(self, gk):
        rows = gk.core.direct_product(first_nonassociative_8(gk), gk.catalog.cyclic(8)).table
        n = len(rows)
        rng = random.Random(f"{self.name}/mutant-pool")
        pool: list[tuple[int, int, int]] = []
        while len(pool) < self.pool_size:
            a = rng.randrange(1, n)
            b1, b2 = sorted(rng.sample(range(1, n), 2))
            if rows[a][b1] and rows[a][b2] and (a, b1, b2) not in pool:
                pool.append((a, b1, b2))
        tables = [("base", rows)]
        for a, b1, b2 in pool:
            mutant = [list(r) for r in rows]
            mutant[a][b1], mutant[a][b2] = mutant[a][b2], mutant[a][b1]
            tables.append((f"mutant-{a}-{b1}-{b2}", mutant))
        return tables

    def select(self, names, rng):
        return names[:1] + rng.sample(names[1:], self.mutants_per_pass)

    def run_pass(self, gk, inputs):
        return [gk.core.verify_axioms(gk.gyrofile.parse_gyro(text)) for _, text, _ in inputs]

    @staticmethod
    def answer(report, inv) -> dict:
        """Verdict, violation count and a digest of the violations.

        A G3/G4 violation is kept as (axiom, detail, pair): which pairs fail
        does not depend on the labels, the first failing x, y or c does."""
        keys = sorted(
            (v.axiom, v.detail, [inv[w] for w in v.witness[: 2 if v.axiom in ("G3", "G4") else 1]])
            for v in report.violations
        )
        return {"passed": report.passed, "violations": len(keys), "digest": digest(keys)}

    def answers(self, inputs, reports) -> dict:
        return {name: self.answer(r, inv) for (name, _, inv), r in zip(inputs, reports)}


WORKLOADS = {w.name: w for w in (SweepCorpus(), Census(), AnalyzeProducts(), Verify64())}


def count_failures(workload, inputs, results, reference) -> tuple[int, int]:
    """(attempted, failed) for one pass; the sweep summary counts as part of
    every table's answer."""
    got = workload.answers(inputs, results)
    ops = [key for key in got if key != "summary"]
    if got.get("summary") != reference.get("summary"):
        return len(ops), len(ops)
    return len(ops), sum(got[key] != reference[key] for key in ops)
