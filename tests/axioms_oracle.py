"""The per-pair axiom check, kept as an independent oracle for
``gyrokit.core.verify_axioms``, which tests each distinct gyration's
automorphism property once.

This is the original check: it tests G3's automorphism property separately
for every pair (a, b), so it costs O(n^4).  Its report, including every
violation, witness and their order, is what ``verify_axioms`` must return.
It keeps the G3 "gyration is not a bijection" branch, which the library
dropped because it cannot fire once rows are permutations and every element
has a left inverse.
"""

from __future__ import annotations

from gyrokit.core import AxiomReport, Violation, _normalize_rows


def verify_axioms_per_pair(table) -> AxiomReport:
    rows = _normalize_rows(table)
    n = len(rows)
    ident = list(range(n))
    violations: list[Violation] = []

    for a, row in enumerate(rows):
        if sorted(row) != ident:
            violations.append(Violation("ROW-BIJ", (a,), f"row {a} is not a permutation"))
    if violations:
        return AxiomReport(n, tuple(violations))

    for a in range(n):
        if rows[0][a] != a:
            violations.append(Violation("G1", (a,), f"0+{a} = {rows[0][a]} != {a}"))

    linv: list[int | None] = [None] * n
    for a in range(n):
        bs = [b for b in range(n) if rows[b][a] == 0]
        if not bs:
            violations.append(Violation("G2", (a,), f"no left inverse for {a}"))
        else:
            linv[a] = bs[0]
    if any(v.axiom == "G2" for v in violations):
        return AxiomReport(n, tuple(violations))

    # All gyrations via the gyrator identity.
    gyrs: list[list[tuple[int, ...]]] = []
    for a in range(n):
        ra = rows[a]
        row_g = []
        for b in range(n):
            rb = rows[b]
            rneg = rows[linv[ra[b]]]
            row_g.append(tuple(rneg[ra[rb[c]]] for c in range(n)))
        gyrs.append(row_g)

    for a in range(n):
        ra = rows[a]
        for b in range(n):
            g = gyrs[a][b]
            if sorted(g) != ident:
                violations.append(Violation("G3", (a, b), "gyration is not a bijection"))
                continue
            ok = True
            for x in range(n):
                rx = rows[x]
                gx = rows[g[x]]
                for y in range(n):
                    if g[rx[y]] != gx[g[y]]:
                        violations.append(
                            Violation("G3", (a, b, x, y), "gyration does not preserve the operation")
                        )
                        ok = False
                        break
                if not ok:
                    break
            rb = rows[b]
            rab = rows[ra[b]]
            for c in range(n):
                if ra[rb[c]] != rab[g[c]]:
                    violations.append(Violation("G3", (a, b, c), "left gyroassociativity fails"))
                    break

    for a in range(n):
        ra = rows[a]
        for b in range(n):
            if gyrs[ra[b]][b] != gyrs[a][b]:
                violations.append(Violation("G4", (a, b), "left loop property fails"))

    return AxiomReport(n, tuple(violations))
