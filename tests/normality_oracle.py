"""The five-step normality decision and the lattice-filter normal closure,
kept as an independent slow oracle for ``gyrokit.normality``.

``try_quotient`` checks gyration invariance, builds the left-coset
partition, confirms the coset operation and the induced gyrations are
independent of representatives, and verifies the induced table against the
axioms.  ``normal_closure`` filters the enumerated subgyrogroup lattice
through that decision and intersects.  Neither shares code with the
coset test and congruence method the library uses: the partition comes
from the dict-of-frozensets ``left_cosets`` of ``lattice_oracle``, not from
the library's opening scan.

The per-pair ``check_hom``, the union-find congruence closure that pushes
pairs one element at a time, and the sufficient normality condition with
cosets built per element are kept here as oracles for the row compares of
``gyrokit.normality``; the five-step decision uses this ``check_hom``.
"""

from __future__ import annotations

from typing import Iterable

from lattice_oracle import left_cosets

from gyrokit.core import GyroTable, InternalConsistencyError, verify_axioms
from gyrokit.normality import Hom, NotNormal, Quotient
from gyrokit.substructure import (
    DEFAULT_LATTICE_CAP,
    NotPartition,
    SubSet,
    _require_subgyrogroup,
    enumerate_subgyrogroups,
    left_coset,
    right_coset,
)


def check_hom(phi: Hom) -> bool:
    """phi(a+b) = phi(a)+phi(b), one pair at a time."""
    g, k, f = phi.domain, phi.codomain, phi.map
    tg, tk = g.table, k.table
    for a in g.elements():
        fa = f[a]
        for b in g.elements():
            if f[tg[a][b]] != tk[fa][f[b]]:
                return False
    return True


def zero_congruence(g: GyroTable, seed: Iterable[int]) -> list[int]:
    """The least member of each element's class in Cg(seed x {0}), by a
    union-find with path halving that pushes each merged pair through every
    left and right translation, one element at a time."""
    table = g.table
    parent = list(g.elements())

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending: list[tuple[int, int]] = []

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
            pending.append((x, y))

    for s in seed:
        union(s, 0)
    while pending:
        x, y = pending.pop()
        row_x, row_y = table[x], table[y]
        for row_a, xa, ya in zip(table, row_x, row_y):
            union(xa, ya)
            union(row_a[x], row_a[y])
    return [find(x) for x in g.elements()]


def check_sufficient_normality(g: GyroTable, subset) -> bool:
    """Every gyr[x, a] with x in H is the identity, every gyration maps H
    into H, and a + H = H + a for every a; each built per element."""
    h = _require_subgyrogroup(g, subset)
    els = g.elements()
    cond1 = all(g.gyr(x, a).is_identity() for x in h for a in els)
    cond2 = all(gy(x) in h for gy in g.gyrations() for x in h)
    cond3 = all(left_coset(g, h, a) == right_coset(g, h, a) for a in els)
    return cond1 and cond2 and cond3


def try_quotient(g: GyroTable, subset) -> Quotient:
    """Build the quotient by N or raise NotNormal with a witness.

    Steps: gyration invariance of N, coset partition, representative
    independence of the coset operation, descent of gyrations, and the
    axiom check of the induced table.  On success N is exactly the kernel
    of the projection, so the decision is sound; any kernel passes all
    steps, so it is complete."""
    n_set = _require_subgyrogroup(g, subset)

    for a in g.elements():
        for b in g.elements():
            gy = g.gyr(a, b)
            if frozenset(gy(x) for x in n_set) != n_set:
                raise NotNormal(
                    "gyr-invariance", (a, b), "gyration does not fix the subgyrogroup"
                )

    try:
        family = left_cosets(g, n_set)
    except NotPartition as exc:
        raise NotNormal(
            "partition", (exc.coset_a, exc.coset_b), "left cosets do not partition"
        ) from exc

    ci = [0] * g.order
    for i, coset in enumerate(family.cosets):
        for x in coset:
            ci[x] = i
    reps = family.representatives
    k = len(reps)

    table = [[ci[g.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    for a in g.elements():
        for b in g.elements():
            if ci[g.table[a][b]] != table[ci[a]][ci[b]]:
                raise NotNormal(
                    "representative-independence",
                    (a, b),
                    "coset operation depends on representatives",
                )

    ref = [
        [[ci[g.gyr(reps[i], reps[j])(reps[m])] for m in range(k)] for j in range(k)]
        for i in range(k)
    ]
    for a in g.elements():
        for b in g.elements():
            gy = g.gyr(a, b)
            row = ref[ci[a]][ci[b]]
            for c in g.elements():
                if ci[gy(c)] != row[ci[c]]:
                    raise NotNormal(
                        "gyration-descent", (a, b, c), "gyrations do not descend to cosets"
                    )

    report = verify_axioms(table)
    if not report.passed:
        raise NotNormal("axioms", (), f"induced table fails axioms: {report.summary()}")

    quotient_table = GyroTable(table, check=False)
    projection = Hom(g, quotient_table, tuple(ci))
    if not check_hom(projection):
        raise InternalConsistencyError("projection is not a homomorphism")
    if frozenset(a for a in g.elements() if ci[a] == 0) != n_set:
        raise InternalConsistencyError("projection kernel differs from the subgyrogroup")
    return Quotient(
        parent=g,
        normal_members=tuple(sorted(n_set)),
        cosets=family,
        table=quotient_table,
        projection=projection,
    )


def is_normal(g: GyroTable, subset) -> bool:
    try:
        try_quotient(g, subset)
        return True
    except NotNormal:
        return False


def normal_closure(g: GyroTable, seed: Iterable[int], cap: int = DEFAULT_LATTICE_CAP) -> SubSet:
    """The least normal subgyrogroup containing the seed, by filtering the
    enumerated lattice through the normality decision and intersecting."""
    seed = set(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    lattice = enumerate_subgyrogroups(g, cap=cap)
    containing = [s for s in lattice if seed <= s.as_set() and is_normal(g, s)]
    if not containing:
        raise InternalConsistencyError("no normal subgyrogroup contains the seed")
    closure = frozenset(containing[0].as_set()).intersection(
        *[s.as_set() for s in containing[1:]]
    )
    result = SubSet.of(g, closure)
    if not seed <= result.as_set():
        raise InternalConsistencyError("closure does not contain the seed")
    if not is_normal(g, result):
        raise InternalConsistencyError("closure is not normal")
    return result
