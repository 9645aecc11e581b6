"""The brute-force canonical form and the backtracking isomorphism test,
kept as an independent slow oracle for the isomorphism layer of
``gyrokit.search``.

``canonical_form`` tries every one of the (n-1)! relabelings fixing 0 and
keeps the lexicographically least table.  ``are_isomorphic`` maps elements
1, 2, ... in turn and re-verifies its witness by a full scan.
``automorphisms`` filters every permutation fixing 0 through the operation.
None of them shares code with the library's isomorphism layer.
"""

from __future__ import annotations

from itertools import permutations

from gyrokit.core import GyroTable, InternalConsistencyError, Perm, ResourceCapError
from gyrokit.search import DEFAULT_CANON_CAP


def _inverse_tuple(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def are_isomorphic(g: GyroTable, h: GyroTable) -> tuple[bool, Perm | None]:
    """Backtracking search for an operation-preserving bijection fixing 0.

    The witness, when found, is re-verified by a full scan."""
    if g.order != h.order:
        return False, None
    n = g.order
    tg, th = g.table, h.table
    phi: list[int | None] = [None] * n
    used = [False] * n
    phi[0] = 0
    used[0] = True

    def consistent(upto: int) -> bool:
        for a in range(upto + 1):
            fa = phi[a]
            if fa is None:
                continue
            for b in range(n):
                fb = phi[b]
                if fb is None:
                    continue
                ft = phi[tg[a][b]]
                if ft is not None and th[fa][fb] != ft:
                    return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            return True
        for v in range(n):
            if not used[v]:
                phi[x] = v
                used[v] = True
                if consistent(x) and extend(x + 1):
                    return True
                phi[x] = None
                used[v] = False
        return False

    if not extend(1):
        return False, None
    witness = Perm(phi)  # full scan re-verification
    if not all(
        th[witness(a)][witness(b)] == witness(tg[a][b]) for a in range(n) for b in range(n)
    ):
        raise InternalConsistencyError("isomorphism witness fails the full table scan")
    return True, witness


def automorphisms(g: GyroTable) -> list[Perm]:
    """Every permutation fixing 0 that preserves the operation, sorted."""
    n, t = g.order, g.table
    out = []
    for rest in permutations(range(1, n)):
        p = (0,) + rest
        if all(t[p[a]][p[b]] == p[t[a][b]] for a in range(n) for b in range(n)):
            out.append(Perm(p))
    return out


def canonical_form(g: GyroTable, cap: int = DEFAULT_CANON_CAP) -> GyroTable:
    """The lexicographically least relabeling of the table fixing 0.

    Two tables are isomorphic iff their canonical forms are identical."""
    n = g.order
    if n > cap:
        raise ResourceCapError("canon_cap", f"order {n} exceeds canonical-form cap {cap}")
    t = g.table
    best = None
    for rest in permutations(range(1, n)):
        sigma = (0,) + rest  # original -> new
        inv = _inverse_tuple(sigma)
        relabeled = tuple(
            tuple(sigma[t[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        if best is None or relabeled < best:
            best = relabeled
    return GyroTable(best)
