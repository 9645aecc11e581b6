"""The pairwise-join lattice and the round-by-round closure, kept as
independent oracles for ``gyrokit.substructure.enumerate_subgyrogroups``
and ``generate``, which use cyclic extension and a semi-naive closure.

This is the original code: the closure re-multiplies the whole closed set
every round, and the lattice joins every pair of subgyrogroups found so far
until nothing new appears.  Its member lists, in their order, are what the
library must return.
"""

from __future__ import annotations

from typing import Iterable

from gyrokit.core import GyroTable, ResourceCapError
from gyrokit.substructure import DEFAULT_LATTICE_CAP, SubSet


def generate_by_rounds(g: GyroTable, seed: Iterable[int]) -> SubSet:
    """The least subgyrogroup containing the seed: close seed and 0 under
    the operation and negation to a fixed point."""
    seed = set(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    table, neg = g.table, g.inv
    closed = {0} | seed
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            na = neg[a]
            if na not in closed:
                closed.add(na)
                nxt.append(na)
        for a in list(closed):
            row = table[a]
            for b in list(closed):
                c = row[b]
                if c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = nxt
    return SubSet.of(g, closed)


def enumerate_subgyrogroups_pairwise(g: GyroTable, cap: int = DEFAULT_LATTICE_CAP) -> list[SubSet]:
    """Every subgyrogroup, via pairwise joins of one-element closures to a
    fixed point; sorted by size then members."""
    if g.order > cap:
        raise ResourceCapError("lattice_cap", f"order {g.order} exceeds lattice cap {cap}")
    found: set[tuple[int, ...]] = set()
    for a in g.elements():
        found.add(generate_by_rounds(g, [a]).members)
    changed = True
    while changed:
        changed = False
        current = sorted(found)
        for i, s in enumerate(current):
            for t in current[i + 1 :]:
                if set(s) <= set(t) or set(t) <= set(s):
                    continue
                join = generate_by_rounds(g, set(s) | set(t)).members
                if join not in found:
                    found.add(join)
                    changed = True
    return [SubSet(g, ms) for ms in sorted(found, key=lambda ms: (len(ms), ms))]
