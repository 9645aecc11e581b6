"""The pairwise-join lattice, the found-set cyclic extension, the
round-by-round closure and the dict-of-frozensets coset partition, kept as
independent oracles for ``gyrokit.substructure.enumerate_subgyrogroups``,
``generate`` and ``left_cosets``, which use canonical-path cyclic extension,
a semi-naive closure and one opening scan with a column check.

This is earlier library code: the closure re-multiplies the whole closed set
every round, the pairwise lattice joins every pair of subgyrogroups found so
far until nothing new appears, the found-set lattice extends every
subgyrogroup found by every 1-generated one and keeps the joins it has not
seen, and the partition builds every coset a+H as a set.  Its member lists
and coset families, in their order, are what the library must return; where
the cosets overlap, both raise ``NotPartition`` with an overlapping pair,
though not always the same pair.
"""

from __future__ import annotations

from typing import Iterable

from gyrokit.core import GyroTable, ResourceCapError
from gyrokit.substructure import (
    DEFAULT_LATTICE_CAP,
    CosetFamily,
    NotPartition,
    SubSet,
    _extend,
    _require_subgyrogroup,
    left_coset,
)


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


def enumerate_subgyrogroups_found_set(g: GyroTable, cap: int = DEFAULT_LATTICE_CAP) -> list[SubSet]:
    """Every subgyrogroup, by cyclic extension with a set of those found:
    each subgyrogroup found is extended by each 1-generated one not inside
    it, and the join is queued if it is new.  The joins use the library's
    semi-naive closure with a floor that never fires."""
    if g.order > cap:
        raise ResourceCapError("lattice_cap", f"order {g.order} exceeds lattice cap {cap}")
    zeros = (0,) * g.order
    trivial = frozenset({0})
    cyclics = {_extend(g, trivial, (a,), zeros, 0) for a in g.elements()}
    found = {trivial}
    queue = [trivial]
    for s in queue:
        for c in cyclics:
            if not c <= s:
                join = _extend(g, s, c, zeros, 0)
                if join not in found:
                    found.add(join)
                    queue.append(join)
    ordered = sorted((tuple(sorted(s)) for s in found), key=lambda ms: (len(ms), ms))
    return [SubSet(g, ms) for ms in ordered]


def left_cosets(g: GyroTable, subset) -> CosetFamily:
    """All left cosets a + H; raises NotPartition when they overlap."""
    h = _require_subgyrogroup(g, subset)
    seen: dict[frozenset, tuple] = {}
    membership: dict[int, frozenset] = {}
    for a in g.elements():
        coset = left_coset(g, h, a)
        for x in coset:
            prev = membership.get(x)
            if prev is not None and prev != coset:
                raise NotPartition(tuple(sorted(prev)), tuple(sorted(coset)))
            membership[x] = coset
        seen[coset] = tuple(sorted(coset))
    cosets = sorted(seen.values(), key=lambda c: c[0])
    return CosetFamily(
        parent=g,
        subgroup_members=tuple(sorted(h)),
        cosets=tuple(cosets),
        representatives=tuple(c[0] for c in cosets),
    )
