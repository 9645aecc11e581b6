"""Subgyrogroups, generated closures, left cosets, and the full lattice.

A subgyrogroup is a nonempty subset containing 0 and closed under the
operation and negation; gyration closure then comes for free because
gyr[a, b] c = -(a+b) + (a + (b+c)) stays inside.  Left cosets of an
arbitrary subgyrogroup need not partition the carrier, so ``left_cosets``
raises ``NotPartition`` with an overlapping pair instead of guessing.

One opening scan, ``_open_cosets``, lays out the left cosets for both
``left_cosets`` and the normality test; ``left_cosets`` adds a check that
every a+H lies in the class of a, O(n*|H|) in all, and memoises its answer.

One semi-naive closure, ``_extend``, serves both ``generate`` and the
lattice: it extends an already closed set by a seed and forms only the sums
and negatives that involve an element it added.  The lattice is built by
cyclic extension (Neubuser, Numer. Math. 2, 1960) along canonical paths.
Rank the distinct 1-generated subgyrogroups C_0, C_1, ... by size, then
members, and give each element x the rank i with <x> = C_i.  The canonical
path of a subgyrogroup H starts at {0} and each step joins the least-ranked
C_i inside H that the current set does not contain; the ranks along it
strictly increase, and every prefix is the canonical path of its own end.
So the lattice is a tree: S, reached at rank ``last``, is extended only by
C_j with j > last, and the join J = S v C_j is kept only when j is the least
rank in J - S.  Each subgyrogroup is then closed exactly once, with no set
of those found, and every other closure stops at the first round that adds
an element of rank below j.  Nothing here uses associativity.  The tests
compare the closure and the lattice with the round-by-round closure, the
pairwise-join lattice and the found-set cyclic extension they replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import GyroTable, InternalConsistencyError, ResourceCapError

DEFAULT_LATTICE_CAP = 64


@dataclass(frozen=True)
class SubSet:
    """A subset of a gyrogroup carrier, members strictly ascending."""

    parent: GyroTable
    members: tuple[int, ...]

    @classmethod
    def of(cls, parent: GyroTable, members: Iterable[int]) -> "SubSet":
        ms = sorted(set(members))
        for m in ms:
            if not 0 <= m < parent.order:
                raise ValueError(f"member {m} out of range 0..{parent.order - 1}")
        return cls(parent, tuple(ms))

    def as_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class NotPartition(Exception):
    """Left cosets failed to partition the carrier."""

    def __init__(self, coset_a: tuple, coset_b: tuple):
        super().__init__(
            f"left cosets overlap without being equal: {list(coset_a)} vs {list(coset_b)}"
        )
        self.coset_a = coset_a
        self.coset_b = coset_b


@dataclass(frozen=True)
class CosetFamily:
    """Pairwise-disjoint left cosets covering the carrier, sorted by their
    least element (the representative)."""

    parent: GyroTable
    subgroup_members: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


def _members(subset) -> frozenset:
    if isinstance(subset, SubSet):
        return subset.as_set()
    return frozenset(subset)


def _extend(g: GyroTable, closed, seed, rank, floor: int) -> frozenset | None:
    """The least subgyrogroup containing the subgyrogroup ``closed`` and the
    seed, or None as soon as the seed or a round adds an element x with
    ``rank[x] < floor``.  Semi-naive: each round forms only the negatives of
    the elements the previous round added and their sums, on either side,
    with every element present; sums of two older elements are already
    inside."""
    table, neg = g.table, g.inv
    out = set(closed)
    frontier = set(seed) - out
    out |= frontier
    members = list(out)
    while frontier:
        if min(map(rank.__getitem__, frontier)) < floor:
            return None
        fresh = set()
        for a in frontier:
            row = table[a]
            fresh.add(neg[a])
            fresh.update([row[x] for x in members])
            fresh.update([table[x][a] for x in members])
        fresh -= out
        out |= fresh
        members.extend(fresh)
        frontier = fresh
    return frozenset(out)


def generate(g: GyroTable, seed: Iterable[int]) -> SubSet:
    """The least subgyrogroup containing the seed: ``{0}`` extended by the
    seed with the semi-naive closure the lattice uses, O(|result|^2)
    lookups.  Every rank is 0 and the floor is 0, so the closure never
    stops early."""
    seed = set(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    return SubSet.of(g, _extend(g, {0}, seed, (0,) * g.order, 0))


def _in_range(g: GyroTable, subset) -> frozenset:
    s = _members(subset)
    if not all(0 <= a < g.order for a in s):
        raise ValueError(f"members out of range 0..{g.order - 1}: {sorted(s)}")
    return s


def is_subgyrogroup(g: GyroTable, subset) -> bool:
    """0 present and closed under the operation and negation.  A member
    outside 0..n-1 raises ValueError."""
    s = _in_range(g, subset)
    if 0 not in s:
        return False
    return all(g.inv[a] in s for a in s) and all(g.table[a][b] in s for a in s for b in s)


def _require_subgyrogroup(g: GyroTable, subset) -> frozenset:
    """The members of a subgyrogroup, or ValueError.  A set the lattice has
    closed (``enumerate_subgyrogroups``) is returned without a check."""
    s = _members(subset)
    if s not in g._memo.get("lattice members", ()) and not is_subgyrogroup(g, s):
        raise ValueError(f"not a subgyrogroup: {sorted(s)}")
    return s


def is_L_subgyrogroup(g: GyroTable, subset) -> bool:
    """gyr[a, h](H) = H for every a in the carrier and h in H.

    Each distinct gyration among them, by its number in the table's
    gyration numbering, is tested once.  A gyration is a bijection, so its
    image of H has |H| members, and containment in H, tested in C, is
    equality."""
    h = _require_subgyrogroup(g, subset)
    gid, perms = g._gyration_numbering()
    ids = set()
    for row in gid:
        ids.update(map(row.__getitem__, h))
    return all(h.issuperset(map(perms[k].images.__getitem__, h)) for k in ids)


def is_subgroup(g: GyroTable, subset) -> bool:
    """Whether the restricted operation is associative on the subgyrogroup."""
    h = _require_subgyrogroup(g, subset)
    t = g.table
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in h for b in h for c in h)


def is_gyration_invariant(g: GyroTable, subset) -> bool:
    """Every gyration maps S into S.  S may be any subset; a member outside
    0..n-1 raises ValueError.  Each distinct gyration of the table's
    numbering is tested once, by containment in C, as in
    ``is_L_subgyrogroup``."""
    s = _in_range(g, subset)
    return all(s.issuperset(map(p.images.__getitem__, s)) for p in g._gyration_numbering()[1])


def left_coset(g: GyroTable, subset, a: int) -> frozenset:
    """a + S; a member of S or an a outside 0..n-1 raises ValueError."""
    s = _in_range(g, subset)
    _in_range(g, (a,))
    return frozenset(g.table[a][x] for x in s)


def right_coset(g: GyroTable, subset, a: int) -> frozenset:
    """S + a; a member of S or an a outside 0..n-1 raises ValueError."""
    s = _in_range(g, subset)
    _in_range(g, (a,))
    return frozenset(g.table[x][a] for x in s)


def _open_cosets(g: GyroTable, h) -> tuple[CosetFamily, list[int]] | None:
    """The one opening scan: each a = 0, 1, ... not yet in a class opens the
    class a+H, so a is its least member.  Returns the opened cosets and each
    element's class index, or None when an opened coset meets an earlier one.
    Whether every other a+H is the class of a is left to the caller."""
    table = g.table
    ci = [-1] * g.order
    cosets: list[tuple[int, ...]] = []
    for a in g.elements():
        if ci[a] >= 0:
            continue
        coset = tuple(sorted(table[a][m] for m in h))
        for x in coset:
            if ci[x] >= 0:
                return None
            ci[x] = len(cosets)
        cosets.append(coset)
    return CosetFamily(g, tuple(sorted(h)), tuple(cosets), tuple(c[0] for c in cosets)), ci


def _overlap(g: GyroTable, h) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The overlap when the left cosets of H do not partition: the least a
    whose a+H meets an earlier, different coset, and the earlier coset that
    holds the least such member (unique: below a, cosets that meet agree)."""
    table = g.table
    owner: list[tuple[int, ...] | None] = [None] * g.order
    for a in g.elements():
        coset = tuple(sorted(table[a][m] for m in h))
        for x in coset:
            if owner[x] not in (None, coset):
                return owner[x], coset
            owner[x] = coset
    raise InternalConsistencyError(f"the left cosets of {sorted(h)} partition")


def left_cosets(g: GyroTable, subset) -> CosetFamily:
    """All left cosets a + H; raises NotPartition when they overlap.

    The opening scan, then a check, one column m of H at a time, that every
    a + H lies in the class of a.  The family or the overlapping pair is
    memoised per table; a non-subgyrogroup raises ValueError, unstored."""
    key = ("cosets", _members(subset))
    found = g._memo.get(key)
    if found is None:
        h = _require_subgyrogroup(g, key[1])
        found, ci = _open_cosets(g, h) or (None, None)
        if ci is None or not all([ci[row[m]] for row in g.table] == ci for m in h):
            found = _overlap(g, h)
        g._memo[key] = found  # idempotent fill
    if isinstance(found, CosetFamily):
        return found
    raise NotPartition(*found)


def index(g: GyroTable, subset) -> int:
    """Number of left cosets, defined only when they partition the carrier."""
    return len(left_cosets(g, subset).cosets)


def enumerate_subgyrogroups(g: GyroTable, cap: int = DEFAULT_LATTICE_CAP) -> list[SubSet]:
    """Every subgyrogroup, sorted by size then members, by cyclic extension
    along canonical paths (Neubuser, Numer. Math. 2, 1960).

    The distinct 1-generated subgyrogroups C_0, C_1, ... are sorted by size
    then members, and rank[x] is the i with <x> = C_i.  Queue entries are
    pairs (S, last), starting from ({0}, -1).  S is extended by each C_j
    with j > last and C_j not inside S, and the join J is queued with j only
    if no element of J - S has rank below j; ``_extend`` abandons the
    closure at the first such element.

    Exact: every subgyrogroup H is the join of the 1-generated subgyrogroups
    of its members, so it has a canonical path from {0}, each step joining
    the least-ranked C_i in H not yet inside.  The ranks along the path
    strictly increase (the least rank outside a growing set cannot fall,
    and rank i is inside once C_i is) and each prefix is the canonical path
    of its end point, so H is queued from its predecessor on that path and
    from no other entry: an accepted step from (S, last) by j is the last
    step of the canonical path of J.  Each subgyrogroup is closed to completion once
    and no set of those found is kept; the other closures stop early.  The
    member sets are memoised per table, so the functions that require a
    subgyrogroup take them without checking their closure again."""
    if g.order > cap:
        raise ResourceCapError("lattice_cap", f"order {g.order} exceeds lattice cap {cap}")
    trivial = frozenset({0})
    zeros = (0,) * g.order
    cyclic_of = [_extend(g, trivial, (a,), zeros, 0) for a in g.elements()]
    cyclics = sorted(set(cyclic_of), key=lambda c: (len(c), sorted(c)))
    number = {c: i for i, c in enumerate(cyclics)}
    rank = [number[c] for c in cyclic_of]
    queue = [(trivial, -1)]
    for s, last in queue:
        for j in range(last + 1, len(cyclics)):
            c = cyclics[j]
            if not c <= s:
                join = _extend(g, s, c, rank, j)
                if join is not None:
                    queue.append((join, j))
    g._memo["lattice members"] = frozenset(s for s, _ in queue)  # idempotent fill
    ordered = sorted((tuple(sorted(s)) for s, _ in queue), key=lambda ms: (len(ms), ms))
    return [SubSet(g, ms) for ms in ordered]
