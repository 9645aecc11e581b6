"""Normality by the left-coset partition.

A subgyrogroup N is normal exactly when it is the kernel of a homomorphism.
Gyrogroups are loops and gyration is a term in (+) and negation, so the
normal subgyrogroups are exactly the 0-classes of loop congruences (Bruck,
A Survey of Binary Systems, 1958), and the quotient G/N is the set of left
cosets a+N (Suksumran and Wiboonton, "Isomorphism theorems for gyrogroups
and L-subgyrogroups", J. Geom. Symmetry Phys. 37, 2015).  So N is normal
iff its left cosets partition the carrier and (+) is well defined on them.
The cosets come from the one opening scan of ``substructure``, which
``left_cosets`` also uses; ``_coset_classes`` adds the compatibility scan,
O(n^2) over the table, with no closure, and proves the test exact.  The
quotient is then read off the classes and memoised per table.

A union-find routine computes the least congruence Cg(S x {0}) identifying
a set S with 0, closed under every left and right translation in O(n^2)
pair visits (Freese, "Computing congruences efficiently", Algebra
Universalis 59, 2008).  Its 0-class is the normal closure of S; it also
names the witness when N is not normal.

Each function computes its answer once.  The facts that answer must satisfy
(the quotient table passes the axioms, the projection is a homomorphism
commuting with gyrations with kernel N, kernels and intersections of normal
subgyrogroups are normal, images are subgyrogroups) are checked by the sweep
(``quotient-kernel-roundtrip``, ``normal-intersections``,
``sufficient-condition-implies-normal``) and by the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import GyroTable, InternalConsistencyError
from .substructure import (
    CosetFamily,
    SubSet,
    _members,
    _open_cosets,
    _require_subgyrogroup,
    is_gyration_invariant,
    left_coset,
    right_coset,
)


@dataclass(frozen=True)
class Hom:
    """A candidate structure-preserving map between gyrogroup tables."""

    domain: GyroTable
    codomain: GyroTable
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.domain.order:
            raise ValueError("map length must equal the domain order")
        for v in self.map:
            if not 0 <= v < self.codomain.order:
                raise ValueError(f"image {v} out of codomain range")

    def __call__(self, a: int) -> int:
        return self.map[a]


def check_hom(phi: Hom) -> bool:
    """True iff phi(a+b) = phi(a)+phi(b) for all pairs.

    A homomorphism also commutes with gyrations; the sweep check
    ``quotient-kernel-roundtrip`` and the tests confirm it for projections."""
    g, k, f = phi.domain, phi.codomain, phi.map
    tg, tk = g.table, k.table
    for a in g.elements():
        fa = f[a]
        for b in g.elements():
            if f[tg[a][b]] != tk[fa][f[b]]:
                return False
    return True


def kernel(phi: Hom) -> SubSet:
    """Preimage of 0, always a normal subgyrogroup (the tests check this on
    every quotient projection)."""
    if not check_hom(phi):
        raise ValueError("not a homomorphism")
    return SubSet.of(phi.domain, [a for a in phi.domain.elements() if phi.map[a] == 0])


def image(phi: Hom) -> SubSet:
    """The image set, a subgyrogroup of the codomain (the tests check this on
    every quotient projection)."""
    if not check_hom(phi):
        raise ValueError("not a homomorphism")
    return SubSet.of(phi.codomain, set(phi.map))


class NotNormal(Exception):
    """Quotient construction failed; carries the first violated step."""

    def __init__(self, step: str, witness: tuple, message: str):
        super().__init__(f"{step}: {message} (witness {witness})")
        self.step = step
        self.witness = witness


@dataclass(frozen=True)
class Quotient:
    parent: GyroTable
    normal_members: tuple[int, ...]
    cosets: CosetFamily
    table: GyroTable
    projection: Hom


def _zero_congruence(g: GyroTable, seed: Iterable[int]) -> list[int]:
    """The least member of each element's class in Cg(seed x {0}).

    Union-find identifies every seed element with 0 and then pushes each
    merged pair through every left and right translation.  Each merge
    queues one pair and each pair costs 2n unions, so the closure takes
    O(n^2) pair visits (Freese, "Computing congruences efficiently",
    Algebra Universalis 59, 2008).  A class root is always its least
    member, since the larger root is attached under the smaller."""
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


def _coset_classes(g: GyroTable, n_set: frozenset) -> tuple[CosetFamily, list[int], list] | None:
    """The left cosets of N, the class index of each element and the
    quotient table, or None if N is not normal.

    The cosets come from ``substructure._open_cosets``, which returns None
    when two of them overlap.  The partition is then accepted iff it is
    (+)-compatible: the class of x+y depends only on the classes of x and y
    (with y in N this puts x+N in the class of x, so the column check of
    ``left_cosets`` is implied).  One pass over the table, O(n^2).

    Why this is exact:

    * If N is the 0-class of a congruence, L_a maps the class of 0 onto the
      class of a: x ~ 0 gives a+x ~ a+0 = a, and y ~ a gives
      -a+y ~ -a+a = 0 with y = a+(-a+y) by left cancellation.  So the
      classes are exactly the cosets a+N, and they are (+)-compatible.
    * Conversely, let a partition of a finite loop be (+)-compatible.  Each
      L_a maps classes into classes and is a bijection, so the map it
      induces on the finitely many classes is onto, hence a permutation;
      likewise each R_a.  Then x+z ~ x'+z' with x ~ x' forces z ~ z', and
      the same on the right, so the partition also respects both
      divisions: it is a loop congruence, and its 0-class is 0+N = N."""
    scan = _open_cosets(g, n_set)
    if scan is None:
        return None
    family, ci = scan
    table = g.table
    reps = family.representatives
    qt = [[ci[table[r][s]] for s in reps] for r in reps]
    expected = [[qrow[c] for c in ci] for qrow in qt]
    for x, row in enumerate(table):
        if [ci[v] for v in row] != expected[ci[x]]:
            return None
    return family, ci, qt


def _quotient(g: GyroTable, subset) -> Quotient | None:
    """The quotient by N if N is normal, else None; memoised per table
    either way.  A non-subgyrogroup raises ValueError."""
    key = ("quotient", _members(subset))
    if key in g._memo:
        return g._memo[key]
    scan = _coset_classes(g, _require_subgyrogroup(g, key[1]))
    quotient = None
    if scan is not None:
        family, ci, qt = scan
        quotient_table = GyroTable(qt, check=False)
        quotient = Quotient(
            parent=g,
            normal_members=family.subgroup_members,
            cosets=family,
            table=quotient_table,
            projection=Hom(g, quotient_table, tuple(ci)),
        )
    g._memo[key] = quotient  # idempotent fill
    return quotient


def try_quotient(g: GyroTable, subset) -> Quotient:
    """Build the quotient by N or raise NotNormal with a witness.

    N is normal iff its left cosets partition the carrier compatibly with
    (+) (``_coset_classes``, one O(n^2) scan); the quotient table and the
    projection are read off the classes.  Quotients and rejections are
    memoised per table by N.  On a rejection the union-find
    closure Cg(N x {0}) names the witness: ``NotNormal`` carries the step
    ``"congruence"`` and the least element outside N that the closure
    forces into the class of 0.  The sweep check
    ``quotient-kernel-roundtrip`` verifies each quotient it uses."""
    n_set = _members(subset)
    quotient = _quotient(g, n_set)
    if quotient is not None:
        return quotient
    root = _zero_congruence(g, n_set)
    outside = [x for x in g.elements() if root[x] == 0 and x not in n_set]
    if not outside:
        raise InternalConsistencyError(
            f"the coset test rejects {sorted(n_set)}, but it is the 0-class of its congruence"
        )
    x = outside[0]
    raise NotNormal(
        "congruence", (x,), f"the congruence generated by N identifies {x} with 0"
    )


def is_normal(g: GyroTable, subset) -> bool:
    """Whether the subgyrogroup N is normal, by the coset test of
    ``try_quotient``; a rejection costs one O(n^2) scan and no closure.
    A non-subgyrogroup raises ValueError."""
    return _quotient(g, subset) is not None


def intersect_normals(g: GyroTable, normals: Sequence) -> SubSet:
    """Intersection of normal subgyrogroups, which is again normal: it is the
    kernel of the componentwise map into the product of the quotients.  The
    sweep check ``normal-intersections`` confirms its normality."""
    if not normals:
        raise ValueError("need at least one normal subgyrogroup")
    members = [_members(n) for n in normals]
    for n in members:
        try:
            try_quotient(g, n)
        except NotNormal as exc:
            raise ValueError(f"input is not normal: {exc}") from exc
    return SubSet.of(g, frozenset.intersection(*members))


def normal_closure(g: GyroTable, seed: Iterable[int]) -> SubSet:
    """The least normal subgyrogroup containing the seed: the 0-class of
    Cg(seed x {0}), since every normal N containing the seed is the
    0-class of a congruence containing seed x {0} (Bruck 1958).  No
    lattice is enumerated.  The tests compare it with the lattice-filter
    closure of the seed-era code."""
    seed = SubSet.of(g, seed)
    if not seed.members:
        raise ValueError("seed must be nonempty")
    root = _zero_congruence(g, seed.members)
    return SubSet.of(g, [x for x in g.elements() if root[x] == 0])


def check_sufficient_normality(g: GyroTable, subset) -> bool:
    """Sufficient condition: inner gyrations trivial on one side, gyration
    invariance, and coset symmetry.  Normality then follows; the sweep check
    ``sufficient-condition-implies-normal`` confirms it."""
    h = _require_subgyrogroup(g, subset)
    gid, _ = g._gyration_numbering()
    cond1 = not any(any(gid[x]) for x in h)  # every gyr[x, a] is number 0
    cond2 = is_gyration_invariant(g, h)
    cond3 = all(left_coset(g, h, a) == right_coset(g, h, a) for a in g.elements())
    return cond1 and cond2 and cond3


def induced_isomorphism(phi: Hom) -> Hom:
    """First-isomorphism construction: the induced map from the quotient by
    the kernel onto the image, verified bijective onto the image table."""
    ker = kernel(phi)
    q = try_quotient(phi.domain, ker)
    img = image(phi)
    # image as a table in its own right, indexed by ascending members
    order_map = {m: i for i, m in enumerate(img.members)}
    img_table = GyroTable(
        [
            [order_map[phi.codomain.table[a][b]] for b in img.members]
            for a in img.members
        ],
        check=False,
    )
    induced = [0] * q.table.order
    for a in phi.domain.elements():
        induced[q.projection(a)] = order_map[phi.map[a]]
    hom = Hom(q.table, img_table, tuple(induced))
    if not check_hom(hom):
        raise InternalConsistencyError("induced map is not a homomorphism")
    if sorted(induced) != list(range(q.table.order)) or q.table.order != img_table.order:
        raise InternalConsistencyError("induced map is not a bijection onto the image")
    return hom
