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
O(n^2) over the table, with no closure, and proves the test exact.
The scan runs at most once per table and N: ``_coset_scan`` memoises its
classes and quotient rows under ``("normal", N)``, or False when N is not
normal, and builds no table.  ``is_normal`` reads the verdict off it;
``try_quotient`` reads the quotient off the same classes, builds its table
with the validating constructor and memoises it under ``("quotient", N)``.

A closure routine computes the least congruence Cg(S x {0}) identifying a
set S with 0, closed under every left and right translation: each merged
pair is pushed through its rows and columns, the table's own line views,
mapped to class labels in C (Freese, "Computing congruences efficiently",
Algebra Universalis 59, 2008).  Its 0-class is the normal closure of S; it
also names the witness when N is not normal.

The normal subgyrogroups are listed as the joins of the principal normal
closures ncl(x), the 0-classes of Cg({x} x {0}) (``normal_subgyrogroups``).
Why this is exact: every normal N is the join of the ncl(x) for x in N.
Loops are congruence-permutable, by the Mal'cev term (x/y)+z, so the join
of the congruences with 0-classes S and C is their composite, whose
0-class C (+) S is the union of the cosets c+S for c in C, the cosets of S
that C meets.  It contains both and lies in the subgyrogroup they generate,
so the normal join is that subgyrogroup, which ``substructure._extend``
computes, and ncl(x) is the least member of this join-closed family that
contains x.  The canonical-path proof of ``enumerate_subgyrogroups`` then
carries over word for word with ncl(x) in place of <x>.  Its join step
asks whether J - S holds an element of rank below j, and J - S is the union
of the cosets other than S that C meets; so ``_coset_joins`` reads both the
verdict and the join off one opening scan of S, with no closure.  Every
normal N is mapped onto itself by each gyration and each x -> (a+x)+(-a),
so ncl is constant on the orbits of those maps, and ``_principal_closures``
runs one closure per orbit.

Each function computes its answer once.  A quotient table passes the
axioms by construction: every ``GyroTable`` is built by the axiom check.
The other facts the answers must satisfy (the projection is a homomorphism
commuting with gyrations with kernel N, kernels and intersections of normal
subgyrogroups are normal, images are subgyrogroups) are checked by the sweep
(``quotient-kernel-roundtrip``, ``normal-intersections``,
``sufficient-condition-implies-normal``) and by the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import GyroTable, InternalConsistencyError, _getter, _hom_failure, _translation_table
from .substructure import (
    CosetFamily,
    SubSet,
    _canonical_joins,
    _members,
    _open_cosets,
    _require_subgyrogroup,
    is_gyration_invariant,
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


def _preserves(f, rows, k_rows) -> bool:
    """Whether f(rows[a][b]) = k_rows[f a][f b] for all a, b: the scan of
    ``core._hom_failure``, one tuple compare per row."""
    return _hom_failure(f, rows, k_rows) is None


def check_hom(phi: Hom) -> bool:
    """True iff phi(a+b) = phi(a)+phi(b) for all pairs: row a compares
    f.L_a with L_(f a).f (``core._hom_failure`` over the domain's rows).

    A homomorphism also commutes with gyrations; the sweep check
    ``quotient-kernel-roundtrip`` and the tests confirm it for projections."""
    return _preserves(phi.map, phi.domain.table, phi.codomain.table)


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

    Every seed element is identified with 0, and then each merged pair
    (x, y) is pushed through every left and right translation: the pairs
    (x (+) a, y (+) a) and (a (+) x, a (+) y) are merged too.  Row x and
    column x, mapped to class labels, are compared with row y and column y
    in C, and only the positions whose labels differ are merged, so a pair
    whose translations add nothing costs four C calls.  Each merge queues
    one pair, so the closure takes O(n) pushes of O(n) each (Freese,
    "Computing congruences efficiently", Algebra Universalis 59, 2008).
    ``label[x]`` is the least member of the class of x: a merge relabels
    the class with the larger label.

    The lines are the table's row and column views (``GyroTable._rows``
    and ``_columns``), each line read through the labels by its look in C;
    only the label container depends on the order.  Up to order 256 the
    lines are ``bytes`` and a label fits in a byte, so the labels are held
    in a ``bytearray`` padded to a 256-byte translation table
    (``core._translation_table``) that the lines' ``translate`` reads:
    every merge writes into it, so each comparison reads the current labels
    with nothing rebuilt.  Above 256 the labels are a list, read by the
    lines' getters as tuples of ints."""
    n = g.order
    label = _translation_table(bytearray(range(n))) if n <= 256 else list(range(n))
    lines = (g._rows, g._columns())
    members = [[x] for x in range(n)]
    pending: list[tuple[int, int]] = []

    def union(x: int, y: int) -> None:
        lx, ly = label[x], label[y]
        if lx != ly:
            if lx > ly:
                lx, ly = ly, lx
            for z in members[ly]:
                label[z] = lx
            members[lx] += members[ly]
            pending.append((x, y))

    for s in seed:
        union(s, 0)
    while pending:
        x, y = pending.pop()
        for u, looks in lines:
            lx, ly = looks[x](label), looks[y](label)
            if lx != ly:
                # labels only merge, so a position equal here stays equal
                for a, b, la, lb in zip(u[x], u[y], lx, ly):
                    if la != lb:
                        union(a, b)
    return list(label[:n])


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


def _coset_scan(g: GyroTable, n_set: frozenset) -> tuple[CosetFamily, list[int], list] | bool:
    """``_coset_classes`` of the subgyrogroup N, or False if N is not
    normal, memoised under ``("normal", N)``: ``is_normal`` and
    ``try_quotient`` share one scan per table and N.  A non-subgyrogroup
    raises ValueError and is never memoised."""
    key = ("normal", n_set)
    found = g._memo.get(key)
    if found is None:
        found = g._memo[key] = _coset_classes(g, _require_subgyrogroup(g, n_set)) or False
    return found


def try_quotient(g: GyroTable, subset) -> Quotient:
    """Build the quotient by N or raise NotNormal with a witness.

    N is normal iff its left cosets partition the carrier compatibly with
    (+) (``_coset_classes``, one O(n^2) scan); the quotient table and the
    projection are read off the classes, which ``is_normal`` may already
    have found (``_coset_scan``).  The table is built by the validating
    constructor, so it passes the axioms or raises ``AxiomError``.  A
    quotient is built at most once per table and N and memoised under
    ``("quotient", N)``.  On a rejection the union-find
    closure Cg(N x {0}) names the witness: ``NotNormal`` carries the step
    ``"congruence"`` and the least element outside N that the closure
    forces into the class of 0.  The sweep check
    ``quotient-kernel-roundtrip`` verifies each quotient it uses.  A
    non-subgyrogroup raises ValueError."""
    n_set = _members(subset)
    found = g._memo.get(("quotient", n_set))
    if found is not None:
        return found
    scan = _coset_scan(g, n_set)
    if not scan:
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
    family, ci, qt = scan
    quotient_table = GyroTable(qt)
    found = g._memo[("quotient", n_set)] = Quotient(  # idempotent fill
        parent=g,
        normal_members=family.subgroup_members,
        cosets=family,
        table=quotient_table,
        projection=Hom(g, quotient_table, tuple(ci)),
    )
    return found


def is_normal(g: GyroTable, subset) -> bool:
    """Whether the subgyrogroup N is normal, by the coset test of
    ``try_quotient`` (``_coset_scan``), one O(n^2) scan per table and N; no
    closure and no quotient table.  A non-subgyrogroup raises ValueError."""
    return bool(_coset_scan(g, _members(subset)))


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


def normal_subgyrogroups(g: GyroTable) -> list[SubSet]:
    """Every normal subgyrogroup, sorted by size then members: the joins of
    the normal closures ncl(x) by the queue of ``_canonical_joins``, each
    join read off the cosets of the queued S (``_coset_joins``; see the
    module docstring), with one closure per orbit of inner maps
    (``_principal_closures``).  No quotient table is built.  Orders above
    ``substructure.DEFAULT_LATTICE_CAP`` raise ``ResourceCapError`` first."""
    return _canonical_joins(
        g,
        lambda: _principal_closures(g),
        lambda s, rank: _coset_joins(g, s, rank),
    )


def _principal_closures(g: GyroTable) -> list[frozenset]:
    """ncl(x) for every x, by one ``normal_closure`` per orbit of G under
    the distinct gyrations and the maps c_a: x -> (a (+) x) (+) (-a).

    Why this is exact: a normal N is the kernel of a homomorphism
    phi: G -> G/N.  For x in N, phi(gyr[a, b]x) = gyr[phi a, phi b]0 = 0
    and phi(c_a x) = (phi a (+) 0) (+) (-phi a) = 0, so each map sends N
    into N; it is a bijection of the finite set G (c_a is R_(-a) L_a), so
    it sends N onto N, and x is in N iff f(x) is.  So ncl(x) = ncl(f(x))
    for every map f, and ncl is constant on each orbit of the group the
    maps generate.

    Each c_a is one getter call in C, row a applied to column -a; each
    orbit is grown breadth-first, one C call per map and round."""
    columns = g._columns()[0]
    maps = [p.images for p in g._perms[1:]]
    maps += [_getter(row)(columns[neg]) for row, neg in zip(g.table[1:], g.inv[1:])]
    closure_of: list = [None] * g.order
    for x in g.elements():
        if closure_of[x] is None:
            c = normal_closure(g, (x,)).as_set()
            orbit, frontier = {x}, {x}
            while frontier:
                pick = _getter(tuple(frontier))
                frontier = set().union(*map(pick, maps)) - orbit
                orbit |= frontier
            for y in orbit:
                closure_of[y] = c
    return closure_of


def _coset_joins(g: GyroTable, s: frozenset, rank):
    """The join step of ``normal_subgyrogroups`` from the normal
    subgyrogroup S: for a normal C, the function of (C, j) that returns
    S v C, the union of the cosets of S that C meets, or None when one of
    those cosets other than S holds an element of rank below j, the verdict
    of ``substructure._extend(g, S, C, rank, j)``.

    The classes come from one opening scan of S (``_open_cosets``), once per
    S; each join then costs O(|C|) lookups and a union of cosets.  Overlapping
    cosets of S raise ``InternalConsistencyError``: S was queued as normal."""
    scan = _open_cosets(g, s)
    if scan is None:
        raise InternalConsistencyError(
            f"the left cosets of the normal subgyrogroup {sorted(s)} overlap"
        )
    family, ci = scan
    cosets = family.cosets
    low = [min(map(rank.__getitem__, c)) for c in cosets]

    def join(c: frozenset, j: int) -> frozenset | None:
        met = set(map(ci.__getitem__, c))
        met.discard(0)  # class 0 is S itself
        if min(map(low.__getitem__, met)) < j:
            return None
        return s.union(*map(cosets.__getitem__, met))

    return join


def check_sufficient_normality(g: GyroTable, subset) -> bool:
    """Sufficient condition: inner gyrations trivial on one side, gyration
    invariance, and coset symmetry, tested in that order until one fails.
    Normality then follows; the sweep check
    ``sufficient-condition-implies-normal`` confirms it."""
    h = _require_subgyrogroup(g, subset)
    if any(any(g._gyr[x]) for x in h):  # some gyr[x, a] is not number 0
        return False
    if not is_gyration_invariant(g, h):
        return False
    # a + H = H + a for every a: row a and column a, restricted to H, as sets
    pick = _getter(sorted(h))
    return all(set(pick(row)) == set(pick(col)) for row, col in zip(g.table, g._columns()[0]))


def induced_isomorphism(phi: Hom) -> Hom:
    """First-isomorphism construction: the induced map from the quotient by
    the kernel onto the image, verified bijective onto the image table."""
    ker = kernel(phi)
    q = try_quotient(phi.domain, ker)
    img = image(phi)
    # image as a table in its own right, indexed by ascending members: row
    # a restricted to the image, then each entry mapped to its position;
    # onto the whole codomain, that is the codomain's own table
    position = [0] * phi.codomain.order
    for i, m in enumerate(img.members):
        position[m] = i
    if len(img.members) == phi.codomain.order:
        img_table = phi.codomain
    else:
        pick = _getter(img.members)
        img_table = GyroTable([_getter(pick(phi.codomain.table[a]))(position) for a in img.members])
    induced = [0] * q.table.order
    for a in phi.domain.elements():
        induced[q.projection(a)] = position[phi.map[a]]
    hom = Hom(q.table, img_table, tuple(induced))
    if not check_hom(hom):
        raise InternalConsistencyError("induced map is not a homomorphism")
    if sorted(induced) != list(range(q.table.order)) or q.table.order != img_table.order:
        raise InternalConsistencyError("induced map is not a bijection onto the image")
    return hom
