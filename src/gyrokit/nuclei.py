"""Nuclei, the left multiplication group, twisted subgroups, and the radical.

Left translations L_a embed the gyrogroup into the symmetric group on its
carrier; lmlt(G) is the group they generate, materialized as an explicit
element set by ``PermGroup.generated``, which closes from a greedy
generating subset on raw images (``_closure``).  That is the package's one
permutation-group closure: it also builds the reversal kernel below, and
the sweep's tests that a set of permutations is a group.  Within lmlt(G) live three distinguished sets:

  * L(G) itself, a twisted subgroup (1 in X, inverse-closed, xyx-closed);
  * the intersection of all translated copies L_a L(G), which coincides
    with the translations of the left nucleus;
  * the set of forward translation products whose reversed product is the
    identity, computed as one ``PermGroup`` on 2n points generated by
    L_a (+) L_a^-1, with L_a acting on 0..n-1 and L_a^-1 on n..2n-1: a word
    maps to its forward product on the first half and the inverse of its
    reversed product on the second, word concatenation is exactly
    composition, so the elements whose second half is the identity carry
    precisely the forward products of words whose reversal collapses.

The radical is the preimage of that last set under a -> L_a.  The nuclei
are read off the table's gyration numbering (``GyroTable._gyr`` and ``_perms``)
in O(n^2): (a (+) b) (+) c = a (+) (b (+) c) iff gyr[a, b] fixes c, so the left
nucleus is the a whose gyrations gyr[a, b] are all the identity, the middle
nucleus the b whose gyr[a, b] are, and the right nucleus the points that
every gyration fixes.  The associativity scan that defines them is the
sweep's oracle (``sweep._nuclei_by_associativity``), not a library path.

Each function computes its answer once; ``lg_prime`` memoises it per
table, so ``radical`` does not build the closure on 2n points again, and
memoises lmlt(G), the first halves of that closure, for ``lmlt`` to read:
one permutation-group closure per table serves all three.  The
sweep checks the facts that tie these sets together:
``left-middle-nuclei-identical`` and ``nuclei-structure`` for the nuclei,
``translation-subgroup-chain`` for the second and third sets being subgroups
normal in lmlt(G) with the second equal to the translations of the left
nucleus, and the ``radical-*`` checks for the radical being a normal
subgroup inside the left nucleus.  The tests compare
the nuclei with the associativity scan and with a per-pair gyration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller

from .core import GyroTable, Perm, ResourceCapError, _getter, _translation_table
from .substructure import SubSet

DEFAULT_PERM_CAP = 10**6


def _composer(s):
    """The product with the raw permutation s, one C call: s times y for
    ``bytes`` (``translate`` through ``core._translation_table(s)``), y
    times s for tuples (``_getter(s)``).  See ``_closure``."""
    if isinstance(s, bytes):
        return methodcaller("translate", _translation_table(s))
    return _getter(s)


def _closure(images, cap: int | None = None) -> set:
    """The group that the permutations with the given images generate, as
    a set of raw images, closed from a greedy generating subset (Dimino's
    scheme; G. Butler, Fundamental Algorithms for Permutation Groups, LNCS
    559, 1991).  ``PermGroup.generated`` makes its elements ``Perm``s, and
    ``lg_prime`` reads the halves of its elements off the raw images.

    ``reached`` starts as {identity}.  Each generator, in the order given,
    that is not yet reached is taken, and ``reached`` is extended
    breadth-first by products with it on one fixed side: the new generator
    times each element already reached, then every generator taken so far
    times each element new in this round.  Each taken generator at least
    doubles ``reached`` (a group grows by a whole coset), so at most log2
    of the order are taken, and the closure costs about |order| * |taken|
    compositions rather than |order| * |generators|.

    The elements are held as raw images and composed in C by one call per
    product, in the encoding ``core._line_views`` gives a table's lines:
    up to degree 256 as ``bytes``, where s times y is ``y.translate``
    through s as a translation table (left products), and above as tuples,
    where y times s is ``_getter(s)(y)`` (right products).  ``_composer``
    builds that call once per taken generator.

    Proof.  Every element of ``reached`` is a product of generators.  After
    each round ``reached`` is closed under products, on the fixed side,
    with every generator taken so far: the round starts from the group of
    the earlier ones, which they keep in place, multiplies all of it by the
    new generator, and multiplies each element it adds by every taken
    generator.  A finite set of permutations holding the identity and
    closed under products on one side with the taken generators is the
    group they generate.  Every given generator is taken or reached before
    its turn, so ``reached`` ends as the group all of them generate.

    No generators, or generators of different degrees, raise
    ``ValueError``.  Raises ``ResourceCapError`` once the closure has more
    elements than the cap (``DEFAULT_PERM_CAP``, read when called, if none
    is given) or than the generators and the identity, whichever is more;
    so a cap of |S| on a set S stops the closure of a set that is not a
    group soon after it leaves the set, long before the whole symmetric
    group."""
    if not images:
        raise ValueError("need at least one generator")
    degree = len(images[0])
    if any(len(s) != degree for s in images):
        raise ValueError(f"generators of different degrees: {sorted({len(s) for s in images})}")
    if cap is None:
        cap = DEFAULT_PERM_CAP
    raw = bytes if degree <= 256 else tuple
    gens = list(map(raw, images))
    ident = raw(range(degree))
    limit = max(cap, len({*gens, ident}))
    reached = {ident}
    steps: list = []  # one composition per taken generator
    for s in gens:
        if s in reached:
            continue
        steps.append(_composer(s))
        frontier = list(map(steps[-1], reached))
        while frontier:
            new = []
            for y in frontier:
                if y not in reached:
                    reached.add(y)
                    new.append(y)
                    if len(reached) > limit:
                        raise ResourceCapError(
                            "perm_cap",
                            f"closure exceeded {cap} elements ({len(reached)} so far)",
                        )
            frontier = [step(y) for y in new for step in steps]
    return reached


@dataclass(frozen=True)
class PermGroup:
    """An explicit finite permutation group: generators plus full closure."""

    degree: int
    generators: tuple[Perm, ...]
    elements: frozenset[Perm]

    @classmethod
    def generated(cls, generators, cap: int | None = None) -> "PermGroup":
        """The group the generators, all of one degree, generate: the raw
        closure ``_closure`` of their images, ``bytes`` up to degree 256 and
        tuples above, each made a ``Perm`` once, at the end."""
        gens = tuple(generators)
        reached = _closure([p.images for p in gens], cap)
        return cls(gens[0].degree, gens, frozenset(map(Perm._unchecked, map(tuple, reached))))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements


@dataclass(frozen=True)
class TwistedReport:
    is_twisted: bool
    violations: tuple  # (x, y, kind) with kind in {identity, inverse, xyx}


def left_translations(g: GyroTable) -> list[Perm]:
    """The rows of the table as permutations; index 0 gives the identity."""
    return [g.left_translation(a) for a in g.elements()]


def lmlt(g: GyroTable) -> PermGroup:
    """The group generated by all left translations, read off the closure
    on 2n points that ``lg_prime`` runs once per table under
    ``DEFAULT_PERM_CAP``: its first halves, memoised under ``"lmlt"``.
    Both library callers (``analyze``, the sweep) need the reversal kernel
    as well, so one closure serves both; a direct first call pays for the
    closure on 2n points, |lmlt(G)| * |LG'| elements.  The group stays
    memoised as long as the table, and a memo hit returns it without
    checking the cap again, as the kernel's does."""
    lg_prime(g)
    return g._memo["lmlt"]


def is_twisted_subgroup(group: PermGroup, subset) -> TwistedReport:
    """Check identity membership, inverse closure, and xyx closure."""
    xs = frozenset(subset)
    if not xs <= group.elements:
        raise ValueError("subset is not contained in the group")
    violations = []
    if Perm.identity(group.degree) not in xs:
        violations.append((None, None, "identity"))
    ordered = sorted(xs)
    for x in ordered:
        if x.inverse() not in xs:
            violations.append((x, None, "inverse"))
    for x in ordered:
        for y in ordered:
            if x * y * x not in xs:
                violations.append((x, y, "xyx"))
    return TwistedReport(not violations, tuple(violations))


def lg_sharp(g: GyroTable) -> frozenset:
    """Intersection of the translated copies L_a L(G) inside lmlt(G).

    A permutation p lies in L_a L(G) iff q = L_a^-1 p lies in L(G), that
    is iff q is the row L_(q(0)), since L_b(0) = b (+) 0 = b; and
    L_a^-1 = L_(-a) by left cancellation.  So the rows of L(G) are
    filtered copy by copy, with one composition in C per row still in,
    through the row getters built here from the table, and no product of
    two permutations is formed.  The definitional intersection of products
    is the tests' oracle.

    It equals the translations of the left nucleus and is a normal subgroup
    of lmlt(G); the sweep check ``translation-subgroup-chain`` confirms
    both."""
    table, neg, gets = g.table, g.inv, list(map(_getter, g.table))
    inside = list(g.elements())
    for a in range(1, g.order):  # the copy for a = 0 is L(G) itself
        back = table[neg[a]]
        inside = [b for b in inside if gets[b](back) == table[back[b]]]
    return frozenset(map(g.left_translation, inside))


def lg_prime(g: GyroTable) -> frozenset:
    """Forward products of translation words whose reversed product is the
    identity: the first halves of the elements of the group generated by
    L_a (+) L_a^-1 on 2n points whose second half is the identity.

    L_a^-1 = L_(-a) by left cancellation, so the second half of each
    doubled generator is row -a read through the points n..2n-1, one
    getter call.  The closure on 2n points runs under ``DEFAULT_PERM_CAP``
    once per table, on raw images (``_closure``), and the halves are read
    off those images: only lmlt(G) and the kernel are made ``Perm``s,
    unchecked, since rows are permutations.  The kernel is memoised under
    ``"reversal kernel"``, so ``radical`` and a direct call share it.  The
    first halves of the whole closure are exactly lmlt(G), the image of
    the projection onto the first n points; they are memoised under
    ``"lmlt"`` first, for ``lmlt`` to read.

    It is a normal subgroup of lmlt(G) inside ``lg_sharp``; the sweep check
    ``translation-subgroup-chain`` confirms this and
    ``reversal-kernel-word-oracle`` compares it with the word oracle."""
    kernel = g._memo.get("reversal kernel")
    if kernel is None:
        n = g.order
        upper = tuple(range(n, 2 * n))
        translations = left_translations(g)
        doubled = _closure([la.images + _getter(g.table[neg])(upper) for la, neg in zip(translations, g.inv)])
        g._memo["lmlt"] = PermGroup(  # idempotent fill; first, so a memoised kernel implies it
            n, tuple(translations), frozenset(map(Perm._unchecked, {tuple(y[:n]) for y in doubled}))
        )
        kernel = g._memo["reversal kernel"] = frozenset(  # idempotent fill
            Perm._unchecked(tuple(y[:n])) for y in doubled if tuple(y[n:]) == upper
        )
    return kernel


def left_nucleus(g: GyroTable) -> SubSet:
    """The a with (a (+) b) (+) c = a (+) (b (+) c) for all b, c: the rows
    a whose gyrations gyr[a, b] are all the identity, number 0 of the
    table's gyration numbering."""
    return SubSet.of(g, [a for a, row in enumerate(g._gyr) if not any(row)])


def middle_nucleus(g: GyroTable) -> SubSet:
    """The b with (a (+) b) (+) c = a (+) (b (+) c) for all a, c: the
    columns b whose gyrations gyr[a, b] are all the identity."""
    return SubSet.of(g, [b for b, col in enumerate(zip(*g._gyr)) if not any(col)])


def right_nucleus(g: GyroTable) -> SubSet:
    """The c with (a (+) b) (+) c = a (+) (b (+) c) for all a, b: the points
    every gyration fixes, since a (+) (b (+) c) = (a (+) b) (+) gyr[a, b]c.
    The identity, number 0, fixes every point and is skipped."""
    return SubSet.of(
        g, [c for c in g.elements() if all(p.images[c] == c for p in g._perms[1:])]
    )


def radical(g: GyroTable) -> SubSet:
    """Elements whose translation lies in the reversal kernel of L(G).

    It is a normal subgroup contained in the left nucleus; the sweep checks
    ``radical-inside-left-nucleus`` and ``radical-normal`` confirm this."""
    core_set = lg_prime(g)
    return SubSet.of(g, [a for a in g.elements() if g.left_translation(a) in core_set])
