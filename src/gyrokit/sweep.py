"""Deterministic invariant sweep over a corpus of gyrogroup tables.

Runs every cross-module identity and normality criterion on each table and
on each qualifying (table, subgyrogroup) pair, emitting one line per check.
Statuses: PASS, FAIL (a violated invariant: either a broken table or an
implementation bug), FINDING (recorded observations that are not asserted,
such as right-identity behavior or normality of the commutator
subgyrogroup).  Output is a pure function of the input tables.

The library computes each answer once; the facts those answers must satisfy
(projections commute with gyrations, the translation subgroups are normal
in lmlt, the radical is a normal subgroup, and so on) are checked here, so
a broken construction shows as a FAIL line for its check instead of an
exception.  Quotients pass the axioms by construction: every ``GyroTable``
is built by the axiom check, so a broken quotient raises ``AxiomError``, a
``ValueError``, and its table gets an ``internal-consistency`` FAIL line.

The per-pair checks read the table's gyration numbering
(``GyroTable._gyr`` and ``_perms``: ``gid[a][b]`` is the number of
gyr[a, b] among the distinct gyrations ``perms``) or compare whole rows as
tuples built in C (``core._getter``), so none of them calls ``gyr`` per
pair or multiplies ``Perm`` objects:

* by number: ``gyration-loop-property`` compares gid[a (+) b][b] with
  gid[a][b]; ``gyration-inverse-symmetry`` tests each distinct pair
  (gid[a][b], gid[b][a]) once; ``quotient-kernel-roundtrip`` tests each
  distinct pair (number of gyr[a, b] in G, number of gyr[phi a, phi b] in
  G/N) once (``_commutes_with_gyrations``); the gyration form of
  ``subgroup-characterizations-agree`` tests each gyration numbered in H x H
  once;
* by rows: ``gyration-translation-form`` (against L_x inverted, not the
  L_(-x) the numbering is built from), ``translation-sandwich``,
  ``integral-multiple-laws``, ``homs-preserve-commutators``,
  ``quotient-kernel-roundtrip`` (through ``normality.check_hom``) and
  ``subgroup-characterizations-agree`` (through ``is_subgroup``).

Comparing numbers is exact: the numbering assigns one number to each
distinct tuple of images, so two gyrations have the same number iff they
are equal as permutations.  The intersection checks test each unordered
pair of members once.  Each per-pair form is kept in
``tests/sweep_oracle.py`` and compared there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import (
    GyroTable,
    InternalConsistencyError,
    Perm,
    ResourceCapError,
    _getter,
    _inverse_tuple,
)
from .substructure import (
    SubSet,
    enumerate_subgyrogroups,
    generate,
    is_gyration_invariant,
    is_L_subgyrogroup,
    is_subgroup,
    is_subgyrogroup,
    left_coset,
    left_cosets,
    right_coset,
    NotPartition,
)
from .normality import (
    Hom,
    check_hom,
    _preserves,
    check_sufficient_normality,
    induced_isomorphism,
    is_normal,
    normal_closure,
    normal_subgyrogroups,
    try_quotient,
)
from .commutator import commutator, commutator_subgyrogroup, nc_commutator
from .nuclei import (
    PermGroup,
    left_nucleus,
    middle_nucleus,
    right_nucleus,
    left_translations,
    lg_prime,
    lg_sharp,
    lmlt,
    is_twisted_subgroup,
    radical,
)
from .prime_index import (
    coset_ladder,
    equivalence_report,
    gyration_invariant_witnesses,
    index_two_normality,
    is_prime,
    normality_by_gyration_invariance,
    smallest_prime_precondition,
)
from .search import automorphisms

DEFAULT_ORACLE_WORD_LEN = 6


@dataclass
class SweepReport:
    """The check lines of a sweep and their tallies.  ``check`` and
    ``finding`` record a line for the table called ``name``."""

    lines: list[str] = field(default_factory=list)
    passes: int = 0
    failures: int = 0
    findings: int = 0
    name: str = ""

    def check(self, check_id: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" :: {detail}" if detail and not ok else ""
        self.lines.append(f"{self.name} :: {check_id} :: {status}{suffix}")
        if ok:
            self.passes += 1
        else:
            self.failures += 1

    def finding(self, check_id: str, detail: str):
        self.lines.append(f"{self.name} :: {check_id} :: FINDING :: {detail}")
        self.findings += 1

    def render(self) -> str:
        body = "\n".join(self.lines)
        summary = (
            f"summary: checks={self.passes + self.failures} pass={self.passes} "
            f"fail={self.failures} findings={self.findings}"
        )
        return f"{body}\n{summary}\n"


def _commutes_with_gyrations(phi: Hom) -> bool:
    """phi(gyr[a, b] c) = gyr[phi a, phi b] phi c for all a, b, c.

    Whether a pair (a, b) satisfies this depends only on the number of
    gyr[a, b] in the domain's gyration numbering and the number of
    gyr[phi a, phi b] in the codomain's, so each distinct pair of numbers
    is tested once: f.gyr and gyr.f composed in C (``core._getter``) and
    compared as tuples."""
    f = tuple(phi.map)
    gid, perms = phi.domain._gyr, phi.domain._perms
    kid, kperms = phi.codomain._gyr, phi.codomain._perms
    after_f = _getter(f)
    pairs = set()
    for ga, fa in zip(gid, f):
        pairs.update(zip(ga, after_f(kid[fa])))  # (gyr[a, b], gyr[f a, f b]) by number
    return all(_getter(perms[i].images)(f) == after_f(kperms[j].images) for i, j in pairs)


def _is_group(perms) -> bool:
    """Whether a finite set of permutations of one degree is a group: it is
    nonempty and equals the group it generates.  The closure is capped at
    |perms| elements, or |perms| + 1 when the identity is missing (the cap
    rule of ``PermGroup.generated``), so the closure of a set that is not
    closed under products stops just past its size rather than growing
    toward the whole symmetric group."""
    if not perms:
        return False
    try:
        return PermGroup.generated(sorted(perms), cap=len(perms)).elements == perms
    except ResourceCapError:
        return False


def _normal_subgroup_of_lmlt(group: PermGroup, perms: frozenset) -> bool:
    """A subgroup of the permutation group, closed under conjugation by its
    generators."""
    gens = group.generators
    return _is_group(perms) and all(
        x * p * x_inv in perms for x, x_inv in zip(gens, map(Perm.inverse, gens)) for p in perms
    )


def lg_prime_word_oracle(g: GyroTable, max_len: int = DEFAULT_ORACLE_WORD_LEN) -> frozenset:
    """Independent bounded oracle: enumerate all translation words up to the
    given length and keep forward products whose reversed product is the
    identity.  The check ``reversal-kernel-word-oracle`` compares it with
    ``nuclei.lg_prime``, the group closure on 2n points.

    Words are composed on image tuples in C: ``_getter(q)(p)`` is p.q."""
    translations, after = g.table, g._gets  # row a is the images of L_a
    ident = tuple(g.elements())
    found = set()
    frontier = [(la, la) for la in translations]  # (forward, reversed)
    for f, r in frontier:
        if r == ident:
            found.add(f)
    for _ in range(max_len - 1):
        new = []
        for f, r in frontier:
            after_r = _getter(r)
            for la, after_la in zip(translations, after):
                nf = after_la(f)  # f.L: forward grows on the right
                nr = after_r(la)  # L.r: reversed grows on the left
                new.append((nf, nr))
                if nr == ident:
                    found.add(nf)
        frontier = new
        # dedupe pairs to keep the frontier from exploding
        frontier = list(dict.fromkeys(frontier))
    return frozenset(Perm._unchecked(f) for f in found)


def _loop_property(table, gid) -> bool:
    """gyr[a (+) b, b] = gyr[a, b] for all a, b, compared by number."""
    return all(gid[x][b] == k for ra, ga in zip(table, gid) for b, (x, k) in enumerate(zip(ra, ga)))


def _inverse_symmetry(gid, perms) -> bool:
    """gyr[b, a] = gyr[a, b]^-1 for all a, b.  Each distinct pair of
    numbers (gyr[a, b], gyr[b, a]) is tested once, by composing the two
    gyrations in C and comparing with the identity, so a gyration whose
    inverse is not numbered fails the test rather than a lookup."""
    pairs = set()
    for ga, column in zip(gid, zip(*gid)):
        pairs.update(zip(ga, column))
    identity = tuple(range(len(gid)))
    return all(_getter(perms[i].images)(perms[j].images) == identity for i, j in pairs)


def _translation_form(table, gid, perms) -> bool:
    """gyr[a, b] = L_x^-1 L_a L_b with x = a (+) b, for all a, b.  L_x^-1
    is row x inverted (``core._inverse_tuple``), not the row L_(-x) the
    numbering builds its gyrations from; the right side is composed in C."""
    inverse = [_inverse_tuple(row) for row in table]
    get = [_getter(row) for row in table]
    return all(
        _getter(get_b(ra))(inverse[x]) == perms[k].images
        for ra, ga in zip(table, gid)
        for get_b, x, k in zip(get, ra, ga)
    )


def _translation_sandwich(table, coadd) -> bool:
    """L_a L_b L_a = L_((a (+) b) [+] a) for all a, b, where ``coadd`` is
    the coaddition [+]; the left side is composed in C."""
    return all(
        _getter(_getter(ra)(rb))(ra) == table[coadd(x, a)]
        for a, ra in enumerate(table)
        for rb, x in zip(table, ra)
    )


def _integral_multiples(n: int, multiple) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """``(ms, mult)``: the m whose multiples the laws of
    ``_multiple_laws_hold`` read, ascending, and ``mult[a]`` the tuple of
    ``multiple(m, a)`` over them, one call each, for a = 0..n-1.  They are
    |m| <= 2n and every product m*k with |m|, |k| <= n."""
    near = range(-n, n + 1)
    ms = tuple(sorted(set(range(-2 * n, 2 * n + 1)).union(m * k for m in near for k in near)))
    return ms, [tuple(multiple(m, a) for m in ms) for a in range(n)]


def _multiple_laws_hold(table, inv, ms, mult) -> bool:
    """The laws of integral multiples, with ``mult[a]`` the multiples m.a
    over ``ms`` (``_integral_multiples``):

    * (-m).a = -(m.a) = m.(-a) for |m| <= 2n;
    * (m + k).a = m.a (+) k.a and (m*k).a = m.(k.a) for |m|, |k| <= n.

    For each a the first law is three slices of mult[a] and mult[-a], the
    latter read off the cycle of L_(-a), not of L_a; the second two
    compares per m, over all k at once, as tuples in C."""
    n = len(table)
    pos = {m: i for i, m in enumerate(ms)}
    near = range(-n, n + 1)
    wide = range(-2 * n, 2 * n + 1)
    forward = _getter([pos[m] for m in wide])
    backward = _getter([pos[-m] for m in wide])
    pick_near = _getter([pos[k] for k in near])
    sums = [(pos[m], _getter([pos[m + k] for k in near])) for m in near]
    products = [(pos[m], _getter([pos[m * k] for k in near])) for m in near]
    by_m = list(zip(*mult))  # by_m[pos[m]][x] = m.x
    for ma, neg_a in zip(mult, inv):
        back = backward(ma)
        if back != _getter(forward(ma))(inv) or back != forward(mult[neg_a]):
            return False
        take_k = _getter(pick_near(ma))  # seq -> seq[k.a] over |k| <= n
        for (i, sum_k), (_, product_k) in zip(sums, products):
            if sum_k(ma) != take_k(table[ma[i]]) or product_k(ma) != take_k(by_m[i]):
                return False
    return True


def _sweep_core(r: SweepReport, g: GyroTable):
    n = g.order
    els = range(n)
    r.check("axioms", True)  # the GyroTable constructor passed the axiom check
    if not g.right_identity_holds():
        r.finding("right-identity", "0 is not a right identity on a validated table")

    gid, perms = g._gyr, g._perms
    r.check("gyration-loop-property", _loop_property(g.table, gid))
    r.check("gyration-inverse-symmetry", _inverse_symmetry(gid, perms))
    r.check("gyration-translation-form", _translation_form(g.table, gid, perms))
    r.check("negation-involution", all(g.neg(g.neg(a)) == a for a in els))

    r.check(
        "integral-multiple-laws",
        _multiple_laws_hold(g.table, g.inv, *_integral_multiples(n, g.int_multiple)),
    )
    r.check("order-annihilates", all(g.int_multiple(n, a) == 0 for a in els))

    r.check(
        "group-iff-left-nucleus-full",
        g.is_group() == (len(left_nucleus(g)) == n),
    )
    r.check("translation-sandwich", _translation_sandwich(g.table, g.coadd))


def _commutator_rows(g: GyroTable) -> list[list[int]]:
    """Row a holds the commutators [a, b], b = 0..n-1."""
    els = g.elements()
    return [[commutator(g, a, b) for b in els] for a in els]


def _sweep_commutators(r: SweepReport, g: GyroTable, normal_sets, gyrocommutative):
    els = range(g.order)
    t = g.table
    comm = _commutator_rows(g)
    r.check(
        "commutator-zero-iff-pair-gyrocommutes",
        all(
            (comm[a][b] == 0) == (t[a][b] == g.gyr(a, b)(t[b][a]))
            for a in els
            for b in els
        ),
    )
    r.check(
        "negation-of-sum-expansion",
        all(
            g.neg(t[a][b]) == t[t[g.neg(a)][g.neg(b)]][comm[g.neg(a)][g.neg(b)]]
            for a in els
            for b in els
        ),
    )

    derived = commutator_subgyrogroup(g)
    r.check(
        "commutator-subgyrogroup-structure",
        is_L_subgyrogroup(g, derived) and is_subgroup(g, derived),
    )
    r.check(
        "trivial-commutators-iff-gyrocommutative",
        (derived.members == (0,)) == g.is_gyrocommutative(),
    )

    auts = automorphisms(g)
    aut_set = frozenset(auts)
    r.check(
        "automorphism-group-closure",
        _is_group(aut_set) and g.gyrations() <= aut_set,
    )
    dset = derived.as_set()
    r.check(
        "automorphisms-fix-commutator-subgyrogroup",
        all(frozenset(tau(x) for x in dset) == dset for tau in auts),
    )

    projections = (try_quotient(g, n).projection for n in normal_sets)
    r.check(
        "homs-preserve-commutators",
        all(_preserves(p.map, comm, _commutator_rows(p.codomain)) for p in projections),
    )

    commutators = {c for row in comm for c in row}
    r.check(
        "gyrocommutative-quotient-iff-contains-commutators",
        all(gc == (dset <= n) == (commutators <= n) for n, gc in zip(normal_sets, gyrocommutative)),
    )

    closure = nc_commutator(g)
    q = try_quotient(g, closure).table
    r.check(
        "commutator-closure-properties",
        is_normal(g, closure)
        and q.is_gyrocommutative()
        and is_subgroup(g, closure)
        and is_subgroup(g, derived)
        and ((closure.members == (0,)) == g.is_gyrocommutative()),
    )
    closure_set = closure.as_set()
    r.check(
        "commutator-closure-minimality",
        all(gc == (closure_set <= n) for n, gc in zip(normal_sets, gyrocommutative)),
    )
    r.finding(
        "commutator-subgyrogroup-normality",
        f"members={list(derived.members)} normal={is_normal(g, derived)}",
    )


def _nuclei_by_associativity(g: GyroTable) -> tuple[frozenset, frozenset, frozenset]:
    """The left, middle and right nuclei by their definition, in one pass
    over the triples: each (a, b, c) with (a (+) b) (+) c != a (+) (b (+) c)
    drops a from the left set, b from the middle set and c from the right.
    The oracle for ``nuclei``, which reads the gyration numbering.

    For each pair, row a (+) b is compared with L_a L_b as one tuple in C,
    and only the pairs that differ are scanned for c."""
    t, get = g.table, g._gets
    left, middle, right = set(g.elements()), set(g.elements()), set(g.elements())
    for a, ra in enumerate(t):
        for b, x in enumerate(ra):
            rx, abc = t[x], get[b](ra)  # c -> (a (+) b) (+) c and a (+) (b (+) c)
            if rx != abc:
                left.discard(a)
                middle.discard(b)
                right.difference_update(c for c, (u, v) in enumerate(zip(rx, abc)) if u != v)
    return frozenset(left), frozenset(middle), frozenset(right)


def _sweep_nuclei(r: SweepReport, g: GyroTable):
    els = range(g.order)
    nl = left_nucleus(g)
    nm = middle_nucleus(g)
    nr = right_nucleus(g)
    r.check("left-middle-nuclei-identical", nl.members == nm.members)
    r.check(
        "nuclei-structure",
        _nuclei_by_associativity(g) == (nl.as_set(), nm.as_set(), nr.as_set())
        and all(
            is_L_subgyrogroup(g, x) and is_subgroup(g, x) for x in (nl, nm, nr)
        ),
    )
    nl_set = nl.as_set()
    r.check("left-nucleus-gyration-invariant", is_gyration_invariant(g, nl_set))
    r.check(
        "left-nucleus-coset-symmetry",
        all(left_coset(g, nl_set, a) == right_coset(g, nl_set, a) for a in els),
    )
    r.check("left-nucleus-normal", is_normal(g, nl))

    rad = radical(g)
    rad_set = rad.as_set()
    r.check("radical-inside-left-nucleus", rad_set <= nl_set)
    r.check("radical-gyration-invariant", is_gyration_invariant(g, rad_set))
    r.check(
        "radical-coset-symmetry",
        all(left_coset(g, rad_set, a) == right_coset(g, rad_set, a) for a in els),
    )
    r.check(
        "radical-normal",
        is_subgyrogroup(g, rad) and is_subgroup(g, rad) and is_normal(g, rad),
    )
    if not g.is_group():
        r.check(
            "proper-when-not-a-group",
            len(nl) < g.order and len(rad) < g.order,
        )
    if g.is_group() and g.is_gyrocommutative():
        r.check("radical-trivial-for-abelian-groups", rad.members == (0,))

    group = lmlt(g)
    translations = left_translations(g)
    twisted = is_twisted_subgroup(group, translations)
    r.check("translations-twisted-subgroup", twisted.is_twisted)
    ident = Perm.identity(g.order)
    r.check(
        "translations-meet-zero-stabilizer-trivially",
        frozenset(p for p in translations if p(0) == 0) == frozenset([ident]),
    )
    sharp = lg_sharp(g)
    prime = lg_prime(g)
    r.check(
        "translation-subgroup-chain",
        prime <= sharp <= frozenset(translations)
        and sharp == frozenset(translations[a] for a in nl.members)
        and _normal_subgroup_of_lmlt(group, sharp)
        and _normal_subgroup_of_lmlt(group, prime),
    )
    r.check("reversal-kernel-word-oracle", lg_prime_word_oracle(g) == prime)


def _generate_monotone(sets, closures) -> bool:
    """A <= B implies <A> <= <B>, with ``closures[i]`` the closure of
    ``sets[i]``."""
    return all(
        ca <= cb for a, ca in zip(sets, closures) for b, cb in zip(sets, closures) if a <= b
    )


def _closed_under_intersection(sets) -> bool:
    """A & B is a member for every unordered pair of members."""
    members = set(sets)
    return all(a & b in members for a, b in combinations(sets, 2))


def _normal_intersections(g: GyroTable, sets) -> bool:
    """A & B is normal for every unordered pair of normal subgyrogroups,
    with no early exit: a non-subgyrogroup raises after a failing pair."""
    return all([is_normal(g, a & b) for a, b in combinations(sets, 2)])


def _subgroup_forms_agree(g: GyroTable, lattice: list[SubSet], numbering) -> bool:
    """For every subgyrogroup H, ``is_subgroup`` (the associativity scan)
    agrees with the gyration form: every gyr[a, b] with a, b in H fixes H
    pointwise, each distinct gyration by its number in ``numbering``
    (``(gid, perms)``) once.

    Restrictions go through ``core._getter``, which yields a tuple also
    for H = {0}."""
    gid, perms = numbering
    for s in lattice:
        hs = s.members
        pick = _getter(hs)
        ids = set()
        for a in hs:
            ids.update(pick(gid[a]))
        if is_subgroup(g, s) != all(pick(perms[k].images) == hs for k in ids):
            return False
    return True


def _sweep_substructure(r: SweepReport, g: GyroTable, lattice: list[SubSet]):
    sets = [s.as_set() for s in lattice]
    r.check("lattice-closed-under-intersection", _closed_under_intersection(sets))
    closures = [generate(g, s.members).as_set() for s in lattice]
    r.check("generate-idempotent", closures == sets)
    r.check("generate-monotone", _generate_monotone(sets, closures))

    ok_partition = True
    ok_lagrange = True
    for s in lattice:
        if is_L_subgyrogroup(g, s):
            try:
                fam = left_cosets(g, s)
            except NotPartition:
                ok_partition = False
                continue
            if len(fam.cosets) * len(s) != g.order:
                ok_lagrange = False
    r.check("L-subgyrogroups-partition", ok_partition)
    r.check("L-subgyrogroup-index-divides", ok_lagrange)

    r.check(
        "subgroup-characterizations-agree",
        _subgroup_forms_agree(g, lattice, (g._gyr, g._perms)),
    )


def _sweep_normality(r: SweepReport, g: GyroTable, lattice: list[SubSet], normals: list[SubSet]):
    """Returns each normal N as a set and whether G/N is gyrocommutative,
    read once ``quotient-kernel-roundtrip`` has built the quotients."""
    r.check(
        "trivial-and-full-normal",
        is_normal(g, [0]) and is_normal(g, range(g.order)),
    )
    ok_roundtrip = True
    for n_sub in normals:
        q = try_quotient(g, n_sub)
        if not check_hom(q.projection) or not _commutes_with_gyrations(q.projection):
            ok_roundtrip = False
        if tuple(a for a in g.elements() if q.projection(a) == 0) != n_sub.members:
            ok_roundtrip = False
        induced = induced_isomorphism(q.projection)
        if induced.domain.order != q.table.order:
            ok_roundtrip = False
    r.check("quotient-kernel-roundtrip", ok_roundtrip)

    normal_sets = [n.as_set() for n in normals]
    gyrocommutative = [try_quotient(g, n).table.is_gyrocommutative() for n in normal_sets]
    r.check("normal-intersections", _normal_intersections(g, normal_sets))

    # the listing by coset joins that analyze prints equals the lattice
    # filtered by is_normal, and each member is its own normal closure
    r.check(
        "normal-closure-fixed-point",
        [n_sub.members for n_sub in normal_subgyrogroups(g)] == [n_sub.members for n_sub in normals]
        and all(normal_closure(g, n_sub.members).members == n_sub.members for n_sub in normals),
    )

    normal_members = {n_sub.members for n_sub in normals}
    sufficient_only_gap = []
    ok_sufficient = True
    for s in lattice:
        sufficient = check_sufficient_normality(g, s)
        normal = s.members in normal_members
        if sufficient and not normal:
            ok_sufficient = False
        if normal and not sufficient:
            sufficient_only_gap.append(list(s.members))
    r.check("sufficient-condition-implies-normal", ok_sufficient)
    if sufficient_only_gap:
        r.finding(
            "normal-but-sufficient-condition-fails",
            f"subgyrogroups={sufficient_only_gap}",
        )

    r.check(
        "gyrocommutative-quotient-witness-exists",
        any(gc and is_subgroup(g, n) for n, gc in zip(normals, gyrocommutative)),
    )
    return normal_sets, gyrocommutative


def _sweep_prime_index(r: SweepReport, g: GyroTable, lattice: list[SubSet]):
    pairs = []
    for s in lattice:
        if len(s) == g.order:
            continue
        try:
            fam = left_cosets(g, s)
        except NotPartition:
            continue
        if is_prime(len(fam.cosets)):
            pairs.append((s, len(fam.cosets)))

    if not pairs:
        r.check("prime-index-pairs", True, "")
        return

    ok_agree = True
    ok_ladder = True
    ok_smallest = True
    ok_iff = True
    ok_index2 = True
    ok_cyclic = True
    witness_data = []
    for s, p in pairs:
        rep = equivalence_report(g, s)
        if rep.theorem_violation:
            ok_agree = False
        if rep.condition_p:
            outside = [a for a in g.elements() if a not in s.as_set()]
            if coset_ladder(g, s, outside[0]) != left_cosets(g, s):
                ok_ladder = False
        smallest = smallest_prime_precondition(g, s)
        if smallest:
            if not rep.condition_n:
                ok_smallest = False
            found, witness = normality_by_gyration_invariance(g, s)
            if found != is_normal(g, s):
                ok_iff = False
            ys = gyration_invariant_witnesses(g, s)
            witness_data.append((list(s.members), ys))
            if found:
                q = try_quotient(g, s).table
                cyclic = (
                    q.is_group()
                    and q.is_gyrocommutative()
                    and any(
                        len(generate(q, [x])) == q.order for x in q.elements()
                    )
                )
                if not cyclic:
                    ok_cyclic = False
        if p == 2:
            invariant = index_two_normality(g, s)
            if invariant and not is_normal(g, s):
                ok_index2 = False
    r.check("prime-index-conditions-agree", ok_agree)
    r.check("prime-index-ladder-matches-cosets", ok_ladder)
    r.check("smallest-prime-implies-divisor-condition", ok_smallest)
    r.check("ladder-invariance-iff-normal", ok_iff)
    r.check("index-two-theorem", ok_index2)
    r.check("prime-quotient-cyclic", ok_cyclic)
    if witness_data:
        r.finding(
            "ladder-invariance-witnesses",
            "; ".join(f"H={h} y={ys}" for h, ys in witness_data),
        )


def sweep_table(name: str, g: GyroTable) -> SweepReport:
    """Every check on one table.  An internal inconsistency, or a library call
    rejecting what an earlier call built (a ``ValueError``), ends them in a
    FAIL line."""
    r = SweepReport(name=name)
    try:
        lattice = enumerate_subgyrogroups(g)
        normals = [s for s in lattice if is_normal(g, s)]
        _sweep_core(r, g)
        _sweep_substructure(r, g, lattice)
        _sweep_commutators(r, g, *_sweep_normality(r, g, lattice, normals))
        _sweep_nuclei(r, g)
        _sweep_prime_index(r, g, lattice)
    except (InternalConsistencyError, ValueError) as exc:
        r.check("internal-consistency", False, str(exc))
    return r


def run_theorem_sweep(named_tables) -> SweepReport:
    """Run every check over (name, table) pairs, sorted by name."""
    report = SweepReport()
    for name, table in sorted(named_tables, key=lambda nt: nt[0]):
        rec = sweep_table(name, table)
        report.lines.extend(rec.lines)
        report.passes += rec.passes
        report.failures += rec.failures
        report.findings += rec.findings
    return report
