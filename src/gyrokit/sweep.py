"""Deterministic invariant sweep over a corpus of gyrogroup tables.

Runs every cross-module identity and normality criterion on each table and
on each qualifying (table, subgyrogroup) pair, emitting one line per check.
Statuses: PASS, FAIL (a violated invariant: either a broken table or an
implementation bug), FINDING (recorded observations that are not asserted,
such as right-identity behavior or normality of the commutator
subgyrogroup).  Output is a pure function of the input tables.

The library computes each answer once; the facts those answers must satisfy
(quotients pass the axioms, projections commute with gyrations, the
translation subgroups are normal in lmlt, the radical is a normal subgroup,
and so on) are checked here, so a broken construction shows as a FAIL line
for its check instead of an exception.  Whether a set of permutations (the
automorphisms, a translation subgroup) is a group is decided by closing it
with ``nuclei.PermGroup.generated``, capped at the size of the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GyroTable,
    InternalConsistencyError,
    Perm,
    ResourceCapError,
    _getter,
    verify_axioms,
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
    check_sufficient_normality,
    induced_isomorphism,
    intersect_normals,
    is_normal,
    normal_closure,
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
    lines: list[str]
    passes: int = 0
    failures: int = 0
    findings: int = 0

    def render(self) -> str:
        body = "\n".join(self.lines)
        summary = (
            f"summary: checks={self.passes + self.failures} pass={self.passes} "
            f"fail={self.failures} findings={self.findings}"
        )
        return f"{body}\n{summary}\n"


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.passes = 0
        self.failures = 0
        self.findings = 0

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


def _commutes_with_gyrations(phi: Hom) -> bool:
    """phi(gyr[a, b] c) = gyr[phi a, phi b] phi c for all a, b, c.

    For each pair the two sides, f.gyr[a, b] and gyr[f a, f b].f, are
    composed in C (``core._getter``) and compared as tuples."""
    g, k, f = phi.domain, phi.codomain, tuple(phi.map)
    after_f = _getter(f)
    els = g.elements()
    for a in els:
        for b in els:
            if _getter(g.gyr(a, b).images)(f) != after_f(k.gyr(f[a], f[b]).images):
                return False
    return True


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
    translations = g.table  # row a is the images of L_a
    after = [_getter(la) for la in translations]
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


def _int_multiples(g: GyroTable, a: int, window: int) -> dict[int, int]:
    return {m: g.int_multiple(m, a) for m in range(-window, window + 1)}


def _sweep_core(r: _Recorder, g: GyroTable):
    n = g.order
    els = range(n)
    report = verify_axioms(g.table)
    r.check("axioms", report.passed, report.summary())
    if not g.right_identity_holds():
        r.finding("right-identity", "0 is not a right identity on a validated table")

    r.check(
        "gyration-loop-property",
        all(g.gyr(g.table[a][b], b) == g.gyr(a, b) for a in els for b in els),
    )
    r.check(
        "gyration-inverse-symmetry",
        all(g.gyr(b, a) == g.gyr(a, b).inverse() for a in els for b in els),
    )
    translations = left_translations(g)
    r.check(
        "gyration-translation-form",
        all(
            g.gyr(a, b)
            == translations[g.table[a][b]].inverse() * translations[a] * translations[b]
            for a in els
            for b in els
        ),
    )
    r.check("negation-involution", all(g.neg(g.neg(a)) == a for a in els))

    window = 2 * n
    # every m.a the laws below read, with m*k up to n*n, built once
    mults = [_int_multiples(g, a, max(n * n, window)) for a in els]
    ok_laws = True
    for a in els:
        ma = mults[a]
        mneg = mults[g.neg(a)]
        for m in range(-window, window + 1):
            if ma[-m] != g.neg(ma[m]) or ma[-m] != mneg[m]:
                ok_laws = False
        for m in range(-n, n + 1):
            for k in range(-n, n + 1):
                if ma[m + k] != g.table[ma[m]][ma[k]]:
                    ok_laws = False
                if ma[m * k] != mults[ma[k]][m]:
                    ok_laws = False
    r.check("integral-multiple-laws", ok_laws)
    r.check("order-annihilates", all(g.int_multiple(n, a) == 0 for a in els))

    r.check(
        "group-iff-left-nucleus-full",
        g.is_group() == (len(left_nucleus(g)) == n),
    )
    r.check(
        "translation-sandwich",
        all(
            translations[a] * translations[b] * translations[a]
            == translations[g.coadd(g.table[a][b], a)]
            for a in els
            for b in els
        ),
    )


def _commutator_rows(g: GyroTable) -> list[list[int]]:
    """Row a holds the commutators [a, b], b = 0..n-1."""
    els = g.elements()
    return [[commutator(g, a, b) for b in els] for a in els]


def _sweep_commutators(r: _Recorder, g: GyroTable, normals: list[SubSet]):
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

    ok_homs = True
    for n_sub in normals:
        proj = try_quotient(g, n_sub).projection
        q_comm = _commutator_rows(proj.codomain)
        if not all(
            proj(comm[a][b]) == q_comm[proj(a)][proj(b)] for a in els for b in els
        ):
            ok_homs = False
    r.check("homs-preserve-commutators", ok_homs)

    ok_items = True
    commutators = {c for row in comm for c in row}
    for n_sub in normals:
        q = try_quotient(g, n_sub).table
        gyrocomm = q.is_gyrocommutative()
        contains_derived = dset <= n_sub.as_set()
        contains_all = commutators <= n_sub.as_set()
        if not (gyrocomm == contains_derived == contains_all):
            ok_items = False
    r.check("gyrocommutative-quotient-iff-contains-commutators", ok_items)

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
    r.check(
        "commutator-closure-minimality",
        all(
            try_quotient(g, n_sub).table.is_gyrocommutative()
            == (closure.as_set() <= n_sub.as_set())
            for n_sub in normals
        ),
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
    t = g.table
    get = [_getter(row) for row in t]
    left, middle, right = set(g.elements()), set(g.elements()), set(g.elements())
    for a, ra in enumerate(t):
        for b, x in enumerate(ra):
            rx, abc = t[x], get[b](ra)  # c -> (a (+) b) (+) c and a (+) (b (+) c)
            if rx != abc:
                left.discard(a)
                middle.discard(b)
                right.difference_update(c for c, (u, v) in enumerate(zip(rx, abc)) if u != v)
    return frozenset(left), frozenset(middle), frozenset(right)


def _sweep_nuclei(r: _Recorder, g: GyroTable):
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


def _sweep_substructure(r: _Recorder, g: GyroTable, lattice: list[SubSet]):
    sets = [s.as_set() for s in lattice]
    members = {s.members for s in lattice}
    r.check(
        "lattice-closed-under-intersection",
        all(
            tuple(sorted(a & b)) in members for a in sets for b in sets
        ),
    )
    r.check(
        "generate-idempotent",
        all(generate(g, s.members).members == s.members for s in lattice),
    )
    ok_mono = True
    for a in sets:
        for b in sets:
            if a <= b and not generate(g, a).as_set() <= generate(g, b).as_set():
                ok_mono = False
    r.check("generate-monotone", ok_mono)

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

    t = g.table
    ok_assoc = True
    for s in lattice:
        h = s.as_set()
        scan = all(t[t[a][b]][c] == t[a][t[b][c]] for a in h for b in h for c in h)
        gyr_form = all(
            all(g.gyr(a, b)(c) == c for c in h) for a in h for b in h
        )
        if is_subgroup(g, s) != scan or scan != gyr_form:
            ok_assoc = False
    r.check("subgroup-characterizations-agree", ok_assoc)


def _sweep_normality(r: _Recorder, g: GyroTable, lattice: list[SubSet], normals: list[SubSet]):
    r.check(
        "trivial-and-full-normal",
        is_normal(g, [0]) and is_normal(g, range(g.order)),
    )
    ok_roundtrip = True
    for n_sub in normals:
        q = try_quotient(g, n_sub)
        if not verify_axioms(q.table.table).passed:
            ok_roundtrip = False
        if not check_hom(q.projection) or not _commutes_with_gyrations(q.projection):
            ok_roundtrip = False
        if tuple(a for a in g.elements() if q.projection(a) == 0) != n_sub.members:
            ok_roundtrip = False
        induced = induced_isomorphism(q.projection)
        if induced.domain.order != q.table.order:
            ok_roundtrip = False
    r.check("quotient-kernel-roundtrip", ok_roundtrip)

    ok_intersections = True
    for a in normals:
        for b in normals:
            got = intersect_normals(g, [a, b])
            if got.as_set() != a.as_set() & b.as_set() or not is_normal(g, got):
                ok_intersections = False
    r.check("normal-intersections", ok_intersections)

    r.check(
        "normal-closure-fixed-point",
        all(normal_closure(g, n_sub.members).members == n_sub.members for n_sub in normals),
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
        any(
            is_subgroup(g, n_sub) and try_quotient(g, n_sub).table.is_gyrocommutative()
            for n_sub in normals
        ),
    )


def _sweep_prime_index(r: _Recorder, g: GyroTable, lattice: list[SubSet]):
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


def sweep_table(name: str, g: GyroTable) -> _Recorder:
    """Every check on one table.  An internal inconsistency, or a library call
    rejecting what an earlier call built (a ``ValueError``), ends them in a
    FAIL line."""
    r = _Recorder(name)
    try:
        lattice = enumerate_subgyrogroups(g)
        normals = [s for s in lattice if is_normal(g, s)]
        _sweep_core(r, g)
        _sweep_substructure(r, g, lattice)
        _sweep_normality(r, g, lattice, normals)
        _sweep_commutators(r, g, normals)
        _sweep_nuclei(r, g)
        _sweep_prime_index(r, g, lattice)
    except (InternalConsistencyError, ValueError) as exc:
        r.check("internal-consistency", False, str(exc))
    return r


def run_theorem_sweep(named_tables) -> SweepReport:
    """Run every check over (name, table) pairs, sorted by name."""
    report = SweepReport(lines=[])
    for name, table in sorted(named_tables, key=lambda nt: nt[0]):
        rec = sweep_table(name, table)
        report.lines.extend(rec.lines)
        report.passes += rec.passes
        report.failures += rec.failures
        report.findings += rec.findings
    return report
