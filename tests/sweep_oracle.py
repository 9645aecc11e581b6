"""Independent oracles for the costly checks of ``gyrokit.sweep``.

Each is the all-pairs or per-element definition that the sweep replaced by
a cheaper computation of the same answer: group closure from every product
of two members, commuting with gyrations one point c at a time or one pair
at a time, and the translation-word oracle composed as ``Perm`` products.

The per-pair forms of the checks that now read the gyration numbering or
compare whole rows are kept here too.  Each takes what the check reads as
arguments (the gyrations as a function ``gyr(a, b)`` returning a ``Perm``,
the integral multiples as ``multiple(m, a)``, and so on), so the tests can
hand the same broken input to a check and to its oracle.
"""

from __future__ import annotations

from gyrokit.core import GyroTable, Perm, _getter
from gyrokit.nuclei import left_translations
from gyrokit.normality import Hom, is_normal
from gyrokit.substructure import SubSet, is_subgroup


def is_group_all_pairs(perms) -> bool:
    """Nonempty, closed under products and under inverses."""
    perms = frozenset(perms)
    return (
        bool(perms)
        and all(p * q in perms for p in perms for q in perms)
        and all(p.inverse() in perms for p in perms)
    )


def commutes_with_gyrations_per_c(phi: Hom) -> bool:
    """phi(gyr[a, b] c) = gyr[phi a, phi b] phi c, tested for each c."""
    g, k, f = phi.domain, phi.codomain, phi.map
    els = g.elements()
    for a in els:
        for b in els:
            gy_g, gy_k = g.gyr(a, b), k.gyr(f[a], f[b])
            if any(f[gy_g(c)] != gy_k(f[c]) for c in els):
                return False
    return True


def commutes_with_gyrations_per_pair(phi: Hom) -> bool:
    """The same, per pair (a, b): f.gyr[a, b] against gyr[f a, f b].f as
    tuples, for every pair rather than every distinct pair of numbers."""
    g, k, f = phi.domain, phi.codomain, tuple(phi.map)
    after_f = _getter(f)
    els = g.elements()
    for a in els:
        for b in els:
            if _getter(g.gyr(a, b).images)(f) != after_f(k.gyr(f[a], f[b]).images):
                return False
    return True


def preserves_per_pair(f, rows, k_rows) -> bool:
    """f(rows[a][b]) = k_rows[f a][f b], one pair at a time."""
    els = range(len(rows))
    return all(f[rows[a][b]] == k_rows[f[a]][f[b]] for a in els for b in els)


def loop_property_per_pair(table, gyr) -> bool:
    """gyr[a + b, b] = gyr[a, b], as ``Perm`` equality per pair."""
    els = range(len(table))
    return all(gyr(table[a][b], b) == gyr(a, b) for a in els for b in els)


def inverse_symmetry_per_pair(n: int, gyr) -> bool:
    """gyr[b, a] = gyr[a, b]^-1, one ``Perm.inverse`` per pair."""
    return all(gyr(b, a) == gyr(a, b).inverse() for a in range(n) for b in range(n))


def translation_form_per_pair(table, gyr) -> bool:
    """gyr[a, b] = L_(a + b)^-1 L_a L_b, as ``Perm`` products per pair."""
    translations = [Perm(row) for row in table]
    els = range(len(table))
    return all(
        gyr(a, b) == translations[table[a][b]].inverse() * translations[a] * translations[b]
        for a in els
        for b in els
    )


def translation_sandwich_per_pair(table, coadd) -> bool:
    """L_a L_b L_a = L_((a + b) [+] a), as ``Perm`` products per pair."""
    translations = [Perm(row) for row in table]
    els = range(len(table))
    return all(
        translations[a] * translations[b] * translations[a]
        == translations[coadd(table[a][b], a)]
        for a in els
        for b in els
    )


def multiple_laws_per_pair(table, inv, multiple) -> bool:
    """The laws of integral multiples, one (m, k) pair at a time, over a
    window of every m.a with |m| <= max(n^2, 2n) built with ``multiple``:
    (-m).a = -(m.a) = m.(-a) for |m| <= 2n, and (m + k).a = m.a + k.a and
    (m*k).a = m.(k.a) for |m|, |k| <= n."""
    n = len(table)
    window = 2 * n
    reach = max(n * n, window)
    mults = [{m: multiple(m, a) for m in range(-reach, reach + 1)} for a in range(n)]
    ok = True
    for a in range(n):
        ma = mults[a]
        mneg = mults[inv[a]]
        for m in range(-window, window + 1):
            if ma[-m] != inv[ma[m]] or ma[-m] != mneg[m]:
                ok = False
        for m in range(-n, n + 1):
            for k in range(-n, n + 1):
                if ma[m + k] != table[ma[m]][ma[k]]:
                    ok = False
                if ma[m * k] != mults[ma[k]][m]:
                    ok = False
    return ok


def generate_monotone_per_pair(sets, close) -> bool:
    """A <= B implies close(A) <= close(B), closing both sets of every
    comparable pair anew."""
    return all(close(a) <= close(b) for a in sets for b in sets if a <= b)


def closed_under_intersection_per_pair(sets) -> bool:
    """A & B is a member for every ordered pair of members, each
    intersection sorted and looked up as a tuple of members."""
    members = {tuple(sorted(s)) for s in sets}
    return all(tuple(sorted(a & b)) in members for a in sets for b in sets)


def normal_intersections_per_pair(g: GyroTable, sets) -> bool:
    """A & B is normal for every ordered pair of normal subgyrogroups, one
    ``SubSet`` built per pair."""
    return all(is_normal(g, SubSet.of(g, a & b)) for a in sets for b in sets)


def subgroup_forms_agree_per_triple(g: GyroTable, lattice, gyr) -> bool:
    """``is_subgroup`` against the associativity scan and the gyration form
    (every gyr[a, b] with a, b in H fixes H pointwise), one triple at a
    time."""
    t = g.table
    ok = True
    for s in lattice:
        h = s.as_set()
        scan = all(t[t[a][b]][c] == t[a][t[b][c]] for a in h for b in h for c in h)
        gyr_form = all(gyr(a, b)(c) == c for a in h for b in h for c in h)
        if is_subgroup(g, s) != scan or scan != gyr_form:
            ok = False
    return ok


def lg_prime_word_oracle_perms(g: GyroTable, max_len: int) -> frozenset:
    """Forward products of translation words up to ``max_len`` letters whose
    reversed product is the identity, as ``Perm`` products."""
    translations = left_translations(g)
    ident = Perm.identity(g.order)
    found = set()
    frontier = [(la, la) for la in translations]  # (forward, reversed)
    for f, r in frontier:
        if r == ident:
            found.add(f)
    for _ in range(max_len - 1):
        new = []
        for f, r in frontier:
            for la in translations:
                nf, nr = f * la, la * r
                new.append((nf, nr))
                if nr == ident:
                    found.add(nf)
        frontier = list(dict.fromkeys(new))
    return frozenset(found)
