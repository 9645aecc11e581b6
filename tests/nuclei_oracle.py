"""Independent oracles for ``gyrokit.nuclei``.

The gyration characterization of the nuclei, per pair: an element a is in
the left nucleus iff every gyr[a, b] is the identity, in the middle nucleus
iff every gyr[b, a] is, and in the right nucleus iff every gyration fixes
it.  Each gyration is built here from the gyrator identity, cell by cell,
so the oracle shares no code with the library's gyration numbering, from
which ``gyrokit.nuclei`` reads the nuclei.

The intersection of the translated copies L_a L(G) by its definition, as
sets of permutation products, against which ``lg_sharp``, which filters
the rows of the table by one composition per copy, is compared.

The pair closure of the reversal kernel, which the library computes as one
permutation group on 2n points.

The breadth-first closure that multiplies by every generator in each round,
against which ``PermGroup.generated``, which closes from a greedy
generating subset, is compared: the same elements, the same cap rule and
the same message.
"""

from __future__ import annotations

from gyrokit.core import GyroTable, Perm, ResourceCapError
from gyrokit.nuclei import left_translations

DEFAULT_PAIR_CAP = 10**6


def gyration(g: GyroTable, a: int, b: int) -> tuple[int, ...]:
    """gyr[a, b] c = -(a + b) + (a + (b + c)), for c = 0..n-1."""
    t = g.table
    neg_ab = t[g.inv[t[a][b]]]
    return tuple(neg_ab[t[a][t[b][c]]] for c in g.elements())


def nucleus_by_gyrations(g: GyroTable, position: str) -> frozenset:
    els = range(g.order)
    ident = tuple(els)
    gyr = {(a, b): gyration(g, a, b) for a in els for b in els}
    if position == "left":
        return frozenset(a for a in els if all(gyr[a, b] == ident for b in els))
    if position == "middle":
        return frozenset(b for b in els if all(gyr[a, b] == ident for a in els))
    return frozenset(c for c in els if all(p[c] == c for p in gyr.values()))


def lg_sharp(g: GyroTable) -> frozenset:
    """The intersection of L(G) and every L_a L(G), each copy formed as the
    set of products L_a * L_x."""
    translations = left_translations(g)
    lg = frozenset(translations)
    result = lg
    for la in translations:
        result &= frozenset(la * lx for lx in lg)
    return result


def closure_breadth_first(generators, cap: int) -> frozenset:
    """The group the generators generate: left products of every generator
    with each element new in the last round, from the generators and the
    identity on."""
    gens = tuple(generators)
    els = set(gens)
    els.add(Perm.identity(gens[0].degree))
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for x in frontier:
                y = g * x
                if y not in els:
                    els.add(y)
                    new.append(y)
                    if len(els) > cap:
                        raise ResourceCapError(
                            "perm_cap",
                            f"closure exceeded {cap} elements ({len(els)} so far)",
                        )
        frontier = new
    return frozenset(els)


def lg_prime_by_pairs(g: GyroTable, cap: int = DEFAULT_PAIR_CAP) -> frozenset:
    """Forward products of translation words whose reversed product is the
    identity, via the doubled closure of {(L_a, L_a^-1)}."""
    translations = left_translations(g)
    seeds = [(la, la.inverse()) for la in translations]
    pairs = set(seeds)
    frontier = list(pairs)
    while frontier:
        new = []
        for f1, r1 in seeds:
            for f2, r2 in frontier:
                pair = (f1 * f2, r1 * r2)
                if pair not in pairs:
                    pairs.add(pair)
                    new.append(pair)
                    if len(pairs) > cap:
                        raise ResourceCapError(
                            "pair_cap", f"doubled closure exceeded {cap} pairs"
                        )
        frontier = new
    ident = Perm.identity(g.order)
    return frozenset(f for f, r in pairs if r == ident)
