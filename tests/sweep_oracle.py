"""Independent oracles for the costly checks of ``gyrokit.sweep``.

Each is the all-pairs or per-element definition that the sweep replaced by
a cheaper computation of the same answer: group closure from every product
of two members, commuting with gyrations one point c at a time, and the
translation-word oracle composed as ``Perm`` products.
"""

from __future__ import annotations

from gyrokit.core import GyroTable, Perm
from gyrokit.nuclei import left_translations
from gyrokit.normality import Hom


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
