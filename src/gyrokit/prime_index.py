"""Prime-index subgyrogroups: equivalent multiple-membership conditions,
coset ladders, the smallest-prime precondition, and normality criteria.

For a subgyrogroup H of prime index p, three conditions are equivalent:
p.a lands in H for every outside element; some multiple n.a with no prime
divisor below p lands in H; and none of a, 2a, ..., (p-1)a lands in H.
When p is additionally the smallest prime dividing the order, normality of
H is equivalent to the existence of an outside element y whose coset ladder
i.y + H is invariant under every gyration; index 2 plus gyration invariance
of H itself already forces normality.

Each function reads the index p from the family of ``left_cosets``, which
is memoised per table, so calling several of them on one H lays out its
cosets once.  The sweep checks the theorems against the congruence
normality decision and the coset family (``prime-index-ladder-matches-cosets``,
``smallest-prime-implies-divisor-condition``,
``ladder-invariance-iff-normal``, ``index-two-theorem``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GyroTable
from .substructure import (
    CosetFamily,
    _members,
    is_gyration_invariant,
    left_coset,
    left_cosets,
)


def least_prime_factor(m: int) -> int:
    if m < 2:
        raise ValueError("need m >= 2")
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def is_prime(m: int) -> bool:
    return m >= 2 and least_prime_factor(m) == m


def _prime_index_setup(g: GyroTable, subset) -> tuple[frozenset, int]:
    h = _members(subset)
    p = len(left_cosets(g, h).cosets)
    if not is_prime(p):
        raise ValueError(f"index {p} is not prime")
    return h, p


def check_condition_p(g: GyroTable, subset) -> bool:
    """p.a in H for every a outside H, p the (prime) index."""
    h, p = _prime_index_setup(g, subset)
    return all(g.int_multiple(p, a) in h for a in g.elements() if a not in h)


def check_condition_n(g: GyroTable, subset) -> tuple[bool, dict[int, int]]:
    """For each outside a, the least n in 1..|G| with n.a in H and no prime
    divisor below p; returns (all found, witness map)."""
    h, p = _prime_index_setup(g, subset)
    witnesses: dict[int, int] = {}
    for a in g.elements():
        if a in h:
            continue
        for n in range(1, g.order + 1):
            if g.int_multiple(n, a) in h and (n == 1 or least_prime_factor(n) >= p):
                witnesses[a] = n
                break
        else:
            return False, witnesses
    return True, witnesses


def check_condition_multiples(g: GyroTable, subset) -> bool:
    """a, 2a, ..., (p-1)a all outside H for every a outside H."""
    h, p = _prime_index_setup(g, subset)
    return all(
        g.int_multiple(i, a) not in h
        for a in g.elements()
        if a not in h
        for i in range(1, p)
    )


@dataclass(frozen=True)
class EquivalenceReport:
    index: int
    condition_p: bool
    condition_n: bool
    condition_multiples: bool
    witnesses: tuple[tuple[int, int], ...]

    @property
    def all_equal(self) -> bool:
        return self.condition_p == self.condition_n == self.condition_multiples

    @property
    def theorem_violation(self) -> bool:
        # the three conditions are provably equivalent at prime index, so a
        # disagreement can only mean an implementation bug
        return not self.all_equal


def equivalence_report(g: GyroTable, subset) -> EquivalenceReport:
    """Evaluate all three conditions and flag any disagreement."""
    h, p = _prime_index_setup(g, subset)
    cond_p = check_condition_p(g, h)
    cond_n, witnesses = check_condition_n(g, h)
    cond_m = check_condition_multiples(g, h)
    return EquivalenceReport(
        p, cond_p, cond_n, cond_m, tuple(sorted(witnesses.items()))
    )


def coset_ladder(g: GyroTable, subset, a: int) -> CosetFamily:
    """The cosets 0+H, a+H, ..., (p-1)a+H, sorted by least member.

    Refused with ValueError for an a outside 0..n-1 or inside H, and
    unless ``check_condition_multiples`` holds; the other two conditions
    are equivalent to it at prime index, and the sweep check
    ``prime-index-conditions-agree`` compares all three.  The cosets
    are then distinct and cover the carrier, so the family equals
    ``left_cosets``; the sweep check ``prime-index-ladder-matches-cosets``
    and the tests compare the two."""
    h, p = _prime_index_setup(g, subset)
    if not 0 <= a < g.order:
        raise ValueError(f"element {a} out of range 0..{g.order - 1}")
    if a in h:
        raise ValueError(f"{a} lies in the subgyrogroup")
    if not check_condition_multiples(g, h):
        raise ValueError("multiple-membership conditions fail; no ladder")
    ladder = sorted(
        (tuple(sorted(left_coset(g, h, g.int_multiple(i, a)))) for i in range(p)),
        key=lambda c: c[0],
    )
    return CosetFamily(g, tuple(sorted(h)), tuple(ladder), tuple(c[0] for c in ladder))


def smallest_prime_precondition(g: GyroTable, subset) -> bool:
    """Whether the index equals the least prime factor of the order; when it
    does, the divisor-restricted multiple condition holds (sweep check
    ``smallest-prime-implies-divisor-condition``)."""
    _, p = _prime_index_setup(g, subset)
    return g.order > 1 and p == least_prime_factor(g.order)


def _invariant_ladders(g: GyroTable, h: frozenset, p: int):
    """Outside elements y whose ladder cosets i.y + H (0 <= i < p) are all
    invariant under every gyration, least first, generated lazily."""
    return (
        y
        for y in g.elements()
        if y not in h
        and all(
            is_gyration_invariant(g, left_coset(g, h, g.int_multiple(i, y)))
            for i in range(p)
        )
    )


def gyration_invariant_witnesses(g: GyroTable, subset) -> list[int]:
    """All outside elements y whose ladder cosets i.y + H are invariant
    under every gyration (recorded as data, least first)."""
    return list(_invariant_ladders(g, *_prime_index_setup(g, subset)))


def normality_by_gyration_invariance(g: GyroTable, subset) -> tuple[bool, int | None]:
    """Decide normality through ladder invariance under gyrations.

    Requires the index to be the smallest prime dividing the order; the
    sweep check ``ladder-invariance-iff-normal`` compares the answer with
    the congruence normality decision.  The witness is the least one."""
    h, p = _prime_index_setup(g, subset)
    if g.order == 1 or p != least_prime_factor(g.order):
        raise ValueError(
            f"index {p} is not the smallest prime factor of {g.order}; criterion not applicable"
        )
    witness = next(_invariant_ladders(g, h, p), None)
    return witness is not None, witness


def index_two_normality(g: GyroTable, subset) -> bool:
    """At index 2, gyration invariance of H alone forces normality.

    Returns whether the invariance hypothesis holds; the sweep check
    ``index-two-theorem`` confirms normality whenever it does."""
    h, p = _prime_index_setup(g, subset)
    if p != 2:
        raise ValueError(f"index is {p}, not 2")
    return is_gyration_invariant(g, h)
