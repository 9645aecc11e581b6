"""Commutators and the commutator subgyrogroup.

The commutator [a, b] = -(a+b) + gyr[a, b](b+a) vanishes exactly when the
pair gyrocommutes.  The subgyrogroup G' it generates is invariant under
every automorphism and forms a group under the ambient operation; whether
G' is always normal is unsettled, so ``hunt_commutator_normality`` records
the answer per instance instead of assuming one.  The normal closure of G'
is the least normal subgyrogroup with gyrocommutative quotient and carries
the usual universal property, realized here by explicit table checks.

``commutator_subgyrogroup`` and ``nc_commutator`` compute their answers once;
the sweep's ``commutator-*`` and ``trivial-commutators-iff-gyrocommutative``
checks confirm the structure facts above on every table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GyroTable, InternalConsistencyError
from .substructure import SubSet, generate
from .normality import Hom, check_hom, is_normal, normal_closure, try_quotient


def commutator(g: GyroTable, a: int, b: int) -> int:
    """[a, b] = -(a+b) + gyr[a, b](b+a)."""
    t = g.table
    return t[g.neg(t[a][b])][g.gyr(a, b)(t[b][a])]


def commutator_subgyrogroup(g: GyroTable) -> SubSet:
    """The subgyrogroup generated by all commutators.

    It is always gyration-invariant (an L-subgyrogroup) and associative
    (a subgroup), and it is trivial iff the table is gyrocommutative; the
    sweep checks ``commutator-subgyrogroup-structure`` and
    ``trivial-commutators-iff-gyrocommutative`` confirm these."""
    return generate(g, {commutator(g, a, b) for a in g.elements() for b in g.elements()})


def nc_commutator(g: GyroTable) -> SubSet:
    """Normal closure of the commutator subgyrogroup.

    It is the 0-class of the congruence generated by identifying every
    commutator with 0 (Bruck 1958; union-find closure after Freese 2008),
    so no subgyrogroup lattice is enumerated and no order cap applies.
    The quotient by it is gyrocommutative and it is itself a subgroup; the
    sweep checks ``commutator-closure-properties`` and
    ``commutator-closure-minimality`` confirm these and its minimality over
    the whole normal lattice."""
    return normal_closure(g, commutator_subgyrogroup(g).members)


def check_universal_property(g: GyroTable, phi: Hom) -> Hom:
    """Factor a homomorphism into a gyrocommutative target through the
    quotient by the closure of the commutators.

    Returns the induced map on the quotient table.  Uniqueness is verified
    by exhausting, per coset, every codomain value consistent with the
    factoring equation."""
    if phi.domain is not g and phi.domain != g:
        raise ValueError("homomorphism domain mismatch")
    if not phi.codomain.is_gyrocommutative():
        raise ValueError("codomain is not gyrocommutative")
    if not check_hom(phi):
        raise ValueError("not a homomorphism")

    closure = nc_commutator(g)
    if not closure.as_set() <= {a for a in g.elements() if phi.map[a] == 0}:
        raise InternalConsistencyError("closure not contained in the kernel")

    q = try_quotient(g, closure)
    k = q.table.order
    induced: list[int | None] = [None] * k
    for i in range(k):
        coset = q.cosets.cosets[i]
        candidates = [
            v
            for v in phi.codomain.elements()
            if all(phi.map[a] == v for a in coset)
        ]
        if len(candidates) != 1:
            raise InternalConsistencyError(
                f"coset {i} admits {len(candidates)} factoring values, expected exactly 1"
            )
        induced[i] = candidates[0]
    factored = Hom(q.table, phi.codomain, tuple(induced))
    if not check_hom(factored):
        raise InternalConsistencyError("factored map is not a homomorphism")
    if any(factored.map[q.projection(a)] != phi.map[a] for a in g.elements()):
        raise InternalConsistencyError("factored map does not recover the original")
    return factored


@dataclass(frozen=True)
class HuntRecord:
    name: str
    order: int
    commutator_members: tuple[int, ...]
    commutators_normal: bool


def hunt_commutator_normality(named_tables) -> list[HuntRecord]:
    """Record, per instance, whether the commutator subgyrogroup is normal.

    A False entry would be a notable finding; no outcome is asserted."""
    records = []
    for name, table in named_tables:
        derived = commutator_subgyrogroup(table)
        records.append(
            HuntRecord(name, table.order, derived.members, is_normal(table, derived))
        )
    return records
