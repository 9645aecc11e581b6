"""The universal property of the normal closure of the commutators, as a
test oracle.

``check_universal_property`` factors a homomorphism into a gyrocommutative
target through the quotient by ``nc_commutator`` and checks the factoring
by explicit table checks; each failed check raises
``InternalConsistencyError``.
"""

from __future__ import annotations

from gyrokit.commutator import nc_commutator
from gyrokit.core import GyroTable, InternalConsistencyError
from gyrokit.normality import Hom, check_hom, try_quotient


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
