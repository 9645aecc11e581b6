"""Commutators and the commutator subgyrogroup.

The commutator [a, b] = -(a+b) + gyr[a, b](b+a) vanishes exactly when the
pair gyrocommutes.  The subgyrogroup G' it generates is invariant under
every automorphism and forms a group under the ambient operation; whether
G' is always normal is unsettled, so ``hunt_commutator_normality`` records
the answer per instance instead of assuming one.  The normal closure of G'
is the least normal subgyrogroup with gyrocommutative quotient; the tests
check its universal property by explicit table checks.

``commutator_subgyrogroup`` computes its answer once per table, and
``nc_commutator`` closes it once per call; the sweep's ``commutator-*`` and
``trivial-commutators-iff-gyrocommutative`` checks confirm the structure
facts above on every table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GyroTable
from .substructure import SubSet, generate
# try_quotient is unused here, but perfbench/test_perfbench.py checks that the
# tracer rebinds it in this module
from .normality import is_normal, normal_closure, try_quotient  # noqa: F401


def commutator(g: GyroTable, a: int, b: int) -> int:
    """[a, b] = -(a+b) + gyr[a, b](b+a), by its definition, pair by pair;
    ``commutator_subgyrogroup`` reads all n^2 of them off the rows."""
    t = g.table
    return t[g.neg(t[a][b])][g.gyr(a, b)(t[b][a])]


def commutator_subgyrogroup(g: GyroTable) -> SubSet:
    """The subgyrogroup generated by all commutators, memoised per table
    under ``"commutator subgyrogroup"``, so ``nc_commutator`` and
    ``hunt_commutator_normality`` reuse it.

    The commutators are read in one pass over the rows, the gyration
    numbers ``_gyr`` and the columns (``GyroTable._columns``): for row a
    and each b, x = a+b, k = gyr number of (a, b) and y = b+a give
    [a, b] = (-x) + gyrs[k](y).  The tests compare it with the subgyrogroup
    generated by ``commutator`` over all pairs.

    It is always gyration-invariant (an L-subgyrogroup) and associative
    (a subgroup), and it is trivial iff the table is gyrocommutative; the
    sweep checks ``commutator-subgyrogroup-structure`` and
    ``trivial-commutators-iff-gyrocommutative`` confirm these."""
    found = g._memo.get("commutator subgyrogroup")
    if found is None:
        table, inv = g.table, g.inv
        images = [p.images for p in g._perms]
        found = generate(g, {
            table[inv[x]][images[k][y]]
            for ra, ka, col in zip(table, g._gyr, g._columns()[0])
            for x, k, y in zip(ra, ka, col)
        })
        g._memo["commutator subgyrogroup"] = found  # idempotent fill
    return found


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
