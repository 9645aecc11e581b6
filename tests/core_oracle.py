"""Per-element oracles for the whole-table predicates of ``gyrokit.core``
and for ``substructure.is_gyration_invariant``.

Each is the definition, one triple, pair or element at a time; the library
compares whole rows in C or reads the gyration numbering.  The gyrations
here are built cell by cell from the gyrator identity
(``nuclei_oracle.gyration``), so these share no code with the numbering.
"""

from __future__ import annotations

from nuclei_oracle import gyration

from gyrokit.core import GyroTable


def is_group_per_triple(g: GyroTable) -> bool:
    """(a + b) + c = a + (b + c) for every triple."""
    t = g.table
    els = g.elements()
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in els for b in els for c in els)


def is_gyrocommutative_per_pair(g: GyroTable) -> bool:
    """a + b = gyr[a, b](b + a) for every pair."""
    t = g.table
    els = g.elements()
    return all(t[a][b] == gyration(g, a, b)[t[b][a]] for a in els for b in els)


def is_gyration_invariant_per_element(g: GyroTable, subset) -> bool:
    """gyr[a, b] x is in S for every pair (a, b) and every x in S."""
    s = frozenset(subset)
    els = g.elements()
    return all(gyration(g, a, b)[x] in s for a in els for b in els for x in s)
