"""The gyration characterization of the nuclei, kept as an independent
oracle for ``gyrokit.nuclei``, which computes them from associativity.

An element a is in the left nucleus iff every gyr[a, b] is the identity, in
the middle nucleus iff every gyr[b, a] is, and in the right nucleus iff every
gyration fixes it.
"""

from __future__ import annotations

from gyrokit.core import GyroTable


def nucleus_by_gyrations(g: GyroTable, position: str) -> frozenset:
    els = range(g.order)
    if position == "left":
        return frozenset(a for a in els if all(g.gyr(a, b).is_identity() for b in els))
    if position == "middle":
        return frozenset(b for b in els if all(g.gyr(a, b).is_identity() for a in els))
    return frozenset(
        c for c in els if all(g.gyr(a, b)(c) == c for a in els for b in els)
    )
