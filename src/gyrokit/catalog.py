"""Stock Cayley tables: every group of order at most 8, indexed with the
identity at 0.  Groups are gyrogroups with identity gyrations, so these are
the associative half of the test corpus."""

from __future__ import annotations

from itertools import permutations

from .core import GyroTable, direct_product


def cyclic(n: int) -> GyroTable:
    return GyroTable([[(a + b) % n for b in range(n)] for a in range(n)])


def klein_four() -> GyroTable:
    return direct_product(cyclic(2), cyclic(2))


def sym3() -> GyroTable:
    """S3 on the six permutations of {0,1,2} in lexicographic image order.

    Entry (a, b) is the index of ``perm_a after perm_b`` (b applied first).
    """
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    return GyroTable([[idx[compose(p, q)] for q in perms] for p in perms])


def dihedral4() -> GyroTable:
    """Symmetries of the square; element e*4 + i is rotation i, flipped if e."""

    def mul(x, y):
        i, e = x % 4, x // 4
        j, f = y % 4, y // 4
        k = (i + j) % 4 if e == 0 else (i - j) % 4
        return ((e + f) % 2) * 4 + k

    return GyroTable([[mul(x, y) for y in range(8)] for x in range(8)])


def quaternion8() -> GyroTable:
    """Unit quaternions {1, i, j, k, -1, -i, -j, -k} in that index order."""
    # axis products: (axis, axis) -> (axis, sign); axis 0 is the scalar 1
    prod = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
            (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}

    def mul(x, y):
        sx, ax = x // 4, x % 4
        sy, ay = y // 4, y % 4
        sign = (-1) ** (sx + sy)
        if ax == 0:
            axis, s = ay, 1
        elif ay == 0:
            axis, s = ax, 1
        elif ax == ay:
            axis, s = 0, -1
        else:
            axis, s = prod[(ax, ay)]
        sign *= s
        return axis if sign > 0 else axis + 4

    return GyroTable([[mul(x, y) for y in range(8)] for x in range(8)])


def all_groups() -> dict[str, GyroTable]:
    """All groups of order <= 8 up to isomorphism, as gyrogroup tables."""
    return {
        "z1": cyclic(1),
        "z2": cyclic(2),
        "z3": cyclic(3),
        "z4": cyclic(4),
        "v4": klein_four(),
        "z5": cyclic(5),
        "z6": cyclic(6),
        "s3": sym3(),
        "z7": cyclic(7),
        "z8": cyclic(8),
        "z4xz2": direct_product(cyclic(4), cyclic(2)),
        "z2xz2xz2": direct_product(cyclic(2), klein_four()),
        "d4": dihedral4(),
        "q8": quaternion8(),
    }
