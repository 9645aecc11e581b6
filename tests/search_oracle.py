"""The search's original symmetry cut, kept as an independent oracle for
``gyrokit.search._smaller_relabelings``.

``prefix_lex_minimal(rows, k)`` is the recursive test the search ran on
every node before the cut and ``canonical_form`` shared one routine: with
rows 0..k placed (later rows None), it is False iff some relabeling fixing
0 makes the placed region lexicographically smaller.  It maps rows and
columns by forward and backward arrays with manual undo and returns at the
first smaller cell.  It shares no code with the library.
"""

from __future__ import annotations


def prefix_lex_minimal(rows: list, k: int) -> bool:
    """False iff some relabeling fixing 0 makes the assigned region of
    the table lexicographically smaller, comparing only cells that are
    determined on both sides.  Keeps at least the minimal table of every
    isomorphism class."""
    n = len(rows)
    fwd: list[int | None] = [None] * n  # original -> new
    bwd: list[int | None] = [None] * n  # new -> original
    fwd[0] = 0
    bwd[0] = 0

    def smaller_from(x: int, y: int) -> bool:
        if x > k:
            return False  # comparison ran past the determined region
        if y == n:
            return smaller_from(x + 1, 0)
        a = bwd[x]
        if a is None:
            for cand in range(1, k + 1):
                if fwd[cand] is None:
                    fwd[cand] = x
                    bwd[x] = cand
                    if smaller_from(x, y):
                        fwd[cand] = None
                        bwd[x] = None
                        return True
                    fwd[cand] = None
                    bwd[x] = None
            return False
        if rows[a] is None:
            return False  # pinned to an unassigned row: cell undetermined
        b = bwd[y]
        if b is None:
            for cand in range(1, n):
                if fwd[cand] is None:
                    fwd[cand] = y
                    bwd[y] = cand
                    if smaller_from(x, y):
                        fwd[cand] = None
                        bwd[y] = None
                        return True
                    fwd[cand] = None
                    bwd[y] = None
            return False
        w = rows[a][b]
        t = rows[x][y]
        v = fwd[w]
        if v is not None:
            if v < t:
                return True
            if v > t:
                return False
            return smaller_from(x, y + 1)
        if any(bwd[u] is None for u in range(t)):
            return True  # map w below t and win immediately
        if bwd[t] is None:
            fwd[w] = t
            bwd[t] = w
            result = smaller_from(x, y + 1)
            fwd[w] = None
            bwd[t] = None
            return result
        return False

    return not smaller_from(1, 0)
