"""Independent oracles for ``gyrokit.search``.

``prefix_lex_minimal(rows, k)`` is the search's original symmetry cut, kept
as an oracle for ``_smaller_relabelings``: the recursive test the search ran
on every node before the cut and ``canonical_form`` shared one routine.
With rows 0..k placed (later rows None), it is False iff some relabeling
fixing 0 makes the placed region lexicographically smaller.  It maps rows
and columns by forward and backward arrays with manual undo and returns at
the first smaller cell.  It shares no code with the library.

``_Search`` is the exhaustive search as it was before it forced rows by the
left Bol identity: it builds every column-compatible permutation row, pairs
inverse rows, and tests each placement with the translation-form gyration
checks of ``_partial_ok``.  The tests compare its canonical tables and its
verified labelled leaves (``found``) with the library's.  It shares the
symmetry cut, ``canonical_form`` and the validating ``GyroTable``
constructor with the library, not the row generation or pruning.  Its own
keyword ``symmetry_breaking=False`` skips the cut and keeps every labelled
leaf, then canonicalises them after the tree; the library always cuts.
"""

from __future__ import annotations

import time

from gyrokit.core import AxiomError, GyroTable
from gyrokit.search import (
    MODE_EXHAUSTIVE,
    MODE_FIRST_NONASSOCIATIVE,
    SearchConfig,
    SearchResult,
    _Budget,
    _inverse_tuple,
    _smaller_relabelings,
    canonical_form,
)


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


class _Search:
    def __init__(self, config: SearchConfig, symmetry_breaking: bool = True):
        self.config = config
        self.symmetry_breaking = symmetry_breaking
        n = config.order
        self.n = n
        self.rows: list[tuple | None] = [tuple(range(n))] + [None] * (n - 1)
        self.invs: list[tuple | None] = [self.rows[0]] + [None] * (n - 1)
        self.col_used = [set((c,)) for c in range(n)]  # row 0 pre-placed
        self.forced: dict[int, tuple] = {}
        self.deadline = None
        if config.time_budget is not None:
            self.deadline = time.monotonic() + config.time_budget
        self.nodes = 0
        self.leaves = 0
        self.found: list[GyroTable] = []
        self.stop = False

    # -- candidate rows -------------------------------------------------------

    def _row_candidates(self, a: int):
        """Column-compatible permutation rows for element a, in lex order."""
        n = self.n
        if a in self.forced:
            p = self.forced[a]
            if all(p[c] not in self.col_used[c] for c in range(1, n)):
                yield p
            return
        col_used = self.col_used
        prefix = [a]
        free = [True] * n
        free[a] = False

        def extend(c: int):
            if c == n:
                yield tuple(prefix)
                return
            used_c = col_used[c]
            for v in range(n):
                if free[v] and v not in used_c:
                    free[v] = False
                    prefix.append(v)
                    yield from extend(c + 1)
                    prefix.pop()
                    free[v] = True

        yield from extend(1)

    # -- pruning checks -------------------------------------------------------

    def _pair_ok(self, a: int, p: tuple) -> tuple | None:
        """Inverse-pairing constraints for placing row p at index a.

        Returns the row index that this placement forces (or -1 for none),
        or None when the placement is inconsistent."""
        c = p.index(0)  # the left inverse of c is a; row c must be p^-1
        if c < a:
            if self.rows[c] != _inverse_tuple(p):
                return None
            return -1
        if c == a:
            if p != _inverse_tuple(p):
                return None
            return -1
        if c in self.forced and self.forced[c] != _inverse_tuple(p):
            return None
        return c

    def _partial_ok(self, k: int) -> bool:
        """Translation-form gyration checks over rows 0..k."""
        n, rows, invs = self.n, self.rows, self.invs
        for x in range(1, k + 1):
            rx = rows[x]
            for y in range(1, k + 1):
                t = rx[y]
                if t > k:
                    continue
                ry = rows[y]
                qt = invs[t]
                g = [qt[rx[ry[c]]] for c in range(n)]
                # left loop property against row t (+) y when available
                u = rows[t][y]
                if u <= k:
                    qu = invs[u]
                    rt = rows[t]
                    if any(qu[rt[c]] != qt[rx[c]] for c in range(n)):
                        return False
                # the gyration must preserve the operation where determined
                for v in range(k + 1):
                    gv = g[v]
                    if gv > k:
                        continue
                    rv = rows[v]
                    rgv = rows[gv]
                    if any(g[rv[w]] != rgv[g[w]] for w in range(n)):
                        return False
        return True

    # -- the tree -------------------------------------------------------------

    def _leaf(self):
        rows = [r for r in self.rows if r is not None]
        self.leaves += 1
        try:
            table = GyroTable(rows)
        except AxiomError:
            return
        if self.config.mode == MODE_FIRST_NONASSOCIATIVE:
            if table.is_group():
                return
            self.found.append(table)
            self.stop = True
            return
        self.found.append(table)

    def _dfs(self, a: int):
        if self.stop:
            return
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Budget
        if a == self.n:
            self._leaf()
            return
        self.nodes += 1
        for p in self._row_candidates(a):
            forced_row = self._pair_ok(a, p)
            if forced_row is None:
                continue
            self.rows[a] = p
            self.invs[a] = _inverse_tuple(p)
            for c in range(1, self.n):
                self.col_used[c].add(p[c])
            if forced_row >= 0:
                self.forced[forced_row] = self.invs[a]
            try:
                if self._partial_ok(a) and (
                    not self.symmetry_breaking
                    or next(_smaller_relabelings(self.rows, a), None) is None
                ):
                    self._dfs(a + 1)
            finally:
                if forced_row >= 0:
                    del self.forced[forced_row]
                for c in range(1, self.n):
                    self.col_used[c].discard(p[c])
                self.rows[a] = None
                self.invs[a] = None
            if self.stop:
                return

    def run(self) -> SearchResult:
        complete = True
        try:
            self._dfs(1)
        except _Budget:
            complete = False
        tables = self.found
        if self.config.mode == MODE_EXHAUSTIVE:
            canon = set()
            for t in tables:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    complete = False
                    break
                canon.add(canonical_form(t, cap=self.n).table)
            tables = [GyroTable(rows) for rows in sorted(canon)]
        if self.config.max_results is not None:
            tables = tables[: self.config.max_results]
        return SearchResult(tuple(tables), complete, self.leaves, self.nodes)
