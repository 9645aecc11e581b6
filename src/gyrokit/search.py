"""Exhaustive backtracking enumeration of gyrogroup tables of small order,
plus isomorphism testing, canonical forms, and automorphism groups.

The search assigns left-translation rows one at a time (row 0 is the
identity), so row bijectivity holds structurally.  Partial assignments are
pruned by facts every gyrogroup table satisfies:

  * column entries are distinct (right translations are bijections too);
  * a (+) 0 = a, so column 0 of row a is a;
  * the row of -a is the inverse permutation of the row of a;
  * gyrogroups are left Bol loops (Kiechle, Theory of K-Loops, LNM 1778,
    2002): La Lb La = L(a+(b+a)), so every pair of placed rows, b = 0
    included, determines a third;
  * left Bol loops are left power-alternative, L_a^m = L_(m.a) (Kiechle;
    Suksumran and Wiboonton, Quasigroups Related Systems 22, 2014), and
    L_b fixes no point for b != 0, so every cycle of L_a has length |a|:
    a candidate row has cycles of one length, a divisor of n.

The third and fourth force rows: each placement checks the rows it
determines against the rows already placed and records them for later
indices, and a forced index is assigned only its forced row.  A row forced
twice must be the same row both times.  Column distinctness is kept as one
set of claimed cells c * n + v (value v in column c), claimed and released
a whole row at a time in C.  A placed row claims its cells, and so does a forced row when it
is recorded, after one ``isdisjoint`` test against every placed and forced
cell: a forced row will be placed at its index, so a row sharing a cell
with it has no completion.  Candidate rows skip every claimed cell, and
they are built column by column, refusing each value that closes a cycle
of another length or grows a path past it, or that breaks L_a L_a or
L_a L_1 L_a on the columns set so far.  Every row of a gyrogroup table
passes all three, so this cuts no leaf, and the two Bol checks refuse
only rows that ``_propagate`` would refuse.  Each node releases only the
cells of its own row and of the forced rows it added.

An exception ends the search early through the DFS's ``finally`` blocks:
``_Limit`` once the result limit (1 in first-nonassociative mode) is
reached, complete, or ``_Budget`` once the time budget is spent, partial.
The clock is read before every candidate row and inside the symmetry cut,
once per inherited relabeling it compares (one whose next row is not placed
is handed on unread) and once per branch of its row-1 scan: order 16 ties
645,120 at row 1.

Every surviving leaf is built by the validating ``GyroTable`` constructor,
which runs the full axiom check from scratch and keeps the leaf's gyration
numbering, so the pruning only needs to be sound, never exact.  The
symmetry cut discards prefixes that are provably not the lexicographically
least relabeling of any completion, so each isomorphism class keeps exactly
its minimal table.  At row 1 the cut is decided by cycle type alone, and
only the rows it keeps are generated, one per divisor m >= 2 of n
(``_cycle_type_rows``).  A leaf has passed the cut on all its rows, so it
is its own canonical form and is kept as it is, and each index tries its
candidates in lex order, so the leaves come out sorted: nothing runs after
the tree.

Isomorphism uses two algorithms: one backtracking search, whose first
isomorphism answers ``are_isomorphic`` and whose full list from a table to
itself is ``automorphisms`` (``_isomorphisms``: it branches only on
elements the map so far does not force by closure, in lexicographic order
of the images, so the first map is the least witness and the list comes
sorted); and one branch-and-bound over relabelings,
``_smaller_relabelings``.  The symmetry cut asks whether it yields anything
on the rows placed so far; ``canonical_form`` takes its last answer on the
whole table.  The cut at depth k does not start afresh: it resumes the
relabelings that tied with the identity in the cut at depth k - 1, from the
row where each stopped, and scans only those that put label 1 on element k.
Up to order 256 the cut's rows and tie records are ``bytes``, and a
relabelled row is two ``translate`` calls (``_cut_encoding``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import chain, takewhile
from operator import add

from .core import (
    AxiomError,
    GyroTable,
    InternalConsistencyError,
    Perm,
    ResourceCapError,
    _getter,
    _hom_failure,
    _inverse_tuple,
    _translation_table,
)

DEFAULT_AUT_CAP = 16
DEFAULT_CANON_CAP = 8

MODE_EXHAUSTIVE = "exhaustive"
MODE_FIRST_NONASSOCIATIVE = "first_nonassociative"


@dataclass(frozen=True)
class SearchConfig:
    """``max_results`` (the first K classes, in lex order), first-nonassociative
    mode and ``time_budget`` (seconds) end the DFS the same way."""

    order: int
    mode: str = MODE_EXHAUSTIVE
    max_results: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.mode not in (MODE_EXHAUSTIVE, MODE_FIRST_NONASSOCIATIVE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


@dataclass
class SearchResult:
    tables: tuple[GyroTable, ...]
    complete: bool  # False only when the time budget cut the search short
    leaves: int = 0
    nodes: int = 0


class _Budget(Exception):
    """The time budget ran out: the search ends with a partial result."""


class _Limit(Exception):
    """The search kept as many tables as it may return: it ends complete."""


class _Search:
    def __init__(self, config: SearchConfig):
        self.config = config
        self.n = n = config.order
        self.rows: list[tuple | None] = [tuple(range(n))] + [None] * (n - 1)
        self.gets: list = [_getter(self.rows[0])] + [None] * (n - 1)  # gets[x] = _getter(rows[x])
        self.offsets = range(0, n * n, n)  # cell c * n + v holds value v in column c
        self.claimed = set(map(add, self.offsets, self.rows[0]))  # row 0 placed
        self.forced: dict[int, tuple] = {}
        budget = config.time_budget
        self.deadline = None if budget is None else time.monotonic() + budget
        self.nodes = 0
        self.leaves = 0
        self.found: list[GyroTable] = []
        self.limit = 1 if config.mode == MODE_FIRST_NONASSOCIATIVE else config.max_results

    # -- candidate rows -------------------------------------------------------

    def _row_candidates(self, a: int):
        """Candidate rows for element a, in lex order.

        A forced index gets its forced row alone: ``_force`` claimed its
        cells against every placed and forced cell.  Any other index gets
        the permutations p with p(0) = a that hold no claimed cell and whose
        cycles all have one length: a cell of a placed row would repeat a
        column entry, and a cell of a forced row would repeat one once that
        row is placed.  Each column's free values are listed once, when the
        first candidate is asked for.

        The cycle rule cuts no leaf: L_a^m = L_(m.a) in a gyrogroup (left
        Bol loops are left power-alternative: Kiechle, Theory of K-Loops,
        LNM 1778, 2002; Suksumran and Wiboonton, Quasigroups Related Systems
        22, 2014), and L_b fixes no point for b != 0, so every cycle of L_a
        has length |a|.  The row is built column by column, and the paths of
        the partial permutation are kept with their first and last points
        and sizes.  A value is refused if it closes a cycle of another
        length than a cycle already closed, or of a length that does not
        divide n, or if it grows a path past the length of a closed cycle.

        A value is also refused if it breaks the left Bol identity for
        y = 0 or 1 on the columns set so far.  L_a L_y L_a is the row at
        b = a + (y + a), the value of column L_y(a): column a for y = 0,
        and never column 0, as the index with L_1(a) = 0 is -1, forced by
        row 1.  Once b is set, p(L_y(p(x))) must be row b's value in column
        x whenever both maps are set, if b is placed or forced, and else a
        value that no row claims in column x.  Setting column c settles
        only x = c and the x with L_y(p(x)) = c; setting column L_y(a)
        settles every x up to it.  ``_propagate`` makes the same
        comparisons on the whole row, after more cells are claimed, so
        these checks refuse only rows it would refuse and cut no leaf.

        Row 1 gets only the rows the symmetry cut keeps, from
        ``_cycle_type_rows``: row 1 is never forced, and column c holds only
        c, so its candidates are the fixed-point-free permutations p with
        p(0) = 1 and cycles of one length, and the cut keeps one per
        length."""
        n = self.n
        if a == 1:
            yield from _cycle_type_rows(n)
            return
        p = self.forced.get(a)
        if p is not None:
            yield p
            return
        claimed, rows, forced = self.claimed, self.rows, self.forced
        allowed = [[v for v in range(n) if base + v not in claimed] for base in self.offsets]
        # targets[b][x]: the values row b may hold in column x, its own if b
        # is placed or forced, else every unclaimed one
        targets: list = [None] * n
        # the Bol rules for y = 0, 1: bols[L_y(a)] = (L_y, its inverse), set
        # at the column whose value is b = a + (y + a); live holds (L_y, its
        # inverse, targets[b]) for each rule whose b is set
        r1 = rows[1]
        bols: list = [None] * n
        bols[a], bols[r1[a]] = (rows[0], rows[0]), (r1, _inverse_tuple(r1))
        live: list = []
        row = [a] * n
        free = [True] * n
        free[a] = False
        where = [0] * n  # where[v]: the column holding v, while v is not free
        # the paths of the partial permutation: head[e] starts the path that
        # ends at e, tail[s] ends the one that starts at s, size[s] counts
        # its points; a point inside a path or a closed cycle is stale
        head = list(range(n))
        tail = list(range(n))
        size = [1] * n
        head[a], tail[0], size[0] = 0, a, 2
        length = 0  # the length of every cycle, once the first has closed
        closer = 0  # the column that closed the first cycle
        values = [None, iter(allowed[1])]  # values[c]: column c's free values left
        c = 1
        while c:
            s = head[c]  # column c extends the path s ... c
            for v in values[c]:
                if not free[v]:
                    continue
                if v == s:  # closes a cycle of size[s] points
                    k = size[s]
                    if k != length and (length or n % k):
                        continue
                elif length and size[s] + size[v] > length:
                    continue
                row[c] = v
                # L_a L_y L_a (x) = p(r(p(x))) must be row b's value in
                # column x: check x = c, and the x with r(p(x)) = c
                for r, rinv, ok in live:
                    u = r[v]
                    if u <= c and row[u] not in ok[c]:
                        break
                else:
                    if bols[c] is None:
                        break
                    # b = v: check every x whose image is set
                    r, rinv = bols[c]
                    ok = targets[v]
                    if ok is None:
                        q = rows[v] if v < a else forced.get(v)
                        ok = targets[v] = [(w,) for w in q] if q else [set(vs) for vs in allowed]
                    if all(r[u] > c or row[r[u]] in ok[x] for x, u in enumerate(row[: c + 1])):
                        break
            else:  # column c is exhausted: undo the value of column c - 1
                values.pop()
                c -= 1
                if bols[c] is not None:
                    live.pop()
                v = row[c]
                free[v] = True
                s = head[c]
                if v != s:
                    t = tail[s]
                    tail[s], head[t] = c, v
                    size[s] -= size[v]
                elif c == closer:
                    length = 0
                continue
            if c == n - 1:
                yield tuple(row)
            else:
                if v != s:
                    t = tail[v]
                    tail[s], head[t] = t, s
                    size[s] += size[v]
                elif not length:
                    length, closer = size[s], c
                free[v] = False
                where[v] = c
                if bols[c] is not None:
                    live.append((r, rinv, ok))
                c += 1
                vs = allowed[c]
                for r, rinv, ok in live:
                    u = rinv[c]
                    if not free[u]:
                        okx = ok[where[u]]
                        vs = [v for v in vs if v in okx]
                values.append(iter(vs))

    # -- forced rows ----------------------------------------------------------

    def _force(self, c: int, q: tuple, a: int, added: list[int]) -> bool:
        """Require row c to be q, rows 0..a being placed.  A placed row is
        compared; a later one is recorded in ``forced`` unless it already
        is, claims its cells, and its index goes on ``added`` for the caller
        to release.  False on a contradiction: a different row, or a cell
        that a placed or forced row already claims (two rows would share a
        column entry)."""
        if c <= a:
            return self.rows[c] == q
        f = self.forced.get(c)
        if f is not None:
            return f == q
        cells = tuple(map(add, self.offsets, q))
        if not self.claimed.isdisjoint(cells):
            return False
        self.claimed.update(cells)
        self.forced[c] = q
        added.append(c)
        return True

    def _propagate(self, a: int, added: list[int]) -> bool:
        """Force the rows that placing row a determines: the inverse of
        L_a at the index of -a, and L_x L_y L_x at x + (y + x) for each
        placed pair with a in {x, y} (the left Bol identity).  Each L_x L_y
        L_x is two tuple compositions in C, ``gets[x](gets[y](rows[x]))``;
        ``gets[a]`` is set here, so every placed row has its getter."""
        rows, gets = self.rows, self.gets
        p = rows[a]
        ga = gets[a] = _getter(p)
        if not self._force(p.index(0), _inverse_tuple(p), a, added):
            return False
        for y in range(a + 1):
            q = ga(gets[y](p))
            if not self._force(q[0], q, a, added):
                return False
        for x in range(1, a):
            q = gets[x](ga(rows[x]))
            if not self._force(q[0], q, a, added):
                return False
        return True

    # -- the tree -------------------------------------------------------------

    def _leaf(self):
        """Keep the leaf's table if it is one; ``_Limit`` ends the search."""
        self.leaves += 1
        try:
            table = GyroTable(self.rows)
        except AxiomError:
            return
        if self.config.mode == MODE_FIRST_NONASSOCIATIVE and table.is_group():
            return
        self.found.append(table)
        if len(self.found) == self.limit:
            raise _Limit

    def _dfs(self, a: int, records: list):
        """Place row a and recurse.  A candidate claims its cells, unless a
        is forced: its row claimed them when it was forced.  ``records``
        holds the relabelings that tied with the identity in the symmetry
        cut of the parent node; the cut here resumes them and hands its own
        ties to the child."""
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        if a == self.n:
            self._leaf()
            return
        self.nodes += 1
        claimed, offsets, forced = self.claimed, self.offsets, self.forced
        claims = a not in forced  # a forced row claimed its cells when forced
        for p in self._row_candidates(a):
            if deadline is not None and time.monotonic() > deadline:
                raise _Budget  # one node may have many candidates
            self.rows[a] = p
            if claims:
                claimed.update(map(add, offsets, p))
            added: list[int] = []
            ties: list = []
            try:
                if (
                    self._propagate(a, added)
                    and next(_smaller_relabelings(self.rows, a, records, ties, deadline), None) is None
                ):
                    self._dfs(a + 1, ties)
            finally:
                for c in added:
                    claimed.difference_update(map(add, offsets, forced.pop(c)))
                if claims:
                    claimed.difference_update(map(add, offsets, p))
                self.rows[a] = None

    def run(self) -> SearchResult:
        """Walk the tree and return the verified leaves, in the order the
        DFS reached them.

        Each leaf is kept as it is: the cut at row n - 1 found no relabeling
        that makes rows 1..n-1 smaller.  It resumed the ties handed down from
        row n - 2, which gives the verdict of a fresh scan (see
        ``_smaller_relabelings``), so it made exactly ``canonical_form``'s
        test.  The leaf is its own canonical form, and two leaves are never
        isomorphic.  Every index tries its candidates in lex order, so two
        leaves come out in the order of the first row where they differ:
        sorted.  A partial result holds every leaf verified before the
        deadline, as the table built during the run.

        The symmetry cut's row-1 scan nests one generator per cycle it
        opens, n/2 of them for the all-2-cycles row 1, so at large even
        orders (1990 under the default limit of 1000) the DFS outgrows the
        interpreter's recursion limit: that raises
        ``ResourceCapError("recursion", ...)``."""
        complete = True
        try:
            self._dfs(1, [])
        except _Limit:
            pass
        except _Budget:
            complete = False
        except RecursionError:
            limit = sys.getrecursionlimit()
            raise ResourceCapError("recursion", f"order {self.n} exceeds recursion limit {limit}") from None
        return SearchResult(tuple(self.found), complete, self.leaves, self.nodes)


def _cycle_type_rows(n: int):
    """The rows 1 that pass the symmetry cut at depth 1 and have cycles of
    one length, lazily and in lexicographic order: for each divisor m >= 2
    of n, in increasing order, (0 1 ... m-1)(m ... 2m-1)...

    Among the fixed-point-free permutations p with p(0) = 1, these are the
    least among their conjugates by relabelings fixing 0 and 1: at depth 1
    the cut keeps label 1 on element 1, so row 1 passes exactly when no
    relabeling fixing 0 and 1 makes it smaller, and each conjugacy class,
    a cycle type, has one least member.  First-appearance labelling walks
    the cycle through 0 first, giving (0 1 ... m-1), and opens each later
    cycle at its least free label s, giving (s s+1 ... s+m-1).  A shorter
    cycle through 0 writes 0 at cell m - 1, where a longer one writes m,
    so the rows come in increasing m."""
    for m in range(2, n + 1):
        if n % m == 0:
            yield tuple(x + 1 if (x + 1) % m else x + 1 - m for x in range(n))


def run_search(config: SearchConfig) -> SearchResult:
    """Enumerate gyrogroup tables of the configured order.

    Exhaustive mode returns one canonical table per isomorphism class, in
    lexicographic order, the first ``max_results`` of them if it is set.
    First-nonassociative mode stops at the first verified table that is not
    a group."""
    return _Search(config).run()


# -- isomorphism layer ---------------------------------------------------------


def _isomorphisms(g: GyroTable, h: GyroTable):
    """Every operation-preserving bijection g -> h fixing 0 (equal orders), in
    lexicographic order of its images, forced by closure (after Miller's
    generator technique, "On the n^(log n) isomorphism technique", STOC
    1978).

    Elements 1, 2, ... are decided in turn.  One that closure has mapped is
    skipped; any other, x, branches over the unused images v in increasing
    order whose L_v has the cycle through 0 of L_x's length (an isomorphism
    carries L_x^k(0) to L_v^k(0)).  Mapping x to v closes the map: each
    newly mapped a, in the order it was mapped, is paired with itself and
    every element mapped before it, which sets phi(a + b) = phi a + phi b
    and phi(b + a) = phi b + phi a.  A value that differs from one already
    set, or an image already used, cuts the branch.  Backtracking unmaps
    everything mapped since the branch.

    This is exact.  Closure sets only what the partial map forces, and the
    filter is an invariant, so no isomorphism is cut; a complete map is
    injective and has compared every pair, so it is an isomorphism.  When x
    branches, every element below it is mapped, and the elements closure
    maps are fixed by those choices, so the maps come in lexicographic
    order of their images: the first is the least witness, and the list
    from a table to itself is sorted."""
    n = g.order
    lg = [len(g._cycle(a)) for a in range(n)]
    lh = [len(h._cycle(a)) for a in range(n)]
    # a + b is g_sides[0][a][b] in g, and b + a is g_sides[1][a][b]; so in h
    g_sides = (g.table, g._columns()[0])
    h_sides = (h.table, h._columns()[0])
    phi = [0] + [-1] * (n - 1)
    used = [True] + [False] * (n - 1)
    mapped = [0]  # in the order they were mapped; mapped[:i] are closed

    def close(i: int) -> bool:
        while i < len(mapped):
            a = mapped[i]
            i += 1
            for gs, hs in zip(g_sides, h_sides):
                ga, ha = gs[a], hs[phi[a]]
                for b in mapped[:i]:
                    c, w = ga[b], ha[phi[b]]
                    fc = phi[c]
                    if fc < 0:
                        if used[w]:
                            return False
                        phi[c] = w
                        used[w] = True
                        mapped.append(c)
                    elif fc != w:
                        return False
        return True

    def extend(x: int):
        while x < n and phi[x] >= 0:
            x += 1
        if x == n:
            yield Perm._unchecked(tuple(phi))
            return
        mark = len(mapped)
        for v in range(1, n):
            if not used[v] and lh[v] == lg[x]:
                phi[x] = v
                used[v] = True
                mapped.append(x)
                if close(mark):
                    yield from extend(x + 1)
                for c in mapped[mark:]:
                    used[phi[c]] = False
                    phi[c] = -1
                del mapped[mark:]

    yield from extend(1)


def are_isomorphic(g: GyroTable, h: GyroTable) -> tuple[bool, Perm | None]:
    """The first isomorphism of the backtracking search, if any.

    The witness is the lexicographically least one; it is re-verified by a
    full scan."""
    witness = next(_isomorphisms(g, h), None) if g.order == h.order else None
    if witness is None:
        return False, None
    if _hom_failure(witness.images, g.table, h.table) is not None:
        raise InternalConsistencyError("isomorphism witness fails the full table scan")
    return True, witness


def automorphisms(g: GyroTable) -> list[Perm]:
    """All operation-preserving bijections (each fixes 0), sorted: the
    search lists them in lexicographic order.  Orders above
    ``DEFAULT_AUT_CAP``, read at call time, raise ``ResourceCapError``.

    They form a group containing every gyration of the table; the sweep
    check ``automorphism-group-closure`` confirms both."""
    n = g.order
    if n > DEFAULT_AUT_CAP:
        raise ResourceCapError("aut_cap", f"order {n} exceeds automorphism cap {DEFAULT_AUT_CAP}")
    return list(_isomorphisms(g, g))


class _Line(tuple):
    """A line of the symmetry cut above order 256, where an element does
    not fit in a byte: a tuple that ``translate`` reads as ``bytes``,
    ``line.translate(seq)`` being ``seq[v]`` for each v of the line."""

    __slots__ = ()

    def translate(self, seq):
        return _Line(map(seq.__getitem__, self))


def _cut_encoding(n: int) -> tuple:
    """``(line, table)``: the symmetry cut's encoding at order n, decided
    here as ``core._line_views`` decides a table's.  ``line(seq)`` makes a
    row, a label order or a label array a line, and ``table(line)`` is
    what ``translate`` reads through, so ``old.translate(table(row))`` is
    row after old, one C call.  Up to order 256 a line is ``bytes`` and
    its table is ``core._translation_table``; above, a line is a ``_Line``
    and is its own table."""
    if n > 256:
        return _Line, lambda line: line
    return bytes, _translation_table


def _relabeled_rows(tabs, k: int, old, label, x: int, best):
    """Compare label rows x, x + 1, ... of the relabeling (old, label) with
    the same cells of ``best``, while x <= k and old[x] <= k (its row is
    placed).  ``old`` is the label order as a line and ``label`` the table
    of the label array; label row x is ``old.translate(tabs[old[x]])
    .translate(label)``, two C calls, where ``tabs[a]`` is the table of row
    a.  Returns the next row and the outcome: True if every row compared
    equals best's, False at one that is smaller, None at one that is
    larger."""
    n = len(old)
    pos = (x - 1) * n
    while x <= k:
        a = old[x]
        if a > k:
            break
        end = pos + n
        new = old.translate(tabs[a]).translate(label)
        ref = best[pos:end]
        if new != ref:
            return x, None if new > ref else False
        pos = end
        x += 1
    return x, True


def _smaller_relabelings(rows, k: int, inherited=None, out=None, deadline=None):
    """Yield each relabeling fixing 0 that makes rows 1..k smaller than the
    best so far, as its cells in row-major order; the identity labeling is
    the first incumbent.  Rows 0..k must be placed; later rows may be None.

    Branch-and-bound over first-appearance labels (after McKay, Meynert and
    Myrvold, J. Combin. Des. 15, 2007).  Row 0 is the identity row in every
    relabeling, so rows 1..k are compared row-major as they are built.
    Label 1 branches over the placed rows.  Row 1 is then scanned cell by
    cell: a column label no element has yet branches over the unlabeled
    elements, and a value with no label yet gets the next free label, the
    least value its cell takes in any completion.  Row 1 is a permutation,
    so after it every element has a label and each later row is compared
    whole (``_relabeled_rows``).  A branch is cut once it exceeds the
    incumbent on a tied prefix, and it stops comparing at a row that is not
    placed: only a prefix already smaller there is yielded.  The yielded
    prefix becomes the incumbent, and a row past its end compares with an
    empty slice, which every row exceeds: no later relabeling ties there.

    The cut keeps its copies of the rows, its label orders and its label
    arrays as lines of ``_cut_encoding``: up to order 256, ``bytes``.

    The search's cut passes two more arguments and reads only whether
    anything is yielded.  Into the list ``out`` goes a record
    (old, label, x) of each relabeling that ties with the identity on every
    cell compared: its label order and its label array, n-byte lines up to
    order 256 (the label's table is rebuilt when the record is resumed),
    and the next label row to compare.  ``inherited`` holds the records of
    the parent node's cut at depth k - 1, which chose label 1 on each of
    the elements 1..k-1, so each record's x is at most k; here label 1
    branches only on element k.  A record whose element old[x] is not
    placed compares nothing and goes on to ``out`` as it is.  Every other
    record resumes at its row x, comparing the rows whose element is now
    placed: a smaller one ends the cut, a larger one is dropped, and a tied
    one goes on to ``out``.  This is exact (after McKay and Piperno, J.
    Symbolic Comput. 60, 2014): row 1 depends on the label-1 element alone,
    so the parent scanned every relabeling with label 1 below k over the
    same row 1; the cells compared here extend the parent's in the same
    row-major order, so one the parent found larger is larger here too; and
    the parent found none smaller, or this node would not exist.  So
    ``out`` equals the records of a scan over label 1 on 1..k with nothing
    inherited, as long as nothing is yielded.

    With a ``deadline`` (the search's, in ``time.monotonic`` seconds), the
    clock is read before each inherited record that compares a row and on
    each entry to the row-1 scan, and ``_Budget`` is raised once it has
    passed.  ``canonical_form`` passes none, so it always finishes."""
    n = len(rows)
    line, table = _cut_encoding(n)
    tabs = [table(line(row)) for row in rows[: k + 1]]
    best = line(chain.from_iterable(rows[1 : k + 1]))

    def prefix(old, label):
        # the cells of label rows 1.. up to k or to the first row not placed
        placed = takewhile(k.__ge__, old[1 : k + 1])
        return line(chain.from_iterable(old.translate(tabs[a]).translate(label) for a in placed))

    if inherited is not None:
        for record in inherited:
            old, label, x = record
            if old[x] > k:  # row x's element is not placed: nothing to compare
                if out is not None:
                    out.append(record)
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise _Budget
            label_table = table(label)
            x, tied = _relabeled_rows(tabs, k, old, label_table, x, best)
            if tied:
                if out is not None:
                    out.append((old, label, x))
            elif tied is not None:
                yield prefix(old, label_table)
                return
    old = [0]  # old[j] is the element labeled j
    label = [0] + [-1] * (n - 1)  # label[e] is the label of element e, or -1

    def scan(y: int, tied: bool):
        # row 1 from column y on; tied: cells < y equal best's
        nonlocal best
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        mark = len(old)
        row = rows[old[1]]
        while y < n:
            j = len(old)
            if y == j:
                for e in range(1, n):
                    if label[e] < 0:
                        label[e] = j
                        old.append(e)
                        yield from scan(y, tied)
                        old.pop()
                        label[e] = -1
                        tied = True  # best now shares the cells < y
                break
            e = row[old[y]]
            v = label[e]
            if v < 0:
                v = label[e] = j
                old.append(e)
            if tied:
                if v > best[y]:
                    break
                tied = v == best[y]
            y += 1
        else:
            # rows 2.. up to k or to the first row not placed
            old_line, label_line = line(old), line(label)
            label_table = table(label_line)
            if tied:
                x, tied = _relabeled_rows(tabs, k, old_line, label_table, 2, best)
                if tied and out is not None:
                    out.append((old_line, label_line, x))
            if tied is False:
                best = prefix(old_line, label_table)
                yield best
        for e in old[mark:]:
            label[e] = -1
        del old[mark:]

    for a in range(1, k + 1) if inherited is None else (k,):
        label[a] = 1
        old.append(a)
        yield from scan(0, True)
        old.pop()
        label[a] = -1


def canonical_form(g: GyroTable) -> GyroTable:
    """The lexicographically least relabeling of the table fixing 0.

    Two tables are isomorphic iff their canonical forms are identical.  It
    is the last table ``_smaller_relabelings`` yields over rows 1..n-1, or
    the table itself if none is smaller; the search's symmetry cut runs the
    same routine on the rows placed so far.  Orders above
    ``DEFAULT_CANON_CAP``, read at call time, raise ``ResourceCapError``."""
    n = g.order
    if n > DEFAULT_CANON_CAP:
        raise ResourceCapError(
            "canon_cap", f"order {n} exceeds canonical-form cap {DEFAULT_CANON_CAP}"
        )
    best = None
    for best in _smaller_relabelings(g.table, n - 1):
        pass
    if best is None:
        return g
    rows = [tuple(range(n))] + [tuple(best[r : r + n]) for r in range(0, len(best), n)]
    return GyroTable(rows)
