"""Finite gyrogroups represented as Cayley tables on 0..n-1.

Row ``a`` of the table lists ``a (+) b`` for ``b = 0..n-1``; index 0 is the
designated left identity.  Gyrations are never stored in input data: they are
derived from the table via the gyrator identity

    gyr[a, b] c  =  -(a (+) b) (+) (a (+) (b (+) c))

and numbered in one place, the axiom check.  Every ``GyroTable`` is built
by that check (``_verify_rows``), so every table is a verified gyrogroup and
keeps what the check built, once: the left inverses, the gyration numbering
and the row view: a table is the one store of its line views, rows and
columns, in the encoding ``_line_views`` decides.  A reader that wants
tuple getters of the rows builds them from ``table`` (``_getter``).  One
scan, ``_is_associative_on``, decides associativity for ``is_group`` and
``substructure.is_subgroup``.  All values are immutable
after construction except one per-table memo, ``_memo``, of structures
derived from the table, empty on a new table; each key is filled by the
module that owns it (``"columns"``, the column view, and ``("cycle", a)``
here, ``("cosets", H)`` and ``"lattice members"`` by ``substructure``,
``("normal", N)`` and ``("quotient", N)`` by ``normality``,
``"reversal kernel"`` and ``"lmlt"``, the whole group lmlt(G), by
``nuclei``, ``"commutator subgyrogroup"`` by ``commutator``).  Every fill
is idempotent (safe for concurrent readers), and every memoised value
lives as long as its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import itemgetter, ne
from typing import Iterable, NamedTuple

DEFAULT_ORDER_CAP = 4096


class MalformedTableError(ValueError):
    """Input is not a square table of integers in range."""


class AxiomError(ValueError):
    """A table handed to the validating constructor fails the axioms."""

    def __init__(self, report: "AxiomReport"):
        super().__init__(f"not a gyrogroup table: {report.summary()}")
        self.report = report


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured size cap."""

    def __init__(self, cap_name: str, message: str):
        super().__init__(message)
        self.cap_name = cap_name


class InternalConsistencyError(RuntimeError):
    """Two characterizations that must agree did not.  Indicates a bug."""


class Perm:
    """A bijection on 0..n-1, stored as its tuple of images.

    ``p * q`` composes as functions (``q`` applied first), ``p(x)`` applies.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs

    @classmethod
    def _unchecked(cls, imgs: tuple) -> "Perm":
        p = object.__new__(cls)
        p.images = imgs
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._unchecked(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm._unchecked(_getter(other.images)(self.images))

    def inverse(self) -> "Perm":
        return Perm._unchecked(_inverse_tuple(self.images))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


class Violation(NamedTuple):
    """One axiom failure with a witness that reproduces it."""

    axiom: str  # one of G1, G2, G3, G4, ROW-BIJ
    witness: tuple
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    order: int
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.passed:
            return f"PASS (order {self.order})"
        head = ", ".join(
            f"{v.axiom}{v.witness}" for v in self.violations[:4]
        )
        more = "" if len(self.violations) <= 4 else f" and {len(self.violations) - 4} more"
        return f"FAIL (order {self.order}): {head}{more}"


def _normalize_rows(table) -> tuple[tuple[int, ...], ...]:
    """Coerce to a tuple of tuple rows; raise MalformedTableError otherwise.

    A table of n rows of length n whose entries are plain ints is checked
    whole, by the set of entry types and the least and greatest value.  Any
    other table goes through the rows in order, each by its length and then
    entry by entry: this accepts ``int`` subclasses other than ``bool`` and
    names the first bad row or entry."""
    try:
        rows = tuple(map(tuple, table))
    except TypeError as exc:
        raise MalformedTableError(f"not a table: {exc}") from None
    n = len(rows)
    if n == 0:
        raise MalformedTableError("empty table")
    if set(map(len, rows)) == {n} and set(map(type, chain.from_iterable(rows))) == {int}:
        values = set().union(*rows)
        if min(values) >= 0 and max(values) < n:
            return rows
    for a, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTableError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTableError(f"entry ({a},{b}) = {v!r} out of range 0..{n - 1}")
    return rows


def _getter(perm: tuple[int, ...]):
    """``seq -> (seq[perm[0]], seq[perm[1]], ...)``, always a tuple: seq
    composed with perm, or a row restricted to a set of indices, in C.
    ``itemgetter`` of one index returns a scalar, so a single index, as at
    order 1 or for the set {0}, gets a one-member tuple of its own."""
    if len(perm) == 1:
        (i,) = perm
        return lambda seq: (seq[i],)
    return itemgetter(*perm)


def _inverse_tuple(p: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of the permutation with images ``p``."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _hom_failure(f, rows, k_rows) -> tuple[int, int] | None:
    """Why the map ``f`` does not preserve the operation: the first
    ``(x, y)`` in row-major order with ``f[x (+) y] != f[x] (+)' f[y]``;
    ``None`` if it does.  ``rows`` are the rows of the domain and
    ``k_rows`` those of the codomain.

    Row x compares f.L_x with L'_(f x).f as two tuples built in C, through
    the getter of row x, built when the scan reaches it; only the first row
    that differs is scanned for y."""
    after_f = _getter(f)
    for x, (get, fx) in enumerate(zip(map(_getter, rows), f)):
        lhs, rhs = get(f), after_f(k_rows[fx])
        if lhs != rhs:
            return x, next(y for y, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
    return None


def _gyrations_by_tuples(rows, linv) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Number the gyrations gyr[a, b] = L_(-x) L_a L_b, x = a (+) b, of a
    table with permutation rows; ``linv[x]`` is the least left inverse of x.

    Returns ``(gid, gyrs)``: ``gyrs`` lists the distinct gyrations as
    tuples in order of first appearance in row-major order, and
    ``gid[a][b]`` is the index of gyr[a, b] in it.  Each gyration is two
    ``itemgetter`` compositions in C, hashed once as an n-tuple.  Works at
    every order; ``verify_axioms`` uses it above order 256."""
    get = [_getter(row) for row in rows]
    number: dict[tuple[int, ...], int] = {}
    neg_rows = [rows[i] for i in linv]
    gid = [
        [number.setdefault(get_b(get_a(neg_rows[x])), len(number)) for get_b, x in zip(get, ra)]
        for get_a, ra in zip(get, rows)
    ]
    return gid, list(number)


def _translation_table(line):
    """``line``, of at most 256 bytes, padded to the 256-byte table of
    ``bytes.translate`` that maps x to line[x], one C call.  The padding
    is never read: a line of order n holds values below n only.  A
    ``bytearray`` stays one, so a write into it changes what later
    translations read."""
    return line.ljust(256)


def _line_views(lines) -> tuple:
    """``(lines, looks)``: the n rows or columns of a table of order n in
    the package's one line encoding, decided here, and ``looks[x](seq)``,
    line x read through seq (``seq[v]`` for each v of it), one C call.  Up
    to order 256, where an element fits in a byte, the lines are ``bytes``
    and each look is a bound ``translate``, which reads through a 256-byte
    table (``_translation_table``); above, tuples and their ``_getter``s."""
    if len(lines) > 256:
        return lines, list(map(_getter, lines))
    lines = list(map(bytes, lines))
    return lines, [line.translate for line in lines]


def _gyrations_by_bytes(rows, linv, tables) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """``_gyrations_by_tuples`` for orders up to 256, where each element
    fits in a byte: the same ``gid`` and gyrations, in the same order.

    ``tables`` is ``(brows, tab)``: the byte rows of the row view and each
    row a as a translation table ``tab[a]``, so that ``u.translate(tab[a])``
    is row a composed with u, and gyr[a, b] is
    ``rb.translate(tab[a]).translate(tab[linv[x]])``: two C calls over n
    bytes, hashed as one ``bytes`` key.  Equal gyrations give equal keys
    on both paths, so both number them alike."""
    brows, tab = tables
    neg_tab = [tab[i] for i in linv]
    number: dict[bytes, int] = {}
    gid = [
        [number.setdefault(rb.translate(ta).translate(neg_tab[x]), len(number)) for rb, x in zip(brows, ra)]
        for ta, ra in zip(tab, rows)
    ]
    return gid, [tuple(g) for g in number]


def _gyration_failures(rows, gyrs, tables) -> list[tuple[int, int] | None]:
    """``_hom_failure(g, rows, rows)`` for each gyration g in ``gyrs``.

    Given the ``tables`` of ``_gyrations_by_bytes`` (up to order 256),
    each row x is compared as ``bytes``: g.L_x is row x translated by g,
    L_(g x).g is g translated by row g(x), two C calls over n bytes, and
    ``compress`` finds the first row and entry that differ without an
    interpreted step per row.  ``tables`` is ``None`` above order 256."""
    if tables is None:
        return [_hom_failure(g, rows, rows) for g in gyrs]
    brows, tab = tables
    failures = []
    for g in map(bytes, gyrs):
        g_tab = _translation_table(g)
        lhs = map(bytes.translate, brows, repeat(g_tab))
        rhs = map(g.translate, map(tab.__getitem__, g))
        x = next(compress(count(), map(ne, lhs, rhs)), None)
        if x is not None:
            lhs, rhs = brows[x].translate(g_tab), g.translate(tab[g[x]])
            x = x, next(compress(count(), map(ne, lhs, rhs)))
        failures.append(x)
    return failures


def _is_associative_on(rows, members) -> bool:
    """Whether (a (+) b) (+) h = a (+) (b (+) h) for all a, b, h in
    ``members``, a set closed under the operation.  One compare per pair
    a, b: row a (+) b against L_a L_b, both restricted to the set, as
    tuples in C, with one getter per b for its restricted L_b."""
    pick = _getter(members)
    on_h = {x: pick(rows[x]) for x in members}
    after = [_getter(on_h[b]) for b in members]  # seq -> (seq[b + h] for h)
    return all(on_h[x] == after_b(rows[a]) for a in members for after_b, x in zip(after, on_h[a]))


def verify_axioms(table) -> AxiomReport:
    """Check whether a candidate n x n table defines a gyrogroup with identity 0.

    Row bijectivity is checked first; if it fails the gyration-based checks
    are skipped since gyrations are then ill defined.  G3 is checked by
    constructing each gyration via the gyrator identity and testing that it
    preserves the operation and that the left gyroassociative law holds; G4
    compares gyrations for all pairs.  The report lists the violations in
    the order of the per-pair check (``tests/axioms_oracle.py``): for each
    pair (a, b) in row-major order, its automorphism witness (a, b, x, y),
    then its gyroassociativity witness (a, b, c), each the least in its
    scan; then the G4 pairs.

    Every gyration is the composition of three rows,
    gyr[a, b] = L_(-x) L_a L_b with x = a (+) b and -x the least left
    inverse of x.  Up to order 256 an element fits in a byte, so each
    composition is one ``bytes.translate`` call over n bytes and each
    gyration is hashed as one ``bytes`` key (``_gyrations_by_bytes``);
    above 256 each composition is one ``itemgetter`` call that yields an
    n-tuple of ints (``_gyrations_by_tuples``).  ``_verify_rows`` picks
    the path; both number the gyrations alike, so the report does not
    depend on it.

    Whether a gyration preserves the operation depends on the gyration
    alone, so each of the d distinct gyrations is tested once (n row
    comparisons, two ``bytes.translate`` calls each up to order 256,
    ``_gyration_failures``) and its outcome reported for every pair that
    has it.

    Left gyroassociativity reduces to one test per element.  Pair (a, b)
    fails at c iff a (+) (b (+) c) != x (+) gyr[a, b] c, that is
    y != L_x L_(-x) y for y = L_a L_b c.  The rows are permutations here,
    so c -> y is onto 0..n-1: the pair fails iff L_x L_(-x) is not the
    identity, which depends on x alone.  So ``cancels[x]`` compares
    L_x L_(-x) with the identity once per x, and the c scan that finds the
    least witness runs only for the pairs with a (+) b = x and not
    ``cancels[x]``.  When every distinct gyration is an automorphism and
    every x cancels, no pair has a G3 violation and the per-pair loop is
    skipped.

    The cost is O(n^2) interpreted steps (per pair, the numbering builds
    and hashes its gyration and G4 compares two gyration numbers) plus
    O(n^3 + d*n^2) element copies and comparisons in C; d is 2 on a
    passing order-64 table.  The ``bytes`` path makes the C part of each
    step copy bytes, not object pointers with their reference counts.  A
    failing pair adds its witness scan, at most n steps, and one plain
    tuple per violation, all made ``Violation``s in one C pass at the end.  Reading the table is whole-row C steps too: one lookup
    per entry in ``gyrofile.parse_gyro``, one whole-table range check in
    ``_normalize_rows`` and one set per row for row bijectivity.
    """
    return _verify_rows(_normalize_rows(table))[0]


def _verify_rows(rows) -> tuple[AxiomReport, tuple | None]:
    """``verify_axioms`` on normalised rows: the report and, for a passing
    table, ``(linv, gid, gyrs, view)``, its left inverses, gyration
    numbering and row view ``(lines, looks)`` (``_line_views``); ``None``
    otherwise.  The numbering is the package's one: ``_gyrations_by_bytes``
    up to order 256, ``_gyrations_by_tuples`` above; both give the same
    ``(gid, gyrs)``, and on a passing table gyr[0, 0], the identity, is
    number 0.  On a passing table the n permutation rows hold n zeros, one
    per column by G2, so each left inverse is unique.  Violations are gathered as
    ``(axiom, witness, detail)`` tuples and made ``Violation``s at the end."""
    n = len(rows)

    # entries are in 0..n-1, so a row is a permutation iff it has n values
    records = [
        ("ROW-BIJ", (a,), f"row {a} is not a permutation")
        for a, size in enumerate(map(len, map(set, rows)))
        if size != n
    ]
    if records:
        return _report(n, records), None

    records = [("G1", (a,), f"0+{a} = {v} != {a}") for a, v in enumerate(rows[0]) if v != a]

    # linv[a]: the least b with b (+) a = 0; each row holds one 0
    linv: list[int | None] = [None] * n
    for b in reversed(range(n)):
        linv[rows[b].index(0)] = b
    if None in linv:
        records += [("G2", (a,), f"no left inverse for {a}") for a, b in enumerate(linv) if b is None]
        return _report(n, records), None

    # gyrs lists the distinct gyrations in order of first appearance, each
    # hashed once; gid[a][b] is the index of gyr[a, b] in it.  The byte
    # rows of the row view and their translation tables serve the numbering
    # and the automorphism tests alike.
    view = lines, looks = _line_views(rows)
    tables = (lines, list(map(_translation_table, lines))) if isinstance(lines[0], bytes) else None
    gid, gyrs = _gyrations_by_tuples(rows, linv) if tables is None else _gyrations_by_bytes(rows, linv, tables)
    failures = _gyration_failures(rows, gyrs, tables)
    # cancels[x]: whether L_x L_(-x) is the identity, one C composition:
    # row -x read through row x, as a translation table up to order 256
    through = rows if tables is None else tables[1]
    identity = type(lines[0])(range(n))
    cancels = [looks[y](tx) == identity for y, tx in zip(linv, through)]

    if not all(cancels) or any(f is not None for f in failures):
        for a, (ra, ga) in enumerate(zip(rows, gid)):
            for b, x in enumerate(ra):
                k = ga[b]
                if failures[k] is not None:
                    records.append(("G3", (a, b) + failures[k], "gyration does not preserve the operation"))
                if not cancels[x]:
                    g, rb, rx = gyrs[k], rows[b], rows[x]
                    for c in range(n):
                        if ra[rb[c]] != rx[g[c]]:
                            records.append(("G3", (a, b, c), "left gyroassociativity fails"))
                            break

    for a, (ra, ga) in enumerate(zip(rows, gid)):
        for b, x in enumerate(ra):
            if gid[x][b] != ga[b]:
                records.append(("G4", (a, b), "left loop property fails"))

    return _report(n, records), None if records else (linv, gid, gyrs, view)


def _report(n: int, records: list[tuple]) -> AxiomReport:
    """The report of ``(axiom, witness, detail)`` records, each made a
    ``Violation`` by ``tuple.__new__`` in C, without ``_make``'s call."""
    # tuple.__new__ skips the field count check: each record must be a 3-tuple
    return AxiomReport(n, tuple(map(tuple.__new__, repeat(Violation), records)))


class GyroTable:
    """A validated finite gyrogroup.

    The constructor runs the full axiom check (``_verify_rows``) and raises
    ``AxiomError`` with its report on a failing table, so every table in
    the process is a gyrogroup, including those the package builds itself
    (direct products, quotients, relabelings, search leaves).  It keeps
    what that check built, once: the left inverses ``inv``, the gyration
    numbers ``_gyr[a][b]`` into ``_perms``, the distinct gyrations as shared
    ``Perm`` objects, the identity first, and the row view ``_rows``,
    ``(lines, looks)`` in the encoding of ``_line_views``: byte rows with
    their bound ``translate`` up to order 256, the rows of ``table`` with
    their ``_getter``s above.  The column view in the same encoding is
    built on first use (``_columns``).  No table keeps tuple getters of
    its rows below order 256; a reader that wants them builds them.
    """

    __slots__ = ("order", "table", "inv", "_gyr", "_perms", "_rows", "_memo")

    def __init__(self, table):
        rows = _normalize_rows(table)
        report, passed = _verify_rows(rows)
        if passed is None:
            raise AxiomError(report)
        linv, gid, gyrs, self._rows = passed
        self.order = len(rows)
        self.table = rows
        self.inv = tuple(linv)
        self._gyr: list[list[int]] = gid
        self._perms = tuple(map(Perm._unchecked, gyrs))
        # derived structures, one key per owner; see the module docstring
        self._memo: dict = {}

    # -- basic operations ---------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        if not (0 <= a < self.order and 0 <= b < self.order):
            raise IndexError(f"element out of range: ({a}, {b})")
        return self.table[a][b]

    def _out_of_range(self, a: int) -> ValueError:
        return ValueError(f"element {a} out of range 0..{self.order - 1}")

    def neg(self, a: int) -> int:
        """The unique b with b + a = 0 (also a + b = 0 on a valid table).
        An a outside 0..n-1 raises ValueError."""
        if not 0 <= a < self.order:
            raise self._out_of_range(a)
        b = self.inv[a]
        if self.table[a][b] != 0:
            raise InternalConsistencyError(f"left inverse of {a} is not a right inverse")
        return b

    def _columns(self) -> tuple:
        """The column view ``(columns, looks)``: column b lists a (+) b for
        a = 0..n-1, in the encoding of the row view ``_rows``
        (``_line_views``), ``bytes`` with their bound ``translate`` up to
        order 256 and tuples with their getters above.  Built on first use,
        not with the rows, and memoised under ``"columns"``."""
        found = self._memo.get("columns")
        if found is None:
            found = self._memo["columns"] = _line_views(tuple(zip(*self.table)))
        return found

    def gyr(self, a: int, b: int) -> Perm:
        """The gyration generated by a and b, from the gyrator identity, as
        numbered at construction.  An a or b outside 0..n-1 raises
        ValueError."""
        n = self.order
        if not (0 <= a < n and 0 <= b < n):
            raise self._out_of_range(b if 0 <= a < n else a)
        return self._perms[self._gyr[a][b]]

    def gyrations(self) -> frozenset:
        """The distinct gyrations gyr[a, b] over all pairs: the numbered
        ones, ``_perms``."""
        return frozenset(self._perms)

    def coadd(self, a: int, b: int) -> int:
        """The dual operation a (+) gyr[a, -b] b.  An a or b outside 0..n-1
        raises ValueError, from ``neg`` or ``gyr``."""
        c = self.gyr(a, self.neg(b))(b)
        return self.table[a][c]

    def int_multiple(self, m: int, a: int) -> int:
        """m.a with 0.a = 0, m.a = a (+) (m-1).a, and (-m).a = m.(-a).

        So m.a = L_a^m(0) for m >= 0, and m.(-a) = L_a^-m(0) since
        L_(-a) = L_a^-1 by left cancellation: for every integer m, m.a is
        entry m mod k of the cycle of L_a through 0 (``_cycle``), one
        lookup after the first call.  An a outside 0..n-1 raises
        ValueError before any cycle is read or stored."""
        if not 0 <= a < self.order:
            raise self._out_of_range(a)
        cyc = self._cycle(a)
        return cyc[m % len(cyc)]

    def _cycle(self, a: int) -> tuple[int, ...]:
        """The cycle 0, L_a(0), L_a^2(0), ... of the permutation L_a,
        memoised under ``("cycle", a)``."""
        cyc = self._memo.get(("cycle", a))
        if cyc is None:
            row = self.table[a]
            cycle, x = [0], row[0]
            while x != 0:
                cycle.append(x)
                x = row[x]
            cyc = self._memo[("cycle", a)] = tuple(cycle)
        return cyc

    def left_translation(self, a: int) -> Perm:
        """The permutation x -> a (+) x, i.e. row a of the table.  An a
        outside 0..n-1 raises ValueError."""
        if not 0 <= a < self.order:
            raise self._out_of_range(a)
        return Perm._unchecked(self.table[a])

    # -- whole-table predicates ----------------------------------------------

    def is_group(self) -> bool:
        """True iff the operation is associative, equivalently all gyrations
        are the identity (``_is_associative_on`` over every element)."""
        return _is_associative_on(self.table, self.elements())

    def is_gyrocommutative(self) -> bool:
        """True iff a (+) b = gyr[a, b](b (+) a) for all a, b, read from
        the gyration numbering."""
        images = [p.images for p in self._perms]
        return all(
            x == images[k][y]
            for ra, ka, col in zip(self.table, self._gyr, self._columns()[0])
            for x, k, y in zip(ra, ka, col)
        )

    def right_identity_holds(self) -> bool:
        """Whether a (+) 0 = a for all a.

        This follows from the axioms but is verified rather than assumed; a
        validated table failing it would be a reportable finding."""
        return all(self.table[a][0] == a for a in range(self.order))

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GyroTable) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"GyroTable(order={self.order})"


def direct_product(g: GyroTable, h: GyroTable) -> GyroTable:
    """Componentwise product on pairs, indexed (a, x) -> a * |h| + x.  An
    order above ``DEFAULT_ORDER_CAP``, read when called, raises
    ``ResourceCapError`` first."""
    n = g.order * h.order
    if n > DEFAULT_ORDER_CAP:
        raise ResourceCapError("order_cap", f"product order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    m = h.order
    gt, ht = g.table, h.table
    rows = []
    for a in range(g.order):
        ga = gt[a]
        for x in range(m):
            hx = ht[x]
            rows.append(tuple(ga[b] * m + hx[y] for b in range(g.order) for y in range(m)))
    return GyroTable(rows)
