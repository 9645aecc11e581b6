"""Finite gyrogroups represented as Cayley tables on 0..n-1.

Row ``a`` of the table lists ``a (+) b`` for ``b = 0..n-1``; index 0 is the
designated left identity.  Gyrations are never stored in input data: they are
derived from the table via the gyrator identity

    gyr[a, b] c  =  -(a (+) b) (+) (a (+) (b (+) c))

and memoized per cell.  All values are immutable after construction except
that cache and one per-table memo, ``_memo``, of structures derived from the
table; each key is filled by the module that owns it (``"gyrations"`` here,
``("cosets", H)`` by ``substructure``, ``("quotient", N)`` by
``normality``).  Every fill is idempotent (safe for concurrent readers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
        imgs = self.images
        return Perm._unchecked(tuple([imgs[i] for i in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm._unchecked(tuple(inv))

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


@dataclass(frozen=True)
class Violation:
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
    """Coerce to a tuple of tuple rows; raise MalformedTableError otherwise."""
    try:
        rows = tuple(tuple(row) for row in table)
    except TypeError as exc:
        raise MalformedTableError(f"not a table: {exc}") from None
    n = len(rows)
    if n == 0:
        raise MalformedTableError("empty table")
    for a, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTableError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTableError(f"entry ({a},{b}) = {v!r} out of range 0..{n - 1}")
    return rows


def _automorphism_failure(rows, g: tuple[int, ...]) -> tuple[int, ...] | None:
    """Why the bijection ``g`` is not an automorphism of ``rows``: the first
    ``(x, y)`` in row-major order with ``g[x (+) y] != g[x] (+) g[y]``;
    ``None`` if it is an automorphism."""
    for x, rx in enumerate(rows):
        gx = rows[g[x]]
        for y, xy in enumerate(rx):
            if g[xy] != gx[g[y]]:
                return (x, y)
    return None


def verify_axioms(table) -> AxiomReport:
    """Check whether a candidate n x n table defines a gyrogroup with identity 0.

    Row bijectivity is checked first; if it fails the gyration-based checks
    are skipped since gyrations are then ill defined.  G3 is checked by
    constructing each gyration via the gyrator identity and testing that it
    preserves the operation and that the left gyroassociative law holds; G4
    compares gyrations for all pairs.  Every gyration is a bijection: once
    the rows are permutations and every element has a left inverse, it is a
    composition of three rows.

    Whether a gyration preserves the operation depends on the gyration
    alone, so each of the d distinct gyrations is tested once
    and its outcome reported for every pair (a, b) that has it, with the
    same witness a per-pair test would find.  The cost is O(n^3 + d*n^2)
    rather than O(n^4); d is 2 on a passing order-64 table.
    """
    rows = _normalize_rows(table)
    n = len(rows)
    ident = list(range(n))
    violations: list[Violation] = []

    for a, row in enumerate(rows):
        if sorted(row) != ident:
            violations.append(Violation("ROW-BIJ", (a,), f"row {a} is not a permutation"))
    if violations:
        return AxiomReport(n, tuple(violations))

    for a in range(n):
        if rows[0][a] != a:
            violations.append(Violation("G1", (a,), f"0+{a} = {rows[0][a]} != {a}"))

    linv: list[int | None] = [None] * n
    for a in range(n):
        bs = [b for b in range(n) if rows[b][a] == 0]
        if not bs:
            violations.append(Violation("G2", (a,), f"no left inverse for {a}"))
        else:
            linv[a] = bs[0]
    if any(v.axiom == "G2" for v in violations):
        return AxiomReport(n, tuple(violations))

    # All gyrations via the gyrator identity.
    gyrs: list[list[tuple[int, ...]]] = []
    for a in range(n):
        ra = rows[a]
        row_g = []
        for b in range(n):
            rb = rows[b]
            rneg = rows[linv[ra[b]]]
            row_g.append(tuple(rneg[ra[rb[c]]] for c in range(n)))
        gyrs.append(row_g)

    failures: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            g = gyrs[a][b]
            if g in failures:
                failure = failures[g]
            else:
                failure = failures[g] = _automorphism_failure(rows, g)
            if failure is not None:
                violations.append(
                    Violation("G3", (a, b) + failure, "gyration does not preserve the operation")
                )
            rb = rows[b]
            rab = rows[ra[b]]
            for c in range(n):
                if ra[rb[c]] != rab[g[c]]:
                    violations.append(Violation("G3", (a, b, c), "left gyroassociativity fails"))
                    break

    for a in range(n):
        ra = rows[a]
        for b in range(n):
            if gyrs[ra[b]][b] != gyrs[a][b]:
                violations.append(Violation("G4", (a, b), "left loop property fails"))

    return AxiomReport(n, tuple(violations))


class GyroTable:
    """A validated finite gyrogroup.

    The constructor runs the full axiom check unless ``check=False`` is
    passed by internal code whose construction guarantees validity (direct
    products, quotients, relabelings).  Structural sanity (permutation rows,
    identity row, unique left inverses) is enforced in either case.
    """

    __slots__ = ("order", "table", "inv", "_gyr", "_memo")

    def __init__(self, table, *, check: bool = True):
        rows = _normalize_rows(table)
        if check:
            report = verify_axioms(rows)
            if not report.passed:
                raise AxiomError(report)
        n = len(rows)
        ident = list(range(n))
        inv = [0] * n
        for a in range(n):
            if sorted(rows[a]) != ident:
                raise MalformedTableError(f"row {a} is not a permutation")
            bs = [b for b in range(n) if rows[b][a] == 0]
            if len(bs) != 1:
                raise MalformedTableError(f"element {a} has {len(bs)} left inverses")
            inv[a] = bs[0]
        if rows[0] != tuple(ident):
            raise MalformedTableError("index 0 is not a left identity")
        self.order = n
        self.table = rows
        self.inv = tuple(inv)
        self._gyr: list[list[Perm | None]] = [[None] * n for _ in range(n)]
        # derived structures, one key per owner; see the module docstring
        self._memo: dict = {}

    # -- basic operations ---------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        if not (0 <= a < self.order and 0 <= b < self.order):
            raise IndexError(f"element out of range: ({a}, {b})")
        return self.table[a][b]

    def neg(self, a: int) -> int:
        """The unique b with b + a = 0 (also a + b = 0 on a valid table)."""
        b = self.inv[a]
        if self.table[a][b] != 0:
            raise InternalConsistencyError(f"left inverse of {a} is not a right inverse")
        return b

    def gyr(self, a: int, b: int) -> Perm:
        """The gyration generated by a and b, from the gyrator identity."""
        cached = self._gyr[a][b]
        if cached is not None:
            return cached
        rows = self.table
        ra, rb = rows[a], rows[b]
        rneg = rows[self.inv[ra[b]]]
        p = Perm._unchecked(tuple(rneg[ra[rb[c]]] for c in range(self.order)))
        self._gyr[a][b] = p  # idempotent fill
        return p

    def gyrations(self) -> frozenset:
        """The distinct gyrations gyr[a, b] over all pairs, built once from
        the per-cell memo and memoised per table."""
        if "gyrations" not in self._memo:
            els = self.elements()
            self._memo["gyrations"] = frozenset(self.gyr(a, b) for a in els for b in els)
        return self._memo["gyrations"]

    def coadd(self, a: int, b: int) -> int:
        """The dual operation a (+) gyr[a, -b] b."""
        return self.table[a][self.gyr(a, self.neg(b))(b)]

    def int_multiple(self, m: int, a: int) -> int:
        """m.a with 0.a = 0, m.a = a (+) (m-1).a, and (-m).a = m.(-a)."""
        if m < 0:
            return self.int_multiple(-m, self.neg(a))
        acc = 0
        row = self.table[a]
        for _ in range(m):
            acc = row[acc]
        return acc

    def left_translation(self, a: int) -> Perm:
        """The permutation x -> a (+) x, i.e. row a of the table."""
        return Perm._unchecked(self.table[a])

    # -- whole-table predicates ----------------------------------------------

    def is_group(self) -> bool:
        """True iff the operation is associative, equivalently all gyrations
        are the identity.  Decided by the associativity scan; the sweep check
        ``subgroup-characterizations-agree`` compares it with the gyration
        form on every subgyrogroup, the whole table included."""
        n = self.order
        rows = self.table
        return all(
            rows[rows[a][b]][c] == rows[a][rows[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    def is_gyrocommutative(self) -> bool:
        """True iff a (+) b = gyr[a, b](b (+) a) for all a, b."""
        rows = self.table
        return all(
            rows[a][b] == self.gyr(a, b)(rows[b][a])
            for a in range(self.order)
            for b in range(self.order)
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


def direct_product(g: GyroTable, h: GyroTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> GyroTable:
    """Componentwise product on pairs, indexed (a, x) -> a * |h| + x."""
    n = g.order * h.order
    if n > order_cap:
        raise ResourceCapError("order_cap", f"product order {n} exceeds cap {order_cap}")
    m = h.order
    gt, ht = g.table, h.table
    rows = []
    for a in range(g.order):
        ga = gt[a]
        for x in range(m):
            hx = ht[x]
            rows.append(tuple(ga[b] * m + hx[y] for b in range(g.order) for y in range(m)))
    return GyroTable(rows, check=False)
