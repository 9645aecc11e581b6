"""The .gyro interchange format.

ASCII with LF line endings.  Lines starting with '#' are comments; blank
lines are ignored.  The first significant line is exactly ``gyro 1``, the
second is the order n >= 1, followed by n rows of n space-separated
integers in 0..n-1; row a column b holds a (+) b.  Every number is written
in ASCII decimal digits only (no sign, no underscore).  Index 0 must be the
left identity, which is validated on load, never assumed.  An order above
``core.DEFAULT_ORDER_CAP``, read at call time, is refused before any row is
read.

Each row is split on whitespace and read by one lookup table of the n
canonical spellings ``str(v)``.  A row with another token (a leading zero,
an entry out of range, anything but ASCII digits) or with the wrong number
of entries is read again token by token, which names what is wrong.
"""

from __future__ import annotations

from pathlib import Path

from . import core
from .core import GyroTable, ResourceCapError


class GyroParseError(ValueError):
    """The text is not a well-formed .gyro file."""


def _decimals(toks: list[str]) -> list[int]:
    """The numbers the tokens spell in ASCII decimal digits.  ValueError for
    anything else, including what int() alone would take: '+1', '-0', '1_0'
    and non-ASCII digits."""
    digits = "".join(toks)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not ASCII decimal digits: {digits!r}")
    return list(map(int, toks))


def parse_gyro(text: str) -> list[list[int]]:
    lines = [line for line in map(str.strip, text.split("\n")) if line and not line.startswith("#")]
    if not lines:
        raise GyroParseError("no significant lines")
    if lines[0] != "gyro 1":
        raise GyroParseError(f"bad header {lines[0]!r}, expected 'gyro 1'")
    if len(lines) < 2:
        raise GyroParseError("missing order line")
    try:
        n = _decimals([lines[1]])[0]
    except ValueError:
        raise GyroParseError(f"bad order line {lines[1]!r}") from None
    if n < 1:
        raise GyroParseError(f"order must be >= 1, got {n}")
    if n > core.DEFAULT_ORDER_CAP:
        raise ResourceCapError(
            "order_cap", f"order {n} exceeds cap {core.DEFAULT_ORDER_CAP}"
        )
    body = lines[2:]
    if len(body) != n:
        raise GyroParseError(f"expected {n} rows, found {len(body)}")
    # the canonical spelling of each entry, str(v), read by one lookup
    spelled = {str(v): v for v in range(n)}.__getitem__
    rows = []
    for i, line in enumerate(body):
        toks = line.split()
        if len(toks) == n:
            try:
                rows.append(list(map(spelled, toks)))
                continue
            except KeyError:
                pass
        try:
            row = _decimals(toks)
        except ValueError:
            raise GyroParseError(f"row {i}: non-integer entry in {line!r}") from None
        if len(row) != n:
            raise GyroParseError(f"row {i}: expected {n} entries, found {len(row)}")
        if max(row) >= n:
            v = next(v for v in row if v >= n)
            raise GyroParseError(f"row {i}: entry {v} out of range 0..{n - 1}")
        rows.append(row)
    return rows


def format_gyro(table) -> str:
    rows = table.table if isinstance(table, GyroTable) else [tuple(r) for r in table]
    n = len(rows)
    lines = ["gyro 1", str(n)]
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def load_rows(path) -> list[list[int]]:
    return parse_gyro(Path(path).read_text(encoding="ascii"))


def load_table(path) -> GyroTable:
    """Parse and fully validate; raises AxiomError when the axioms fail."""
    return GyroTable(load_rows(path))


def save_table(path, table) -> None:
    Path(path).write_text(format_gyro(table), encoding="ascii", newline="\n")
