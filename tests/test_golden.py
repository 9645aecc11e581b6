"""Byte-stable output.

The sha256 of sixteen outputs is pinned: the theorem sweep over the
acceptance corpus, the sweep over the order-8 census, the sweep over two
order-16 products (na8xZ2 and Z4xZ4), ``analyze_object`` on the
nonassociative order-8 table, on na8xZ2 and on na8xV4 as JSON with sorted
keys, the member lists of ``normal_subgyrogroups`` on the order-64 product
na8xV4xZ2 as JSON, and ``gyrokit verify`` on row-swap mutants of na8xV4 and
of na8xZ8 (order 64, the order of the verify benchmark).
Nine more run the command line: ``sweep-theorems`` over the files that
``search 8 --out`` writes, ``analyze --json`` over each of those files in
sorted name order, the same two over the first five order-12 classes that
``search 12 --max-results 5 --out`` writes, ``analyze --json`` on
na8xV4xZ2 and on na8xna8, ``hunt --orders 8``, which reads the commutator
subgyrogroup of all 11
order-8 classes, and ``closure`` on a few seed sets of na8xZ32 (order 256,
the last order whose elements fit in a byte) and of na8xZ33 (order 264).  A change that moves any byte of these outputs changes
what gyrokit reports and has to re-pin the digest on purpose.

The tests use explicit asserts, which pytest keeps under ``python -O``, so
``python -O -m pytest tests/test_golden.py`` checks that the library's own
checks, which must not be asserts, give the same bytes there.
"""

import contextlib
import hashlib
import io
import json

import pytest

from gyrokit.catalog import cyclic, klein_four
from gyrokit.cli import analyze_object, main
from gyrokit.core import direct_product
from gyrokit.gyrofile import save_table
from gyrokit.normality import normal_subgyrogroups
from gyrokit.sweep import run_theorem_sweep


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_over_corpus(corpus):
    rendered = run_theorem_sweep(sorted(corpus.items())).render()
    assert rendered.splitlines()[-1] == "summary: checks=757 pass=757 fail=0 findings=30"
    assert sha256(rendered) == "c91030f32e0db5cb9d636b985a2e9f787f8f48e2dd4ce977c87003753e73db1f"


def test_sweep_over_census8(census8):
    rendered = run_theorem_sweep([(f"census8-{i}", t) for i, t in enumerate(census8)]).render()
    assert rendered.splitlines()[-1] == "summary: checks=559 pass=559 fail=0 findings=28"
    assert sha256(rendered) == "7aa9124706825e58f57841295b1bfa51a0371b65e1f48f083023805bcd44cd92"


def test_sweep_over_order16(nonassoc8):
    tables = [
        ("na8xZ2", direct_product(nonassoc8, cyclic(2))),
        ("Z4xZ4", direct_product(cyclic(4), cyclic(4))),
    ]
    rendered = run_theorem_sweep(tables).render()
    assert rendered.splitlines()[-1] == "summary: checks=102 pass=102 fail=0 findings=5"
    assert sha256(rendered) == "0c876e26114c46b8471a38930b4f79e4a3b832352b4e688e2e9fa671651e1eae"


def test_analyze_na8(nonassoc8):
    text = json.dumps(analyze_object(nonassoc8), sort_keys=True)
    assert sha256(text) == "0631291333899103835f5800757b965e9740f4c89904557ba97ce33e1aa87559"


def test_analyze_na8xz2(nonassoc8):
    text = json.dumps(analyze_object(direct_product(nonassoc8, cyclic(2))), sort_keys=True)
    assert sha256(text) == "5efd63e09bf6341fb466eea79e9a61cfb8609ffea23a4ed39e95ed562a4369e9"


def test_normal_subgyrogroups_na8xv4xz2(nonassoc8):
    # order 64, at the lattice cap: 425 normal subgyrogroups, in order
    g = direct_product(direct_product(nonassoc8, klein_four()), cyclic(2))
    members = [s.members for s in normal_subgyrogroups(g)]
    assert len(members) == 425
    assert sha256(json.dumps(members)) == "52546d696d03ffddf62183316dc52cc39dfa04dd34c532a7d26d746076224917"


def test_analyze_na8xv4(nonassoc8):
    # 158 subgyrogroups, so the whole lattice and its normal filter are pinned
    text = json.dumps(analyze_object(direct_product(nonassoc8, klein_four())), sort_keys=True)
    assert sha256(text) == "0b9fc2c9446e8f6402793b0e73891c25b0f7fd9bdc603722608d5d6b3bb42f5f"


def test_verify_row_swap_mutant_of_na8xv4(nonassoc8, tmp_path, capsys):
    # swap two nonzero entries of one row, outside row and column 0: rows
    # stay permutations, so every G1-G4 scan runs and reports witnesses
    rows = [list(r) for r in direct_product(nonassoc8, klein_four()).table]
    a, b1, b2 = 5, 9, 22
    assert rows[a][b1] and rows[a][b2]
    rows[a][b1], rows[a][b2] = rows[a][b2], rows[a][b1]
    path = tmp_path / "mutant.gyro"
    save_table(path, rows)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL order=32\n")
    assert sha256(out) == "a83969d4f0476f6441ec9b98c6bbd5d35937b2175d82ba4d652df81662cba22f"


def test_verify_row_swap_mutant_of_na8xz8(nonassoc8, tmp_path, capsys):
    # the order of the verify benchmark: 1,990 violations, all three kinds
    rows = [list(r) for r in direct_product(nonassoc8, cyclic(8)).table]
    a, b1, b2 = 37, 11, 50
    assert rows[a][b1] and rows[a][b2]
    rows[a][b1], rows[a][b2] = rows[a][b2], rows[a][b1]
    path = tmp_path / "mutant.gyro"
    save_table(path, rows)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL order=64\n")
    assert sha256(out) == "e5245042329c17b315060c89d1225803d75e4e8178ad660be2934caa2c8a4f19"


@pytest.fixture(scope="module")
def search8_files(tmp_path_factory):
    """The .gyro files of ``gyrokit search 8 --out``, sorted by name
    (8-0, 8-1, 8-10, 8-2, ...)."""
    out = tmp_path_factory.mktemp("search8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["search", "8", "--out", str(out)]) == 0
    return out, sorted(out.glob("*.gyro"), key=lambda p: p.name)


def test_cli_sweep_over_search8_files(search8_files, capsys):
    out, _ = search8_files
    capsys.readouterr()
    assert main(["sweep-theorems", str(out)]) == 0
    text = capsys.readouterr().out
    assert " fail=0 " in text.splitlines()[-1]
    assert sha256(text) == "4f856e0d3a405c965569847baa30a9a2f3767d1db7cc370d15dd80576139520c"


def test_cli_analyze_over_search8_files(search8_files, capsys):
    _, paths = search8_files
    assert len(paths) == 11
    capsys.readouterr()
    reports = []
    for path in paths:
        assert main(["analyze", str(path), "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert sha256("".join(reports)) == "7f3ecf658fc2e99c3d258539e845649c5569a92daf2860a5f5377d9b63ad05c1"


@pytest.fixture(scope="session")
def search12_files(tmp_path_factory):
    """The .gyro files of ``gyrokit search 12 --max-results 5 --out``, the
    first five order-12 classes in lex order (12-0 to 12-4; 12-3 and 12-4
    are nonassociative)."""
    out = tmp_path_factory.mktemp("search12")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["search", "12", "--max-results", "5", "--out", str(out)]) == 0
    return out, sorted(out.glob("*.gyro"), key=lambda p: p.name)


def test_cli_sweep_over_search12_files(search12_files, capsys):
    out, _ = search12_files
    capsys.readouterr()
    assert main(["sweep-theorems", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == "summary: checks=253 pass=253 fail=0 findings=11"
    assert sha256(text) == "22d23e2aee11b81c2deca18829490ccbb259d25f2d0c4a702174a8a05e427c38"


def test_cli_analyze_over_search12_files(search12_files, capsys):
    _, paths = search12_files
    assert [p.name for p in paths] == [f"12-{i}.gyro" for i in range(5)]
    capsys.readouterr()
    reports = []
    for path in paths:
        assert main(["analyze", str(path), "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert sha256("".join(reports)) == "7651c43432affd087e00ecdb6fc4c487fe3485ca0f28affbf06215612a2ee0ca"


def test_cli_analyze_na8xv4xz2(nonassoc8, tmp_path, capsys):
    # order 64, at the lattice cap: 425 normal subgyrogroups by joining cosets
    path = tmp_path / "na8xV4xZ2.gyro"
    save_table(path, direct_product(direct_product(nonassoc8, klein_four()), cyclic(2)).table)
    capsys.readouterr()
    assert main(["analyze", str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out) == "1f1e7d9fad47c97a38946a51455e660909319e23f32eeac887241c5b306b994e"


def test_cli_analyze_na8xna8(nonassoc8, tmp_path, capsys):
    # order 64, at the lattice cap: 64 elements in 25 orbits under the
    # gyrations and the maps x -> (a + x) + (-a)
    path = tmp_path / "na8xna8.gyro"
    save_table(path, direct_product(nonassoc8, nonassoc8).table)
    capsys.readouterr()
    assert main(["analyze", str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out) == "ee372142aba6143c495060cde4f79171757364f7ac48df8b9b9d8547a2ed5df0"


def test_cli_hunt_over_order8(capsys):
    # the commutator subgyrogroup of each order-8 class, from gyr per pair
    capsys.readouterr()
    assert main(["hunt", "--orders", "8"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == "no counterexample among 11 instances"
    assert sha256(text) == "d96eb31ea340a37d2a732a972e9c5a2dcda441ef8262dd2cedd398f32ebf987d"


@pytest.mark.parametrize(
    "m, seeds, digest",
    [
        # order 256: each element fits in a byte
        (32, ["1", "2", "32", "64", "2,32", "33", "167"], "9cfc917c1fc0d5cdc1a197ce4bbace26b4d9d2d7b53b5fe31ece57c53e0a83ad"),
        # order 264: one past the byte range
        (33, ["3", "33", "66", "3,33", "34", "172"], "8915e62af05643036bd953dbe5f01f83e08410d738d2fe8fd07499eee446f90f"),
    ],
)
def test_cli_closure_on_na8xz(nonassoc8, tmp_path, capsys, m, seeds, digest):
    # normal closures of seed sets in na8xZm, element (a, x) numbered a*m + x
    path = tmp_path / f"na8xZ{m}.gyro"
    save_table(path, direct_product(nonassoc8, cyclic(m)).table)
    capsys.readouterr()
    lines = []
    for seed in seeds:
        assert main(["closure", str(path), "--set", seed]) == 0
        lines.append(capsys.readouterr().out)
    assert sha256("".join(lines)) == digest
