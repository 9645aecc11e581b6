"""Byte-stable output.

The sha256 of five outputs is pinned: the theorem sweep over the acceptance
corpus, the sweep over the order-8 census, ``analyze_object`` on the
nonassociative order-8 table and on na8xV4 as JSON with sorted keys, and
``gyrokit verify`` on a row-swap mutant of na8xV4.  A change that moves
any byte of these outputs changes what gyrokit reports and has to re-pin the
digest on purpose.
"""

import hashlib
import json

from gyrokit.catalog import klein_four
from gyrokit.cli import analyze_object, main
from gyrokit.core import direct_product
from gyrokit.gyrofile import save_table
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


def test_analyze_na8(nonassoc8):
    text = json.dumps(analyze_object(nonassoc8), sort_keys=True)
    assert sha256(text) == "0631291333899103835f5800757b965e9740f4c89904557ba97ce33e1aa87559"


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
