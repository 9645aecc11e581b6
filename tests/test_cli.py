import json
from types import SimpleNamespace

import pytest

from gyrokit import cli, gyrofile, search
from gyrokit.catalog import cyclic
from gyrokit.cli import analyze_object, main
from gyrokit.commutator import commutator_subgyrogroup, nc_commutator
from gyrokit.core import Perm, ResourceCapError, direct_product
from gyrokit.gyrofile import (
    GyroParseError,
    format_gyro,
    load_table,
    parse_gyro,
    save_table,
)
from gyrokit.normality import is_normal
from gyrokit.nuclei import left_nucleus, lg_prime, lg_sharp, lmlt, radical, right_nucleus
from gyrokit.search import run_search
from gyrokit.substructure import enumerate_subgyrogroups


@pytest.fixture
def corpus_dir(tmp_path_factory, corpus):
    d = tmp_path_factory.mktemp("corpus")
    for name, table in corpus.items():
        save_table(d / f"{name}.gyro", table)
    return d


class TestGyroFormat:
    def test_round_trip(self, corpus):
        for g in corpus.values():
            text = format_gyro(g)
            assert parse_gyro(text) == [list(r) for r in g.table]
            assert text.endswith("\n") and "\r" not in text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\ngyro 1\n# another\n2\n0 1\n1 0\n"
        assert parse_gyro(text) == [[0, 1], [1, 0]]

    def test_header_required(self):
        with pytest.raises(GyroParseError):
            parse_gyro("gyro 2\n1\n0\n")
        with pytest.raises(GyroParseError):
            parse_gyro("1\n0\n")

    def test_short_row_rejected(self):
        with pytest.raises(GyroParseError):
            parse_gyro("gyro 1\n2\n0 1\n1\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(GyroParseError, match=r"^row 0: entry 2 out of range 0\.\.1$"):
            parse_gyro("gyro 1\n2\n0 2\n2 0\n")
        with pytest.raises(GyroParseError, match=r"^row 1: entry 3 out of range 0\.\.2$"):
            parse_gyro("gyro 1\n3\n0 1 2\n1 3 4\n2 0 1\n")

    @pytest.mark.parametrize("order", ["+2", "0_2", "\u0662", "-1", "2.0"])
    def test_non_decimal_order_rejected(self, order):
        with pytest.raises(GyroParseError) as exc_info:
            parse_gyro(f"gyro 1\n{order}\n0 1\n1 0\n")
        assert str(exc_info.value) == f"bad order line {order!r}"

    @pytest.mark.parametrize("line", ["1 0_0", "+1 0", "1 -0", "1 -1", "1 \u0660", "1 0.0"])
    def test_non_decimal_entry_rejected(self, line):
        with pytest.raises(GyroParseError) as exc_info:
            parse_gyro(f"gyro 1\n2\n0 1\n{line}\n")
        assert str(exc_info.value) == f"row 1: non-integer entry in {line!r}"

    def test_canonical_rows_read_by_lookup(self, nonassoc8, monkeypatch):
        # only the order line goes through the token-by-token reader
        real, read = gyrofile._decimals, []
        monkeypatch.setattr(gyrofile, "_decimals", lambda toks: read.append(toks) or real(toks))
        g = direct_product(nonassoc8, cyclic(2))
        assert parse_gyro(format_gyro(g)) == [list(r) for r in g.table]
        assert read == [["16"]]

    # spellings other than the canonical str(v), each read as before
    @pytest.mark.parametrize(
        "body, rows",
        [
            ("00 01\n1 0", [[0, 1], [1, 0]]),
            ("0\t1\n1 \t 0", [[0, 1], [1, 0]]),
            ("0   1\n  1  0  ", [[0, 1], [1, 0]]),
            ("0 001\n01 0", [[0, 1], [1, 0]]),
        ],
    )
    def test_other_spellings_parse(self, body, rows):
        assert parse_gyro(f"gyro 1\n2\n{body}\n") == rows

    @pytest.mark.parametrize(
        "order, body, message",
        [
            (2, "0 1\n2 0", "row 1: entry 2 out of range 0..1"),
            (2, "0 1\n02 0", "row 1: entry 2 out of range 0..1"),
            (10, "\n".join(["0 1 2 3 4 5 6 7 8 9", "10" + " 0" * 9] + ["0" + " 0" * 9] * 8),
             "row 1: entry 10 out of range 0..9"),
            (2, "0 1\n1", "row 1: expected 2 entries, found 1"),
            (2, "0 1 0\n1 0", "row 0: expected 2 entries, found 3"),
            (2, "0 x\n1 0", "row 0: non-integer entry in '0 x'"),
            (2, "0 1\n1 0 x", "row 1: non-integer entry in '1 0 x'"),
            # the count is checked before the range
            (2, "0 1 2\n1 0", "row 0: expected 2 entries, found 3"),
        ],
    )
    def test_other_spellings_rejected(self, order, body, message):
        with pytest.raises(GyroParseError) as exc_info:
            parse_gyro(f"gyro 1\n{order}\n{body}\n")
        assert str(exc_info.value) == message

    def test_load_validates_axioms(self, tmp_path):
        p = tmp_path / "bad.gyro"
        p.write_text("gyro 1\n3\n0 1 2\n1 2 0\n2 1 0\n")
        from gyrokit.core import AxiomError

        with pytest.raises(AxiomError):
            load_table(p)


class TestVerifyCommand:
    def test_pass(self, corpus_dir, capsys):
        assert main(["verify", str(corpus_dir / "z4.gyro")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        p = tmp_path / "broken.gyro"
        p.write_text("gyro 1\n2\n0 1\n1\n")
        assert main(["verify", str(p)]) == 1

    def test_non_decimal_entry_exit_1(self, tmp_path, capsys):
        p = tmp_path / "underscore.gyro"
        p.write_text("gyro 1\n2\n0 1\n1 0_0\n")
        assert main(["verify", str(p)]) == 1
        assert capsys.readouterr().out == "error: row 1: non-integer entry in '1 0_0'\n"

    def test_axiom_violation_exit_2(self, tmp_path, capsys):
        p = tmp_path / "violating.gyro"
        p.write_text("gyro 1\n4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 2 1 0\n")
        assert main(["verify", str(p)]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_missing_file_exit_1(self, capsys):
        assert main(["verify", "/nonexistent/nope.gyro"]) == 1

    def test_order_over_cap_exit_3_before_rows(self, tmp_path, capsys):
        p = tmp_path / "huge.gyro"
        p.write_text("gyro 1\n5000\n")
        with pytest.raises(ResourceCapError) as exc_info:
            parse_gyro(p.read_text())
        assert exc_info.value.cap_name == "order_cap"
        assert main(["verify", str(p)]) == 3
        assert "order_cap" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_z4_fields(self, corpus_dir, capsys):
        assert main(["analyze", str(corpus_dir / "z4.gyro"), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["order"] == 4
        assert obj["group"] is True
        assert obj["commutator_subgyrogroup"] == [0]
        assert obj["left_nucleus"] == [0, 1, 2, 3]
        assert obj["radical"] == [0]

    def test_report_fields_recomputable(self, corpus_dir, corpus):
        # every analyze field must equal a direct module computation
        for name, g in corpus.items():
            obj = analyze_object(g)
            assert obj["order"] == g.order
            assert obj["group"] == g.is_group()
            assert obj["gyrocommutative"] == g.is_gyrocommutative()
            assert obj["right_identity"] == g.right_identity_holds()
            assert obj["commutator_subgyrogroup"] == list(
                commutator_subgyrogroup(g).members
            )
            assert obj["nc_commutator"] == list(nc_commutator(g).members)
            assert obj["left_nucleus"] == list(left_nucleus(g).members)
            assert obj["right_nucleus"] == list(right_nucleus(g).members)
            assert obj["radical"] == list(radical(g).members)
            assert obj["lmlt_order"] == lmlt(g).order
            assert obj["lg_sharp_size"] == len(lg_sharp(g))
            assert obj["lg_prime_size"] == len(lg_prime(g))
            assert obj["normal_subgyrogroups"] == [
                list(s.members)
                for s in enumerate_subgyrogroups(g)
                if is_normal(g, s)
            ]

    def test_over_lattice_cap_exit_3(self, nonassoc8, tmp_path, capsys):
        # na8 x Z9 has order 72, above the lattice cap of 64
        path = tmp_path / "na8xz9.gyro"
        save_table(path, direct_product(nonassoc8, cyclic(9)))
        assert main(["analyze", str(path), "--json"]) == 3
        assert "lattice_cap" in capsys.readouterr().out

    def test_json_sorted_and_deterministic(self, corpus_dir, capsys):
        assert main(["analyze", str(corpus_dir / "na8.gyro"), "--json"]) == 0
        out1 = capsys.readouterr().out
        assert main(["analyze", str(corpus_dir / "na8.gyro"), "--json"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        obj = json.loads(out1)
        assert list(obj) == sorted(obj)


class TestQuotientClosureIndex:
    def test_quotient(self, corpus_dir, capsys):
        assert main(["quotient", str(corpus_dir / "z6.gyro"), "--set", "0,2,4"]) == 0
        out = capsys.readouterr().out
        assert parse_gyro(out) == [[0, 1], [1, 0]]

    def test_quotient_not_normal_exit_2(self, corpus_dir, capsys):
        assert main(["quotient", str(corpus_dir / "s3.gyro"), "--set", "0,2"]) == 2
        assert capsys.readouterr().out == (
            "not normal: congruence: the congruence generated by N identifies 1 with 0"
            " (witness (1,))\n"
        )

    def test_closure(self, corpus_dir, capsys):
        assert main(["closure", str(corpus_dir / "s3.gyro"), "--set", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0 1 2 3 4 5"

    def test_index(self, corpus_dir, capsys):
        assert main(["index", str(corpus_dir / "z6.gyro"), "--set", "0,3"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_index_not_subgyrogroup_exit_1(self, corpus_dir, capsys):
        assert main(["index", str(corpus_dir / "z6.gyro"), "--set", "0,1"]) == 1

    def test_index_overlapping_cosets_exit_2(self, corpus_dir, capsys):
        # {0, 4} is a subgyrogroup of na8 whose left cosets overlap
        assert main(["index", str(corpus_dir / "na8.gyro"), "--set", "0,4"]) == 2
        assert capsys.readouterr().out == (
            "cosets do not partition: left cosets overlap without being equal: [3, 7] vs [3, 6]\n"
        )

    @pytest.mark.parametrize(
        "command, members",
        [("index", "0,2,-2"), ("quotient", "0,2,-2"), ("index", "0,2,4"), ("quotient", "0,2,4")],
    )
    def test_out_of_range_members_exit_1(self, corpus_dir, capsys, command, members):
        assert main([command, str(corpus_dir / "z4.gyro"), "--set", members]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: members out of range 0..3: [")


class TestIsoCommand:
    def test_not_isomorphic(self, corpus_dir, capsys):
        assert main(["iso", str(corpus_dir / "z4.gyro"), str(corpus_dir / "v4.gyro")]) == 2
        assert "not isomorphic" in capsys.readouterr().out

    def test_isomorphic(self, corpus_dir, capsys):
        assert main(["iso", str(corpus_dir / "z4.gyro"), str(corpus_dir / "z4.gyro")]) == 0
        assert "witness" in capsys.readouterr().out

    def test_broken_witness_exit_2(self, corpus_dir, capsys, monkeypatch):
        # a search that yields the swap 1 <-> 2 on Z4, no homomorphism
        monkeypatch.setattr(search, "_isomorphisms", lambda g, h: iter([Perm((0, 2, 1, 3))]))
        z4 = str(corpus_dir / "z4.gyro")
        assert main(["iso", z4, z4]) == 2
        out = capsys.readouterr().out
        assert out == "internal consistency violation: isomorphism witness fails the full table scan\n"


class TestSearchCommand:
    def test_prints_tables(self, capsys):
        assert main(["search", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("gyro 1") == 2

    def test_max_results_prints_the_first_table(self, capsys):
        assert main(["search", "10"]) == 0
        every = capsys.readouterr().out
        assert main(["search", "10", "--max-results", "1"]) == 0
        first = capsys.readouterr().out
        assert first == format_gyro(run_search(search.SearchConfig(order=10)).tables[0])
        assert every.startswith(first) and every.count("gyro 1") == 2

    def test_writes_corpus_files(self, tmp_path, capsys):
        out_dir = tmp_path / "emitted"
        assert main(["search", "4", "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.glob("*.gyro"))
        assert names == ["4-0.gyro", "4-1.gyro"]
        for p in out_dir.glob("*.gyro"):
            load_table(p)  # parses and passes axioms

    def test_writes_order_nine_classes(self, tmp_path, capsys):
        out_dir = tmp_path / "nine"
        assert main(["search", "9", "--out", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.gyro"))
        assert [p.name for p in files] == ["9-0.gyro", "9-1.gyro"]
        for p in files:
            assert load_table(p).order == 9

    def test_first_nonassociative(self, tmp_path, capsys):
        out_dir = tmp_path / "na"
        code = main(
            ["search", "8", "--first-nonassociative", "--out", str(out_dir), "--time-budget", "3600"]
        )
        assert code == 0
        files = list(out_dir.glob("*.gyro"))
        assert len(files) == 1
        assert not load_table(files[0]).is_group()


class TestSweepCommand:
    def test_runs_clean_and_deterministic(self, corpus_dir, capsys):
        assert main(["sweep-theorems", str(corpus_dir)]) == 0
        out1 = capsys.readouterr().out
        assert main(["sweep-theorems", str(corpus_dir)]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert "fail=0" in out1

    def test_empty_dir_exit_1(self, tmp_path):
        assert main(["sweep-theorems", str(tmp_path)]) == 1


class TestHuntCommand:
    def test_over_corpus(self, corpus_dir, capsys):
        assert main(["hunt", "--corpus", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "no counterexample" in out or "counterexamples found" in out

    def test_over_searched_orders(self, capsys):
        assert main(["hunt", "--orders", "4", "5"]) == 0
        out = capsys.readouterr().out
        assert "search-4-0" in out

    def test_over_orders_nine_to_eleven(self, capsys):
        assert main(["hunt", "--orders", "9", "10", "11"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "no counterexample among 5 instances"

    def test_requires_input(self, capsys):
        assert main(["hunt"]) == 1

    def test_partial_search_exit_3(self, capsys):
        assert main(["hunt", "--orders", "8", "--time-budget", "1e-9"]) == 3
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "TIME BUDGET EXCEEDED: results are partial"

    def test_time_budget_spans_all_orders(self, monkeypatch, capsys):
        # a clock that stands still inside each search and advances 0.6 s
        # after it: order 5 gets the 0.4 s order 4 left, order 6 is skipped
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(monotonic=lambda: clock.now)
        monkeypatch.setattr(cli, "time", fake_time)
        monkeypatch.setattr(search, "time", fake_time)
        budgets = []

        def timed_search(config):
            budgets.append((config.order, config.time_budget))
            result = run_search(config)
            clock.now += 0.6
            return result

        monkeypatch.setattr(cli, "run_search", timed_search)
        assert main(["hunt", "--orders", "4", "5", "6", "--time-budget", "1.0"]) == 3
        assert budgets == [(4, 1.0), (5, pytest.approx(0.4))]
        out = capsys.readouterr().out
        assert "search-5-0" in out and "search-6" not in out
        assert out.splitlines()[-1] == "TIME BUDGET EXCEEDED: results are partial"

    def test_nonpositive_time_budget_is_usage_error(self):
        assert main(["hunt", "--orders", "4", "--time-budget", "0"]) == 1


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_bad_set_spec(self, corpus_dir):
        assert main(["index", str(corpus_dir / "z6.gyro"), "--set", "a,b"]) == 1
