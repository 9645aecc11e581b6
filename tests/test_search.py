import copy
import hashlib
import itertools
import math
import random
import sys
from operator import add, eq
from types import SimpleNamespace

import isomorphism_oracle as oracle
import pytest
import search_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrokit import search
from gyrokit.catalog import all_groups, cyclic, klein_four, sym3
from gyrokit.cli import main
from gyrokit.core import GyroTable, InternalConsistencyError, Perm, ResourceCapError, direct_product, verify_axioms
from gyrokit.search import (
    MODE_FIRST_NONASSOCIATIVE,
    SearchConfig,
    are_isomorphic,
    automorphisms,
    canonical_form,
    run_search,
)

KNOWN_GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}
# (nodes, leaves) of the exhaustive search
EXHAUSTIVE_COUNTS = {
    1: (0, 1),
    2: (1, 1),
    3: (2, 1),
    4: (5, 2),
    5: (4, 1),
    6: (14, 2),
    7: (6, 1),
    8: (55, 11),
}
# isomorphism classes of the exhaustive search, orders 1-11
CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 11, 9: 2, 10: 2, 11: 1}


@pytest.fixture(scope="module")
def exhaustive():
    """The exhaustive search, orders 1-11."""
    return {n: run_search(SearchConfig(order=n)) for n in CLASS_COUNTS}


def cycle_lengths(p: tuple) -> list[int]:
    """The length of each cycle of the permutation p."""
    seen = [False] * len(p)
    lengths = []
    for x in range(len(p)):
        k = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            k += 1
        if k:
            lengths.append(k)
    return lengths


def bol_rules_hold(s, a: int, p: tuple) -> bool:
    """The left Bol identity for y = 0 and y = 1 on a whole row p at index
    a: L_a L_y L_a is the row at index b = a + (y + a), its value at 0.  It
    must equal row b if b is placed or forced, and hold no claimed cell if
    not."""
    n = s.n
    for ry in s.rows[:2]:
        q = tuple(p[ry[p[x]]] for x in range(n))
        b = q[0]
        want = s.rows[b] if b < a else s.forced.get(b)
        if want is None:
            if any(x * n + w in s.claimed for x, w in enumerate(q)):
                return False
        elif q != want:
            return False
    return True


def unclaimed_rows(s, a: int) -> list[tuple]:
    """Every permutation p with p(0) = a that holds no claimed cell, in lex
    order."""
    n = s.n
    allowed = [[v for v in range(n) if x * n + v not in s.claimed] for x in range(n)]
    row, used, out = [a] * n, {a}, []

    def extend(c: int):
        if c == n:
            out.append(tuple(row))
            return
        for v in allowed[c]:
            if v not in used:
                used.add(v)
                row[c] = v
                extend(c + 1)
                used.remove(v)

    extend(1)
    return out


def relabel(g: GyroTable, sigma: tuple) -> GyroTable:
    """Apply a carrier relabeling fixing 0 to a table."""
    n = g.order
    inv = [0] * n
    for i, v in enumerate(sigma):
        inv[v] = i
    rows = [
        [sigma[g.table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)
    ]
    return GyroTable(rows)


class TestEnumerate:
    def test_order_one(self):
        result = run_search(SearchConfig(order=1))
        assert len(result.tables) == 1
        assert result.tables[0].table == ((0,),)

    @pytest.mark.parametrize("n", sorted(KNOWN_GROUP_COUNTS))
    def test_small_order_counts(self, n):
        result = run_search(SearchConfig(order=n))
        assert result.complete
        assert len(result.tables) == KNOWN_GROUP_COUNTS[n]
        assert all(t.is_group() for t in result.tables)

    def test_counts_stable_without_symmetry_breaking(self):
        # the oracle search without the cut, canonicalising every labelled
        # leaf after the tree, finds the same classes
        for n in range(1, 7):
            fast = run_search(SearchConfig(order=n))
            slow = search_oracle._Search(SearchConfig(order=n), symmetry_breaking=False).run()
            assert slow.complete
            assert [t.table for t in fast.tables] == [t.table for t in slow.tables]

    def test_search_deterministic_across_runs(self):
        a = run_search(SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE))
        b = run_search(SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE))
        assert [t.table for t in a.tables] == [t.table for t in b.tables]
        assert a.nodes == b.nodes and a.leaves == b.leaves

    def test_all_emitted_tables_verify(self):
        result = run_search(SearchConfig(order=6))
        for t in result.tables:
            assert verify_axioms(t.table).passed

    def test_exhaustive_output_is_canonical_and_sorted(self, exhaustive, monkeypatch):
        monkeypatch.setattr(search, "DEFAULT_CANON_CAP", 9)
        for n in range(1, 10):
            tables = [t.table for t in exhaustive[n].tables]
            assert tables == sorted(tables)
            for t in exhaustive[n].tables:
                assert canonical_form(t).table == t.table

    def test_first_nonassociative_at_8(self, nonassoc8):
        assert nonassoc8.order == 8
        assert verify_axioms(nonassoc8.table).passed
        assert not nonassoc8.is_group()
        assert any(
            not nonassoc8.gyr(a, b).is_identity()
            for a in nonassoc8.elements()
            for b in nonassoc8.elements()
        )

    def test_max_results(self):
        result = run_search(SearchConfig(order=4, max_results=1))
        assert len(result.tables) == 1

    def test_max_results_stops_at_the_kth_leaf(self, exhaustive):
        # the first table of the whole order-10 search, found at the first
        # leaf: the search ends there instead of walking the 25-node tree
        result = run_search(SearchConfig(order=10, max_results=1))
        assert result.complete
        assert [t.table for t in result.tables] == [exhaustive[10].tables[0].table]
        assert (result.nodes, result.leaves) == (9, 1)

    def test_max_results_reached_is_complete(self, monkeypatch):
        # a clock that passes the deadline as soon as the first order-12
        # table is verified: the limit ends the search before the clock is
        # read again, so the result is complete
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock.now))

        def verified(rows):
            table = GyroTable(rows)
            clock.now = 10.0
            return table

        monkeypatch.setattr(search, "GyroTable", verified)
        result = run_search(SearchConfig(order=12, max_results=1, time_budget=1.0))
        assert result.complete and len(result.tables) == 1
        assert clock.now == 10.0

    def test_time_budget_flags_partial(self):
        result = run_search(SearchConfig(order=8, time_budget=1e-9))
        assert not result.complete

    def test_deadline_checked_per_candidate(self, monkeypatch):
        # a clock that stands still until the first candidate _propagate
        # refuses, then passes the deadline: the next candidate of that
        # same node must not reach _propagate
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock.now))
        propagate = search._Search._propagate
        calls = []

        def timed(self, a, added):
            calls.append(clock.now)
            ok = propagate(self, a, added)
            if not ok:
                clock.now = 10.0
            return ok

        monkeypatch.setattr(search._Search, "_propagate", timed)
        result = run_search(SearchConfig(order=8, time_budget=1.0))
        assert not result.complete
        assert calls and calls[-1] == 0.0

    def test_timed_out_search_keeps_its_verified_leaves(self, monkeypatch):
        # a clock that passes the deadline inside _leaf once the first table
        # is verified: with symmetry breaking that leaf is its own canonical
        # form, so the partial result holds it
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock.now))
        leaf = search._Search._leaf
        verified = []

        def timed(self):
            leaf(self)
            if self.found and not verified:
                verified.append(self.found[0].table)
                clock.now = 10.0

        monkeypatch.setattr(search._Search, "_leaf", timed)
        result = run_search(SearchConfig(order=8, time_budget=1.0))
        assert not result.complete
        assert [t.table for t in result.tables] == verified

    def test_census_contains_all_five_groups(self, census8, groups):
        group_tables = [t for t in census8 if t.is_group()]
        assert len(group_tables) == 5
        names = ["z8", "z4xz2", "z2xz2xz2", "d4", "q8"]
        for name in names:
            assert any(are_isomorphic(groups[name], t)[0] for t in group_tables)

    @pytest.mark.parametrize("n", sorted(EXHAUSTIVE_COUNTS))
    def test_exhaustive_nodes_and_leaves(self, n):
        result = run_search(SearchConfig(order=n))
        assert result.complete
        assert (result.nodes, result.leaves) == EXHAUSTIVE_COUNTS[n]

    def test_order_nine(self):
        result = run_search(SearchConfig(order=9))
        assert result.complete
        assert (result.nodes, result.leaves) == (15, 2)
        assert len(result.tables) == 2
        assert all(verify_axioms(t.table).passed for t in result.tables)

    @pytest.mark.parametrize("n, nodes, leaves", [(10, 25, 2), (11, 10, 1)])
    def test_orders_ten_and_eleven(self, n, nodes, leaves, exhaustive):
        result = exhaustive[n]
        assert result.complete
        assert (result.nodes, result.leaves) == (nodes, leaves)
        assert len(result.tables) == CLASS_COUNTS[n]
        assert all(t.is_group() for t in result.tables)

    def test_class_counts(self, exhaustive):
        assert all(r.complete for r in exhaustive.values())
        assert {n: len(r.tables) for n, r in exhaustive.items()} == CLASS_COUNTS

    @pytest.mark.parametrize("n", range(2, 10))
    def test_row_one_candidates_are_the_rows_the_cut_keeps(self, n):
        # the fixed-point-free rows with cycles of one length that the cut
        # at depth 1 keeps: one per divisor m >= 2 of n
        identity = tuple(range(n))
        kept = []
        for rest in itertools.permutations([0, *range(2, n)]):
            p = (1, *rest)
            if any(p[c] == c for c in range(1, n)) or len(set(cycle_lengths(p))) > 1:
                continue
            rows = [identity, p] + [None] * (n - 2)
            if next(search._smaller_relabelings(rows, 1), None) is None:
                kept.append(p)
        got = list(search._Search(SearchConfig(order=n))._row_candidates(1))
        assert got == kept
        assert len(got) == [1, 1, 2, 1, 3, 1, 3, 2][n - 2]

    @pytest.mark.parametrize("n", [40, 400])
    def test_row_one_candidates_are_lazy(self, n):
        # order 40 keeps 26,015 rows and order 400 more than can be listed;
        # the first, all 2-cycles, comes alone
        rows = search._Search(SearchConfig(order=n))._row_candidates(1)
        assert next(rows) == tuple(x ^ 1 for x in range(n))

    def test_row_one_propagated_only_for_kept_rows(self, monkeypatch):
        propagate = search._Search._propagate
        row_one = []

        def counted(self, a, added):
            if a == 1:
                row_one.append(self.rows[1])
            return propagate(self, a, added)

        monkeypatch.setattr(search._Search, "_propagate", counted)
        result = run_search(SearchConfig(order=8))
        assert (result.nodes, result.leaves) == EXHAUSTIVE_COUNTS[8]
        assert len(row_one) == 3

    @pytest.mark.parametrize(
        "config, calls",
        [(SearchConfig(order=n), calls) for n, calls in zip(range(2, 9), [0, 0, 2, 0, 6, 0, 18])]
        + [(SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE), 6)],
        ids=[f"exhaustive-{n}" for n in range(2, 9)] + ["first-nonassociative-8"],
    )
    def test_candidates_agree_with_brute_force(self, monkeypatch, config, calls):
        # every unforced row a >= 2 the DFS asks for: the permutations with
        # p(0) = a, no claimed cell, cycles of one length and L_a L_y L_a
        # fitting row a + (y + a) for y = 0, 1, in lex order
        row_candidates = search._Search._row_candidates
        checked = []

        def brute_force(self, a):
            got = list(row_candidates(self, a))
            if a >= 2 and a not in self.forced:
                n = self.n
                rows = ((a, *rest) for rest in itertools.permutations([v for v in range(n) if v != a]))
                want = [
                    p
                    for p in rows
                    if not any(c * n + v in self.claimed for c, v in enumerate(p))
                    and len(set(cycle_lengths(p))) == 1
                    and bol_rules_hold(self, a, p)
                ]
                assert got == want
                checked.append(a)
            return iter(got)

        monkeypatch.setattr(search._Search, "_row_candidates", brute_force)
        run_search(config)
        # at a prime order row 1 is one n-cycle, and its powers force every
        # other row
        assert len(checked) == calls

    def test_bol_refusals_are_propagate_refusals(self, monkeypatch):
        # the slow oracle of the partial-row Bol checks, exhaustive orders
        # 4-10: at every unforced index a >= 2 the DFS asks for, the
        # generator keeps a sublist of the rows with no claimed cell and
        # cycles of one length, and each row it drops makes _propagate
        # refuse, placed on a copy of the search state
        row_candidates = search._Search._row_candidates
        dropped = []

        def checked(self, a):
            got = list(row_candidates(self, a))
            if a >= 2 and a not in self.forced:
                allowed = [p for p in unclaimed_rows(self, a) if len(set(cycle_lengths(p))) == 1]
                kept = set(got)
                assert [p for p in allowed if p in kept] == got
                for p in allowed:
                    if p not in kept:
                        trial = copy.copy(self)
                        trial.rows, trial.gets = list(self.rows), list(self.gets)
                        trial.claimed, trial.forced = set(self.claimed), dict(self.forced)
                        trial.rows[a] = p
                        trial.claimed.update(map(add, self.offsets, p))
                        assert not trial._propagate(a, []), (self.n, a, p)
                        dropped.append(p)
            return iter(got)

        monkeypatch.setattr(search._Search, "_row_candidates", checked)
        for n in range(4, 11):
            result = run_search(SearchConfig(order=n))
            assert len(result.tables) == CLASS_COUNTS[n]
        assert dropped

    def test_rows_have_cycles_of_one_length(self, exhaustive, groups, nonassoc8):
        # the fact the candidate rows rest on: every cycle of L_a has the
        # length of its cycle through 0, |a|
        tables = [t for r in exhaustive.values() for t in r.tables]
        tables += groups.values()
        tables += [direct_product(nonassoc8, cyclic(2)), direct_product(nonassoc8, cyclic(8))]
        for g in tables:
            for a, row in enumerate(g.table):
                assert set(cycle_lengths(row)) == {len(g._cycle(a))}, (g.order, a)

    def test_placed_row_forces_its_inverse_and_square(self):
        # row 1 of Z4 forces row 3 = L1^-1 and, by the Bol identity with
        # b = 0, row 1 + 1 = 2 to be L1 L1
        s = search._Search(SearchConfig(order=4))
        s.rows[1] = (1, 2, 3, 0)
        added = []
        assert s._propagate(1, added)
        assert s.forced == {2: (2, 3, 0, 1), 3: (3, 0, 1, 2)}
        assert sorted(added) == [2, 3]

    def test_forced_row_cells_never_offered_to_another_index(self):
        # a forced row will be placed at its index, and column entries are
        # distinct, so no candidate for another index may share a cell (a
        # column and its value) with it; and a candidate whose L_a L_y L_a
        # lands on the forced index must give the forced row.  Row 1 is the
        # all-2-cycles row, its own inverse, so it forces no other row
        s = search._Search(SearchConfig(order=8))
        s.rows[1] = tuple(x ^ 1 for x in range(8))
        s.claimed.update(map(add, s.offsets, s.rows[1]))
        before = list(s._row_candidates(2))
        q = (3, 2, 0, 4, 6, 7, 5, 1)
        assert s._force(3, q, 1, [])
        clash = [p for p in before if any(map(eq, p, q))]
        kept = [p for p in before if p not in clash]
        after = list(s._row_candidates(2))
        assert clash and after == [p for p in kept if bol_rules_hold(s, 2, p)]
        assert after != kept  # row 3 is known now, not only its cells
        for a in (2, 4, 5, 6, 7):
            candidates = list(s._row_candidates(a))
            assert candidates and not any(any(map(eq, p, q)) for p in candidates)
        assert list(s._row_candidates(3)) == [q]

    def test_force_refuses_a_clash_with_a_forced_row(self):
        # row 4 may not put 0 in column 1, where forced row 3 has it, even
        # though no placed row does; a refusal claims nothing
        s = search._Search(SearchConfig(order=6))
        added = []
        q = (3, 0, 4, 5, 1, 2)
        assert s._force(3, q, 0, added)
        claimed = set(s.claimed)
        assert not s._force(4, (4, 0, 5, 1, 2, 3), 0, added)
        assert s.forced == {3: q} and added == [3] and s.claimed == claimed
        assert s._force(4, (4, 5, 3, 1, 2, 0), 0, added)
        assert added == [3, 4] and len(s.claimed) == len(claimed) + 6

    def test_propagate_calls_at_order_eight(self, monkeypatch):
        # candidate rows skip the cells of placed and forced rows alike, have
        # cycles of one length and fit the rows L_a L_a and L_a L_1 L_a, so
        # 157 rows reach _propagate
        propagate = search._Search._propagate
        calls = []

        def counted(self, a, added):
            calls.append(a)
            return propagate(self, a, added)

        monkeypatch.setattr(search._Search, "_propagate", counted)
        result = run_search(SearchConfig(order=8))
        assert (result.nodes, result.leaves) == EXHAUSTIVE_COUNTS[8]
        assert len(calls) == 157

    def test_relabeled_rows_calls_at_order_eight(self, monkeypatch):
        # a tie record whose next label row is not placed compares nothing
        # and is handed on without a call: 3,272 calls at order 8, where
        # calling for every record made 6,257
        relabeled_rows = search._relabeled_rows
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return relabeled_rows(*args)

        monkeypatch.setattr(search, "_relabeled_rows", counted)
        result = run_search(SearchConfig(order=8))
        assert (result.nodes, result.leaves) == EXHAUSTIVE_COUNTS[8]
        assert calls[0] == 3272

    def test_deadline_checked_inside_the_cut(self, monkeypatch):
        # at order 12 the cut at depth 1 over the all-2-cycles row 1 ties
        # 3,840 relabelings; a clock that passes the deadline with the 50th
        # relabeled row must stop the cut there, inside the first node
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock.now))
        relabeled_rows = search._relabeled_rows
        calls = [0]

        def timed(*args):
            calls[0] += 1
            if calls[0] == 50:
                clock.now = 10.0
            return relabeled_rows(*args)

        monkeypatch.setattr(search, "_relabeled_rows", timed)
        result = run_search(SearchConfig(order=12, time_budget=1.0))
        assert not result.complete and result.nodes == 1
        assert calls[0] == 50

    def test_canonical_form_has_no_deadline(self, monkeypatch):
        # a clock far past any deadline leaves canonical_form unchanged
        want = canonical_form(cyclic(8)).table
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: 1e18))
        assert canonical_form(cyclic(8)).table == want

    def test_first_nonassociative_nodes_and_leaves(self):
        result = run_search(SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE))
        assert (result.nodes, result.leaves) == (8, 2)

    def test_order_twelve_first_five_classes(self):
        # the first five order-12 classes in lex order, the last two
        # nonassociative; the first of those is the first-nonassociative
        # table, reached in fewer nodes
        result = run_search(SearchConfig(order=12, max_results=5))
        assert result.complete and (result.nodes, result.leaves) == (52, 6)
        assert [t.is_group() for t in result.tables] == [True, True, True, False, False]
        first = run_search(SearchConfig(order=12, mode=MODE_FIRST_NONASSOCIATIVE))
        assert first.complete and (first.nodes, first.leaves) == (37, 4)
        assert [t.table for t in first.tables] == [result.tables[3].table]

    def test_search_tables_pinned(self, exhaustive):
        # the sha256 of repr() of every table the exhaustive search returns
        # for orders 1-11, in order, and of the first nonassociative table
        # of order 8
        def digest(x):
            return hashlib.sha256(repr(x).encode()).hexdigest()

        assert sorted(exhaustive) == list(range(1, 12))
        tables = [t.table for n in sorted(exhaustive) for t in exhaustive[n].tables]
        assert digest(tables) == "f2fa18dafd55e101062b3ca3cef9d9b9e9f4e4c7cc9c8a9ddaca0f91eb986436"
        result = run_search(SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE))
        assert (result.nodes, result.leaves) == (8, 2)
        assert [digest(t.table) for t in result.tables] == [
            "2128f6e6a07bc11bc22ec6a28ae12c6019b8e24a6024bad0f77cd4f6d8071cc4"
        ]

    def test_symmetry_cut_agrees_with_oracle(self, monkeypatch):
        # every call of the shared routine in exhaustive orders 1-9, the cut's
        # (with the records it inherits and hands on) and canonical_form's,
        # against the recursive cut it replaced
        smaller_relabelings = search._smaller_relabelings
        verdicts = []

        def checked(rows, k, *records):
            smaller = smaller_relabelings(rows, k, *records)
            first = next(smaller, None)
            verdicts.append((first is None, search_oracle.prefix_lex_minimal(rows, k)))
            if first is not None:
                yield first
                yield from smaller

        monkeypatch.setattr(search, "_smaller_relabelings", checked)
        for n in range(1, 10):
            run_search(SearchConfig(order=n))
        assert {new for new, _ in verdicts} == {True, False}
        assert [new for new, _ in verdicts] == [old for _, old in verdicts]

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(order=n) for n in range(1, 11)]
        + [SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE)],
        ids=[f"exhaustive-{n}" for n in range(1, 11)] + ["first-nonassociative-8"],
    )
    def test_inherited_records_equal_fresh_ones(self, monkeypatch, config):
        # at every cut of the DFS, resuming the parent's records and scanning
        # label 1 on element k alone must give the verdict of a fresh scan
        # over label 1 on 1..k and, when the node is kept, the same records
        smaller_relabelings = search._smaller_relabelings
        inherited_sizes = []

        def checked(rows, k, inherited, out, deadline):
            first = next(smaller_relabelings(rows, k, inherited, out, deadline), None)
            fresh = []
            assert (next(smaller_relabelings(rows, k, None, fresh), None) is None) == (
                first is None
            )
            if first is None:
                assert sorted((old, x) for old, _, x in out) == sorted(
                    (old, x) for old, _, x in fresh
                )
                assert all(
                    all(label[e] == j for j, e in enumerate(old)) for old, label, _ in out
                )
            inherited_sizes.append(len(inherited))
            return iter(() if first is None else (first,))

        monkeypatch.setattr(search, "_smaller_relabelings", checked)
        result = run_search(config)
        assert result.nodes == 0 or inherited_sizes
        assert config.order < 3 or max(inherited_sizes) > 0

    def test_recursion_limit_is_a_resource_cap(self, capsys):
        # the cut's row-1 scan nests one generator per cycle it opens, and
        # the all-2-cycles row 1 of order 1990 opens 995: more than the
        # interpreter's default limit.  The search stops at once, long
        # before its budget, with a resource cap, and the CLI exits 3 with
        # one line and no traceback
        with pytest.raises(ResourceCapError) as info:
            run_search(SearchConfig(order=1990, time_budget=0.5))
        assert info.value.cap_name == "recursion"
        assert "order 1990" in str(info.value) and str(sys.getrecursionlimit()) in str(info.value)
        assert main(["search", "1990", "--time-budget", "0.5"]) == 3
        assert capsys.readouterr().out.splitlines() == [f"resource cap exceeded (recursion): {info.value}"]

    def test_cut_above_order_256(self):
        # above order 256 an element does not fit in a byte and the cut's
        # lines are tuples: the budgeted search stops inside its first node,
        # and at order 260 the records resumed at each depth give a fresh
        # scan's verdict and records.  Row a is the translation x + s_a with
        # shifts 0, 1, -1, 3, -3, 7, ...: label 1 on element 3 ties, and its
        # record waits at label row 2, element 6, from depth 3 to 5, passed
        # on untouched, and is smaller once row 6 is placed
        result = run_search(SearchConfig(order=260, time_budget=0.3))
        assert not result.complete and result.nodes == 1
        n = 260
        units = [s for s in range(1, n // 2) if math.gcd(s, n) == 1]
        shifts = [0] + [t for s in units for t in (s, n - s)]
        records, verdicts, waits = [], [], []
        for k in range(1, 7):
            rows = [tuple((x + s) % n for x in range(n)) for s in shifts[: k + 1]]
            rows += [None] * (n - k - 1)
            out, fresh = [], []
            first = next(search._smaller_relabelings(rows, k, records, out), None)
            fresh_first = next(search._smaller_relabelings(rows, k, None, fresh), None)
            assert (first is None) == (fresh_first is None)
            verdicts.append(first is None)
            if first is not None:
                break
            assert sorted((old, x) for old, _, x in out) == sorted((old, x) for old, _, x in fresh)
            assert all(all(label[e] == j for j, e in enumerate(old)) for old, label, _ in out)
            waits.append(sorted(x for *_, x in out))
            records = out
        assert verdicts == [True] * 5 + [False]
        assert waits == [[2], [3], [2, 4], [2, 5], [2, 6]]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_canonical_tables_agree_with_oracle(self, n):
        want = search_oracle._Search(SearchConfig(order=n)).run()
        got = run_search(SearchConfig(order=n))
        assert want.complete and got.complete
        assert [t.table for t in got.tables] == [t.table for t in want.tables]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labelled_leaves_agree_with_oracle(self, monkeypatch, n):
        # every verified labelled table, in the order the DFS reaches it,
        # with the cut switched off: it cuts nothing, and row 1 is offered
        # every fixed-point-free p with p(0) = 1, in lex order
        def every_row_one(n):
            for rest in itertools.permutations([0, *range(2, n)]):
                p = (1, *rest)
                if all(p[c] != c for c in range(1, n)):
                    yield p

        monkeypatch.setattr(search, "_smaller_relabelings", lambda *args: iter(()))
        monkeypatch.setattr(search, "_cycle_type_rows", every_row_one)
        config = SearchConfig(order=n)
        want = search_oracle._Search(config, symmetry_breaking=False)
        got = search._Search(config)
        want.run()
        got.run()
        assert want.found
        assert [t.table for t in got.found] == [t.table for t in want.found]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(order=0)
        with pytest.raises(ValueError):
            SearchConfig(order=4, mode="everything")
        with pytest.raises(ValueError):
            SearchConfig(order=4, max_results=0)


class TestAreIsomorphic:
    def test_z4_vs_v4(self):
        ok, witness = are_isomorphic(cyclic(4), klein_four())
        assert not ok and witness is None

    def test_reflexive_with_identity_witness(self, corpus):
        for g in corpus.values():
            # the identity is the least bijection, so it is the witness
            assert are_isomorphic(g, g) == (True, Perm.identity(g.order))

    def test_different_orders(self):
        ok, witness = are_isomorphic(cyclic(2), cyclic(4))
        assert not ok

    @given(st.permutations(list(range(1, 8))))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_is_isomorphic(self, rest):
        g = all_groups()["d4"]
        h = relabel(g, (0,) + tuple(rest))
        ok, witness = are_isomorphic(g, h)
        assert ok
        assert all(
            h.table[witness(a)][witness(b)] == witness(g.table[a][b])
            for a in g.elements()
            for b in g.elements()
        )

    def test_symmetric_and_transitive_spot(self, census8):
        a, b = census8[0], census8[1]
        assert are_isomorphic(a, b)[0] == are_isomorphic(b, a)[0]
        for t in census8:
            assert are_isomorphic(t, t)[0]

    def test_relabeled_nonassociative(self, nonassoc8):
        sigma = (0, 3, 1, 2, 7, 6, 5, 4)
        h = relabel(nonassoc8, sigma)
        ok, witness = are_isomorphic(nonassoc8, h)
        assert ok

    def test_witness_recheck_refuses_a_non_homomorphism(self, monkeypatch):
        # a broken isomorphism search: the swap 1 <-> 2 on Z4 is a bijection
        # fixing 0 but not a homomorphism (1 + 1 = 2, while 2 + 2 = 0)
        monkeypatch.setattr(search, "_isomorphisms", lambda g, h: iter([Perm((0, 2, 1, 3))]))
        with pytest.raises(InternalConsistencyError, match="^isomorphism witness fails"):
            are_isomorphic(cyclic(4), cyclic(4))


class TestAutomorphisms:
    def test_z4(self):
        auts = automorphisms(cyclic(4))
        assert len(auts) == 2
        assert sorted(p.images for p in auts) == [(0, 1, 2, 3), (0, 3, 2, 1)]

    def test_trivial(self):
        assert len(automorphisms(cyclic(1))) == 1

    def test_s3_has_six(self):
        assert len(automorphisms(sym3())) == 6

    def test_klein_four_has_six(self):
        assert len(automorphisms(klein_four())) == 6

    def test_group_closure_and_gyrations(self, corpus):
        for g in corpus.values():
            auts = set(automorphisms(g))
            assert all(p * q in auts for p in auts for q in auts)
            assert all(p.inverse() in auts for p in auts)
            for a in g.elements():
                for b in g.elements():
                    assert g.gyr(a, b) in auts

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            automorphisms(cyclic(17))


class TestCanonicalForm:
    def test_idempotent(self, corpus):
        for g in corpus.values():
            c1 = canonical_form(g)
            assert canonical_form(c1).table == c1.table

    @given(st.permutations(list(range(1, 4))))
    def test_relabeling_invariant(self, rest):
        z4 = cyclic(4)
        h = relabel(z4, (0,) + tuple(rest))
        assert canonical_form(h).table == canonical_form(z4).table

    def test_distinct_classes_distinct_forms(self):
        assert canonical_form(cyclic(4)).table != canonical_form(klein_four()).table

    def test_agrees_with_isomorphism_on_census(self, census8):
        forms = [canonical_form(t).table for t in census8]
        for i, a in enumerate(census8):
            for j, b in enumerate(census8):
                assert (forms[i] == forms[j]) == are_isomorphic(a, b)[0]

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            canonical_form(cyclic(9))


class TestIsomorphismAgainstOracle:
    """The isomorphism layer against the brute-force canonical form, the
    permutation-filter automorphisms and the seed's backtracking
    ``are_isomorphic``, over every group of order <= 8 and every order-8
    census class, each in its own labels and in four seeded relabelings."""

    @pytest.fixture(scope="class")
    def inputs(self, groups, census8):
        bases = sorted(groups.items()) + [(f"census8-{i}", t) for i, t in enumerate(census8)]
        rng = random.Random(1)
        out = []
        for name, g in bases:
            relabeled = [g]
            for _ in range(4):
                rest = list(range(1, g.order))
                rng.shuffle(rest)
                relabeled.append(relabel(g, (0,) + tuple(rest)))
            out.append((name, g, relabeled))
        return out

    def test_canonical_forms_match(self, inputs):
        for name, g, relabeled in inputs:
            # the oracle minimises over every relabeling, so one call covers
            # every relabeling of g
            want = oracle.canonical_form(g).table
            for h in relabeled:
                assert canonical_form(h).table == want, name

    def test_automorphisms_match(self, inputs):
        for name, _, relabeled in inputs:
            for h in relabeled:
                assert automorphisms(h) == oracle.automorphisms(h), name

    def test_isomorphism_witnesses_match(self, inputs):
        for name, g, relabeled in inputs:
            for h in relabeled:
                for pair in ((g, h), (h, g)):
                    got = are_isomorphic(*pair)
                    assert got[0], name
                    assert got == oracle.are_isomorphic(*pair), name

    def test_distinct_census_classes_not_isomorphic(self, census8):
        for i, a in enumerate(census8):
            for j, b in enumerate(census8):
                if i != j:
                    assert are_isomorphic(a, b) == (False, None), (i, j)
                    assert oracle.are_isomorphic(a, b) == (False, None), (i, j)


class TestIsomorphismAtOrder16:
    """The isomorphism search on five order-16 products, each in its own
    labels and in two seeded relabelings: witnesses against the backtracking
    oracle, and automorphism lists by their group facts and pinned sizes
    (the oracle's filter over 15! permutations is out of reach)."""

    AUT_SIZES = {"na8xz2": 32, "z4xz4": 96, "z8xz2": 16, "v4xz4": 192, "z16": 8}

    @pytest.fixture(scope="class")
    def products(self, nonassoc8):
        bases = {
            "na8xz2": direct_product(nonassoc8, cyclic(2)),
            "z4xz4": direct_product(cyclic(4), cyclic(4)),
            "z8xz2": direct_product(cyclic(8), cyclic(2)),
            "v4xz4": direct_product(klein_four(), cyclic(4)),
            "z16": cyclic(16),
        }
        rng = random.Random(16)
        out = {}
        for name, g in bases.items():
            relabeled = []
            for _ in range(2):
                rest = list(range(1, 16))
                rng.shuffle(rest)
                relabeled.append(relabel(g, (0,) + tuple(rest)))
            out[name] = (g, relabeled)
        return out

    def test_witnesses_match_oracle(self, products):
        for name, (g, relabeled) in products.items():
            for h in relabeled:
                for pair in ((g, h), (h, g)):
                    got = are_isomorphic(*pair)
                    assert got[0], name
                    assert got == oracle.are_isomorphic(*pair), name

    def test_automorphism_groups(self, products):
        for name, (g, relabeled) in products.items():
            for h in (g, relabeled[0]):
                auts = automorphisms(h)
                assert len(auts) == self.AUT_SIZES[name], name
                assert all(p < q for p, q in zip(auts, auts[1:])), name
                aut_set = set(auts)
                assert all(p * q in aut_set for p in auts for q in auts), name
                assert h.gyrations() <= aut_set, name

    def test_non_isomorphic_pair(self, products):
        z4xz4, z8xz2 = products["z4xz4"][0], products["z8xz2"][0]
        assert are_isomorphic(z4xz4, z8xz2) == (False, None)
        assert are_isomorphic(z8xz2, z4xz4) == (False, None)
