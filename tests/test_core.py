import functools
import random
from enum import IntEnum
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import normality_oracle
from axioms_oracle import verify_axioms_per_pair
from core_oracle import is_group_per_triple, is_gyrocommutative_per_pair

from gyrokit import core, normality, nuclei, search, substructure
from gyrokit.core import (
    AxiomError,
    GyroTable,
    MalformedTableError,
    Perm,
    ResourceCapError,
    Violation,
    _getter,
    _gyrations_by_bytes,
    _gyrations_by_tuples,
    _hom_failure,
    _line_views,
    _translation_table,
    direct_product,
    verify_axioms,
)
from gyrokit.catalog import cyclic, klein_four, sym3
from gyrokit.cli import analyze_object
from gyrokit.commutator import commutator, commutator_subgyrogroup
from gyrokit.gyrofile import format_gyro, parse_gyro
from gyrokit.normality import Hom, check_hom, check_sufficient_normality, try_quotient
from gyrokit.nuclei import left_nucleus, middle_nucleus, right_nucleus
from gyrokit.search import (
    MODE_FIRST_NONASSOCIATIVE,
    SearchConfig,
    are_isomorphic,
    canonical_form,
    run_search,
)
from gyrokit.substructure import generate, is_L_subgyrogroup


def z4_rows():
    return [[(a + b) % 4 for b in range(4)] for a in range(4)]


def row_swap(table, a, b1, b2):
    rows = [list(r) for r in table]
    rows[a][b1], rows[a][b2] = rows[a][b2], rows[a][b1]
    return rows


def row_swap_mutants(table, rng, count):
    """Swaps of two nonzero entries of one row, outside row and column 0:
    rows stay permutations, so every G3/G4 scan runs."""
    n = len(table)
    out = []
    while len(out) < count:
        a = rng.randrange(1, n)
        b1, b2 = rng.sample(range(1, n), 2)
        if table[a][b1] and table[a][b2]:
            out.append(row_swap(table, a, b1, b2))
    return out


def gyration_from_rows(rows, a, b):
    """gyr[a, b] c = -(a + b) + (a + (b + c)), with -x the first left inverse."""
    n = len(rows)
    ab = rows[a][b]
    neg_ab = next(x for x in range(n) if rows[x][ab] == 0)
    return [rows[neg_ab][rows[a][rows[b][c]]] for c in range(n)]


def assert_witness_reproduces(rows, v):
    n = len(rows)
    w = v.witness
    if v.axiom == "ROW-BIJ":
        assert sorted(rows[w[0]]) != list(range(n))
    elif v.axiom == "G1":
        assert rows[0][w[0]] != w[0]
    elif v.axiom == "G2":
        assert all(rows[b][w[0]] != 0 for b in range(n))
    elif v.axiom == "G3" and len(w) == 2:
        assert sorted(gyration_from_rows(rows, *w)) != list(range(n))
    elif v.axiom == "G3" and len(w) == 4:
        a, b, x, y = w
        gy = gyration_from_rows(rows, a, b)
        assert gy[rows[x][y]] != rows[gy[x]][gy[y]]
    elif v.axiom == "G3":
        a, b, c = w
        gy = gyration_from_rows(rows, a, b)
        assert rows[a][rows[b][c]] != rows[rows[a][b]][gy[c]]
    else:
        assert v.axiom == "G4"
        a, b = w
        assert gyration_from_rows(rows, rows[a][b], b) != gyration_from_rows(rows, a, b)


class TestVerifyAxioms:
    def test_group_table_passes(self):
        report = verify_axioms(z4_rows())
        assert report.passed and report.order == 4

    def test_single_cell_overwrite_fails(self):
        rows = z4_rows()
        rows[1][1] = 1
        report = verify_axioms(rows)
        assert not report.passed
        assert report.violations[0].axiom == "ROW-BIJ"
        assert report.violations[0].witness == (1,)

    def test_row_bijection_failure_aborts_gyration_checks(self):
        rows = [[0] * 4 for _ in range(4)]
        report = verify_axioms(rows)
        assert {v.axiom for v in report.violations} == {"ROW-BIJ"}

    def test_left_identity_violation(self):
        # valid permutation rows, but row 0 is not the identity
        rows = [[1, 0, 2, 3], [0, 1, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        report = verify_axioms(rows)
        assert any(v.axiom == "G1" for v in report.violations)

    def test_missing_left_inverse(self):
        # column 1 never reaches 0: rows are permutations, row 0 identity
        rows = [
            [0, 1, 2, 3],
            [1, 2, 3, 0],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
        assert verify_axioms(rows).violations == (Violation("G2", (1,), "no left inverse for 1"),)

    def test_malformed_tables_raise_distinct_error(self):
        with pytest.raises(MalformedTableError):
            verify_axioms([[0, 1], [1]])
        with pytest.raises(MalformedTableError):
            verify_axioms([[0, 2], [2, 0]])
        with pytest.raises(MalformedTableError):
            verify_axioms([])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, True], [1, 0]], "entry (0,1) = True out of range 0..1"),
            ([[0, 1], [1.0, 0]], "entry (1,0) = 1.0 out of range 0..1"),
            ([[0, 1], [1, -1]], "entry (1,1) = -1 out of range 0..1"),
        ],
    )
    def test_bad_entry_named(self, rows, message):
        for build in (verify_axioms, GyroTable):
            with pytest.raises(MalformedTableError) as exc_info:
                build(rows)
            assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first bad row is named, and within it the length first
            ([[0, 2], [1]], "entry (0,1) = 2 out of range 0..1"),
            ([[0], [1, 2]], "row 0 has length 1, expected 2"),
            ([[0, 1], [1, 0, 1]], "row 1 has length 3, expected 2"),
            ([[0, 1], [1, 0], [0, 1, 2, 3]], "row 0 has length 2, expected 3"),
        ],
    )
    def test_first_bad_row_named(self, rows, message):
        with pytest.raises(MalformedTableError) as exc_info:
            verify_axioms(rows)
        assert str(exc_info.value) == message

    def test_violation_is_an_immutable_value(self):
        v = Violation("G4", (1, 2), "left loop property fails")
        assert repr(v) == "Violation(axiom='G4', witness=(1, 2), detail='left loop property fails')"
        with pytest.raises(AttributeError):
            v.axiom = "G3"
        w = Violation("G4", (1, 2), "left loop property fails")
        assert v == w and hash(v) == hash(w) and len({v, w}) == 1
        assert v != Violation("G4", (2, 1), "left loop property fails")

    def test_int_subclass_entries_accepted(self):
        class Z2(IntEnum):
            ZERO = 0
            ONE = 1

        rows = [[Z2.ZERO, Z2.ONE], [Z2.ONE, Z2.ZERO]]
        assert verify_axioms(rows).passed
        assert GyroTable(rows).neg(1) == 1

    def test_g3_failure_on_latin_square_without_gyroassociativity(self):
        # the lexicographically least 5x5 Latin square with identity first
        # row/column that is not a group table
        rows = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        report = verify_axioms(rows)
        assert not report.passed
        assert any(v.axiom in ("G3", "G4") for v in report.violations)

    def test_violation_witnesses_reproduce(self, nonassoc8):
        duplicate = z4_rows()
        duplicate[2][3] = 0  # duplicates 0 in row 2
        tables = [
            duplicate,
            [[1, 0, 2, 3], [0, 1, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],  # G1
            [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 2, 1, 0]],  # G2
            # several pairs share a gyration, and with it one (x, y) witness
            *row_swap_mutants(nonassoc8.table, random.Random("witnesses"), 6),
        ]
        seen = set()
        for rows in tables:
            for v in verify_axioms(rows).violations:
                assert_witness_reproduces(rows, v)
                seen.add((v.axiom, len(v.witness)))
        assert {("ROW-BIJ", 1), ("G1", 1), ("G2", 1), ("G3", 4), ("G3", 3), ("G4", 2)} <= seen


class TestMutationDetection:
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
    def test_any_single_cell_change_is_detected(self, a, b, delta):
        rows = z4_rows()
        rows[a][b] = (rows[a][b] + delta) % 4
        assert not verify_axioms(rows).passed

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
    def test_row_swap_on_nonassociative_table_is_detected(self, nonassoc8, a, b1, b2):
        # na8 has more than one distinct gyration, so the swap must be caught
        # through gyrations that several pairs share; column b1 repeats a
        # value afterwards, so no gyrogroup (a loop) has the swapped table
        rows = nonassoc8.table
        assume(b1 != b2 and rows[a][b1] and rows[a][b2])
        assert not verify_axioms(row_swap(rows, a, b1, b2)).passed


class TestVerifyAxiomsAgainstOracle:
    """The whole report, violation order included, equals the per-pair check's."""

    def tables(self, census8, groups, nonassoc8):
        out = [t.table for t in census8] + [t.table for t in groups.values()]
        out += [direct_product(nonassoc8, cyclic(2)).table]
        out += [direct_product(nonassoc8, klein_four()).table]
        return out

    def test_passing_tables(self, census8, groups, nonassoc8):
        tables = self.tables(census8, groups, nonassoc8)
        assert len(tables) == 27
        for rows in tables:
            report = verify_axioms(rows)
            assert report.passed
            assert report == verify_axioms_per_pair(rows)

    def test_seeded_mutants(self, census8, groups, nonassoc8):
        rng = random.Random("verify-axioms-oracle")
        failing = 0
        for rows in self.tables(census8, groups, nonassoc8):
            n = len(rows)
            if n == 1:
                continue
            mutants = []
            for _ in range(2):
                cell = [list(r) for r in rows]
                a, b = rng.randrange(n), rng.randrange(n)
                cell[a][b] = (cell[a][b] + rng.randrange(1, n)) % n
                mutants.append(cell)
            for _ in range(3):
                # any row and columns, so G1 and G2 failures come up too
                a = rng.randrange(n)
                b1, b2 = rng.sample(range(n), 2)
                mutants.append(row_swap(rows, a, b1, b2))
            for m in mutants:
                report = verify_axioms(m)
                assert report == verify_axioms_per_pair(m)
                failing += not report.passed
        assert failing > 100

    def test_orders_one_and_two(self):
        tables = [
            [[0]],
            [[0, 1], [1, 0]],
            [[1, 0], [0, 1]],  # G1
            [[0, 1], [0, 1]],  # G2
            [[0, 0], [1, 0]],  # ROW-BIJ
        ]
        for rows in tables:
            assert verify_axioms(rows) == verify_axioms_per_pair(rows)
        assert verify_axioms([[0]]).passed and verify_axioms([[0, 1], [1, 0]]).passed

    def test_gyroassociativity_fails_exactly_where_a_row_does_not_cancel(self):
        # G1 and G2 hold; L_x L_(-x) is the identity for x = 0, 1 but not
        # for x = 2, whose left inverse is 2
        rows = [[0, 1, 2], [1, 0, 2], [1, 2, 0]]
        n = len(rows)
        not_cancelling = [
            x
            for x in range(n)
            if any(rows[x][rows[b][y]] != y for y in range(n) for b in range(n) if rows[b][x] == 0)
        ]
        assert not_cancelling == [2]
        report = verify_axioms(rows)
        assert report == verify_axioms_per_pair(rows)
        assert not any(v.axiom in ("G1", "G2") for v in report.violations)
        pairs = {v.witness[:2] for v in report.violations if v.axiom == "G3" and len(v.witness) == 3}
        assert pairs == {(a, b) for a in range(n) for b in range(n) if rows[a][b] == 2}

    def test_order_64_and_row_swaps(self, nonassoc8):
        base = direct_product(nonassoc8, cyclic(8)).table
        tables = [base, *row_swap_mutants(base, random.Random("order-64"), 2)]
        for rows in tables:
            assert verify_axioms(rows) == verify_axioms_per_pair(rows)


def byte_tables(rows):
    """The ``tables`` of the bytes numbering up to order 256: the byte rows
    of the row view and each row as a translation table."""
    brows = _line_views(rows)[0]
    return brows, list(map(_translation_table, brows))


def least_left_inverses(rows):
    """linv[x]: the least b with b (+) x = 0."""
    n = len(rows)
    return [next(b for b in range(n) if rows[b][x] == 0) for x in range(n)]


class TestGyrationNumberingPaths:
    """The ``bytes`` path (orders <= 256) and the tuple path (every order)
    number the gyrations alike: the same ``gid`` and the same distinct
    gyrations in the same order.  Above order 256 only the tuple path runs,
    and the per-pair oracle is too slow to check it there."""

    def assert_paths_agree(self, rows):
        linv = least_left_inverses(rows)
        assert _gyrations_by_bytes(rows, linv, byte_tables(rows)) == _gyrations_by_tuples(rows, linv)

    def test_census8_and_corpus(self, census8, corpus):
        for t in [*census8, *corpus.values()]:
            self.assert_paths_agree(t.table)

    def test_products_and_order_64_row_swaps(self, nonassoc8):
        for h in (cyclic(2), klein_four()):
            self.assert_paths_agree(direct_product(nonassoc8, h).table)
        base = direct_product(nonassoc8, cyclic(8)).table
        for rows in [base, *row_swap_mutants(base, random.Random("order-64"), 2)]:
            self.assert_paths_agree(rows)

    def test_order_256(self, nonassoc8):
        rows = direct_product(nonassoc8, cyclic(32)).table
        assert len(rows) == 256
        self.assert_paths_agree(rows)


class TestVerifyAxiomsAboveOrder256:
    """Order 264, where ``verify_axioms`` numbers the gyrations as tuples."""

    def test_product_passes_and_row_swap_witnesses_reproduce(self, nonassoc8):
        base = direct_product(nonassoc8, cyclic(33)).table
        assert len(base) == 264
        assert verify_axioms(base).passed
        (rows,) = row_swap_mutants(base, random.Random("order-264"), 1)
        report = verify_axioms(rows)
        firsts = {}
        for v in report.violations:
            firsts.setdefault((v.axiom, len(v.witness)), v)
        assert {"G3", "G4"} <= {axiom for axiom, _ in firsts}
        for v in firsts.values():
            assert_witness_reproduces(rows, v)


@pytest.fixture(scope="module")
def na8_times_cyclic(nonassoc8):
    """na8 x Zm for a given m, each built once for the module."""
    return functools.cache(lambda m: direct_product(nonassoc8, cyclic(m)))


class TestGyrationStoreAboveOrder256:
    """na8 x Z33, order 264, whose gyrations are numbered as tuples: the
    store against the translation form and the tuple path, and the nuclei
    read from it against those of na8 times all of Z33 (the nuclei of a
    product with a group are products)."""

    @pytest.fixture(scope="class")
    def table(self, na8_times_cyclic):
        g = na8_times_cyclic(33)
        assert g.order == 264
        return g

    def test_gyr_is_the_translation_form(self, table):
        rng = random.Random("store-264")
        pairs = [(0, 0), (263, 263), (1, 262), (262, 1)]
        pairs += [(rng.randrange(264), rng.randrange(264)) for _ in range(200)]
        for a, b in pairs:
            lab = table.left_translation(table.add(a, b))
            la, lb = table.left_translation(a), table.left_translation(b)
            assert table.gyr(a, b) == lab.inverse() * la * lb
        # every cell holds the number of one of the numbered perms, and gyr
        # returns that shared perm
        perms = table._perms
        assert {k for row in table._gyr for k in row} == set(range(len(perms)))
        assert all(table.gyr(a, b) is perms[table._gyr[a][b]] for a, b in pairs)

    def test_gyrations_are_the_tuple_numbering(self, table):
        _, gyrs = _gyrations_by_tuples(table.table, table.inv)
        assert table.gyrations() == {Perm(g) for g in gyrs}
        assert len(gyrs) == 2

    def test_nuclei_are_products(self, table, nonassoc8):
        for nucleus in (left_nucleus, middle_nucleus, right_nucleus):
            expected = tuple(a * 33 + x for a in nucleus(nonassoc8).members for x in range(33))
            assert nucleus(table).members == expected
            assert len(expected) < table.order


class TestLineViewsEitherSideOfTheByteRange:
    """The readers of a table's column view against per-pair or oracle
    answers on na8 x Z32 (order 256, lines as ``bytes``) and na8 x Z33
    (order 264, lines as tuples); element (a, x) is numbered a * m + x."""

    @pytest.fixture(scope="class", params=[32, 33], ids=["order256", "order264"])
    def table(self, request, na8_times_cyclic):
        return na8_times_cyclic(request.param)

    def test_line_encoding(self, table):
        encoding = bytes if table.order <= 256 else tuple
        for lines, looks in (table._rows, table._columns()):
            assert len(lines) == len(looks) == table.order
            assert {type(line) for line in lines} == {encoding}
        assert list(table._columns()[0]) == [encoding(col) for col in zip(*table.table)]

    def test_is_gyrocommutative(self, table):
        # na8 is not gyrocommutative, so neither is the product; the cyclic
        # group of the same order is
        for g in (table, cyclic(table.order)):
            t, els = g.table, g.elements()
            want = all(t[a][b] == g.gyr(a, b)(t[b][a]) for a in els for b in els)
            assert g.is_gyrocommutative() == want
            assert want == (g is not table)

    def test_commutator_subgyrogroup(self, table):
        els = table.elements()
        want = generate(table, {commutator(table, a, b) for a in els for b in els})
        assert commutator_subgyrogroup(table) == want
        assert len(want) == 2

    def test_relabeling_is_isomorphic(self, table):
        n, t = table.order, table.table
        rest = list(range(1, n))
        random.Random(f"relabel-{n}").shuffle(rest)
        sigma = [0, *rest]
        back = [0] * n
        for i, v in enumerate(sigma):
            back[v] = i
        h = GyroTable([[sigma[t[back[x]][back[y]]] for y in range(n)] for x in range(n)])
        ok, w = are_isomorphic(table, h)
        assert ok
        assert all(h.table[w(a)][w(b)] == w(t[a][b]) for a in range(n) for b in range(n))

    def test_sufficient_normality(self, table):
        m = table.order // 8
        subsets = [generate(table, seed) for seed in ([1], [m], [2 * m])]
        subsets.append(commutator_subgyrogroup(table))
        verdicts = [normality_oracle.check_sufficient_normality(table, s) for s in subsets]
        assert [check_sufficient_normality(table, s) for s in subsets] == verdicts
        assert set(verdicts) == {True, False}


class TestHomFailureEitherSideOfTheByteRange:
    """``_hom_failure``, which builds each domain row's getter as its scan
    reaches it, on na8 x Z32 (order 256) and na8 x Z33 (order 264): the
    projections onto the quotients by the Zm and na8 factors preserve the
    operation, and a projection with two images swapped fails at the first
    pair of a row-major scan."""

    @pytest.fixture(scope="class", params=[32, 33], ids=["order256", "order264"])
    def projections(self, request, na8_times_cyclic):
        m = request.param
        g = na8_times_cyclic(m)
        factors = (range(m), range(0, g.order, m))  # Zm, na8; (a, x) is a * m + x
        return g, [try_quotient(g, members).projection for members in factors]

    def test_projections_preserve_the_operation(self, projections):
        g, phis = projections
        assert [phi.codomain.order for phi in phis] == [8, g.order // 8]
        for phi in phis:
            assert check_hom(phi)
            assert _hom_failure(phi.map, g.table, phi.codomain.table) is None

    def test_swapped_images_fail_at_the_first_pair(self, projections):
        g, phis = projections
        t, n = g.table, g.order
        for phi in phis:
            f, k = list(phi.map), phi.codomain.table
            j = next(j for j in range(2, n) if f[j] != f[1])  # 0 keeps its image
            f[1], f[j] = f[j], f[1]
            first = next((x, y) for x in range(n) for y in range(n) if f[t[x][y]] != k[f[x]][f[y]])
            assert _hom_failure(f, t, k) == first
            assert not check_hom(Hom(g, phi.codomain, tuple(f)))


def test_analyze_keeps_one_store_of_line_views(nonassoc8):
    # the congruence closure and every column reader use the table's own
    # views: bytes columns up to order 256, and no second copy of the lines
    g = GyroTable(direct_product(nonassoc8, cyclic(8)).table)
    analyze_object(g)
    columns, looks = g._memo["columns"]
    assert g.order == 64 and all(type(col) is bytes for col in columns)
    assert looks == [col.translate for col in columns]
    assert "byte lines" not in g._memo


class TestOneNumberingPerTable:
    """Every table numbers its gyrations once, in the axiom check at
    construction, and every later reader shares that numbering.  The tables
    the package builds itself (search leaves, direct products, quotients,
    canonical forms) are no exception."""

    @pytest.fixture(scope="class", params=[2, 8], ids=["na8xZ2", "na8xZ8"])
    def rows(self, request, nonassoc8):
        return direct_product(nonassoc8, cyclic(request.param)).table

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts gyration numberings, by bytes or by tuples, made from here
        on."""
        count = [0]

        def counting(real):
            def numbering(*args):
                count[0] += 1
                return real(*args)

            return numbering

        for name in ("_gyrations_by_bytes", "_gyrations_by_tuples"):
            monkeypatch.setattr(core, name, counting(getattr(core, name)))
        return count

    @staticmethod
    def read_gyrations(g):
        g.gyr(1, 2)
        g.gyrations()
        nl = left_nucleus(g)
        middle_nucleus(g)
        right_nucleus(g)
        is_L_subgyrogroup(g, nl)
        check_sufficient_normality(g, nl)

    def test_checked_table_numbers_once(self, rows, calls):
        g = GyroTable(rows)
        assert g._memo == {}
        assert calls[0] == 1
        self.read_gyrations(g)
        assert calls[0] == 1
        gid, perms = g._gyr, g._perms
        assert all(
            type(k) is int and g.gyr(a, b) is perms[k] for a, row in enumerate(gid) for b, k in enumerate(row)
        )
        n = len(rows)
        assert g.inv == tuple(next(b for b in range(n) if rows[b][a] == 0) for a in range(n))
        direct_gid, gyrs = _gyrations_by_bytes(rows, g.inv, byte_tables(rows))
        assert gid == direct_gid and perms == tuple(map(Perm, gyrs))

    def test_search_leaf_numbers_once(self, calls):
        result = run_search(SearchConfig(order=8, mode=MODE_FIRST_NONASSOCIATIVE))
        assert result.leaves == 2 and calls[0] == result.leaves
        (g,) = result.tables
        self.read_gyrations(g)
        assert calls[0] == result.leaves

    def test_built_tables_number_once(self, nonassoc8, calls):
        z2 = cyclic(2)
        sigma = (0, 3, 1, 7, 2, 6, 4, 5)
        inv = [sigma.index(x) for x in range(8)]
        relabelled = GyroTable([[sigma[nonassoc8.table[inv[x]][inv[y]]] for y in range(8)] for x in range(8)])
        calls[0] = 0
        product = direct_product(nonassoc8, z2)
        assert calls[0] == 1
        quotient = try_quotient(product, [0, 1])
        assert quotient.table.table == nonassoc8.table and calls[0] == 2
        assert try_quotient(product, [0, 1]) is quotient and calls[0] == 2
        canon = canonical_form(relabelled)
        assert canon.table == nonassoc8.table != relabelled.table and calls[0] == 3
        for g in (product, quotient.table, canon):
            self.read_gyrations(g)
        assert calls[0] == 3


# square tables of entries in range that are no gyrogroup tables
MALFORMED = [
    [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
    [[0, 1, 2], [0, 2, 1], [1, 1, 0]],
    [[0, 1, 2], [2, 0, 1], [1, 0, 2]],
    [[1, 0], [0, 1]],
]


class TestGyroTableBasics:
    def test_construction_validates(self):
        rows = z4_rows()
        rows[1][1] = 1
        with pytest.raises(AxiomError):
            GyroTable(rows)

    def test_add_neg_examples(self):
        z4 = cyclic(4)
        assert z4.add(1, 2) == 3
        assert z4.add(0, 3) == 3
        assert z4.neg(1) == 3
        assert z4.neg(0) == 0
        with pytest.raises(IndexError):
            z4.add(4, 0)

    @pytest.mark.parametrize("x", [-1, -4, 4, 9])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, x: g.neg(x),
            lambda g, x: g.gyr(x, 1),
            lambda g, x: g.gyr(1, x),
            lambda g, x: g.coadd(x, 1),
            lambda g, x: g.coadd(1, x),
            lambda g, x: g.left_translation(x),
        ],
        ids=["neg", "gyr-a", "gyr-b", "coadd-a", "coadd-b", "left_translation"],
    )
    def test_accessors_refuse_out_of_range(self, call, x):
        z4 = cyclic(4)
        for a in z4.elements():  # every in-range gyration read first
            for b in z4.elements():
                z4.gyr(a, b)
        with pytest.raises(ValueError, match=f"^element {x} out of range 0..3$"):
            call(z4, x)

    def test_s3_matches_permutation_composition(self):
        # oracle: recompute the composition of the underlying permutations
        s3 = sym3()
        perms = sorted(permutations(range(3)))
        for a, pa in enumerate(perms):
            for b, pb in enumerate(perms):
                composed = tuple(pa[pb[i]] for i in range(3))
                assert perms[s3.add(a, b)] == composed

    def test_neg_is_two_sided_on_corpus(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                assert g.add(g.neg(a), a) == 0
                assert g.add(a, g.neg(a)) == 0
                assert g.neg(g.neg(a)) == a

    @pytest.mark.parametrize("rows", MALFORMED)
    def test_checked_construction_reports_the_axiom_check(self, rows):
        # the constructor runs no structural scan of its own: the axiom
        # check's report is what it raises
        report = verify_axioms(rows)
        assert not report.passed
        with pytest.raises(AxiomError) as exc_info:
            GyroTable(rows)
        assert exc_info.value.report == report
        assert str(exc_info.value) == f"not a gyrogroup table: {report.summary()}"

    def test_trivial_table_accepted(self):
        t = GyroTable([[0]])
        assert t.order == 1 and t.is_group() and t.is_gyrocommutative()


class TestGyrations:
    def test_group_gyrations_are_identity(self):
        z4 = cyclic(4)
        for a in z4.elements():
            for b in z4.elements():
                assert z4.gyr(a, b).is_identity()

    def test_gyr_with_identity_is_identity(self, corpus):
        for g in corpus.values():
            for b in g.elements():
                assert g.gyr(0, b).is_identity()
                assert g.gyr(b, 0).is_identity()

    def test_nonassociative_instance_has_nonidentity_gyration(self, nonassoc8):
        assert any(
            not nonassoc8.gyr(a, b).is_identity()
            for a in nonassoc8.elements()
            for b in nonassoc8.elements()
        )

    def test_gyration_identities_on_corpus(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                la = g.left_translation(a)
                for b in g.elements():
                    gy = g.gyr(a, b)
                    assert g.gyr(g.add(a, b), b) == gy
                    assert g.gyr(b, a) == gy.inverse()
                    lb = g.left_translation(b)
                    lab = g.left_translation(g.add(a, b))
                    assert gy == lab.inverse() * la * lb

    def test_left_gyroassociativity_exhaustive(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                for b in g.elements():
                    gy = g.gyr(a, b)
                    for c in g.elements():
                        assert g.add(a, g.add(b, c)) == g.add(g.add(a, b), gy(c))

    def test_gyrations_are_the_distinct_pair_gyrations(self, groups, nonassoc8):
        for g in groups.values():
            assert g.gyrations() == {Perm.identity(g.order)}
        els = nonassoc8.elements()
        gyrations = nonassoc8.gyrations()
        assert gyrations == {nonassoc8.gyr(a, b) for a in els for b in els}
        assert len(gyrations) == 2

    def test_gyrations_memoised(self, nonassoc8):
        # the members are the numbered perms themselves
        els = nonassoc8.elements()
        first = nonassoc8.gyrations()
        assert nonassoc8.gyrations() == first
        assert first == {nonassoc8.gyr(a, b) for a in els for b in els}
        perms = nonassoc8._perms
        assert {id(p) for p in first} == set(map(id, perms))

    def test_gyr_cache_idempotent(self):
        z4 = cyclic(4)
        first = z4.gyr(1, 2)
        assert z4.gyr(1, 2) is first


class TestCoaddition:
    def test_group_coaddition_is_addition(self):
        z4 = cyclic(4)
        for a in z4.elements():
            for b in z4.elements():
                assert z4.coadd(a, b) == z4.add(a, b)
        assert z4.coadd(1, 3) == 0

    def test_translation_sandwich_on_corpus(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                la = g.left_translation(a)
                for b in g.elements():
                    lb = g.left_translation(b)
                    lhs = la * lb * la
                    assert lhs == g.left_translation(g.coadd(g.add(a, b), a))


class TestIntegralMultiples:
    def test_examples(self):
        z4 = cyclic(4)
        assert z4.int_multiple(3, 1) == 3
        assert z4.int_multiple(0, 2) == 0
        assert z4.int_multiple(-1, 1) == 3

    def test_three_laws_in_window(self, corpus):
        for g in corpus.values():
            w = 2 * g.order
            for a in g.elements():
                ma = {m: g.int_multiple(m, a) for m in range(-2 * w, 2 * w + 1)}
                na = g.neg(a)
                for m in range(-w, w + 1):
                    assert ma[-m] == g.neg(ma[m]) == g.int_multiple(m, na)
                    for k in range(-w, w + 1):
                        assert ma[m + k] == g.add(ma[m], ma[k])
                for m in range(-4, 5):
                    for k in range(-4, 5):
                        assert g.int_multiple(m * k, a) == g.int_multiple(m, ma[k])

    def test_order_annihilates(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                assert g.int_multiple(g.order, a) == 0

    @pytest.mark.parametrize("m", [0, 1, 5, -1, -5])
    @pytest.mark.parametrize("a", [-1, -4, 4, 9])
    def test_out_of_range_element_rejected(self, m, a):
        z4 = cyclic(4)
        for b in z4.elements():  # every in-range cycle memoised first
            z4.int_multiple(1, b)
        with pytest.raises(ValueError, match=f"element {a} out of range 0..3"):
            z4.int_multiple(m, a)
        assert ("cycle", a) not in z4._memo

    def test_cycles_memoised_per_element(self):
        # a fresh table's memo is empty
        z6 = GyroTable(cyclic(6).table)
        assert z6._memo == {}
        assert z6.int_multiple(7, 2) == 2
        assert z6._memo == {("cycle", 2): (0, 2, 4)}
        # a negative multiple reads the same cycle, backwards
        assert z6.int_multiple(-1, 2) == 4
        assert set(z6._memo) == {("cycle", 2)}


def int_multiple_by_loop(g: GyroTable, m: int, a: int) -> int:
    """m.a by the recursion m.a = a (+) (m-1).a, one step at a time."""
    if m < 0:
        m, a = -m, g.neg(a)
    acc, row = 0, g.table[a]
    for _ in range(m):
        acc = row[acc]
    return acc


class TestIntegralMultiplesAgainstLoop:
    def test_census8_z2xz2xz2_and_na8xz2(self, census8, groups, nonassoc8):
        tables = list(census8) + [groups["z2xz2xz2"], direct_product(nonassoc8, cyclic(2))]
        for g in tables:
            n = g.order
            for a in g.elements():
                for m in range(-3 * n, 3 * n + 1):
                    assert g.int_multiple(m, a) == int_multiple_by_loop(g, m, a)


class TestDirectProduct:
    def test_klein_four(self):
        z2 = cyclic(2)
        v4 = direct_product(z2, z2)
        assert v4.table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))

    def test_product_with_trivial_is_isomorphic(self):
        from gyrokit.search import are_isomorphic

        z4 = cyclic(4)
        p = direct_product(z4, cyclic(1))
        ok, _ = are_isomorphic(z4, p)
        assert ok

    def test_product_with_nonassociative_verifies(self, nonassoc8):
        p = direct_product(cyclic(4), nonassoc8)
        assert p.order == 32
        assert verify_axioms(p.table).passed

    def test_gyrations_act_componentwise(self, nonassoc8):
        g, h = cyclic(4), nonassoc8
        p = direct_product(g, h)
        m = h.order
        for a in g.elements():
            for x in h.elements():
                for b in g.elements():
                    for y in h.elements():
                        gy = p.gyr(a * m + x, b * m + y)
                        gy_g = g.gyr(a, b)
                        gy_h = h.gyr(x, y)
                        for c in g.elements():
                            for z in h.elements():
                                assert gy(c * m + z) == gy_g(c) * m + gy_h(z)

    def test_order_cap(self):
        with pytest.raises(ResourceCapError):
            direct_product(cyclic(64), cyclic(65))


class TestWholeTablePredicates:
    def test_is_group(self, corpus, nonassoc8):
        assert cyclic(4).is_group()
        assert sym3().is_group()
        assert not nonassoc8.is_group()

    def test_is_gyrocommutative(self, nonassoc8):
        assert cyclic(4).is_gyrocommutative()
        assert not sym3().is_gyrocommutative()
        # value for the search instance comes from a direct pair scan
        expected = all(
            nonassoc8.add(a, b) == nonassoc8.gyr(a, b)(nonassoc8.add(b, a))
            for a in nonassoc8.elements()
            for b in nonassoc8.elements()
        )
        assert nonassoc8.is_gyrocommutative() == expected

    def test_right_identity_verified_not_assumed(self, corpus):
        for g in corpus.values():
            assert g.right_identity_holds()


class TestWholeTablePredicatesAgainstOracle:
    """``is_group`` by row compares and ``is_gyrocommutative`` from the
    gyration numbering, against the per-triple and per-pair definitions."""

    def test_census8_corpus_and_products(self, census8, corpus, nonassoc8):
        tables = [*census8, *corpus.values(), direct_product(nonassoc8, cyclic(2))]
        tables.append(direct_product(sym3(), cyclic(2)))
        verdicts = set()
        for g in tables:
            want = (is_group_per_triple(g), is_gyrocommutative_per_pair(g))
            assert (g.is_group(), g.is_gyrocommutative()) == want
            verdicts.add(want)
        # nonassociative and not gyrocommutative (na8), a nonabelian group,
        # an abelian group, and nonassociative but gyrocommutative
        assert verdicts == {(False, False), (True, False), (True, True), (False, True)}

    def test_na8_is_neither(self, nonassoc8):
        assert not nonassoc8.is_group() and not is_group_per_triple(nonassoc8)
        assert not nonassoc8.is_gyrocommutative()
        assert not is_gyrocommutative_per_pair(nonassoc8)

    def test_order_one(self):
        z1 = cyclic(1)
        assert z1.is_group() and is_group_per_triple(z1)
        assert z1.is_gyrocommutative() and is_gyrocommutative_per_pair(z1)


class TestGetter:
    def test_always_a_tuple(self):
        # one index picks one entry, also from a list, and also at order 1
        assert _getter((0,))([5]) == (5,)
        assert _getter((0,))((0, 1, 2, 3)) == (0,)
        assert _getter((2,))([7, 8, 9]) == (9,)
        assert _getter((2, 0))([7, 8, 9]) == (9, 7)
        assert _getter((1, 0))([7, 8]) == (8, 7)


class TestConcurrentReads:
    def test_gyration_cache_fill_is_safe_under_threads(self, nonassoc8):
        import concurrent.futures

        g = GyroTable(nonassoc8.table)  # fresh instance
        pairs = [(a, b) for a in g.elements() for b in g.elements()]

        def snapshot(_):
            return [g.gyr(a, b).images for a, b in pairs]

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(snapshot, range(16)))
        assert all(r == results[0] for r in results)
        expected = [nonassoc8.gyr(a, b).images for a, b in pairs]
        assert results[0] == expected


@st.composite
def zero_placed_tables(draw):
    """Orders 1-6: each row b a permutation with its 0 moved to column
    z[b], for a permutation z, so every element has a left inverse (G2) and
    G1, G3 and G4 all run.  Half the draws keep row 0 the identity."""
    n = draw(st.integers(1, 6))
    z = draw(st.permutations(range(n)))
    identity_first = draw(st.booleans())
    if identity_first:
        i = z.index(0)
        z[0], z[i] = z[i], z[0]
    rows = []
    for b in range(n):
        row = list(range(n)) if b == 0 and identity_first else draw(st.permutations(range(n)))
        i = row.index(0)
        row[i], row[z[b]] = row[z[b]], row[i]
        rows.append(row)
    return rows


class TestVerifyAxiomsFuzz:
    @settings(deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_never_crashes_and_is_stable(self, rows):
        first = verify_axioms(rows)
        second = verify_axioms(rows)
        assert first == second
        assert first.passed == (not first.violations)
        assert first == verify_axioms_per_pair(rows)

    @settings(deadline=None)
    @given(zero_placed_tables())
    def test_zero_placed_tables_match_oracle(self, rows):
        report = verify_axioms(rows)
        assert not any(v.axiom == "G2" for v in report.violations)
        assert report == verify_axioms_per_pair(rows)

    @given(st.integers(2, 5))
    def test_cyclic_tables_always_pass(self, n):
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        assert verify_axioms(rows).passed


class TestPerm:
    def test_validation(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])

    def test_compose_and_inverse(self):
        p = Perm([1, 2, 0])
        q = Perm([0, 2, 1])
        assert (p * q).images == (1, 0, 2)
        assert (p * p.inverse()).is_identity()
        assert p.inverse().images == (2, 0, 1)

    @given(st.permutations(list(range(6))))
    def test_inverse_involutive(self, images):
        p = Perm(images)
        assert p.inverse().inverse() == p


class TestCapsReadAtCallTime:
    """Each cap is one module attribute, read by the function that checks
    it when it is called, so setting the attribute moves the cap."""

    @pytest.mark.parametrize(
        "module, name, value, call, cap_name",
        [
            (substructure, "DEFAULT_LATTICE_CAP", 3, substructure.enumerate_subgyrogroups, "lattice_cap"),
            (substructure, "DEFAULT_LATTICE_CAP", 3, normality.normal_subgyrogroups, "lattice_cap"),
            (search, "DEFAULT_AUT_CAP", 3, search.automorphisms, "aut_cap"),
            (search, "DEFAULT_CANON_CAP", 3, search.canonical_form, "canon_cap"),
            (nuclei, "DEFAULT_PERM_CAP", 10, nuclei.lmlt, "perm_cap"),
            (nuclei, "DEFAULT_PERM_CAP", 10, nuclei.lg_prime, "perm_cap"),
            (nuclei, "DEFAULT_PERM_CAP", 10, nuclei.radical, "perm_cap"),
            (
                nuclei,
                "DEFAULT_PERM_CAP",
                10,
                lambda g: nuclei.PermGroup.generated(nuclei.left_translations(g)),
                "perm_cap",
            ),
            (core, "DEFAULT_ORDER_CAP", 3, lambda g: direct_product(g, cyclic(1)), "order_cap"),
            (core, "DEFAULT_ORDER_CAP", 3, lambda g: parse_gyro(format_gyro(g)), "order_cap"),
        ],
        ids=[
            "enumerate_subgyrogroups",
            "normal_subgyrogroups",
            "automorphisms",
            "canonical_form",
            "lmlt",
            "lg_prime",
            "radical",
            "PermGroup.generated",
            "direct_product",
            "parse_gyro",
        ],
    )
    def test_lowered_cap_raises(self, nonassoc8, monkeypatch, module, name, value, call, cap_name):
        # the default cap admits the call; each call gets a fresh table, so
        # no memoised structure answers before the cap is checked
        call(GyroTable(nonassoc8.table))
        monkeypatch.setattr(module, name, value)
        with pytest.raises(ResourceCapError) as exc_info:
            call(GyroTable(nonassoc8.table))
        assert exc_info.value.cap_name == cap_name

    def test_raised_canon_cap_admits_order_9(self, monkeypatch):
        z9 = cyclic(9)
        with pytest.raises(ResourceCapError):
            canonical_form(z9)
        monkeypatch.setattr(search, "DEFAULT_CANON_CAP", 9)
        form = canonical_form(z9)
        assert search.are_isomorphic(form, z9)[0] and canonical_form(form) == form
