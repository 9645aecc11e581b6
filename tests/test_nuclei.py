import nuclei_oracle
import pytest

from gyrokit import nuclei
from gyrokit.catalog import cyclic, klein_four, sym3
from gyrokit.cli import analyze_object
from gyrokit.core import GyroTable, Perm, ResourceCapError, direct_product
from gyrokit.nuclei import (
    PermGroup,
    is_twisted_subgroup,
    left_nucleus,
    left_translations,
    lg_prime,
    lg_sharp,
    lmlt,
    middle_nucleus,
    radical,
    right_nucleus,
)
from gyrokit.normality import is_normal
from gyrokit.substructure import (
    is_L_subgyrogroup,
    is_subgroup,
    left_coset,
    right_coset,
)
from gyrokit.sweep import _nuclei_by_associativity, lg_prime_word_oracle, sweep_table

# compositions of lmlt and of lg_prime on na8xV4: 384 each when closing
# from a greedy generating subset, 2,048 with every generator in each round
MUL_BUDGET_NA8XV4 = 1024


@pytest.fixture
def composition_counter(monkeypatch):
    """Counts the compositions ``PermGroup.generated`` forms from here on,
    in a one-element list."""
    count = [0]
    real = nuclei._composer

    def counting(s):
        step = real(s)

        def counted(y):
            count[0] += 1
            return step(y)

        return counted

    monkeypatch.setattr(nuclei, "_composer", counting)
    return count


def doubled_translations(g: GyroTable) -> list[Perm]:
    """L_a (+) L_a^-1 on 2n points, the generators of the reversal kernel."""
    n = g.order
    return [
        Perm(la.images + tuple(n + x for x in la.inverse().images))
        for la in left_translations(g)
    ]


class TestLeftTranslations:
    def test_z4_shifts(self):
        ts = left_translations(cyclic(4))
        assert [t.images for t in ts] == [
            (0, 1, 2, 3),
            (1, 2, 3, 0),
            (2, 3, 0, 1),
            (3, 0, 1, 2),
        ]
        assert ts[0].is_identity()

    def test_rows_are_bijections(self, corpus):
        for g in corpus.values():
            for t in left_translations(g):
                assert sorted(t.images) == list(g.elements())


class TestLmlt:
    def test_group_orders(self):
        assert lmlt(cyclic(4)).order == 4
        assert lmlt(sym3()).order == 6
        assert lmlt(cyclic(1)).order == 1

    def test_nonassociative_is_larger(self, nonassoc8):
        group = lmlt(nonassoc8)
        assert group.order > 8
        # it contains a nonidentity permutation fixing 0
        assert any(p(0) == 0 and not p.is_identity() for p in group.elements)

    def test_cap(self, nonassoc8, monkeypatch):
        # a fresh table: the fixture's lmlt may be memoised already
        monkeypatch.setattr(nuclei, "DEFAULT_PERM_CAP", 4)
        with pytest.raises(ResourceCapError) as exc:
            lmlt(GyroTable(nonassoc8.table))
        assert exc.value.cap_name == "perm_cap"

    def test_memo_hit_skips_the_cap(self, nonassoc8, monkeypatch):
        g = GyroTable(nonassoc8.table)
        group = lmlt(g)
        monkeypatch.setattr(nuclei, "DEFAULT_PERM_CAP", 4)
        assert lmlt(g) is group

    @pytest.mark.parametrize("lg_prime_first", [False, True])
    def test_matches_a_fresh_closure(self, census8, nonassoc8, lg_prime_first):
        # filled by lmlt itself, or from the first halves of lg_prime's
        # closure on 2n points when lg_prime runs first
        products = [direct_product(nonassoc8, h) for h in (cyclic(2), klein_four())]
        for t in [*census8, *products]:
            g = GyroTable(t.table)
            if lg_prime_first:
                kernel = lg_prime(g)
                group = lmlt(g)
            else:
                group = lmlt(g)
                kernel = lg_prime(g)
            assert group == PermGroup.generated(left_translations(g)), t
            assert kernel == lg_prime(GyroTable(t.table)) <= group.elements

    def test_closure_properties(self, corpus):
        for g in corpus.values():
            group = lmlt(g)
            els = group.elements
            assert Perm.identity(g.order) in els
            assert all(p.inverse() in els for p in els)
            sample = sorted(els)[: min(len(els), 8)]
            assert all(p * q in els for p in sample for q in sample)


class TestTwistedSubgroups:
    def test_whole_group_is_twisted(self):
        group = lmlt(sym3())
        assert is_twisted_subgroup(group, group.elements).is_twisted

    def test_identity_alone_is_twisted(self):
        group = lmlt(cyclic(4))
        assert is_twisted_subgroup(group, [Perm.identity(4)]).is_twisted

    def test_translations_are_twisted(self, corpus):
        for g in corpus.values():
            group = lmlt(g)
            report = is_twisted_subgroup(group, left_translations(g))
            assert report.is_twisted, report.violations

    def test_violations_reported(self):
        group = lmlt(cyclic(4))
        shift = cyclic(4).left_translation(1)
        report = is_twisted_subgroup(group, [shift])
        assert not report.is_twisted
        kinds = {kind for _, _, kind in report.violations}
        assert "identity" in kinds

    def test_subset_must_be_inside(self):
        group = lmlt(cyclic(4))
        with pytest.raises(ValueError):
            is_twisted_subgroup(group, [Perm([1, 0, 2, 3])])


class TestLgSharp:
    def test_group_gives_all_translations(self, groups):
        for g in groups.values():
            assert lg_sharp(g) == frozenset(left_translations(g))

    def test_trivial(self):
        assert lg_sharp(cyclic(1)) == frozenset([Perm.identity(1)])

    def test_equals_nucleus_translations(self, corpus):
        for g in corpus.values():
            sharp = lg_sharp(g)
            expected = frozenset(
                g.left_translation(a) for a in left_nucleus(g).members
            )
            assert sharp == expected

    def test_three_characterizations_agree(self, corpus):
        # definitional intersection == translations of elements with trivial
        # gyrations on the right slot == translations of the left nucleus
        for g in corpus.values():
            translations = left_translations(g)
            raw = nuclei_oracle.lg_sharp(g)
            by_gyr = frozenset(
                translations[x]
                for x in g.elements()
                if all(g.gyr(a, x).is_identity() for a in g.elements())
            )
            by_nucleus = frozenset(
                translations[a] for a in left_nucleus(g).members
            )
            assert raw == by_gyr == by_nucleus == lg_sharp(g)


    def test_forms_no_perm_product(self, nonassoc8, mul_counter):
        # one composition of image tuples per row and copy, no Perm product
        g = direct_product(nonassoc8, klein_four())
        mul_counter[0] = 0
        assert len(lg_sharp(g)) == len(left_nucleus(g))
        assert mul_counter[0] == 0

    def test_matches_definitional_intersection(self, census8, corpus, nonassoc8):
        tables = [*census8, *corpus.values()]
        tables += [direct_product(nonassoc8, h) for h in (cyclic(2), klein_four())]
        tables.append(direct_product(direct_product(nonassoc8, klein_four()), cyclic(2)))
        for g in tables:
            assert lg_sharp(g) == nuclei_oracle.lg_sharp(g), g.table


class TestLgPrime:
    def test_abelian_group_trivial(self):
        for n in (1, 2, 3, 4, 8):
            assert lg_prime(cyclic(n)) == frozenset([Perm.identity(n)])

    def test_group_matches_derived_subgroup_translations(self, groups):
        # for a group, the reversal kernel is the set of translations by
        # classical derived-subgroup elements (independent group oracle)
        for g in groups.values():
            t, inv = g.table, g.inv
            comms = {
                t[inv[t[a][b]]][t[b][a]] for a in g.elements() for b in g.elements()
            }
            closed = {0} | comms
            while True:
                new = {t[a][b] for a in closed for b in closed}
                new |= {inv[a] for a in closed}
                if new <= closed:
                    break
                closed |= new
            expected = frozenset(g.left_translation(a) for a in closed)
            assert lg_prime(g) == expected

    def test_word_oracle_agreement(self, corpus):
        for g in corpus.values():
            construction = lg_prime(g)
            oracle = lg_prime_word_oracle(g, max_len=6)
            assert oracle <= construction, "oracle found missing elements"
            assert oracle == construction

    def test_chain(self, corpus):
        for g in corpus.values():
            assert lg_prime(g) <= lg_sharp(g) <= frozenset(left_translations(g))

    def test_matches_pair_closure(self, census8, groups, nonassoc8):
        products = [direct_product(nonassoc8, h) for h in (cyclic(2), klein_four())]
        for g in [*census8, *groups.values(), *products]:
            assert lg_prime(g) == nuclei_oracle.lg_prime_by_pairs(g)

    @pytest.mark.parametrize("fn", [lg_prime, radical])
    def test_cap(self, nonassoc8, fn, monkeypatch):
        # a fresh table: the fixture's kernel may be memoised already
        monkeypatch.setattr(nuclei, "DEFAULT_PERM_CAP", 10)
        with pytest.raises(ResourceCapError) as exc:
            fn(GyroTable(nonassoc8.table))
        assert exc.value.cap_name == "perm_cap"

    def closure_degrees(self, monkeypatch):
        """The degree of every permutation-group closure run from now on."""
        closure = nuclei._closure
        degrees = []

        def counted(images, cap=None):
            degrees.append(len(images[0]))
            return closure(images, cap)

        monkeypatch.setattr(nuclei, "_closure", counted)
        return degrees

    @pytest.mark.parametrize(
        "run", [analyze_object, lambda g: sweep_table("na8", g)], ids=["analyze", "sweep"]
    )
    def test_closure_built_once_per_table(self, monkeypatch, nonassoc8, run):
        g = GyroTable(nonassoc8.table)
        degrees = self.closure_degrees(monkeypatch)
        run(g)
        assert degrees.count(2 * g.order) == 1
        assert lg_prime(g) is lg_prime(g) and radical(g) == radical(nonassoc8)
        assert degrees.count(2 * g.order) == 1

    def test_normal_subgroups_of_lmlt_on_census(self, census8):
        for g in census8:
            group = lmlt(g)
            for perms in (lg_sharp(g), lg_prime(g)):
                assert Perm.identity(g.order) in perms and perms <= group.elements
                assert all(p * q in perms for p in perms for q in perms)
                assert all(p.inverse() in perms for p in perms)
                assert all(x * p * x.inverse() in perms for x in group.elements for p in perms)


class TestNuclei:
    def test_groups_have_full_nuclei(self, groups):
        for g in groups.values():
            full = tuple(g.elements())
            assert left_nucleus(g).members == full
            assert middle_nucleus(g).members == full
            assert right_nucleus(g).members == full

    def test_trivial(self):
        t = cyclic(1)
        assert left_nucleus(t).members == (0,)

    def test_nonassociative_proper(self, nonassoc8):
        nl = left_nucleus(nonassoc8)
        assert len(nl) < 8
        assert len(radical(nonassoc8)) < 8

    def test_left_equals_middle(self, corpus):
        for g in corpus.values():
            assert left_nucleus(g).members == middle_nucleus(g).members

    def test_nuclei_are_L_subgyrogroups_and_subgroups(self, corpus):
        for g in corpus.values():
            for nucleus in (left_nucleus(g), middle_nucleus(g), right_nucleus(g)):
                assert is_L_subgyrogroup(g, nucleus)
                assert is_subgroup(g, nucleus)

    def test_left_nucleus_normal_with_lemma(self, corpus):
        for g in corpus.values():
            nl = left_nucleus(g).as_set()
            for a in g.elements():
                assert left_coset(g, nl, a) == right_coset(g, nl, a)
                for b in g.elements():
                    assert frozenset(g.gyr(a, b)(x) for x in nl) <= nl
            assert is_normal(g, nl)

    def test_group_iff_left_nucleus_full(self, corpus):
        for g in corpus.values():
            assert g.is_group() == (len(left_nucleus(g)) == g.order)

    def test_gyration_characterization_on_census(self, census8):
        nuclei = {"left": left_nucleus, "middle": middle_nucleus, "right": right_nucleus}
        for g in census8:
            for position, nucleus in nuclei.items():
                assert nucleus(g).as_set() == nuclei_oracle.nucleus_by_gyrations(g, position)

    def test_census_nuclei_proper_for_nonassociative(self, census8):
        for g in census8:
            if not g.is_group():
                assert len(left_nucleus(g)) < g.order


class TestNucleiAgainstOracles:
    """The nuclei read off the gyration numbering against the sweep's
    one-pass associativity scan and the per-pair gyration oracle, on the
    order-8 census, five order-16 products and na8xV4 (order 32)."""

    @pytest.fixture(scope="class")
    def tables(self, census8, nonassoc8):
        products = [
            direct_product(nonassoc8, cyclic(2)),
            direct_product(cyclic(4), cyclic(4)),
            direct_product(cyclic(8), cyclic(2)),
            direct_product(klein_four(), cyclic(4)),
            cyclic(16),
            direct_product(nonassoc8, klein_four()),
        ]
        return [*census8, *products]

    def test_match_associativity_scan(self, tables):
        for g in tables:
            got = tuple(f(g).as_set() for f in (left_nucleus, middle_nucleus, right_nucleus))
            assert got == _nuclei_by_associativity(g)

    def test_match_gyration_oracle(self, tables):
        positions = {"left": left_nucleus, "middle": middle_nucleus, "right": right_nucleus}
        for g in tables:
            for position, nucleus in positions.items():
                assert nucleus(g).as_set() == nuclei_oracle.nucleus_by_gyrations(g, position)

    def test_nonassociative_tables_have_proper_nuclei(self, tables):
        # the comparisons above are not all between full carriers
        proper = [g for g in tables if not g.is_group()]
        assert len(proper) >= 3
        for g in proper:
            assert len(right_nucleus(g)) < g.order and len(left_nucleus(g)) < g.order


class TestRadical:
    def test_abelian_gives_zero(self):
        for n in (2, 4, 8):
            assert radical(cyclic(n)).members == (0,)

    def test_trivial(self):
        assert radical(cyclic(1)).members == (0,)

    def test_postconditions(self, corpus):
        for g in corpus.values():
            rad = radical(g)
            assert rad.as_set() <= left_nucleus(g).as_set()
            assert is_subgroup(g, rad)
            assert is_normal(g, rad)
            rset = rad.as_set()
            for a in g.elements():
                assert left_coset(g, rset, a) == right_coset(g, rset, a)
                for b in g.elements():
                    assert frozenset(g.gyr(a, b)(x) for x in rset) <= rset


class TestPermGroup:
    def test_generated_requires_generators(self):
        with pytest.raises(ValueError):
            PermGroup.generated([])
        # generators of different degrees, in either order
        for gens in ([Perm([1, 0]), Perm([0, 2, 1])], [Perm([0, 2, 1]), Perm([1, 0])]):
            with pytest.raises(ValueError, match="different degrees"):
                PermGroup.generated(gens)

    def test_contains(self):
        group = PermGroup.generated([Perm([1, 0])])
        assert Perm([1, 0]) in group and Perm.identity(2) in group
        assert group.order == 2

    def test_sym0_intersection_trivial(self, corpus):
        for g in corpus.values():
            translations = left_translations(g)
            fixing_zero = [p for p in translations if p(0) == 0]
            assert fixing_zero == [Perm.identity(g.order)]


class TestGeneratedAgainstOracle:
    @pytest.fixture(scope="class")
    def generator_sets(self, census8, corpus, nonassoc8):
        products = [direct_product(nonassoc8, h) for h in (cyclic(2), klein_four())]
        tables = [*census8, *corpus.values(), *products]
        return [f(g) for g in tables for f in (left_translations, doubled_translations)]

    def test_same_elements(self, generator_sets):
        for gens in generator_sets:
            group = PermGroup.generated(gens)
            assert group.generators == tuple(gens)
            assert group.elements == nuclei_oracle.closure_breadth_first(gens, cap=10**6)

    @staticmethod
    def outcome(close):
        try:
            return close()
        except ResourceCapError as exc:
            return exc.cap_name, str(exc)

    def test_same_cap_behaviour(self, generator_sets):
        # caps one below the order and at it, and on Z4 a cap below its n
        # generators, which an abelian closure never exceeds
        z4 = cyclic(4)
        cases = [(gens, 2) for gens in (left_translations(z4), doubled_translations(z4))]
        for gens in generator_sets:
            order = len(nuclei_oracle.closure_breadth_first(gens, cap=10**6))
            cases += [(gens, order - 1), (gens, order)]
        raised = 0
        for gens, cap in cases:
            want = self.outcome(lambda: nuclei_oracle.closure_breadth_first(gens, cap))
            got = self.outcome(lambda: PermGroup.generated(gens, cap).elements)
            assert got == want
            raised += isinstance(want, tuple)
        assert raised > 0

    @pytest.mark.parametrize("fn", [lmlt, lg_prime])
    def test_perm_products_within_budget(self, fn, nonassoc8, composition_counter, mul_counter):
        # the closure composes raw images, and forms no Perm product
        g = direct_product(nonassoc8, klein_four())
        composition_counter[0] = mul_counter[0] = 0
        fn(g)
        assert 0 < composition_counter[0] <= MUL_BUDGET_NA8XV4
        assert mul_counter[0] == 0

    @pytest.mark.parametrize("degree", [256, 257])
    def test_both_encodings(self, degree):
        # bytes up to degree 256, tuples above: the dihedral group of the
        # degree-gon (2 * degree elements, so images reach degree - 1), and
        # the symmetric group, which every cap stops
        rotation = Perm([(i + 1) % degree for i in range(degree)])
        reflection = Perm([-i % degree for i in range(degree)])
        swap = Perm([1, 0, *range(2, degree)])
        dihedral = [rotation, reflection]
        group = PermGroup.generated(dihedral)
        assert group.order == 2 * degree
        assert group.elements == nuclei_oracle.closure_breadth_first(dihedral, cap=10**6)
        cases = [(dihedral, 2 * degree - 1), (dihedral, 2 * degree), ([rotation, swap], 3 * degree)]
        for gens, cap in cases:
            want = TestGeneratedAgainstOracle.outcome(
                lambda: nuclei_oracle.closure_breadth_first(gens, cap)
            )
            got = TestGeneratedAgainstOracle.outcome(lambda: PermGroup.generated(gens, cap).elements)
            assert got == want
        assert isinstance(want, tuple) and want[0] == "perm_cap"
