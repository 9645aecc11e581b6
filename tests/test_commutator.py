import pytest

from commutator_oracle import check_universal_property

from gyrokit.catalog import cyclic, klein_four, sym3
from gyrokit import commutator as commutator_module
from gyrokit.cli import analyze_object
from gyrokit.core import GyroTable, ResourceCapError, direct_product
from gyrokit.commutator import (
    commutator,
    commutator_subgyrogroup,
    hunt_commutator_normality,
    nc_commutator,
)
from gyrokit.normality import Hom, is_normal, try_quotient
from gyrokit.search import automorphisms
from gyrokit.substructure import (
    enumerate_subgyrogroups,
    generate,
    is_L_subgyrogroup,
    is_subgroup,
)


def classical_derived_subgroup(g):
    """Independent group-theory oracle: close the set of group commutators
    (ab)^-1(ba) under the group operation.  Only valid when g is a group."""
    assert g.is_group()
    t, inv = g.table, g.inv
    comms = {t[inv[t[a][b]]][t[b][a]] for a in g.elements() for b in g.elements()}
    closed = {0} | comms
    while True:
        new = {t[a][b] for a in closed for b in closed} | {inv[a] for a in closed}
        if new <= closed:
            return tuple(sorted(closed))
        closed |= new


class TestCommutator:
    def test_diagonal_vanishes(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                assert commutator(g, a, a) == 0

    def test_s3_value(self):
        # oracle: group-theoretic commutator of (12) and (13)
        s3 = sym3()
        a, b = 2, 5
        ab, ba = s3.table[a][b], s3.table[b][a]
        expected = s3.table[s3.inv[ab]][ba]
        assert expected == 4
        assert commutator(s3, a, b) == 4

    def test_abelian_group_commutators_vanish(self):
        z4 = cyclic(4)
        for a in z4.elements():
            for b in z4.elements():
                assert commutator(z4, a, b) == 0

    def test_group_degeneration(self, groups):
        for g in groups.values():
            t, inv = g.table, g.inv
            for a in g.elements():
                for b in g.elements():
                    classical = t[inv[t[a][b]]][t[b][a]]
                    assert commutator(g, a, b) == classical

    def test_zero_iff_pair_gyrocommutes(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                for b in g.elements():
                    lhs = commutator(g, a, b) == 0
                    rhs = g.add(a, b) == g.gyr(a, b)(g.add(b, a))
                    assert lhs == rhs

    def test_negation_of_sum_expansion(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                for b in g.elements():
                    na, nb = g.neg(a), g.neg(b)
                    assert g.neg(g.add(a, b)) == g.add(
                        g.add(na, nb), commutator(g, na, nb)
                    )


class TestCommutatorSubgyrogroup:
    def test_frozen_values(self, groups):
        assert commutator_subgyrogroup(groups["z4"]).members == (0,)
        assert commutator_subgyrogroup(groups["s3"]).members == (0, 3, 4)
        assert commutator_subgyrogroup(groups["q8"]).members == (0, 4)
        assert commutator_subgyrogroup(groups["d4"]).members == (0, 2)

    def test_matches_classical_derived_subgroup(self, groups):
        for g in groups.values():
            assert commutator_subgyrogroup(g).members == classical_derived_subgroup(g)

    def test_structure(self, corpus):
        for g in corpus.values():
            derived = commutator_subgyrogroup(g)
            assert is_L_subgyrogroup(g, derived)
            assert is_subgroup(g, derived)
            assert (derived.members == (0,)) == g.is_gyrocommutative()

    def test_invariant_under_automorphisms(self, corpus):
        for g in corpus.values():
            dset = commutator_subgyrogroup(g).as_set()
            for tau in automorphisms(g):
                assert frozenset(tau(x) for x in dset) == dset
            for a in g.elements():
                for b in g.elements():
                    gy = g.gyr(a, b)
                    assert frozenset(gy(x) for x in dset) == dset

    def test_computed_once_per_table(self, monkeypatch, nonassoc8):
        # analyze reads G' twice, directly and through nc_commutator, and
        # hunt a third time: one closure of the commutators in all
        g = GyroTable(nonassoc8.table)
        calls = [0]
        real = commutator_module.generate

        def counted(table, seed):
            calls[0] += 1
            return real(table, seed)

        monkeypatch.setattr(commutator_module, "generate", counted)
        analyze_object(g)
        (record,) = hunt_commutator_normality([("na8", g)])
        assert calls[0] == 1
        assert commutator_subgyrogroup(g) is commutator_subgyrogroup(g)
        assert record.commutator_members == commutator_subgyrogroup(nonassoc8).members

    def test_matches_per_pair_commutators(self, census8, corpus, nonassoc8):
        # the rows, gyration numbers and columns against commutator() per pair
        tables = [*census8, *corpus.values()]
        tables += [direct_product(nonassoc8, h) for h in (cyclic(2), klein_four(), nonassoc8)]
        for g in tables:
            els = g.elements()
            seed = {commutator(g, a, b) for a in els for b in els}
            assert commutator_subgyrogroup(g).members == generate(g, seed).members

    def test_preserved_by_homs(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                q = try_quotient(g, s)
                proj, quot = q.projection, q.table
                for a in g.elements():
                    for b in g.elements():
                        assert proj(commutator(g, a, b)) == commutator(
                            quot, proj(a), proj(b)
                        )


class TestNormalClosureOfCommutators:
    def test_gyrocommutative_tables_have_trivial_closure(self, groups):
        for name in ("z1", "z2", "z4", "v4", "z8", "z2xz2xz2"):
            assert nc_commutator(groups[name]).members == (0,)

    def test_s3(self, groups):
        assert nc_commutator(groups["s3"]).members == (0, 3, 4)

    def test_beyond_the_lattice_cap(self, nonassoc8):
        # order 72 is over the lattice cap, which the congruence closure
        # never meets; the commutators of na8 x Z9 lie in na8 x {0}
        g = direct_product(nonassoc8, cyclic(9))
        with pytest.raises(ResourceCapError):
            enumerate_subgyrogroups(g)
        base = nc_commutator(nonassoc8).members
        assert base == (0, 1)
        assert nc_commutator(g).members == tuple(9 * a for a in base)

    def test_postconditions(self, corpus):
        for g in corpus.values():
            closure = nc_commutator(g)
            assert is_normal(g, closure)
            assert try_quotient(g, closure).table.is_gyrocommutative()
            assert is_subgroup(g, closure)
            assert (closure.members == (0,)) == g.is_gyrocommutative()

    def test_minimality_biconditional(self, corpus):
        for g in corpus.values():
            closure = nc_commutator(g).as_set()
            derived = commutator_subgyrogroup(g).as_set()
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                quotient_gyrocomm = try_quotient(g, s).table.is_gyrocommutative()
                assert quotient_gyrocomm == (closure <= s.as_set())
                assert quotient_gyrocomm == (derived <= s.as_set())
                all_comms_in = all(
                    commutator(g, a, b) in s.as_set()
                    for a in g.elements()
                    for b in g.elements()
                )
                assert quotient_gyrocomm == all_comms_in


class TestUniversalProperty:
    def test_zero_map(self, nonassoc8):
        phi = Hom(nonassoc8, cyclic(1), tuple(0 for _ in nonassoc8.elements()))
        factored = check_universal_property(nonassoc8, phi)
        assert set(factored.map) == {0}

    def test_identity_on_gyrocommutative(self):
        z4 = cyclic(4)
        phi = Hom(z4, z4, (0, 1, 2, 3))
        factored = check_universal_property(z4, phi)
        # quotient by the trivial closure is a relabeling of z4 itself
        assert factored.domain.order == 4
        assert sorted(factored.map) == [0, 1, 2, 3]

    def test_s3_parity(self):
        s3, z2 = sym3(), cyclic(2)
        parity = Hom(s3, z2, (0, 1, 1, 0, 0, 1))
        factored = check_universal_property(s3, parity)
        assert factored.domain.order == 2
        assert factored.map == (0, 1)

    def test_rejects_noncommutative_codomain(self):
        s3 = sym3()
        phi = Hom(s3, s3, (0, 1, 2, 3, 4, 5))
        with pytest.raises(ValueError):
            check_universal_property(s3, phi)

    def test_rejects_non_hom(self):
        z4, z2 = cyclic(4), cyclic(2)
        with pytest.raises(ValueError):
            check_universal_property(z4, Hom(z4, z2, (0, 1, 1, 0)))


class TestHunt:
    def test_records_outcomes_without_asserting(self, corpus):
        records = hunt_commutator_normality(sorted(corpus.items()))
        assert len(records) == len(corpus)
        for rec in records:
            assert rec.commutators_normal in (True, False)

    def test_census_hunt(self, census8):
        named = [(f"c{i}", t) for i, t in enumerate(census8)]
        records = hunt_commutator_normality(named)
        assert len(records) == len(census8)
