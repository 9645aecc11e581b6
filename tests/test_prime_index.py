import pytest

from gyrokit.catalog import cyclic, sym3
from gyrokit.normality import is_normal
from gyrokit.prime_index import (
    check_condition_multiples,
    check_condition_n,
    check_condition_p,
    coset_ladder,
    equivalence_report,
    gyration_invariant_witnesses,
    index_two_normality,
    is_prime,
    least_prime_factor,
    normality_by_gyration_invariance,
    smallest_prime_precondition,
)
from gyrokit.substructure import NotPartition, enumerate_subgyrogroups, left_cosets
from gyrokit.search import are_isomorphic


def prime_index_pairs(g):
    for s in enumerate_subgyrogroups(g):
        if len(s) == g.order:
            continue
        try:
            fam = left_cosets(g, s)
        except NotPartition:
            continue
        if is_prime(len(fam.cosets)):
            yield s, len(fam.cosets)


class TestPrimeHelpers:
    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_least_prime_factor(self):
        assert least_prime_factor(12) == 2
        assert least_prime_factor(15) == 3
        assert least_prime_factor(7) == 7


class TestConditions:
    def test_z6_examples(self):
        z6 = cyclic(6)
        assert check_condition_p(z6, [0, 3])
        assert check_condition_p(z6, [0, 2, 4])
        ok, witnesses = check_condition_n(z6, [0, 3])
        assert ok and witnesses[1] == 3
        assert check_condition_multiples(z6, [0, 3])
        assert check_condition_multiples(z6, [0, 2, 4])

    def test_non_prime_index_rejected(self):
        z8 = cyclic(8)
        with pytest.raises(ValueError):
            check_condition_p(z8, [0, 4])  # index 4

    def test_condition_p_implies_condition_n_with_p_witness(self, corpus):
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                if check_condition_p(g, s):
                    ok, witnesses = check_condition_n(g, s)
                    assert ok
                    for a, n in witnesses.items():
                        assert g.int_multiple(n, a) in s.as_set()

    def test_equivalence_on_corpus(self, corpus):
        seen = 0
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                seen += 1
                report = equivalence_report(g, s)
                assert report.all_equal, (g.order, s.members)
                assert not report.theorem_violation
        assert seen > 0


class TestCosetLadder:
    def test_z6(self):
        z6 = cyclic(6)
        fam = coset_ladder(z6, [0, 3], 1)
        assert fam.cosets == ((0, 3), (1, 4), (2, 5))
        fam = coset_ladder(z6, [0, 2, 4], 1)
        assert len(fam.cosets) == 2

    def test_member_rejected(self):
        with pytest.raises(ValueError):
            coset_ladder(cyclic(6), [0, 3], 3)

    @pytest.mark.parametrize("a", [-1, -3, 4, 9])
    def test_out_of_range_element_rejected(self, a):
        with pytest.raises(ValueError, match=f"element {a} out of range 0..3"):
            coset_ladder(cyclic(4), {0, 2}, a)

    def test_all_conditions_false_refused(self):
        # the order-2 subgroups of s3 sit at index 3 and fail all three
        # multiple-membership conditions, so no ladder exists
        s3 = sym3()
        report = equivalence_report(s3, [0, 2])
        assert report.all_equal and not report.condition_p
        with pytest.raises(ValueError):
            coset_ladder(s3, [0, 2], 3)

    def test_matches_left_cosets_on_corpus(self, corpus):
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                rep = equivalence_report(g, s)
                if not rep.condition_p:
                    continue
                outside = [a for a in g.elements() if a not in s.as_set()]
                assert coset_ladder(g, s, outside[0]) == left_cosets(g, s)


class TestSmallestPrime:
    def test_z6(self):
        z6 = cyclic(6)
        assert smallest_prime_precondition(z6, [0, 2, 4])  # index 2
        assert not smallest_prime_precondition(z6, [0, 3])  # index 3 != 2

    def test_implies_condition_n(self, corpus):
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                if smallest_prime_precondition(g, s):
                    ok, _ = check_condition_n(g, s)
                    assert ok


class TestGyrationInvariance:
    def test_z6_least_witness(self):
        found, y = normality_by_gyration_invariance(cyclic(6), [0, 2, 4])
        assert found and y == 1

    def test_s3_alternating(self):
        found, y = normality_by_gyration_invariance(sym3(), [0, 3, 4])
        assert found and y == 1

    def test_refuses_non_smallest_prime(self):
        with pytest.raises(ValueError):
            normality_by_gyration_invariance(cyclic(6), [0, 3])  # index 3

    def test_iff_normal_on_qualifying_pairs(self, corpus):
        qualifying = 0
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                if g.order == 1 or p != least_prime_factor(g.order):
                    continue
                qualifying += 1
                found, y = normality_by_gyration_invariance(g, s)
                assert found == is_normal(g, s)
                if found:
                    assert y is not None and y not in s.as_set()
        assert qualifying > 0

    def test_witness_set_recorded(self, corpus):
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                if g.order == 1 or p != least_prime_factor(g.order):
                    continue
                ys = gyration_invariant_witnesses(g, s)
                assert ys == sorted(ys)
                assert all(y not in s.as_set() for y in ys)
                least = ys[0] if ys else None
                assert normality_by_gyration_invariance(g, s) == (bool(ys), least)


class TestIndexTwo:
    def test_examples(self):
        assert index_two_normality(sym3(), [0, 3, 4])
        assert index_two_normality(cyclic(6), [0, 2, 4])

    def test_wrong_index_rejected(self):
        with pytest.raises(ValueError):
            index_two_normality(cyclic(6), [0, 3])

    def test_theorem_on_corpus(self, corpus):
        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                if p != 2:
                    continue
                if index_two_normality(g, s):
                    assert is_normal(g, s)

    def test_nonassociative_index_two(self, nonassoc8):
        hits = 0
        for s, p in prime_index_pairs(nonassoc8):
            if p == 2 and index_two_normality(nonassoc8, s):
                hits += 1
                assert is_normal(nonassoc8, s)
        assert hits > 0


class TestPrimeQuotientCyclic:
    def test_normal_prime_quotients_are_cyclic(self, corpus):
        from gyrokit.normality import try_quotient
        from gyrokit.substructure import generate

        for g in corpus.values():
            for s, p in prime_index_pairs(g):
                if not is_normal(g, s):
                    continue
                q = try_quotient(g, s).table
                assert q.is_group()
                assert q.is_gyrocommutative()
                assert any(len(generate(q, [x])) == q.order for x in q.elements())
                ok, _ = are_isomorphic(q, cyclic(p))
                assert ok
