import pytest

import normality_oracle as oracle
from gyrokit.catalog import cyclic, klein_four, sym3
from gyrokit.core import direct_product, verify_axioms
from gyrokit.normality import (
    Hom,
    _preserves,
    NotNormal,
    _zero_congruence,
    check_hom,
    check_sufficient_normality,
    image,
    induced_isomorphism,
    intersect_normals,
    is_normal,
    kernel,
    normal_closure,
    try_quotient,
)
from gyrokit.nuclei import left_nucleus
from gyrokit.substructure import enumerate_subgyrogroups, is_subgroup, is_subgyrogroup


class TestTryQuotient:
    def test_z6_by_even_part(self):
        z6 = cyclic(6)
        q = try_quotient(z6, [0, 2, 4])
        assert q.table.order == 2
        assert q.table.table == ((0, 1), (1, 0))
        assert q.normal_members == (0, 2, 4)

    def test_s3_transposition_subgroup_not_normal(self):
        s3 = sym3()
        with pytest.raises(NotNormal) as exc_info:
            try_quotient(s3, [0, 2])
        assert exc_info.value.step
        assert exc_info.value.witness is not None

    def test_quotient_table_passes_axioms(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                q = try_quotient(g, s)
                assert verify_axioms(q.table.table).passed
                assert check_hom(q.projection)
                got_kernel = tuple(
                    a for a in g.elements() if q.projection(a) == 0
                )
                assert got_kernel == s.members

    def test_left_nucleus_always_normal(self, corpus):
        for g in corpus.values():
            q = try_quotient(g, left_nucleus(g))
            assert q.table.order * len(q.normal_members) == g.order

    def test_trivial_and_full(self, corpus):
        for g in corpus.values():
            assert is_normal(g, [0])
            assert is_normal(g, range(g.order))

    def test_non_subgyrogroup_rejected(self):
        s3 = sym3()
        for subset in ([0, 3], [0, 2, 3], [1], [0, 6], [0, -1]):
            # twice, so a rejection is not memoised as a verdict
            for _ in range(2):
                with pytest.raises(ValueError):
                    is_normal(s3, subset)


class TestHoms:
    def test_identity_hom(self):
        z4 = cyclic(4)
        assert check_hom(Hom(z4, z4, (0, 1, 2, 3)))

    def test_parity_hom(self):
        phi = Hom(cyclic(4), cyclic(2), (0, 1, 0, 1))
        assert check_hom(phi)
        assert kernel(phi).members == (0, 2)
        assert image(phi).members == (0, 1)

    def test_perturbed_map_rejected_with_witness(self):
        z4, z2 = cyclic(4), cyclic(2)
        good = (0, 1, 0, 1)
        for i in range(4):
            bad = list(good)
            bad[i] ^= 1
            phi = Hom(z4, z2, tuple(bad))
            assert not check_hom(phi)

    def test_kernel_of_identity(self):
        z4 = cyclic(4)
        assert kernel(Hom(z4, z4, (0, 1, 2, 3))).members == (0,)

    def test_projection_kernels(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                proj = try_quotient(g, s).projection
                assert kernel(proj).members == s.members
                assert is_normal(g, kernel(proj))
                assert is_subgyrogroup(proj.codomain, image(proj))

    def test_projections_commute_with_gyrations(self, census8, nonassoc8):
        # check_hom tests the operation only; a homomorphism also carries
        # gyr[a, b] to gyr[phi a, phi b]
        for g in [*census8, direct_product(nonassoc8, cyclic(2))]:
            els = g.elements()
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                proj = try_quotient(g, s).projection
                q, f = proj.codomain, proj.map
                for a in els:
                    for b in els:
                        gy_g, gy_q = g.gyr(a, b), q.gyr(f[a], f[b])
                        assert all(f[gy_g(c)] == gy_q(f[c]) for c in els), (s.members, a, b)

    def test_first_isomorphism(self, corpus):
        phi = Hom(cyclic(4), cyclic(2), (0, 1, 0, 1))
        induced = induced_isomorphism(phi)
        assert induced.domain.order == 2 and induced.codomain.order == 2
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                proj = try_quotient(g, s).projection
                induced = induced_isomorphism(proj)
                assert induced.domain.order == proj.codomain.order


class TestIntersectNormals:
    def test_z12_example(self):
        z12 = cyclic(12)
        got = intersect_normals(z12, [[0, 2, 4, 6, 8, 10], [0, 3, 6, 9]])
        assert got.members == (0, 6)

    def test_intersect_with_whole(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                got = intersect_normals(g, [s, range(g.order)])
                assert got.members == s.members

    def test_all_pairs_on_nonassociative(self, nonassoc8):
        normals = [
            s
            for s in enumerate_subgyrogroups(nonassoc8)
            if is_normal(nonassoc8, s)
        ]
        for a in normals:
            for b in normals:
                got = intersect_normals(nonassoc8, [a, b])
                assert got.as_set() == a.as_set() & b.as_set()
                assert is_normal(nonassoc8, got)

    def test_rejects_non_normal_input(self):
        s3 = sym3()
        with pytest.raises(ValueError):
            intersect_normals(s3, [[0, 2]])


class TestNormalClosure:
    def test_normal_input_is_fixed_point(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if is_normal(g, s):
                    assert normal_closure(g, s.members).members == s.members

    def test_singleton_zero(self):
        assert normal_closure(cyclic(4), [0]).members == (0,)

    def test_rejects_out_of_range_seed(self):
        for seed in ([4], [-1], []):
            with pytest.raises(ValueError):
                normal_closure(cyclic(4), seed)

    def test_s3_transposition_generates_everything(self):
        # oracle: the subgroup generated by all conjugates of (12), computed
        # with plain group arithmetic, is all of s3
        s3 = sym3()
        conjugates = set()
        for x in s3.elements():
            # x * 2 * x^-1
            conjugates.add(s3.table[s3.table[x][2]][s3.inv[x]])
        grown = {0} | conjugates
        while True:
            new = {s3.table[a][b] for a in grown for b in grown} | {
                s3.inv[a] for a in grown
            }
            if new <= grown:
                break
            grown |= new
        assert grown == set(range(6))
        assert normal_closure(s3, [2]).members == (0, 1, 2, 3, 4, 5)

    def test_minimality(self, corpus):
        for g in corpus.values():
            lattice = enumerate_subgyrogroups(g)
            normals = [s for s in lattice if is_normal(g, s)]
            for seed in lattice:
                closure = normal_closure(g, seed.members)
                assert seed.as_set() <= closure.as_set()
                assert is_normal(g, closure)
                for n in normals:
                    if seed.as_set() <= n.as_set():
                        assert closure.as_set() <= n.as_set()


class TestSufficientCondition:
    def test_examples(self):
        s3 = sym3()
        assert check_sufficient_normality(s3, [0])
        assert check_sufficient_normality(s3, [0, 3, 4])
        assert not check_sufficient_normality(s3, [0, 2])

    def test_implies_normal_on_corpus(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if check_sufficient_normality(g, s):
                    assert is_normal(g, s)

    def test_left_nucleus_satisfies_it(self, corpus):
        for g in corpus.values():
            assert check_sufficient_normality(g, left_nucleus(g))

    def test_converse_fails_somewhere(self, nonassoc8):
        # normality does not imply the sufficient condition; the whole
        # carrier of a nonassociative table is normal yet has nonidentity
        # inner gyrations
        assert is_normal(nonassoc8, range(8))
        assert not check_sufficient_normality(nonassoc8, range(8))


class TestGyrocommutativeQuotientWitness:
    def test_exists_on_every_corpus_table(self, corpus):
        for g in corpus.values():
            found = False
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s) or not is_subgroup(g, s):
                    continue
                if try_quotient(g, s).table.is_gyrocommutative():
                    found = True
                    break
            assert found


class TestCongruenceAgainstOracle:
    """The coset test and the congruence closure against the five-step
    quotient decision and the lattice-filter closure over every
    subgyrogroup of the order-8 census, the acceptance corpus and na8 x Z2;
    the normality decisions also over na8 x V4."""

    @pytest.fixture(scope="class")
    def tables(self, census8, corpus, nonassoc8):
        named = [(f"census8-{i}", t) for i, t in enumerate(census8)]
        named += sorted(corpus.items())
        named.append(("na8xZ2", direct_product(nonassoc8, cyclic(2))))
        return named

    @pytest.fixture(scope="class")
    def decision_tables(self, tables, nonassoc8):
        # the lattice-filter closure oracle takes about 40 s on na8 x V4, so
        # the closures are compared on the smaller tables only
        return [*tables, ("na8xV4", direct_product(nonassoc8, klein_four()))]

    def test_coset_test_matches_congruence(self, decision_tables):
        # the union-find closure stays the reference for the coset test
        for name, g in decision_tables:
            for s in enumerate_subgyrogroups(g):
                root = _zero_congruence(g, s.members)
                zero_class = {x for x in g.elements() if root[x] == 0}
                assert is_normal(g, s) == (zero_class == s.as_set()), (name, s.members)

    def test_quotients_match(self, decision_tables):
        for name, g in decision_tables:
            for s in enumerate_subgyrogroups(g):
                try:
                    want = oracle.try_quotient(g, s)
                except NotNormal:
                    want = None
                assert is_normal(g, s) == (want is not None), (name, s.members)
                if want is None:
                    with pytest.raises(NotNormal) as exc_info:
                        try_quotient(g, s)
                    assert exc_info.value.step == "congruence"
                    (x,) = exc_info.value.witness
                    assert x not in s and x in normal_closure(g, s.members)
                    continue
                got = try_quotient(g, s)
                assert got.table == want.table, (name, s.members)
                assert got.projection.map == want.projection.map, (name, s.members)
                assert got.cosets == want.cosets, (name, s.members)
                assert got.normal_members == want.normal_members

    def test_normal_closures_match(self, tables):
        for name, g in tables:
            seeds = [s.members for s in enumerate_subgyrogroups(g)]
            seeds += [(a,) for a in g.elements()]
            for seed in seeds:
                got = normal_closure(g, seed)
                assert got == oracle.normal_closure(g, seed), (name, seed)


class TestRowFormsAgainstOracle:
    """``check_hom``, the union-find closure and the sufficient condition,
    which compare whole rows, against their per-element forms in
    ``normality_oracle`` over the order-8 census, the acceptance corpus and
    na8 x Z2, each with inputs where the answer is False."""

    @pytest.fixture(scope="class")
    def tables(self, census8, corpus, nonassoc8):
        return [*census8, *corpus.values(), direct_product(nonassoc8, cyclic(2))]

    def test_check_hom(self, tables):
        verdicts = set()
        for g in tables:
            maps = [try_quotient(g, s).projection for s in enumerate_subgyrogroups(g) if is_normal(g, s)]
            # relabellings that swap two nonzero elements, and the map onto z1
            for i in range(1, g.order - 1):
                f = list(g.elements())
                f[i], f[i + 1] = i + 1, i
                maps.append(Hom(g, g, tuple(f)))
            maps.append(Hom(g, cyclic(1), (0,) * g.order))
            for phi in maps:
                want = oracle.check_hom(phi)
                assert check_hom(phi) == want, (g, phi.map)
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_check_hom_order_one_and_lists(self):
        z1, z2 = cyclic(1), cyclic(2)
        assert check_hom(Hom(z1, z1, [0])) and check_hom(Hom(z1, z2, (0,)))
        assert check_hom(Hom(z2, z1, [0, 0]))
        assert not check_hom(Hom(z2, z2, [1, 0])) and not oracle.check_hom(Hom(z2, z2, [1, 0]))
        assert not check_hom(Hom(cyclic(3), cyclic(3), [0, 2, 2]))
        # fails on the last row only: row 0 holds for every map fixing 0
        assert not check_hom(Hom(z2, cyclic(3), (0, 1))) and not oracle.check_hom(Hom(z2, cyclic(3), (0, 1)))

    def test_induced_isomorphism_onto_a_proper_image(self):
        # the image {0, 2} of Z2 in Z4 is relabelled 0, 1; the image {0} of
        # Z4 in Z2 is a table of order 1
        hom = induced_isomorphism(Hom(cyclic(2), cyclic(4), (0, 2)))
        assert hom.codomain.table == ((0, 1), (1, 0)) and hom.map == (0, 1)
        hom = induced_isomorphism(Hom(cyclic(4), cyclic(2), (0, 0, 0, 0)))
        assert hom.domain.order == 1 and hom.codomain.table == ((0,),) and hom.map == (0,)
        assert _preserves([0], [[0]], ((0,),))

    def test_zero_congruence(self, tables, nonassoc8):
        differs = 0
        for g in [*tables, direct_product(nonassoc8, klein_four())]:
            seeds = [s.members for s in enumerate_subgyrogroups(g)]
            seeds += [(a,) for a in g.elements()]
            for seed in seeds:
                want = oracle.zero_congruence(g, seed)
                assert _zero_congruence(g, seed) == want, (g, seed)
                differs += {x for x in g.elements() if want[x] == 0} != set(seed) | {0}
        # the 0-class of a non-normal seed is larger than the seed
        assert differs > 0
        s3 = sym3()
        # {0, 1} is a non-normal subgroup of S3, and its closure is all of S3
        assert _zero_congruence(s3, [1]) == [0] * 6 == oracle.zero_congruence(s3, [1])
        assert _zero_congruence(cyclic(1), [0]) == [0]
        assert _zero_congruence(nonassoc8, [0]) == list(range(8))

    def test_sufficient_condition(self, tables):
        verdicts = set()
        for g in tables:
            for s in enumerate_subgyrogroups(g):
                want = oracle.check_sufficient_normality(g, s)
                assert check_sufficient_normality(g, s) == want, (g, s.members)
                verdicts.add((want, is_normal(g, s)))
        # holding, failing on a normal subgyrogroup, failing on a non-normal one
        assert verdicts == {(True, True), (False, True), (False, False)}
        s3 = sym3()
        assert not check_sufficient_normality(s3, [0, 1])
        assert not oracle.check_sufficient_normality(s3, [0, 1])
        assert check_sufficient_normality(cyclic(1), [0])
        assert check_sufficient_normality(s3, [0]) and oracle.check_sufficient_normality(s3, [0])
