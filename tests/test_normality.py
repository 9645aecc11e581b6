from itertools import combinations_with_replacement

import pytest

import normality_oracle as oracle
from gyrokit import normality
from gyrokit.catalog import cyclic, klein_four, sym3
from gyrokit.cli import analyze_object
from gyrokit.core import (
    GyroTable,
    InternalConsistencyError,
    ResourceCapError,
    direct_product,
    verify_axioms,
)
from gyrokit.normality import (
    Hom,
    _preserves,
    NotNormal,
    _coset_joins,
    _zero_congruence,
    check_hom,
    check_sufficient_normality,
    image,
    induced_isomorphism,
    is_normal,
    kernel,
    normal_closure,
    normal_subgyrogroups,
    try_quotient,
)
from gyrokit.nuclei import left_nucleus
from gyrokit.search import SearchConfig, run_search
from gyrokit.substructure import (
    DEFAULT_LATTICE_CAP,
    _canonical_joins,
    _extend,
    enumerate_subgyrogroups,
    is_subgroup,
    is_subgyrogroup,
)


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

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Counts the ``GyroTable``s constructed from here on."""
        count = [0]
        real = GyroTable.__init__

        def counting(self, table):
            count[0] += 1
            real(self, table)

        monkeypatch.setattr(GyroTable, "__init__", counting)
        return count

    def test_is_normal_builds_no_table(self, nonassoc8, constructions):
        g = direct_product(nonassoc8, klein_four())  # fresh: only its numbering is memoised
        constructions[0] = 0
        assert sum(is_normal(g, s) for s in enumerate_subgyrogroups(g)) == 78
        obj = analyze_object(g)
        assert len(obj["normal_subgyrogroups"]) == 78
        assert not [key for key in g._memo if isinstance(key, tuple) and key[0] == "quotient"]
        assert constructions[0] == 0

    def test_quotient_built_once(self, nonassoc8, constructions):
        g = direct_product(nonassoc8, klein_four())
        constructions[0] = 0
        first = try_quotient(g, [0, 1, 2, 3])
        assert try_quotient(g, [3, 2, 1, 0]) is first
        assert first.table.table == nonassoc8.table and constructions[0] == 1

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
    """The intersection of two normal subgyrogroups is normal: it is the
    kernel of the componentwise map into the product of the quotients."""

    def test_z12_example(self):
        both = frozenset([0, 2, 4, 6, 8, 10]) & frozenset([0, 3, 6, 9])
        assert both == {0, 6}
        assert is_normal(cyclic(12), both)

    def test_all_pairs_on_corpus(self, corpus):
        assert "na8" in corpus
        for g in corpus.values():
            normals = [s.as_set() for s in enumerate_subgyrogroups(g) if is_normal(g, s)]
            for a, b in combinations_with_replacement(normals, 2):
                assert is_normal(g, a & b), (a, b)

    def test_intersect_with_whole(self, corpus):
        for g in corpus.values():
            whole = frozenset(range(g.order))
            for s in enumerate_subgyrogroups(g):
                if not is_normal(g, s):
                    continue
                both = s.as_set() & whole
                assert both == s.as_set()
                assert is_normal(g, both)

    def test_all_pairs_on_nonassociative(self, nonassoc8):
        normals = [
            s.as_set()
            for s in enumerate_subgyrogroups(nonassoc8)
            if is_normal(nonassoc8, s)
        ]
        assert len(normals) > 2
        for a in normals:
            for b in normals:
                assert is_subgyrogroup(nonassoc8, a & b), (a, b)
                assert is_normal(nonassoc8, a & b), (a, b)


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


class TestOneClosurePerOrbit:
    """ncl(x) = ncl(f(x)) for every map f of ``_principal_closures`` (each
    distinct gyration, and x -> (a + x) + (-a) for each a), and the listing
    built from one closure per orbit against one closure per element, over
    the order-8 census, na8 x Z2, na8 x V4 and na8 x na8."""

    @pytest.fixture(scope="class")
    def tables(self, census8, nonassoc8):
        return [*census8] + [direct_product(nonassoc8, h) for h in (cyclic(2), klein_four(), nonassoc8)]

    @staticmethod
    def maps(g):
        t, inv = g.table, g.inv
        conjugations = [[t[t[a][x]][inv[a]] for x in g.elements()] for a in range(1, g.order)]
        return [p.images for p in g._perms[1:]] + conjugations

    def test_closure_constant_along_each_map(self, tables):
        moved = 0
        for g in tables:
            closures = [normal_closure(g, [x]).members for x in g.elements()]
            for f in self.maps(g):
                for x in g.elements():
                    assert closures[x] == closures[f[x]], (g.order, x, f[x])
                    moved += f[x] != x
        assert moved > 0

    def test_listing_matches_one_closure_per_element(self, tables):
        for g in tables:
            per_element = _canonical_joins(
                g,
                lambda: [normal_closure(g, (a,)).as_set() for a in g.elements()],
                lambda s, rank: _coset_joins(g, s, rank),
            )
            got = normal_subgyrogroups(GyroTable(g.table))
            assert [s.members for s in got] == [s.members for s in per_element]

    def test_closures_per_orbit(self, nonassoc8, monkeypatch):
        # 10 of 16, 20 of 32 and 25 of 64 elements start an orbit
        calls = [0]
        real = normality.normal_closure

        def counted(g, seed):
            calls[0] += 1
            return real(g, seed)

        monkeypatch.setattr(normality, "normal_closure", counted)
        counts = []
        for h in (cyclic(2), klein_four(), nonassoc8):
            calls[0] = 0
            normal_subgyrogroups(direct_product(nonassoc8, h))
            counts.append(calls[0])
        assert counts == [10, 20, 25]


class TestNormalSubgyrogroups:
    """The joins of the principal normal closures against the lattice filter
    of ``normality_oracle``, members and order, and the coset join step
    against the subgyrogroup closure ``_extend``, over the census of orders
    1-8, na8 x Z2, Z4 x Z4, V4 x Z4 and na8 x V4."""

    @pytest.fixture(scope="class")
    def tables(self, census8, nonassoc8):
        census = [t for n in range(1, 8) for t in run_search(SearchConfig(order=n)).tables]
        named = [(f"census-{i}", t) for i, t in enumerate([*census, *census8])]
        return named + [
            ("na8xZ2", direct_product(nonassoc8, cyclic(2))),
            ("Z4xZ4", direct_product(cyclic(4), cyclic(4))),
            ("V4xZ4", direct_product(klein_four(), cyclic(4))),
            ("na8xV4", direct_product(nonassoc8, klein_four())),
        ]

    def test_matches_lattice_filter(self, tables):
        sizes = {}
        for name, g in tables:
            got = [s.members for s in normal_subgyrogroups(g)]
            assert got == [s.members for s in oracle.normal_subgyrogroups(g)], name
            sizes[name] = len(got)
        assert [sizes[k] for k in ("na8xZ2", "Z4xZ4", "V4xZ4", "na8xV4")] == [19, 15, 27, 78]

    def test_coset_join_matches_extend(self, tables):
        # every normal S, every principal closure C not inside S, and every
        # floor j, with the ranks normal_subgyrogroups gives the closures
        joins = rejects = 0
        for name, g in tables:
            principal = [normal_closure(g, (a,)).as_set() for a in g.elements()]
            blocks = sorted(set(principal), key=lambda c: (len(c), sorted(c)))
            rank = [blocks.index(c) for c in principal]
            for s in normal_subgyrogroups(g):
                join = _coset_joins(g, s.as_set(), rank)
                for c in blocks:
                    if c <= s.as_set():
                        continue
                    for j in range(len(blocks) + 1):
                        want = _extend(g, s.as_set(), c, rank, j)
                        assert join(c, j) == want, (name, s.members, sorted(c), j)
                        joins += want is not None
                        rejects += want is None
        assert joins > 0 and rejects > 0

    def test_coset_join_refuses_overlapping_cosets(self):
        # in Z3, 0 + {0, 1} and 2 + {0, 1} = {2, 0} overlap: such an S was
        # never normal, and the join step says so instead of joining
        with pytest.raises(InternalConsistencyError, match="overlap"):
            _coset_joins(cyclic(3), frozenset({0, 1}), [0, 0, 0])

    def test_cap(self, nonassoc8, monkeypatch):
        # the cap is checked before any normal closure is computed
        monkeypatch.setattr(normality, "_zero_congruence", None)
        g = direct_product(nonassoc8, cyclic(9))
        assert g.order > DEFAULT_LATTICE_CAP
        with pytest.raises(ResourceCapError) as exc_info:
            normal_subgyrogroups(g)
        assert exc_info.value.cap_name == "lattice_cap"


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

    @pytest.mark.parametrize("m", [32, 33])
    def test_zero_congruence_either_side_of_the_byte_range(self, nonassoc8, m):
        # na8xZm, element (a, x) numbered a*m + x: labels as bytes at order
        # 256, as a list at order 264
        g = direct_product(nonassoc8, cyclic(m))
        sizes = set()
        for seed in [(1,), (2,), (3,), (m,), (2 * m, 3), (m + 1,), (5 * m + 7,), (8 * m - 1, 4 * m)]:
            want = oracle.zero_congruence(g, seed)
            assert _zero_congruence(g, seed) == want, (m, seed)
            sizes.add(want.count(0))
        assert len(sizes) >= 5

    def test_zero_congruence_at_order_257(self):
        # the least order whose labels do not fit in a byte; Z257 is simple
        g = cyclic(257)
        assert _zero_congruence(g, [5]) == [0] * 257 == oracle.zero_congruence(g, [5])
        assert _zero_congruence(g, [0]) == list(range(257))

    def test_byte_comparisons_read_the_current_labels(self, nonassoc8, monkeypatch):
        # every merge is pushed and compared after it, so the last
        # comparison of a closure reads its final labels.  This guards the
        # work, not the result: a translation table left stale reads labels
        # from before some merge, which are only less merged, so its labels
        # still come out right but it re-merges pairs already merged
        g = direct_product(nonassoc8, klein_four())
        seen = []

        def recorded(look):
            def call(tab):
                seen.append(bytes(tab[: g.order]))
                return look(tab)
            return call

        # the table's own row and column views, with each look recorded
        (rows, row_looks), (columns, column_looks) = g._rows, g._columns()
        monkeypatch.setattr(g, "_rows", (rows, list(map(recorded, row_looks))))
        monkeypatch.setitem(g._memo, "columns", (columns, list(map(recorded, column_looks))))
        grown = 0
        for a in g.elements():
            seen.clear()
            label = _zero_congruence(g, (a,))
            assert label == oracle.zero_congruence(g, (a,))
            if seen:
                assert seen[-1] == bytes(label), a
                grown += seen[0] != seen[-1]
        assert grown > 0

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
