import random

import pytest

import lattice_oracle
from core_oracle import is_gyration_invariant_per_element
from lattice_oracle import (
    enumerate_subgyrogroups_found_set,
    enumerate_subgyrogroups_pairwise,
    generate_by_rounds,
)
from test_search import relabel

from gyrokit import substructure
from gyrokit.catalog import cyclic, klein_four, sym3
from gyrokit.core import ResourceCapError, direct_product
from gyrokit.normality import is_normal, try_quotient
from gyrokit.search import SearchConfig, run_search
from gyrokit.substructure import (
    CosetFamily,
    NotPartition,
    SubSet,
    enumerate_subgyrogroups,
    generate,
    index,
    is_gyration_invariant,
    is_L_subgyrogroup,
    is_subgroup,
    is_subgyrogroup,
    left_coset,
    left_cosets,
    right_coset,
)


def brute_force_closure(g, seed):
    """Independent oracle: grow the set one table lookup at a time."""
    closed = set(seed) | {0}
    while True:
        additions = set()
        for a in closed:
            additions.add(g.inv[a])
            for b in closed:
                additions.add(g.table[a][b])
        if additions <= closed:
            return tuple(sorted(closed))
        closed |= additions


class TestGenerate:
    def test_examples(self):
        z4 = cyclic(4)
        assert generate(z4, [2]).members == (0, 2)
        assert generate(z4, [0]).members == (0,)

    def test_s3_commutator_elements(self):
        s3 = sym3()
        # the commutators of s3, computed with plain group arithmetic
        comms = set()
        for a in s3.elements():
            for b in s3.elements():
                ab = s3.table[a][b]
                ba = s3.table[b][a]
                comms.add(s3.table[s3.inv[ab]][ba])
        got = generate(s3, comms)
        assert got.members == brute_force_closure(s3, comms) == (0, 3, 4)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            generate(cyclic(4), [])

    def test_idempotent_and_monotone(self, corpus):
        for g in corpus.values():
            subs = enumerate_subgyrogroups(g)
            for s in subs:
                assert generate(g, s.members).members == s.members
            for s in subs:
                for t in subs:
                    if s.as_set() <= t.as_set():
                        assert (
                            generate(g, s.members).as_set()
                            <= generate(g, t.members).as_set()
                        )

    def test_matches_oracle_on_corpus(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                assert generate(g, [a]).members == brute_force_closure(g, [a])


class TestPredicates:
    def test_is_subgyrogroup(self):
        z4 = cyclic(4)
        assert is_subgyrogroup(z4, [0, 2])
        assert not is_subgyrogroup(z4, [0, 1])
        assert not is_subgyrogroup(z4, [1, 3])

    def test_generate_output_is_subgyrogroup(self, corpus):
        for g in corpus.values():
            for a in g.elements():
                assert is_subgyrogroup(g, generate(g, [a]))

    def test_is_L_subgyrogroup_on_groups(self, groups):
        # identity gyrations make every subgroup an L-subgyrogroup
        for g in groups.values():
            for s in enumerate_subgyrogroups(g):
                assert is_L_subgyrogroup(g, s)

    def test_non_L_subgyrogroup_exists_in_census(self, census8):
        found = any(
            not is_L_subgyrogroup(g, s)
            for g in census8
            if not g.is_group()
            for s in enumerate_subgyrogroups(g)
        )
        assert found

    def test_is_subgroup(self, nonassoc8):
        z4 = cyclic(4)
        assert is_subgroup(z4, [0])
        assert is_subgroup(z4, range(4))
        assert not is_subgroup(nonassoc8, range(8))

    def test_requires_subgyrogroup(self):
        with pytest.raises(ValueError):
            is_subgroup(cyclic(4), [0, 1])

    @pytest.mark.parametrize("members", [[0, 2, -2], [0, 2, 4]])
    def test_out_of_range_members_rejected(self, members):
        z4 = cyclic(4)
        for check in (
            is_subgyrogroup,
            is_subgroup,
            is_gyration_invariant,
            left_cosets,
            index,
            try_quotient,
        ):
            with pytest.raises(ValueError, match=r"out of range 0\.\.3: \[-?\d"):
                check(z4, members)


class TestCosets:
    def test_z6_examples(self):
        z6 = cyclic(6)
        fam = left_cosets(z6, [0, 3])
        assert fam.cosets == ((0, 3), (1, 4), (2, 5))
        assert fam.representatives == (0, 1, 2)
        assert index(z6, [0, 3]) == 3
        assert index(z6, [0, 2, 4]) == 2
        assert index(z6, range(6)) == 1

    def test_union_and_disjointness(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if not is_L_subgyrogroup(g, s):
                    continue
                fam = left_cosets(g, s)
                seen = [x for coset in fam.cosets for x in coset]
                assert sorted(seen) == list(g.elements())
                assert len(fam.cosets) * len(s) == g.order

    def test_not_partition_raises_with_witness(self, census8):
        hits = 0
        for g in census8:
            for s in enumerate_subgyrogroups(g):
                if is_L_subgyrogroup(g, s):
                    continue
                try:
                    left_cosets(g, s)
                except NotPartition as exc:
                    hits += 1
                    a, b = set(exc.coset_a), set(exc.coset_b)
                    assert a != b and a & b
        assert hits > 0

    def test_coset_of_subgroup_member_is_subgroup(self, corpus):
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                assert left_coset(g, s, 0) == s.as_set()

    @pytest.mark.parametrize("coset", [left_coset, right_coset])
    @pytest.mark.parametrize("members, a", [([0, -1], 1), ([0, 1], -1), ([0, 5], 1)])
    def test_out_of_range_rejected(self, coset, members, a):
        with pytest.raises(ValueError, match=r"out of range 0\.\.3: \["):
            coset(cyclic(4), members, a)


def overlap_by_rule(g, h):
    """The documented witness, by brute force: the least a whose a + H meets
    an earlier, different coset, and the earlier coset holding the least
    member they share."""
    cosets = [tuple(sorted(g.table[a][m] for m in h)) for a in g.elements()]
    for a, coset in enumerate(cosets):
        hits = [(x, c) for c in cosets[:a] if c != coset for x in coset if x in c]
        if hits:
            least = min(x for x, _ in hits)
            earlier = {c for x, c in hits if x == least}
            assert len(earlier) == 1
            return earlier.pop(), coset
    return None


class TestCosetsAgainstOracle:
    """The opening scan and column check of ``left_cosets`` against the
    dict-of-frozensets partition of ``lattice_oracle`` on every lattice
    member of the census of orders 1-8, every group of order <= 8, na8 x Z2
    and na8 x V4."""

    def test_left_cosets_match(self, census8, groups, nonassoc8):
        census = [t for n in range(1, 8) for t in run_search(SearchConfig(order=n)).tables]
        tables = [
            *census,
            *census8,
            *groups.values(),
            direct_product(nonassoc8, cyclic(2)),
            direct_product(nonassoc8, klein_four()),
        ]
        verdicts = set()
        for g in tables:
            for s in enumerate_subgyrogroups(g):
                try:
                    want = lattice_oracle.left_cosets(g, s)
                except NotPartition as exc:
                    want = exc
                try:
                    got = left_cosets(g, s)
                except NotPartition as exc:
                    got = exc
                verdicts.add(type(got))
                assert type(got) is type(want), (g, s.members)
                if isinstance(want, NotPartition):
                    for pair in (want, got):
                        a, b = set(pair.coset_a), set(pair.coset_b)
                        assert a != b and a & b
                    pair = (got.coset_a, got.coset_b)
                    assert pair == overlap_by_rule(g, s.members), (g, s.members)
                else:
                    assert got == want
        assert verdicts == {CosetFamily, NotPartition}


class TestCosetMemo:
    def test_not_partition_same_pair_each_call(self, nonassoc8):
        raised = []
        for _ in range(2):
            with pytest.raises(NotPartition) as info:
                left_cosets(nonassoc8, [0, 4])
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert [(e.coset_a, e.coset_b) for e in raised] == [((3, 7), (3, 6))] * 2

    @pytest.mark.parametrize("members", [[0, 1], [1, 2], [0, 2, 4]])
    def test_rejected_subsets_never_stored(self, members):
        z4 = cyclic(4)
        for _ in range(2):
            with pytest.raises(ValueError):
                left_cosets(z4, members)
        assert z4._memo == {}

    def test_subset_and_list_share_an_entry(self):
        z6 = cyclic(6)
        fam = left_cosets(z6, SubSet.of(z6, [0, 3]))
        assert left_cosets(z6, [3, 0]) is fam
        assert list(z6._memo) == [("cosets", frozenset({0, 3}))]

    def test_normality_has_its_own_key(self):
        s3 = sym3()
        h = [0, 3, 4]
        fam = left_cosets(s3, h)
        assert is_normal(s3, h)
        assert set(s3._memo) == {("cosets", frozenset(h)), ("quotient", frozenset(h))}
        assert s3._memo[("cosets", frozenset(h))] is fam
        assert try_quotient(s3, h).cosets == fam

    def test_lattice_members_skip_the_closure_check(self, monkeypatch):
        s3 = sym3()
        lattice = enumerate_subgyrogroups(s3)
        assert s3._memo["lattice members"] == {s.as_set() for s in lattice}
        checked = []
        check = substructure.is_subgyrogroup

        def counted(g, subset):
            checked.append(sorted(subset))
            return check(g, subset)

        monkeypatch.setattr(substructure, "is_subgyrogroup", counted)
        for s in lattice:
            is_normal(s3, s)
            left_cosets(s3, s)
            is_subgroup(s3, s)
        assert checked == []
        with pytest.raises(ValueError):
            is_normal(s3, [0, 3])
        assert checked == [[0, 3]]

    @pytest.mark.parametrize("members", [[0, 3], [1, 2], [0, 1, 2], [0, 6]])
    @pytest.mark.parametrize("check", [is_normal, left_cosets, is_subgroup])
    def test_lattice_still_refuses_a_non_subgyrogroup(self, members, check):
        s3 = sym3()
        enumerate_subgyrogroups(s3)
        with pytest.raises(ValueError):
            check(s3, members)
        assert frozenset(members) not in s3._memo["lattice members"]


class TestGyrationInvariance:
    def test_matches_all_pairs_definition(self, census8, groups, nonassoc8):
        # every lattice member and every left coset a + S, against the
        # definition over all n^2 pairs (a, b)
        outcomes = set()
        for g in [*census8, *groups.values(), direct_product(nonassoc8, cyclic(2))]:
            els = g.elements()
            for s in enumerate_subgyrogroups(g):
                for subset in {s.as_set()} | {left_coset(g, s, a) for a in els}:
                    want = all(
                        frozenset(g.gyr(a, b)(x) for x in subset) <= subset
                        for a in els
                        for b in els
                    )
                    assert is_gyration_invariant(g, subset) == want, (g, sorted(subset))
                    outcomes.add(want)
        assert outcomes == {True, False}

    def test_every_subset_of_na8_and_order_one(self, nonassoc8):
        # against gyrations built from the gyrator identity, on all 256
        # subsets of na8, empty and one-member sets among them
        outcomes = set()
        for bits in range(256):
            subset = [x for x in range(8) if bits >> x & 1]
            want = is_gyration_invariant_per_element(nonassoc8, subset)
            assert is_gyration_invariant(nonassoc8, subset) == want, subset
            outcomes.add(want)
        assert outcomes == {True, False}
        assert not is_gyration_invariant(nonassoc8, [4])
        z1 = cyclic(1)
        assert is_gyration_invariant(z1, [0]) and is_gyration_invariant_per_element(z1, [0])


class TestLattice:
    def test_z4(self):
        subs = enumerate_subgyrogroups(cyclic(4))
        assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_trivial(self):
        subs = enumerate_subgyrogroups(cyclic(1))
        assert [s.members for s in subs] == [(0,)]

    def test_s3_brute_force_oracle(self):
        s3 = sym3()
        # oracle: test all 2^5 subsets containing 0 for closure directly
        members = []
        for mask in range(32):
            cand = {0} | {i + 1 for i in range(5) if mask >> i & 1}
            closed = all(
                s3.table[a][b] in cand for a in cand for b in cand
            ) and all(s3.inv[a] in cand for a in cand)
            if closed:
                members.append(tuple(sorted(cand)))
        members.sort(key=lambda ms: (len(ms), ms))
        got = [s.members for s in enumerate_subgyrogroups(s3)]
        assert got == members
        assert len(got) == 6

    def test_closed_under_intersection(self, corpus):
        for g in corpus.values():
            subs = {s.members for s in enumerate_subgyrogroups(g)}
            for a in subs:
                for b in subs:
                    assert tuple(sorted(set(a) & set(b))) in subs

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_subgyrogroups(cyclic(4), cap=2)


class TestLatticeAgainstOracle:
    """Cyclic extension and the semi-naive closure against the pairwise fixed
    point and the round-by-round closure of ``lattice_oracle``, over the
    order-8 census, every group of order <= 8 and na8 x Z2, na8 x V4 and
    na8 x Z8, each in its own labels and in three seeded relabellings."""

    @pytest.fixture(scope="class")
    def tables(self, census8, groups, nonassoc8):
        bases = (
            [(f"census8-{i}", t) for i, t in enumerate(census8)]
            + sorted(groups.items())
            + [
                ("na8xZ2", direct_product(nonassoc8, cyclic(2))),
                ("na8xV4", direct_product(nonassoc8, klein_four())),
                ("na8xZ8", direct_product(nonassoc8, cyclic(8))),
            ]
        )
        rng = random.Random(6)
        out = []
        for name, g in bases:
            out.append((name, g))
            for k in range(3):
                rest = list(range(1, g.order))
                rng.shuffle(rest)
                out.append((f"{name}-relabelled-{k}", relabel(g, (0,) + tuple(rest))))
        return out

    def test_lattice_matches(self, tables):
        for name, g in tables:
            got = [s.members for s in enumerate_subgyrogroups(g)]
            assert got == [s.members for s in enumerate_subgyrogroups_pairwise(g)], name

    def test_generate_matches(self, tables):
        rng = random.Random(7)
        for name, g in tables:
            for _ in range(30):
                seed = rng.sample(range(g.order), rng.randint(1, min(4, g.order)))
                want = generate_by_rounds(g, seed).members
                assert generate(g, seed).members == want, (name, seed)


class TestLatticeCompositeOrders:
    """Canonical-path cyclic extension against the found-set cyclic extension
    and the pairwise fixed point on tables whose cyclic subgyrogroups of
    composite order contain smaller ones, so the rank order has many levels
    to get wrong, each in its own labels and in two seeded relabellings."""

    @pytest.fixture(scope="class")
    def tables(self, nonassoc8):
        bases = [
            ("na8xZ3", direct_product(nonassoc8, cyclic(3))),
            ("na8xZ6", direct_product(nonassoc8, cyclic(6))),
            ("S3xZ4", direct_product(sym3(), cyclic(4))),
            ("Z6xZ6", direct_product(cyclic(6), cyclic(6))),
            ("S3xS3", direct_product(sym3(), sym3())),
        ]
        rng = random.Random(14)
        out = []
        for name, g in bases:
            out.append((name, g))
            for k in range(2):
                rest = list(range(1, g.order))
                rng.shuffle(rest)
                out.append((f"{name}-relabelled-{k}", relabel(g, (0,) + tuple(rest))))
        return out

    def test_matches_found_set_and_pairwise(self, tables):
        for name, g in tables:
            got = [s.members for s in enumerate_subgyrogroups(g)]
            assert got == [s.members for s in enumerate_subgyrogroups_found_set(g)], name
            assert got == [s.members for s in enumerate_subgyrogroups_pairwise(g)], name

    def test_sizes(self, tables):
        sizes = {name: len(enumerate_subgyrogroups(g)) for name, g in tables[::3]}
        assert sizes == {"na8xZ3": 20, "na8xZ6": 70, "S3xZ4": 26, "Z6xZ6": 30, "S3xS3": 60}


class TestLatticeClosedOnce:
    """Each subgyrogroup is closed to completion exactly once: the n
    1-generated closures run with floor 0, and the extensions that complete
    are one per subgyrogroup other than {0}, each a different one."""

    def count_closures(self, monkeypatch, g):
        extend = substructure._extend
        cyclic_calls, joins = [], []

        def counted(g_, closed, seed, rank, floor):
            result = extend(g_, closed, seed, rank, floor)
            if floor == 0:
                cyclic_calls.append(result)
            elif result is not None:
                joins.append(result)
            return result

        monkeypatch.setattr(substructure, "_extend", counted)
        lattice = enumerate_subgyrogroups(g)
        monkeypatch.undo()
        return lattice, cyclic_calls, joins

    def check(self, monkeypatch, g):
        lattice, cyclic_calls, joins = self.count_closures(monkeypatch, g)
        members = [s.members for s in lattice]
        assert len(set(members)) == len(members)
        assert len(cyclic_calls) == g.order and None not in cyclic_calls
        assert len(joins) == len(lattice) - 1
        assert sorted(tuple(sorted(j)) for j in joins) == sorted(members[1:])
        return len(lattice)

    def test_na8xv4(self, monkeypatch, nonassoc8):
        assert self.check(monkeypatch, direct_product(nonassoc8, klein_four())) == 158

    def test_census8(self, monkeypatch, census8):
        assert sum(self.check(monkeypatch, g) for g in census8) > len(census8)


class TestSubSet:
    def test_of_normalizes(self):
        z4 = cyclic(4)
        s = SubSet.of(z4, [2, 0, 2])
        assert s.members == (0, 2)
        assert 2 in s and 1 not in s
        assert len(s) == 2

    def test_range_checked(self):
        with pytest.raises(ValueError):
            SubSet.of(cyclic(4), [5])
