import random
from itertools import combinations

import pytest

from nuclei_oracle import gyration
from sweep_oracle import (
    commutes_with_gyrations_per_c,
    commutes_with_gyrations_per_pair,
    generate_monotone_per_pair,
    inverse_symmetry_per_pair,
    is_group_all_pairs,
    lg_prime_word_oracle_perms,
    loop_property_per_pair,
    multiple_laws_per_pair,
    preserves_per_pair,
    subgroup_forms_agree_per_triple,
    translation_form_per_pair,
    translation_sandwich_per_pair,
)

from gyrokit import normality, sweep
from gyrokit.catalog import cyclic, sym3
from gyrokit.cli import main
from gyrokit.core import GyroTable, InternalConsistencyError, Perm, direct_product
from gyrokit.gyrofile import save_table
from gyrokit.normality import Hom, _preserves, check_hom, is_normal, try_quotient
from gyrokit.nuclei import PermGroup, left_translations
from gyrokit.search import automorphisms
from gyrokit.substructure import SubSet, enumerate_subgyrogroups, generate
from gyrokit.sweep import (
    _commutator_rows,
    _commutes_with_gyrations,
    _generate_monotone,
    _integral_multiples,
    _inverse_symmetry,
    _is_group,
    _loop_property,
    _multiple_laws_hold,
    _subgroup_forms_agree,
    _translation_form,
    _translation_sandwich,
    lg_prime_word_oracle,
    run_theorem_sweep,
    sweep_table,
)

# Perm.__mul__ calls in one sweep_table on z2xz2xz2: 1,504 when each group
# test closes from a generating set, 29,713 when it multiplies all pairs
MUL_BUDGET_Z2XZ2XZ2 = 3000


class TestSweep:
    def test_clean_on_groups(self):
        report = run_theorem_sweep([("z4", cyclic(4)), ("s3", sym3())])
        assert report.failures == 0
        assert report.passes > 0

    def test_clean_on_full_corpus(self, corpus):
        report = run_theorem_sweep(sorted(corpus.items()))
        assert report.failures == 0

    def test_findings_recorded_for_nonassociative(self, nonassoc8):
        report = run_theorem_sweep([("na8", nonassoc8)])
        assert report.failures == 0
        finding_lines = [l for l in report.lines if "FINDING" in l]
        assert any("commutator-subgyrogroup-normality" in l for l in finding_lines)

    def test_lines_grouped_and_sorted_by_name(self, corpus):
        report = run_theorem_sweep(sorted(corpus.items()))
        names = [line.split(" :: ")[0] for line in report.lines]
        first_positions = {}
        for i, n in enumerate(names):
            first_positions.setdefault(n, i)
        ordered = sorted(first_positions, key=first_positions.get)
        assert ordered == sorted(ordered)  # tables appear in name order
        for n in first_positions:  # and each table's lines are contiguous
            indices = [i for i, m in enumerate(names) if m == n]
            assert indices == list(range(indices[0], indices[-1] + 1))

    def test_render_deterministic(self, corpus):
        named = sorted(corpus.items())
        assert run_theorem_sweep(named).render() == run_theorem_sweep(named).render()

    def test_summary_line(self):
        report = run_theorem_sweep([("z2", cyclic(2))])
        rendered = report.render()
        assert rendered.rstrip().splitlines()[-1].startswith("summary: checks=")

    def test_single_table_recorder(self):
        rec = sweep_table("z6", cyclic(6))
        assert rec.failures == 0
        check_ids = {line.split(" :: ")[1] for line in rec.lines}
        assert "axioms" in check_ids
        assert "reversal-kernel-word-oracle" in check_ids
        assert "ladder-invariance-iff-normal" in check_ids

    @pytest.mark.parametrize("error", [InternalConsistencyError, ValueError])
    def test_internal_consistency_error_isolated_per_table(self, error, monkeypatch, tmp_path):
        named = [("s3", sym3()), ("z4", cyclic(4)), ("z6", cyclic(6))]
        clean = run_theorem_sweep(named)
        real = sweep.automorphisms

        def broken_on_z4(g, *args, **kwargs):
            if g.order == 4:
                raise error("planted")
            return real(g, *args, **kwargs)

        monkeypatch.setattr(sweep, "automorphisms", broken_on_z4)
        report = run_theorem_sweep(named)
        assert report.failures == 1
        z4 = [line for line in report.lines if line.startswith("z4 ::")]
        clean_z4 = [line for line in clean.lines if line.startswith("z4 ::")]
        assert z4[-1] == "z4 :: internal-consistency :: FAIL :: planted"
        assert len(z4) > 1 and z4[:-1] == clean_z4[: len(z4) - 1]
        others = [line for line in report.lines if not line.startswith("z4 ::")]
        assert others == [line for line in clean.lines if not line.startswith("z4 ::")]

        for name, g in named:
            save_table(tmp_path / f"{name}.gyro", g)
        assert main(["sweep-theorems", str(tmp_path)]) == 2

    def test_broken_quotient_fails_its_table(self, monkeypatch):
        # the coset scan hands z4 a quotient table whose row 1 is row 0: the
        # validating constructor refuses it with an AxiomError, a ValueError
        def named():  # fresh tables, so no quotient is memoised
            return [("z4", cyclic(4)), ("z6", cyclic(6))]

        clean = run_theorem_sweep(named())
        real = normality._coset_classes

        def broken_on_z4(g, n_set):
            scan = real(g, n_set)
            if scan is not None and g.order == 4 and len(scan[2]) > 1:
                family, ci, qt = scan
                scan = family, ci, [qt[0], qt[0], *qt[2:]]
            return scan

        monkeypatch.setattr(normality, "_coset_classes", broken_on_z4)
        report = run_theorem_sweep(named())
        assert report.failures == 1
        z4 = [line for line in report.lines if line.startswith("z4 ::")]
        clean_z4 = [line for line in clean.lines if line.startswith("z4 ::")]
        assert z4[-1].startswith("z4 :: internal-consistency :: FAIL :: not a gyrogroup table: FAIL (order ")
        assert len(z4) > 1 and z4[:-1] == clean_z4[: len(z4) - 1]
        assert [line for line in report.lines if line.startswith("z6 ::")] == [
            line for line in clean.lines if line.startswith("z6 ::")
        ]

    def test_one_coset_scan_per_table_and_subgyrogroup(self, corpus, monkeypatch):
        # is_normal and try_quotient share one scan: a sweep of the 15-table
        # corpus scans each of its 81 (table, N) pairs once
        real = normality._coset_classes
        calls = []

        def counted(g, n_set):
            calls.append((g.table, n_set))
            return real(g, n_set)

        monkeypatch.setattr(normality, "_coset_classes", counted)
        # fresh tables, so no scan is memoised
        report = run_theorem_sweep([(name, GyroTable(g.table)) for name, g in sorted(corpus.items())])
        assert len(corpus) == 15 and report.failures == 0
        assert len(calls) == len(set(calls)) == 81

    def test_non_normal_reversal_kernel_fails_its_check(self, monkeypatch):
        # {id, L_2} is a subgroup of lmlt(s3) inside lg_sharp, but the
        # transposition 2 has non-normal translations: only the folded
        # normality test can catch it, and the oracle check disagrees too
        s3 = sym3()
        clean = sweep_table("s3", s3)
        monkeypatch.setattr(
            sweep, "lg_prime", lambda g: frozenset([Perm.identity(6), g.left_translation(2)])
        )
        rec = sweep_table("s3", s3)
        failed = [line for line in rec.lines if ":: FAIL" in line]
        assert failed == [
            "s3 :: translation-subgroup-chain :: FAIL",
            "s3 :: reversal-kernel-word-oracle :: FAIL",
        ]
        assert [line.split(" :: ")[1] for line in rec.lines] == [
            line.split(" :: ")[1] for line in clean.lines
        ]


class TestIsGroupAgainstOracle:
    def test_empty_set(self):
        assert not _is_group(frozenset())
        assert not is_group_all_pairs(frozenset())

    def test_every_subset_of_s3_translations(self):
        translations = left_translations(sym3())
        groups = 0
        for k in range(len(translations) + 1):
            for subset in combinations(translations, k):
                perms = frozenset(subset)
                assert _is_group(perms) == is_group_all_pairs(perms), subset
                groups += _is_group(perms)
        # {id}, three of order 2, one of order 3 and the whole of S3
        assert groups == 6

    def test_seeded_subsets_of_aut_z2xz2xz2(self, groups):
        auts = automorphisms(groups["z2xz2xz2"])
        ident = Perm.identity(8)
        assert len(auts) == 168 and auts[0] == ident
        rng = random.Random(13)
        assert _is_group(frozenset(auts))
        for _ in range(40):
            # a generated subgroup, which is a group, and that subgroup with
            # a member added or removed, which is not, unless it stays one
            sub = PermGroup.generated(rng.sample(auts, rng.randint(1, 2))).elements
            cases = [sub, sub | {rng.choice(auts)}, sub - {rng.choice(sorted(sub))}]
            cases += [frozenset(rng.sample(auts, rng.randint(1, 168)))]
            for perms in cases:
                for variant in (perms | {ident}, perms - {ident}):
                    assert _is_group(variant) == is_group_all_pairs(variant)


class TestCommutesWithGyrationsAgainstOracle:
    def test_every_quotient_projection_of_the_corpus(self, corpus):
        seen = 0
        for g in corpus.values():
            for s in enumerate_subgyrogroups(g):
                if is_normal(g, s):
                    proj = try_quotient(g, s).projection
                    assert _commutes_with_gyrations(proj)
                    assert commutes_with_gyrations_per_c(proj)
                    assert commutes_with_gyrations_per_pair(proj)
                    seen += 1
        assert seen == 70  # the normal subgyrogroups of the 15 tables

    def test_census8_and_na8xz2_projections_and_relabellings(self, census8, nonassoc8):
        # every quotient projection, and every relabelling that swaps two
        # nonzero elements, which commutes with gyrations only sometimes
        verdicts = set()
        for g in [*census8, direct_product(nonassoc8, cyclic(2))]:
            maps = [try_quotient(g, s).projection for s in enumerate_subgyrogroups(g) if is_normal(g, s)]
            for i, j in combinations(range(1, g.order), 2):
                f = list(g.elements())
                f[i], f[j] = j, i
                maps.append(Hom(g, g, tuple(f)))
            for phi in maps:
                want = commutes_with_gyrations_per_c(phi)
                assert _commutes_with_gyrations(phi) == commutes_with_gyrations_per_pair(phi) == want
                verdicts.add(want)
        assert verdicts == {False, True}

    def test_maps_that_are_not_homomorphisms(self, nonassoc8):
        # a relabelling of na8 that fixes 0 and breaks both properties, and
        # a non-homomorphism of z4, whose gyrations are all the identity
        swap = Hom(nonassoc8, nonassoc8, (0, 2, 1, 3, 4, 5, 6, 7))
        shuffle = Hom(cyclic(4), cyclic(4), (0, 2, 1, 3))
        for phi, commutes in ((swap, False), (shuffle, True)):
            assert not check_hom(phi)
            assert _commutes_with_gyrations(phi) == commutes_with_gyrations_per_c(phi) == commutes

    def test_order_one(self):
        z1 = cyclic(1)
        assert _commutes_with_gyrations(Hom(z1, z1, (0,)))


class TestWordOracleAgainstPermProducts:
    @pytest.mark.parametrize("max_len", [1, 2, 3, 4])
    def test_matches_on_corpus_and_a_product(self, corpus, nonassoc8, max_len):
        tables = list(corpus.values()) + [direct_product(nonassoc8, cyclic(2))]
        for g in tables:
            assert lg_prime_word_oracle(g, max_len) == lg_prime_word_oracle_perms(g, max_len)


class TestAutomorphismClosure:
    def test_perm_products_within_budget(self, groups, mul_counter):
        rec = sweep_table("z2xz2xz2", groups["z2xz2xz2"])
        assert rec.failures == 0
        assert mul_counter[0] <= MUL_BUDGET_Z2XZ2XZ2

    @pytest.mark.parametrize("broken", ["one-dropped", "no-identity", "transposition"])
    def test_broken_automorphism_list_fails_its_check(self, broken, groups, monkeypatch, mul_counter):
        g = groups["z2xz2xz2"]
        clean = sweep_table("z2xz2xz2", g)
        auts = automorphisms(g)
        if broken == "one-dropped":
            planted = auts[:-1]
        elif broken == "no-identity":
            planted = auts[1:]
            assert auts[0].is_identity()
        else:
            # (1 2) fixes 0 but is no automorphism: it does not also swap 5
            # and 6; with it the set generates all 5,040 permutations of 1..7
            t = Perm([0, 2, 1, 3, 4, 5, 6, 7])
            assert t not in auts
            planted = auts + [t]
        monkeypatch.setattr(sweep, "automorphisms", lambda h, *args, **kwargs: list(planted))
        mul_counter[0] = 0
        rec = sweep_table("z2xz2xz2", g)
        assert [line for line in rec.lines if ":: FAIL" in line] == [
            "z2xz2xz2 :: automorphism-group-closure :: FAIL"
        ]
        assert [line.split(" :: ")[1] for line in rec.lines] == [
            line.split(" :: ")[1] for line in clean.lines
        ]
        # the closure is capped at the size of the set: with the transposition
        # planted, whose closure is all 5,040 permutations of 1..7, the sweep
        # costs 1,120 products
        assert mul_counter[0] <= MUL_BUDGET_Z2XZ2XZ2


def _oracle_gyr(g):
    """gyr(a, b) as a ``Perm`` built from the gyrator identity."""
    return lambda a, b: Perm(gyration(g, a, b))


def _numbered_gyr(gid, perms):
    """gyr(a, b) read from a numbering, broken or not."""
    return lambda a, b: perms[gid[a][b]]


def _with_cell(gid, a, b, k):
    """A copy of ``gid`` with cell (a, b) set to k."""
    broken = [list(row) for row in gid]
    broken[a][b] = k
    return broken


class TestRowFormsAgainstOracles:
    """Each check that reads the gyration numbering or compares whole rows,
    against its per-pair form in ``sweep_oracle``: the same verdict on every
    table, and False on a broken input for both."""

    @pytest.fixture(scope="class")
    def tables(self, census8, corpus, nonassoc8):
        # the order-8 census, the acceptance corpus (z1 among it), na8 x Z2
        return [*census8, *corpus.values(), direct_product(nonassoc8, cyclic(2))]

    def test_gyration_checks_match(self, tables):
        for g in tables:
            gid, perms = g._gyration_numbering()
            gyr = _oracle_gyr(g)
            assert _loop_property(g.table, gid) == loop_property_per_pair(g.table, gyr) is True
            assert _inverse_symmetry(gid, perms) == inverse_symmetry_per_pair(g.order, gyr) is True
            assert _translation_form(g.table, gid, perms) == translation_form_per_pair(g.table, gyr) is True
            assert _translation_sandwich(g.table, g.coadd) is True
            assert translation_sandwich_per_pair(g.table, g.coadd) is True

    def test_broken_numbering_fails_both(self, nonassoc8):
        t = nonassoc8.table
        gid, perms = nonassoc8._gyration_numbering()
        assert len(perms) == 2 and gid[4][2] == 1
        bad_gid = _with_cell(gid, 4, 2, 0)
        assert not _loop_property(t, bad_gid)
        assert not loop_property_per_pair(t, _numbered_gyr(bad_gid, perms))
        # gyr[4, 2] numbered as the identity, gyr[2, 4] still not: every
        # numbered gyration is an involution, yet the two are not inverses
        assert not _inverse_symmetry(bad_gid, perms)
        assert not inverse_symmetry_per_pair(8, _numbered_gyr(bad_gid, perms))
        # the non-identity gyration replaced by L_6, a 4-cycle whose inverse
        # is missing from the numbering: False, no raise
        bad_perms = (perms[0], Perm(t[6]))
        assert not _inverse_symmetry(gid, bad_perms)
        assert not inverse_symmetry_per_pair(8, _numbered_gyr(gid, bad_perms))
        assert not _translation_form(t, gid, bad_perms)
        assert not translation_form_per_pair(t, _numbered_gyr(gid, bad_perms))

    def test_broken_coaddition_fails_both(self, nonassoc8):
        coadd = nonassoc8.coadd
        x = nonassoc8.table[3][5]
        bad = lambda y, a: (coadd(y, a) + 1) % 8 if (y, a) == (x, 3) else coadd(y, a)  # noqa: E731
        assert not _translation_sandwich(nonassoc8.table, bad)
        assert not translation_sandwich_per_pair(nonassoc8.table, bad)

    def test_multiple_laws_match(self, tables, nonassoc8):
        for g in tables:
            assert _multiple_laws_hold(g.table, g.inv, *_integral_multiples(g.order, g.int_multiple))
            assert multiple_laws_per_pair(g.table, g.inv, g.int_multiple)
        for m, a in [(1, 1), (3, 6), (-2, 5), (64, 6), (-56, 7)]:
            def bad(k, x, m=m, a=a):
                y = nonassoc8.int_multiple(k, x)
                return (y + 1) % 8 if (k, x) == (m, a) else y

            assert not _multiple_laws_hold(nonassoc8.table, nonassoc8.inv, *_integral_multiples(8, bad)), (m, a)
            assert not multiple_laws_per_pair(nonassoc8.table, nonassoc8.inv, bad), (m, a)
        # correct multiples and a broken table: only the law
        # (m + k).a = m.a + k.a reads the table
        table = [list(row) for row in nonassoc8.table]
        table[6][6], table[6][7] = table[6][7], table[6][6]
        ms, mult = _integral_multiples(8, nonassoc8.int_multiple)
        assert not _multiple_laws_hold(table, nonassoc8.inv, ms, mult)
        assert not multiple_laws_per_pair(table, nonassoc8.inv, nonassoc8.int_multiple)

    def test_integral_multiples_read_once_each(self, nonassoc8):
        calls = []

        def counting(m, a):
            calls.append((m, a))
            return nonassoc8.int_multiple(m, a)

        ms, mult = _integral_multiples(8, counting)
        assert len(calls) == len(set(calls)) == 8 * len(ms)
        assert set(range(-16, 17)) <= set(ms) and 64 in ms and -56 in ms and 63 not in ms

    def test_subgroup_forms_match(self, tables, nonassoc8):
        for g in tables:
            lattice = enumerate_subgyrogroups(g)
            want = subgroup_forms_agree_per_triple(g, lattice, _oracle_gyr(g))
            assert _subgroup_forms_agree(g, lattice, g._gyration_numbering()) == want is True
        # the identity replaced by L_6, which moves 0: H = {0} is a subgroup
        # whose gyration form fails
        lattice = enumerate_subgyrogroups(nonassoc8)
        gid, perms = nonassoc8._gyration_numbering()
        bad = (Perm(nonassoc8.table[6]), perms[1])
        assert not _subgroup_forms_agree(nonassoc8, lattice, (gid, bad))
        assert not subgroup_forms_agree_per_triple(nonassoc8, lattice, _numbered_gyr(gid, bad))

    def test_generate_monotone_matches(self, tables, nonassoc8):
        for g in tables:
            sets = [s.as_set() for s in enumerate_subgyrogroups(g)]
            close = lambda s, g=g: generate(g, s).as_set()  # noqa: E731
            assert _generate_monotone(sets, [close(s) for s in sets])
            assert generate_monotone_per_pair(sets, close)
        sets = [s.as_set() for s in enumerate_subgyrogroups(nonassoc8)]
        whole = frozenset(range(8))
        bad = lambda s: frozenset({0}) if s == whole else generate(nonassoc8, s).as_set()  # noqa: E731
        assert not _generate_monotone(sets, [bad(s) for s in sets])
        assert not generate_monotone_per_pair(sets, bad)

    def test_commutator_rows_match(self, tables, nonassoc8):
        for g in tables:
            comm = _commutator_rows(g)
            for s in enumerate_subgyrogroups(g):
                if is_normal(g, s):
                    proj = try_quotient(g, s).projection
                    k_comm = _commutator_rows(proj.codomain)
                    assert _preserves(proj.map, comm, k_comm)
                    assert preserves_per_pair(proj.map, comm, k_comm)
        # a bijection of na8 that is no homomorphism and moves the commutator 1
        comm = _commutator_rows(nonassoc8)
        swap = (0, 2, 1, 3, 4, 5, 6, 7)
        assert {c for row in comm for c in row} == {0, 1}
        assert not check_hom(Hom(nonassoc8, nonassoc8, swap))
        assert not _preserves(swap, comm, comm)
        assert not preserves_per_pair(swap, comm, comm)

    def test_order_one_and_the_trivial_subgroup(self, nonassoc8):
        # a restriction to {0} and every row at order 1 are one-member tuples
        z1 = cyclic(1)
        gid, perms = z1._gyration_numbering()
        assert _loop_property(z1.table, gid) and _inverse_symmetry(gid, perms)
        assert _translation_form(z1.table, gid, perms)
        assert _translation_sandwich(z1.table, z1.coadd)
        assert _multiple_laws_hold(z1.table, z1.inv, *_integral_multiples(1, z1.int_multiple))
        assert _subgroup_forms_agree(z1, enumerate_subgyrogroups(z1), (gid, perms))
        assert _preserves((0,), [[0]], ((0,),)) and _preserves([0], ((0,),), [[0]])
        assert _commutes_with_gyrations(Hom(z1, z1, [0]))
        trivial = [SubSet(nonassoc8, (0,))]
        assert _subgroup_forms_agree(nonassoc8, trivial, nonassoc8._gyration_numbering())
        assert _generate_monotone([frozenset({0})], [frozenset({0})])


def _swap12(f):
    return tuple({1: 2, 2: 1}.get(v, v) for v in f)


def _break_inverse(real, g):
    return lambda gid, perms: real(gid, (perms[0], Perm(g.table[6])))


def _break_translation_form(real, g):
    return lambda table, gid, perms: real(table, gid, (perms[0], Perm(g.table[6])))


def _break_loop(real, g):
    return lambda table, gid: real(table, _with_cell(gid, 4, 2, 0))


def _break_sandwich(real, g):
    def broken(table, coadd):
        return real(table, lambda y, a: (coadd(y, a) + 1) % 8 if a == 3 else coadd(y, a))

    return broken


def _break_multiples(real, g):
    return lambda n, multiple: real(n, lambda m, a: 0 if (m, a) == (1, 1) else multiple(m, a))


def _break_monotone(real, g):
    return lambda sets, closures: real(sets, closures[:-1] + [frozenset({0})])


def _break_subgroup_forms(real, g):
    return lambda h, lattice, numbering: real(h, lattice, (numbering[0], (Perm(g.table[6]),) + numbering[1][1:]))


def _break_commutator_rows(real, g):
    def broken(f, rows, k_rows):
        bad = [list(row) for row in rows]
        bad[3][5] = (bad[3][5] + 1) % 8
        return real(f, bad, k_rows)

    return broken


def _break_projection(real, g):
    # only the projection onto the quotient by {0}, a relabelling of na8
    return lambda phi: real(Hom(phi.domain, phi.codomain, _swap12(phi.map)) if phi.codomain.order == 8 else phi)


class TestBrokenInputFailsItsCheck:
    """A check handed a broken input fails, and it alone: every other check
    passes and the check ids stay in order."""

    @pytest.mark.parametrize(
        "name, breaker, check_id",
        [
            ("_loop_property", _break_loop, "gyration-loop-property"),
            ("_inverse_symmetry", _break_inverse, "gyration-inverse-symmetry"),
            ("_translation_form", _break_translation_form, "gyration-translation-form"),
            ("_translation_sandwich", _break_sandwich, "translation-sandwich"),
            ("_integral_multiples", _break_multiples, "integral-multiple-laws"),
            ("_generate_monotone", _break_monotone, "generate-monotone"),
            ("_subgroup_forms_agree", _break_subgroup_forms, "subgroup-characterizations-agree"),
            ("_preserves", _break_commutator_rows, "homs-preserve-commutators"),
            ("_commutes_with_gyrations", _break_projection, "quotient-kernel-roundtrip"),
            ("check_hom", _break_projection, "quotient-kernel-roundtrip"),
        ],
    )
    def test_on_na8(self, name, breaker, check_id, nonassoc8, monkeypatch):
        clean = sweep_table("na8", nonassoc8)
        assert clean.failures == 0
        monkeypatch.setattr(sweep, name, breaker(getattr(sweep, name), nonassoc8))
        rec = sweep_table("na8", nonassoc8)
        assert [line for line in rec.lines if ":: FAIL" in line] == [f"na8 :: {check_id} :: FAIL"]
        assert [line.split(" :: ")[1] for line in rec.lines] == [
            line.split(" :: ")[1] for line in clean.lines
        ]

    def test_sufficient_condition_on_s3(self, monkeypatch):
        # in a group the condition is coset symmetry, which holds exactly for
        # the normal subgroups; asked about the whole group instead, it
        # holds for the three non-normal subgroups of order 2 too
        s3 = sym3()
        clean = sweep_table("s3", s3)
        real = sweep.check_sufficient_normality
        monkeypatch.setattr(sweep, "check_sufficient_normality", lambda g, s: real(g, range(g.order)))
        rec = sweep_table("s3", s3)
        assert [line for line in rec.lines if ":: FAIL" in line] == [
            "s3 :: sufficient-condition-implies-normal :: FAIL"
        ]
        assert [line.split(" :: ")[1] for line in rec.lines] == [
            line.split(" :: ")[1] for line in clean.lines
        ]
