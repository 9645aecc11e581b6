import random
from itertools import combinations

import pytest

from sweep_oracle import (
    commutes_with_gyrations_per_c,
    is_group_all_pairs,
    lg_prime_word_oracle_perms,
)

from gyrokit import sweep
from gyrokit.catalog import cyclic, sym3
from gyrokit.cli import main
from gyrokit.core import InternalConsistencyError, Perm, direct_product
from gyrokit.gyrofile import save_table
from gyrokit.normality import Hom, check_hom, is_normal, try_quotient
from gyrokit.nuclei import PermGroup, left_translations
from gyrokit.search import automorphisms
from gyrokit.substructure import enumerate_subgyrogroups
from gyrokit.sweep import (
    _commutes_with_gyrations,
    _is_group,
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
                    seen += 1
        assert seen == 70  # the normal subgyrogroups of the 15 tables

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
