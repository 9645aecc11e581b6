import pytest

from gyrokit import sweep
from gyrokit.catalog import cyclic, sym3
from gyrokit.cli import main
from gyrokit.core import InternalConsistencyError, Perm
from gyrokit.gyrofile import save_table
from gyrokit.sweep import run_theorem_sweep, sweep_table


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
