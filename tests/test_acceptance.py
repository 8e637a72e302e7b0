"""Acceptance gate.

Each criterion is one test. A test prints its PASS line only after every
assert in it has held, so the printed report mirrors the pytest outcome
one to one. Budgets are wall-clock seconds per criterion.
"""
import itertools
import random
import time
from fractions import Fraction as F

import pytest

import subsums as S

EX = S.TermTailRelation.TERM_EXCEEDS_TAIL
BD = S.TermTailRelation.TAIL_BOUNDS_TERM


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.started
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
            )


def _report(capsys, number, name):
    # bypass capture so the line shows in the pytest run itself
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_acceptance_01_thirds_cantor(capsys):
    with _Budget(5):
        spec = S.PRESETS["thirds"]
        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.CANTOR_SET
        assert verdict.certificate == "AllExceed"

        result = S.build_cn(spec, 2)
        assert result.tail_exact
        assert result.left_endpoints == (F(0), F(1, 9), F(1, 3), F(4, 9))
        expected = S.IntervalUnion([
            S.ClosedInterval(F(0), F(1, 18)),
            S.ClosedInterval(F(1, 9), F(1, 6)),
            S.ClosedInterval(F(1, 3), F(7, 18)),
            S.ClosedInterval(F(4, 9), F(1, 2)),
        ])
        assert result.fattened == expected

        for n in range(15):
            assert S.build_cn(spec, n).fattened.components == 2**n
    _report(capsys, 1, "thirds-cantor")


def test_acceptance_02_halves_full_interval(capsys):
    with _Budget(5):
        spec = S.PRESETS["halves"]
        unit = S.IntervalUnion([S.ClosedInterval(F(0), F(1))])
        for n in range(15):
            assert S.build_cn(spec, n).fattened == unit

        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.FINITE_UNION
        assert verdict.component_count == 1
        assert (verdict.hull_lo, verdict.hull_hi) == (F(0), F(1))
    _report(capsys, 2, "halves-full-interval")


def test_acceptance_03_prefixed_halves_two_pieces(capsys):
    with _Budget(5):
        spec = S.geometric(F(1, 2), F(1, 2), prefix=(F(2),))
        expected = S.IntervalUnion([
            S.ClosedInterval(F(0), F(1)),
            S.ClosedInterval(F(2), F(3)),
        ])
        for n in range(1, 13):
            assert S.build_cn(spec, n).fattened == expected

        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.FINITE_UNION
        assert verdict.component_count == 2
    _report(capsys, 3, "prefixed-halves-two-pieces")


def test_acceptance_04_bigeometric_lambda_cantor(capsys):
    with _Budget(10):
        spec = S.PRESETS["ratios-2-5-3-5"]
        lam = (1 - F(2, 5)) * (1 - F(3, 5))
        assert lam == F(6, 25) < F(1, 4)

        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.CANTOR_SET
        assert verdict.certificate == "LambdaBelowQuarter"

        assert S.build_cn(spec, 6).fattened.components == 23
    _report(capsys, 4, "bigeometric-lambda-cantor")


def test_acceptance_05_gn_cantorval(capsys):
    with _Budget(30):
        spec = S.PRESETS["gn"]
        assert spec.tail_sum(1).value == F(11, 12)
        assert spec.tail_sum(2).value == F(5, 12)

        for n in range(1, 21):
            rel = S.compare_term_tail(spec, n)
            assert rel is (EX if n % 2 == 0 else BD)

        base, numerators = S.digit_form(spec)
        assert (base, numerators) == (4, (3, 2))
        cert = S.digit_coverage_test(base, numerators)
        assert cert is not None
        assert sorted(d % 4 for d in cert.digits) == [0, 1, 2, 3]

        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
        assert verdict.strength == "Proven"

        core = S.IntervalUnion([S.ClosedInterval(F(3, 4), F(1))])
        for n in range(17):
            assert S.is_subset(core, S.build_cn(spec, n).fattened)
    _report(capsys, 5, "gn-cantorval")


def test_acceptance_06_kenyon_cantorval(capsys):
    with _Budget(10):
        spec = S.PRESETS["kenyon"]
        reordered = S.nonincreasing_reorder(spec)
        first = list(itertools.islice(reordered.terms(), 7))
        assert first == [
            F(3, 2), F(3, 8), F(1, 4), F(3, 32), F(1, 16), F(3, 128), F(1, 64),
        ]

        base, numerators = S.digit_form(reordered)
        assert (base, numerators) == (4, (6, 1))
        cert = S.digit_coverage_test(base, numerators)
        assert cert is not None
        assert cert.digits == (0, 1, 6, 7)

        lam = (1 - F(3, 10)) * (1 - F(9, 14))
        assert lam == F(1, 4)
        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
        assert verdict.certificate == "DigitCoverage"
        assert verdict.certificate != "LambdaBelowQuarter"
        assert verdict.strength == "PaperPresumed"
    _report(capsys, 6, "kenyon-cantorval")


def test_acceptance_07_pseries_bounds(capsys):
    with _Budget(10):
        spec = S.power_sum(2)
        x1 = spec.tail_sum(1)
        assert x1.lo >= F(1, 2)
        assert x1.hi <= F(1)
        assert not x1.exact

        profile = S.term_tail_profile(spec)
        assert profile.pseries_exceed_through == 1
        assert profile.pseries_bound_from == 2

        verdict = S.classify(spec)
        assert verdict.kind is S.VerdictKind.FINITE_UNION
        assert verdict.component_lower == 2
        assert verdict.component_upper == 4
    _report(capsys, 7, "pseries-bounds")


def test_acceptance_08_randomized_oracle(capsys):
    with _Budget(60):
        rng = random.Random(20260817)
        for trial in range(100):
            prefix = tuple(
                F(rng.randint(1, 40), rng.randint(1, 40))
                for _ in range(rng.randint(0, 6))
            )
            a = F(rng.randint(1, 30), rng.randint(31, 90))
            rho = F(rng.randint(1, 19), rng.randint(20, 60))
            spec = S.geometric(a, rho, prefix=prefix)
            depth = rng.randint(0, 12)
            built = S.build_cn(spec, depth)
            assert built.fattened == S.oracle_cn(spec, depth), (
                f"trial {trial}: {spec} at depth {depth}"
            )
    _report(capsys, 8, "randomized-oracle")


def test_acceptance_09_reflection_symmetry(capsys):
    with _Budget(10):
        suite = [
            S.PRESETS["thirds"],
            S.PRESETS["halves"],
            S.PRESETS["gn"],
            S.PRESETS["kenyon"],
            S.PRESETS["ratios-2-5-3-5"],
            S.geometric(F(1, 2), F(1, 2), prefix=(F(2),)),
        ]
        for spec in suite:
            total = spec.tail_sum(0)
            assert total.exact
            for n in range(13):
                cover = S.build_cn(spec, n).fattened
                assert S.reflect(cover, total.value) == cover
    _report(capsys, 9, "reflection-symmetry")


def test_acceptance_10_fill_harmonic(capsys):
    with _Budget(5):
        eps = F(1, 10**6)
        result = S.fill(S.PRESETS["harmonic"], F(1), eps)
        assert not result.hit_round_limit
        assert result.gaps[-1] < eps
        gap = F(1)
        for next_gap in result.gaps:
            assert next_gap == 0 or next_gap < gap / 2
            gap = next_gap
            if gap == 0:
                break
        total = sum(
            (
                sum(F(1, k) for k in range(lo, hi + 1))
                for lo, hi in result.runs
            ),
            F(0),
        )
        assert total == result.achieved == F(1) - result.gaps[-1]

        exact = S.fill(S.PRESETS["harmonic"], F(5, 6), eps)
        assert exact.runs == ((2, 3),)
        assert exact.gaps == (F(0),)
    _report(capsys, 10, "fill-harmonic")


def test_acceptance_11_signed_split(capsys):
    with _Budget(5):
        signed = S.MergedSpec(
            (S.geometric(F(1, 4), F(1, 4)),),
            (S.geometric(F(1, 2), F(1, 4)),),
        )
        verdict = S.classify(signed)
        assert verdict.kind is S.VerdictKind.FINITE_UNION
        assert (verdict.hull_lo, verdict.hull_hi) == (F(-2, 3), F(1, 3))
        assert verdict.translation == F(-2, 3)

        n = 10
        table = S.subset_sums(signed, n)
        first = list(itertools.islice(signed.terms(), n))
        neg_total = sum((t for t in first if t < 0), F(0))
        abs_spec = S.MergedSpec((
            S.geometric(F(1, 4), F(1, 4)),
            S.geometric(F(1, 2), F(1, 4)),
        ))
        abs_sums = S.subset_sums(abs_spec, n)
        assert set(table) == {s + neg_total for s in abs_sums}
    _report(capsys, 11, "signed-split")


def test_acceptance_12_parameter_sweep(capsys):
    with _Budget(120):
        grid = S.sweep(resolution=21)
        assert len(grid.cells) == 21 * 21 + 1

        half = F(1, 2)
        quarter = F(1, 4)
        for cell in grid.cells:
            lam = (1 - cell.alpha) * (1 - cell.beta)
            assert cell.contraction == lam
            kind = cell.verdict.kind
            mixed = (cell.alpha > half) != (cell.beta > half)
            if cell.alpha > half and cell.beta > half:
                assert kind is S.VerdictKind.CANTOR_SET
                assert cell.verdict.certificate == "AllExceed"
            elif cell.alpha <= half and cell.beta <= half:
                assert kind is S.VerdictKind.FINITE_UNION
                assert cell.verdict.component_count == 1
                assert (cell.verdict.hull_lo, cell.verdict.hull_hi) == (
                    F(0), F(1),
                )
            if cell.feasible and lam < quarter:
                assert kind is S.VerdictKind.CANTOR_SET
            if kind is S.VerdictKind.UNDETERMINED:
                # white region: mixed ratios, io comparisons, and (within
                # the feasible triangle) contraction at least 1/4
                assert mixed
                assert cell.verdict.known_infinitely_many
                if cell.feasible:
                    assert lam >= quarter

        marked = grid.cell(F(9, 20), F(6, 11))
        assert marked.verdict.kind is S.VerdictKind.SYMMETRIC_CANTORVAL
        assert marked.verdict.strength == "Proven"
    _report(capsys, 12, "parameter-sweep")
