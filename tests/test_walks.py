import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypmix
from hypmix import rng
from hypmix.freegroup import invert
from hypmix.walks import (
    MAX_PASSES,
    SHORT_WALK,
    DriftRangeError,
    MeasureError,
    StepMeasure,
    drift_estimate,
    sample_walk,
)

from conftest import F2, F3, letters

# Frozen golden endpoint for sample_walk(uniform F2, n=3, seed=42).
GOLDEN_WALK_42 = (-2, -2, 1)

UNIFORM_F2 = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)])
UNIFORM_F3 = StepMeasure.uniform_on(3, [(i,) for i in (1, -1, 2, -2, 3, -3)])
UNIFORM_F4 = StepMeasure.uniform_on(4, [(x,) for x in letters(4)])
# Multi-letter steps and identity steps (blank rows of the letter table).
LAZY_PAIRS = StepMeasure.uniform_on(
    2, [F2.parse(t) for t in ("a", "A", "b", "B", "ab", "BA")], identity_mass=Fraction(1, 2)
)
# a^40 A^40 cancels one pair per pass, so long walks outlast MAX_PASSES
# and finish on the stack.
POWERS_40 = StepMeasure.uniform_on(2, [(1,) * 40, (-1,) * 40, (2,), (-2,)])


class TestConstruction:
    def test_uniform_weights(self):
        assert all(p == Fraction(1, 4) for p in UNIFORM_F2.entries.values())

    def test_lazy_split(self):
        lazy = StepMeasure.uniform_on(
            2, [(1,), (-1,), (2,), (-2,)], identity_mass=Fraction(1, 2)
        )
        assert lazy.mass(()) == Fraction(1, 2)
        assert lazy.mass((1,)) == Fraction(1, 8)

    def test_identity_needs_laziness(self):
        with pytest.raises(MeasureError):
            StepMeasure.uniform_on(2, [(), (1,)])

    def test_empty_support_rejected(self):
        with pytest.raises(MeasureError):
            StepMeasure.uniform_on(2, [])

    def test_masses_must_sum_to_one(self):
        with pytest.raises(MeasureError):
            StepMeasure(2, {(1,): Fraction(1, 2)})


class TestValidation:
    def test_uniform_passes(self):
        report = UNIFORM_F2.validate()
        assert report.passed
        assert report.failures() == []

    def test_cyclic_support_fails_non_elementary(self):
        report = StepMeasure.uniform_on(2, [(1,), (-1,)]).validate()
        assert not report.non_elementary
        assert report.symmetric

    def test_asymmetric_flagged(self):
        report = StepMeasure.uniform_on(2, [(1,), (2,)]).validate()
        assert not report.symmetric
        assert report.generating  # as a subgroup, <a, b> is everything

    def test_infinite_index_support_fails_generating(self):
        mu = StepMeasure.uniform_on(2, [F2.parse(t) for t in ("aa", "AA", "b", "B")])
        report = mu.validate()
        assert report.symmetric
        assert not report.generating
        assert report.non_elementary


class TestConvolve:
    def test_n1_is_measure(self):
        assert UNIFORM_F2.convolve(1) == UNIFORM_F2.entries

    def test_mass_at_identity_n2(self):
        assert UNIFORM_F2.convolve(2)[()] == Fraction(1, 4)

    def test_mass_at_aa_n2(self):
        assert UNIFORM_F2.convolve(2)[(1, 1)] == Fraction(1, 16)

    def test_sums_to_one(self):
        for n in range(6):
            assert sum(UNIFORM_F2.convolve(n).values()) == 1

    def test_symmetric_measure_inversion_invariant(self):
        for n in range(5):
            dist = UNIFORM_F2.convolve(n)
            assert all(dist[invert(w)] == p for w, p in dist.items())

    def test_cap(self):
        with pytest.raises(MeasureError):
            UNIFORM_F2.convolve(9)


class TestSampling:
    def test_n0(self):
        t = sample_walk(UNIFORM_F2, 0, 1)
        assert t.positions == ((),)

    def test_golden_seed_42(self):
        # Frozen from the first run: the sampler is part of the wire format.
        t = sample_walk(UNIFORM_F2, 3, 42)
        assert t.positions[0] == ()
        assert len(t.positions) == 4
        assert t.positions[-1] == GOLDEN_WALK_42

    def test_reproducible(self):
        a = sample_walk(UNIFORM_F2, 50, 7)
        b = sample_walk(UNIFORM_F2, 50, 7)
        assert a == b

    def test_positions_consistent(self):
        t = sample_walk(UNIFORM_F2, 30, 9)
        cur = ()
        for g, pos in zip(t.increments, t.positions[1:]):
            from hypmix.freegroup import multiply

            cur = multiply(cur, g)
            assert cur == pos

    def test_seed_collision_rate(self):
        # Distinct seeds give distinct trajectories: over 10^4 seeds at
        # n = 50 the 4^50 increment sequences never collide.
        gen_increments = set()
        for s in range(10_000):
            gen = rng.substream(s)
            gen_increments.add(tuple(UNIFORM_F2.draw_indices(gen, 50).tolist()))
        assert len(gen_increments) == 10_000

    def test_empirical_matches_convolution(self):
        # n = 2 empirical distribution vs exact law, 3-sigma multinomial.
        n_samples = 100_000
        counts: dict = {}
        gen = rng.substream(2024)
        for _ in range(n_samples):
            w = UNIFORM_F2.final_position(2, gen)
            counts[w] = counts.get(w, 0) + 1
        exact = UNIFORM_F2.convolve(2)
        assert set(counts) <= set(exact)
        for w, p in exact.items():
            mean = float(p) * n_samples
            sigma = (float(p) * (1 - float(p)) * n_samples) ** 0.5
            assert abs(counts.get(w, 0) - mean) <= 3.5 * sigma


class TestFinalPosition:
    # sample_walk multiplies the increments one by one, independently of
    # the pass reduction in final_position; both read the same draws.

    @given(
        measure=st.sampled_from([UNIFORM_F2, UNIFORM_F3, UNIFORM_F4, LAZY_PAIRS, POWERS_40]),
        n=st.one_of(
            st.sampled_from([0, 1, SHORT_WALK - 1, SHORT_WALK, SHORT_WALK + 1]),
            st.integers(0, 3 * SHORT_WALK),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_multiply(self, measure, n, seed):
        assert measure.final_position(n, rng.substream(seed)) == sample_walk(measure, n, seed).final

    @pytest.mark.parametrize("seed", range(3))
    def test_pass_budget_exhausted(self, seed):
        # About 4,100 letters; dozens of a^40 A^40 meetings need 40 passes each.
        assert MAX_PASSES < 40
        n = 200
        assert POWERS_40.final_position(n, rng.substream(seed)) == sample_walk(POWERS_40, n, seed).final


class TestDrift:
    def test_point_mass_drift_one(self):
        point = StepMeasure(2, {(1,): Fraction(1)})
        est = drift_estimate(point, 100, 5, 3, allow_impermissible=True)
        assert est.d_hat == 1.0
        assert est.ci_half_width == 0.0

    def test_impermissible_rejected(self):
        point = StepMeasure(2, {(1,): Fraction(1)})
        with pytest.raises(MeasureError):
            drift_estimate(point, 10, 5, 3)

    def test_zero_trials(self):
        with pytest.raises(MeasureError):
            drift_estimate(UNIFORM_F2, 10, 0, 3)

    def test_out_of_range_raises(self, monkeypatch):
        monkeypatch.setattr(StepMeasure, "final_position", lambda self, n, gen: (1,) * (2 * n))
        with pytest.raises(DriftRangeError):
            drift_estimate(UNIFORM_F2, 10, 5, 3)

    def test_out_of_range_raises_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import sys
            from hypmix import walks

            if __debug__:
                sys.exit("not running under -O")
            uniform = walks.StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)])
            walks.StepMeasure.final_position = lambda self, n, gen: (1,) * (2 * n)
            try:
                walks.drift_estimate(uniform, 10, 5, 3)
            except walks.DriftRangeError:
                sys.exit(0)
            sys.exit("no DriftRangeError raised")
            """
        )
        src = os.path.dirname(os.path.dirname(hypmix.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_uniform_f2_short(self):
        est = drift_estimate(UNIFORM_F2, 2000, 200, 11)
        assert abs(est.d_hat - 0.5) < 0.03

    def test_uniform_f3_short(self):
        est = drift_estimate(UNIFORM_F3, 2000, 200, 11)
        assert abs(est.d_hat - 2 / 3) < 0.03

    def test_thread_invariance(self):
        a = drift_estimate(UNIFORM_F2, 500, 64, 13, threads=1)
        b = drift_estimate(UNIFORM_F2, 500, 64, 13, threads=4)
        assert a == b

    def test_ci_contains_theory(self):
        # A 95% interval misses one seed in twenty by design; this seed is
        # pinned as one where the containment holds for both ranks.
        est = drift_estimate(UNIFORM_F2, 4000, 400, 17)
        assert est.ci_low <= 0.5 <= est.ci_high
        est3 = drift_estimate(UNIFORM_F3, 4000, 400, 17)
        assert est3.ci_low <= 2 / 3 <= est3.ci_high


class TestLoxodromy:
    def test_nontrivial_fraction_at_n100(self):
        # Every nontrivial element acts loxodromically, so the fraction of
        # trivial endpoints must vanish with n.
        trials = 3000
        nontrivial = 0
        for t in range(trials):
            gen = rng.substream(99, t)
            if UNIFORM_F2.final_position(100, gen):
                nontrivial += 1
        assert nontrivial / trials > 0.999



