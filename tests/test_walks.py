import textwrap
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypmix import rng, walks
from hypmix.freegroup import FreeContext, invert, reduce_word
from hypmix.selftest import GOLDEN_MIXING_SCHEDULE, UNIFORM_F2, UNIFORM_F3
from hypmix.walks import (
    MAX_PASSES,
    SHORT_WALK,
    STEP_TABLE_MAX,
    DriftRangeError,
    MeasureError,
    StepMeasure,
    drift_estimate,
)

from conftest import F2, run_optimized
from reference import convolve, sample_walk, step_indices

# Frozen golden endpoint for sample_walk(uniform F2, n=3, seed=42).
GOLDEN_WALK_42 = (-2, -2, 1)

UNIFORM_F4 = StepMeasure.uniform_on(4, [(x,) for x in FreeContext(4).letters()])
# Multi-letter steps and identity steps (blank rows of the letter table).
LAZY_PAIRS = StepMeasure.uniform_on(
    2, [F2.parse(t) for t in ("a", "A", "b", "B", "ab", "BA")], identity_mass=Fraction(1, 2)
)
# a^40 A^40 cancels one pair per pass, so long walks outlast MAX_PASSES
# and finish on the stack.
POWERS_40 = StepMeasure.uniform_on(2, [(1,) * 40, (-1,) * 40, (2,), (-2,)])
# Keeping every position w_0 ... w_n of an 8,000-step walk would allocate
# about 120 MB.
ENDPOINT_PEAK_BYTES = 5 * 2**20


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConstruction:
    def test_uniform_weights(self):
        assert all(p == Fraction(1, 4) for p in UNIFORM_F2.entries.values())

    def test_lazy_split(self):
        lazy = StepMeasure.uniform_on(
            2, [(1,), (-1,), (2,), (-2,)], identity_mass=Fraction(1, 2)
        )
        assert lazy.entries[()] == Fraction(1, 2)
        assert lazy.entries[(1,)] == Fraction(1, 8)

    def test_identity_needs_laziness(self):
        with pytest.raises(MeasureError):
            StepMeasure.uniform_on(2, [(), (1,)])

    def test_empty_support_rejected(self):
        with pytest.raises(MeasureError):
            StepMeasure.uniform_on(2, [])

    def test_masses_must_sum_to_one(self):
        with pytest.raises(MeasureError):
            StepMeasure(2, {(1,): Fraction(1, 2)})

    def test_zero_mass_rejected(self):
        # An entry of mass 0 would put a word the walk never takes into the
        # support that permissibility reads.
        with pytest.raises(MeasureError):
            StepMeasure(2, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2), (2,): Fraction(0)})

    def test_denominator_bound(self):
        # Sampling draws one uint64 below the common denominator: 2^63 fits,
        # 2^64 does not.
        def two_steps(denom):
            return {(1,): Fraction(1, denom), (-1,): 1 - Fraction(1, denom)}

        assert StepMeasure(2, two_steps(2**63)).entries[(1,)] == Fraction(1, 2**63)
        with pytest.raises(MeasureError):
            StepMeasure(2, two_steps(2**64))


def failed_flags(measure: StepMeasure) -> list[str]:
    """The flags require_permissible names, [] when it passes."""
    try:
        measure.require_permissible()
    except MeasureError as exc:
        prefix = "measure fails permissibility: "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):].split(", ")
    return []


class TestValidation:
    def test_uniform_passes(self):
        assert failed_flags(UNIFORM_F2) == []

    def test_cyclic_support_fails_non_elementary(self):
        assert failed_flags(StepMeasure.uniform_on(2, [(1,), (-1,)])) == ["generating", "non_elementary"]

    def test_asymmetric_flagged(self):
        # As a subgroup, <a, b> is everything.
        assert failed_flags(StepMeasure.uniform_on(2, [(1,), (2,)])) == ["symmetric"]

    def test_infinite_index_support_fails_generating(self):
        mu = StepMeasure.uniform_on(2, [F2.parse(t) for t in ("aa", "AA", "b", "B")])
        assert failed_flags(mu) == ["generating"]


class TestConvolve:
    def test_n1_is_measure(self):
        assert convolve(UNIFORM_F2, 1) == UNIFORM_F2.entries

    def test_mass_at_identity_n2(self):
        assert convolve(UNIFORM_F2, 2)[()] == Fraction(1, 4)

    def test_mass_at_aa_n2(self):
        assert convolve(UNIFORM_F2, 2)[(1, 1)] == Fraction(1, 16)

    def test_sums_to_one(self):
        for n in range(6):
            assert sum(convolve(UNIFORM_F2, n).values()) == 1

    def test_symmetric_measure_inversion_invariant(self):
        for n in range(5):
            dist = convolve(UNIFORM_F2, n)
            assert all(dist[invert(w)] == p for w, p in dist.items())

    def test_cap(self):
        with pytest.raises(MeasureError):
            convolve(UNIFORM_F2, 9)


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
            gen_increments.add(tuple(step_indices(UNIFORM_F2, gen, 50)))
        assert len(gen_increments) == 10_000

    def test_empirical_matches_convolution(self):
        # n = 2 empirical distribution vs exact law, 3-sigma multinomial.
        n_samples = 100_000
        counts: dict = {}
        gen = rng.substream(2024)
        for _ in range(n_samples):
            w = UNIFORM_F2.final_position(2, gen)
            counts[w] = counts.get(w, 0) + 1
        exact = convolve(UNIFORM_F2, 2)
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

    def test_golden_endpoint_seed_42(self):
        assert UNIFORM_F2.final_position(3, rng.substream(42)) == GOLDEN_WALK_42

    def test_keeps_only_the_endpoint(self):
        assert traced_peak(UNIFORM_F2.final_position, 8000, rng.substream(42)) < ENDPOINT_PEAK_BYTES

    @pytest.mark.parametrize("seed", range(3))
    def test_pass_budget_exhausted(self, seed):
        # About 4,100 letters; dozens of a^40 A^40 meetings need 40 passes each.
        assert MAX_PASSES < 40
        n = 200
        assert POWERS_40.final_position(n, rng.substream(seed)) == sample_walk(POWERS_40, n, seed).final

    def test_negative_length_named(self):
        with pytest.raises(MeasureError, match="walk length"):
            UNIFORM_F2.final_position(-2, rng.substream(42))


class TestPositions:
    # One draw for a schedule: each endpoint is the walk of that length
    # drawn alone, and the multiply-out reference over the same draws.

    @given(
        measure=st.sampled_from([UNIFORM_F2, UNIFORM_F3, LAZY_PAIRS, POWERS_40]),
        ns=st.lists(
            st.one_of(st.sampled_from([0, 1, SHORT_WALK - 1, SHORT_WALK, SHORT_WALK + 1]), st.integers(0, 2 * SHORT_WALK)),
            max_size=5,
        ).map(sorted),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_single_walks(self, measure, ns, seed):
        got = measure.positions(ns, rng.substream(seed))
        assert got == [measure.final_position(n, rng.substream(seed)) for n in ns]
        walk = sample_walk(measure, ns[-1] if ns else 0, seed)
        assert got == [walk.positions[n] for n in ns]

    # Segment lengths in steps; "long" and "short" fall just either side of
    # SHORT_WALK padded letters, 0 repeats an n or leads with n = 0.
    SEGMENTS = {
        "short after long": ["long", "short"],
        "long after short": [3, "long"],
        "repeated n": [3, 0, "long", 0, "short", 0],
        "leading n = 0": [0, 3, "long", 3],
        "every kind": [0, 0, "short", "long", "long", 3, 0, "short"],
    }

    @pytest.mark.parametrize("measure", [LAZY_PAIRS, POWERS_40], ids=["LAZY_PAIRS", "POWERS_40"])
    @pytest.mark.parametrize("case", SEGMENTS)
    @pytest.mark.parametrize("seed", range(2))
    def test_segment_order(self, measure, case, seed):
        width = measure.max_step_length()
        steps = {"long": -(-SHORT_WALK // width), "short": SHORT_WALK // width - 1}
        assert steps["long"] * width >= SHORT_WALK > steps["short"] * width
        ns, n = [], 0
        for segment in self.SEGMENTS[case]:
            n += steps.get(segment, segment)
            ns.append(n)
        got = measure.positions(ns, rng.substream(seed))
        assert got == [measure.final_position(n, rng.substream(seed)) for n in ns]
        walk = sample_walk(measure, ns[-1], seed)
        assert got == [walk.positions[n] for n in ns]

    @staticmethod
    def count_routes(monkeypatch) -> dict:
        """Counts, from here on, the calls of _reduce, reduce_word and
        multiply that walks makes."""
        calls = {"_reduce": 0, "reduce_word": 0, "multiply": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(StepMeasure, "_reduce", staticmethod(counted("_reduce", StepMeasure._reduce)))
        for name in ("reduce_word", "multiply"):
            monkeypatch.setattr(walks, name, counted(name, getattr(walks, name)))
        return calls

    def test_mix_schedule_takes_only_the_stack(self, monkeypatch):
        ns = list(GOLDEN_MIXING_SCHEDULE)
        calls = self.count_routes(monkeypatch)
        got = UNIFORM_F2.positions(ns, rng.substream(7))
        assert calls == {"_reduce": 0, "reduce_word": 0, "multiply": 0}
        walk = sample_walk(UNIFORM_F2, ns[-1], 7)
        assert got == [walk.positions[n] for n in ns]

    def test_long_walk_takes_one_reduce(self, monkeypatch):
        calls = self.count_routes(monkeypatch)
        got = UNIFORM_F2.final_position(10_000, rng.substream(7))
        assert calls["_reduce"] == 1
        assert got == sample_walk(UNIFORM_F2, 10_000, 7).final

    def test_route_boundary(self, monkeypatch):
        # SHORT_WALK - 1 letters take the stack, the next SHORT_WALK letters
        # take _reduce and one seam join.
        ns = [SHORT_WALK - 1, 2 * SHORT_WALK - 1]
        calls = self.count_routes(monkeypatch)
        got = UNIFORM_F2.positions(ns, rng.substream(7))
        assert (calls["_reduce"], calls["multiply"]) == (1, 1)
        walk = sample_walk(UNIFORM_F2, ns[-1], 7)
        assert got == [walk.positions[n] for n in ns]

    def test_short_segment_lists_only_itself(self):
        # A short run ahead of a long segment keeps the endpoint-only bound.
        assert traced_peak(UNIFORM_F2.positions, [10, 8000], rng.substream(42)) < ENDPOINT_PEAK_BYTES

    def test_empty_schedule(self):
        assert UNIFORM_F2.positions([], rng.substream(42)) == []

    @pytest.mark.parametrize("ns, message", [([10, -3], "walk length"), ([20, 10], "ascending")])
    def test_bad_schedule_named(self, ns, message):
        with pytest.raises(MeasureError, match=message):
            UNIFORM_F2.positions(ns, rng.substream(42))


# D = 2^16 with uneven numerators: the largest step table, on the raw route.
SKEWED_2_16 = StepMeasure(
    2, {(1,): Fraction(2**14 + 1, 2**16), (-1,): Fraction(2**14 - 1, 2**16), (2,): Fraction(1, 4), (-2,): Fraction(1, 4)}
)
# D = 65,537: past the step table, so draws map through the thresholds.
LAZY_65537 = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)], identity_mass=Fraction(1, 65537))
# D = 2^19: through the thresholds, on the raw route.
LAZY_2_19 = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)], identity_mass=Fraction(1, 2**17))

# trial_positions against positions: both table kinds, padding, rank 3 and
# steps of 40 letters.
MEASURES = {
    "uniform_f2": UNIFORM_F2,
    "uniform_f3": UNIFORM_F3,
    "lazy_pairs": LAZY_PAIRS,
    "powers_40": POWERS_40,
    "lazy_65537": LAZY_65537,
}


def reduced_walk(measure: StepMeasure, n: int, seed: int):
    """The endpoint of the n-step walk, from the reference's step draws and
    one reduce_word over the increments."""
    words = list(measure.entries)
    return reduce_word([x for i in step_indices(measure, rng.substream(seed), n) for x in words[i]])


class TestStepTable:
    # positions maps draws to steps through a table of D rows for D <= 2^16
    # and through the cumulative thresholds above; the reference draws with
    # integers and maps through cumulative sums of its own.

    @pytest.mark.parametrize(
        "measure, table",
        [
            (UNIFORM_F2, True),
            (UNIFORM_F3, True),
            (LAZY_PAIRS, True),
            (SKEWED_2_16, True),
            (LAZY_65537, False),
            (LAZY_2_19, False),
        ],
        ids=["uniform_f2", "uniform_f3", "lazy_pairs", "D=2^16", "D=65537", "D=2^19"],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_reference(self, measure, table, seed):
        assert (measure._table is not None) == table
        assert measure._table is None or len(measure._table) == measure._denominator
        ns = [1, 9, SHORT_WALK // 2, SHORT_WALK // 2 + 1, SHORT_WALK + 3, 3 * SHORT_WALK]
        walk = sample_walk(measure, ns[-1], seed)
        assert measure.positions(ns, rng.substream(seed)) == [walk.positions[n] for n in ns]
        assert measure.final_position(10_000, rng.substream(seed)) == reduced_walk(measure, 10_000, seed)


class TestTrialPositions:
    # trial_positions draws through rng.trial_draw on the process's
    # re-keyed stream and walks the same body as positions.

    @given(
        measure=st.sampled_from(sorted(MEASURES)),
        segments=st.lists(
            st.one_of(
                st.sampled_from([0, 0, 1, SHORT_WALK - 1, SHORT_WALK, SHORT_WALK + 1]),
                st.integers(0, 40),
                st.integers(SHORT_WALK // 32, 2 * SHORT_WALK),
            ),
            max_size=6,
        ),
        seed=st.integers(0, 2**64 - 1),
        trial=st.integers(0, 600),
    )
    def test_matches_positions(self, measure, segments, seed, trial):
        measure = MEASURES[measure]
        ns = list(accumulate(segments))
        want = measure.positions(ns, rng.substream(seed, trial))
        rng.trial_stream(seed, trial + 1).integers(0, 8)
        assert measure.trial_positions(ns, seed, trial) == want

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_every_segment_kind(self, monkeypatch, measure):
        # Zero-length, short and long segments on each measure: the padded
        # lazy table with identity mass 1/2, the thresholds past 2^16 and
        # rank 3 among them.
        measure = MEASURES[measure]
        width = measure.max_step_length()
        steps = {"long": -(-SHORT_WALK // width), "short": SHORT_WALK // width - 1}
        ns = list(accumulate(steps.get(kind, kind) for kind in TestPositions.SEGMENTS["every kind"]))
        want = measure.positions(ns, rng.substream(7, 300))
        calls = TestPositions.count_routes(monkeypatch)
        assert measure.trial_positions(ns, 7, 300) == want
        assert calls["_reduce"] == 2

    def test_measures_cover_each_table(self):
        assert LAZY_PAIRS._padded and LAZY_PAIRS.entries[()] == Fraction(1, 2)
        assert LAZY_65537._table is None and LAZY_65537._denominator > STEP_TABLE_MAX
        assert UNIFORM_F3.rank == 3 and not UNIFORM_F3._padded

    def test_bad_schedule_named(self):
        with pytest.raises(MeasureError, match="ascending"):
            UNIFORM_F2.trial_positions([20, 10], 42, 0)

    def test_empty_schedule(self):
        assert UNIFORM_F2.trial_positions([], 42, 0) == []


class TestDrift:
    def test_impermissible_rejected(self):
        point = StepMeasure(2, {(1,): Fraction(1)})
        with pytest.raises(MeasureError):
            drift_estimate(point, 10, 5, 3)

    def test_zero_trials(self):
        with pytest.raises(MeasureError):
            drift_estimate(UNIFORM_F2, 10, 0, 3)

    def test_one_step_and_one_trial_accepted(self):
        # The least valid inputs: one uniform step has length 1.
        est = drift_estimate(UNIFORM_F2, 1, 1, 3)
        assert (est.d_hat, est.n, est.trials) == (1.0, 1, 1)

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
        run_optimized(script)

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



