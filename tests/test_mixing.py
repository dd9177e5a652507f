import math
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypmix import mixing, rng, stallings
from hypmix.freegroup import FreeContext, invert, multiply, reduce_word
from hypmix.mixing import (
    MixingSetupError,
    WitnessPair,
    check_witness,
    free_product_experiment,
    joint_mixing,
    witness_subgroup,
)
from hypmix.stallings import SubgroupAutomaton
from hypmix.walks import StepMeasure

from conftest import F2, count_canonical_forms, nontrivial_words, src_env, words
from reference import sample_walk

UNIFORM = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)])
UNIFORM_F3 = StepMeasure.uniform_on(3, [(i,) for i in (1, -1, 2, -2, 3, -3)])
A, B = (1,), (2,)


def sub(*texts):
    return SubgroupAutomaton.from_generators(2, [F2.parse(t) for t in texts])


class TestWitnessSubgroup:
    def test_degenerate_w1(self):
        assert witness_subgroup(sub("a"), sub("b"), ()) == sub("a", "b")

    def test_short_w(self):
        w = F2.parse("ab")
        got = witness_subgroup(sub("a"), sub("b"), w)
        direct = SubgroupAutomaton.from_generators(
            2, [multiply(multiply(invert(w), A), w), B]
        )
        assert got == direct

    def test_trivial_h(self):
        assert witness_subgroup(sub(), sub("b"), F2.parse("abab")) == sub("b")

    def test_success_folds_once(self, monkeypatch):
        # Trial 0 of seed 11 at n = 80 passes every flag and trial 1 at n = 2
        # fails: each folds once to build L, and the conjugate w L w^-1 that
        # flag (b) reads shares L's rows, with no graph built for it.
        pairs = [WitnessPair.of(sub("a"), sub("b"), F2.ball(2))]
        fold, conjugate = stallings._FoldGraph.fold, SubgroupAutomaton.conjugate
        init = stallings._FoldGraph.__init__
        for n, trial, success in ((80, 0, True), (2, 1, False)):
            folds, built, conjugates = [], [], []

            def observed(self, g):
                conjugates.append((self, conjugate(self, g)))
                return conjugates[-1][1]

            monkeypatch.setattr(stallings._FoldGraph, "fold", lambda self: folds.append(1) or fold(self))
            monkeypatch.setattr(stallings._FoldGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
            monkeypatch.setattr(SubgroupAutomaton, "conjugate", observed)
            [[outcome]] = mixing._witness_trial(pairs, UNIFORM, [n], 11, trial)
            assert outcome.success is success
            assert len(folds) == len(built) == 1
            [(l_sub, flag_b)] = conjugates
            assert flag_b._rows is l_sub._rows

    def test_certification_reads_w_back_along_the_stem(self, monkeypatch):
        # Flag (b) certifies a success on w L w^-1: L's automaton reads w^-1
        # from its base along its own stem to w^-1 H w, so w L w^-1 is L's
        # rows with the base moved to the state w^-1 reads to: no graph is
        # built and no state is added.
        h, k = sub("a"), sub("b")
        w = UNIFORM.final_position(80, rng.substream(11, 0))
        l_sub = witness_subgroup(h, k, w)
        assert check_witness(l_sub, WitnessPair.of(h, k, F2.ball(2)), w).success
        built = []
        init = stallings._FoldGraph.__init__
        monkeypatch.setattr(stallings._FoldGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        states = len(l_sub._rows)
        end = l_sub._base
        for letter in invert(w):
            end = l_sub._rows[end][letter]
        conjugate = l_sub.conjugate(w)
        assert built == []
        assert conjugate._rows is l_sub._rows and len(l_sub._rows) == states
        assert conjugate._base == end != l_sub._base
        assert conjugate.contains(A) and conjugate.contains(multiply(multiply(w, B), invert(w)))


class TestFoldedWitness:
    def test_trials_never_build_a_canonical_form(self, monkeypatch):
        # Seed 11 at n = 2 fails trials and at n = 80 certifies successes;
        # neither route trims or numbers an automaton.
        calls = count_canonical_forms(monkeypatch)
        pairs = [WitnessPair.of(sub("a"), sub("b"), F2.ball(2))]
        outcomes = [mixing._witness_trial(pairs, UNIFORM, [n], 11, t)[0][0].success for n in (2, 80) for t in range(10)]
        assert True in outcomes and False in outcomes
        joint_mixing([(sub("a"), sub("b"), F2.ball(2))], UNIFORM, [2, 40], 20, 11)
        assert calls == []


class TestCheckWitness:
    def test_w1_fails_trace_k(self):
        w = ()
        l_sub = witness_subgroup(sub("a"), sub("b"), w)
        out = check_witness(l_sub, WitnessPair.of(sub("a"), sub("b"), F2.ball(1)), w)
        assert not out.trace_k
        assert not out.infinite_index

    def test_trivial_markers(self):
        w = F2.parse("ab")
        l_sub = witness_subgroup(sub(), sub(), w)
        out = check_witness(l_sub, WitnessPair.of(sub(), sub(), F2.ball(1)), w)
        assert out.success  # 0 = 0 + 0 rank, trivial traces agree

    def test_generic_long_word(self):
        w = sample_walk(UNIFORM, 60, 71).final
        l_sub = witness_subgroup(sub("a"), sub("b"), w)
        out = check_witness(l_sub, WitnessPair.of(sub("a"), sub("b"), F2.ball(2)), w)
        assert out.success
        # Independent flag checks by raw membership.
        for f in F2.ball(2):
            assert l_sub.contains(f) == sub("b").contains(f)
            assert l_sub.conjugate(w).contains(f) == sub("a").contains(f)


def _word_route(l_sub, w, window):
    """Flag (b)'s reference: f lies in w L w^-1 when the reduced w^-1 f w lies in L."""
    return frozenset(f for f in window if l_sub.contains(multiply(multiply(invert(w), f), w)))


@st.composite
def stem_cases(draw):
    """(rank, H generators, K generators, w, window radius) on F2 and F3.

    H is trivial, hangs from a hair at its base (x g x^-1), or is drawn
    freely: the first two make L's core trim cut the stem w^-1 short. w may
    end in a periodic tail, where the seams cancel far into the stem."""
    rank = draw(st.sampled_from((2, 3)))
    shape = draw(st.sampled_from(("trivial", "hair", "free")))
    if shape == "trivial":
        h_gens = []
    elif shape == "hair":
        x = draw(nontrivial_words(rank, 3))
        h_gens = [multiply(multiply(x, draw(nontrivial_words(rank, 3))), invert(x))]
    else:
        h_gens = draw(st.lists(nontrivial_words(rank, 4), min_size=1, max_size=2))
    k_gens = draw(st.lists(nontrivial_words(rank, 4), max_size=2))
    period = draw(nontrivial_words(rank, 2))
    w = reduce_word(draw(words(rank, 8)) + period * draw(st.integers(0, 6)))
    return rank, h_gens, k_gens, w, draw(st.integers(0, 3))


class TestStemTrace:
    # Flag (b) reads the window from w L w^-1, whose base L's stem w^-1
    # reaches; where the stem is cut short, conjugate folds it back in.

    @given(stem_cases())
    def test_matches_word_route(self, case):
        rank, h_gens, k_gens, w, radius = case
        h = SubgroupAutomaton.from_generators(rank, h_gens)
        k = SubgroupAutomaton.from_generators(rank, k_gens)
        l_sub = witness_subgroup(h, k, w)
        window = FreeContext(rank).ball(radius)
        # The builder's folded L and its canonical form, whose trim may cut
        # the stem short.
        for form in (l_sub, SubgroupAutomaton.from_text(l_sub.to_text(), rank)):
            assert form.conjugate(w).trace(window) == _word_route(form, w, window)

    def test_stem_cut_short_by_a_hair_of_h(self):
        # H = <a b a^-1> has a hair at its base, and w^-1 = B A A ends in the
        # letter that cancels it. The builder's L keeps the hair and reads
        # w^-1 to its end; in canonical form L's core trim cuts the stem
        # after B A, so w^-1 does not read, yet w L w^-1 still meets the
        # window in H.
        h, k, w = sub("abA"), sub("b"), F2.parse("aab")
        l_sub = witness_subgroup(h, k, w)
        core = SubgroupAutomaton.from_text(l_sub.to_text(), 2)
        window = F2.ball(3)
        assert l_sub.conjugate(w)._rows is l_sub._rows
        assert core.read(0, invert(w)) is None
        assert core.read(0, invert(w)[:2]) is not None
        for form in (l_sub, core):
            got = form.conjugate(w).trace(window)
            assert got == _word_route(form, w, window) == h.trace(window)
            assert {F2.format(f) for f in got} == {"1", "abA", "aBA"}
            assert check_witness(form, WitnessPair.of(h, k, window), w).trace_h


class TestFlagB:
    def test_skipped_conjugate_fails_under_optimize_flag(self):
        # Trial 0 of seed 11 at n = 80 passes every witness flag. If
        # conjugate skips the stem, w L w^-1 reads as L, whose trace is K's,
        # not H's: flag (b) fails, also under python -O, and the trial is
        # not counted.
        script = textwrap.dedent(
            """
            import sys
            from hypmix import mixing
            from hypmix.freegroup import FreeContext
            from hypmix.stallings import SubgroupAutomaton
            from hypmix.walks import StepMeasure

            if __debug__:
                sys.exit("not running under -O")
            F2 = FreeContext(2)
            UNIFORM = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)])
            sub = lambda t: SubgroupAutomaton.from_generators(2, [F2.parse(t)])
            pairs = [mixing.WitnessPair.of(sub("a"), sub("b"), F2.ball(2))]
            [[kept]] = mixing._witness_trial(pairs, UNIFORM, [80], 11, 0)
            SubgroupAutomaton.conjugate = lambda self, g: self
            [[skipped]] = mixing._witness_trial(pairs, UNIFORM, [80], 11, 0)
            [result] = mixing.joint_mixing([(sub("a"), sub("b"), F2.ball(2))], UNIFORM, [80], 1, 11)
            print(kept.success, skipped.trace_h, skipped.success, result.joint.successes)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False", "False", "0"]


def mixing_estimates(h, k, window, measure, n_list, trials, seed, threads=1):
    """The mixing estimate at each n: joint_mixing's marginal of one pair."""
    return [r.marginals[0] for r in joint_mixing([(h, k, window)], measure, n_list, trials, seed, threads)]


class TestEstimateMixing:
    # Mixing is joint_mixing's one-pair case.

    def test_rejects_impermissible(self):
        bad = StepMeasure.uniform_on(2, [(1,), (-1,)])
        with pytest.raises(MixingSetupError) as info:
            mixing_estimates(sub("a"), sub("b"), F2.ball(1), bad, [10], 5, 1)
        assert info.value.argument == "measure"

    def test_rejects_finite_index(self):
        with pytest.raises(MixingSetupError) as info:
            mixing_estimates(sub("a", "b"), sub("b"), F2.ball(1), UNIFORM, [10], 5, 1)
        assert info.value.argument == "h"

    def test_n0_deterministic(self):
        [est] = mixing_estimates(sub("a"), sub("b"), F2.ball(1), UNIFORM, [0], 20, 3)
        assert est.p_hat == 0.0  # w = 1 puts a into L

    def test_single_trial_reproducible(self):
        a = mixing_estimates(sub("a"), sub("b"), F2.ball(2), UNIFORM, [40], 1, 5)
        b = mixing_estimates(sub("a"), sub("b"), F2.ball(2), UNIFORM, [40], 1, 5)
        assert a == b

    def test_thread_invariance(self):
        a = mixing_estimates(sub("a"), sub("b"), F2.ball(2), UNIFORM, [10, 30], 40, 7, threads=1)
        b = mixing_estimates(sub("a"), sub("b"), F2.ball(2), UNIFORM, [10, 30], 40, 7, threads=4)
        assert a == b

    def test_high_rate_at_moderate_n(self):
        [est] = mixing_estimates(sub("a"), sub("b"), F2.ball(2), UNIFORM, [80], 100, 11)
        assert est.p_hat > 0.8

    def test_monotone_trend(self):
        rates = [e.p_hat for e in mixing_estimates(sub("a"), sub("b"), F2.ball(2), UNIFORM, [10, 40, 160], 120, 13)]
        sigma = 2 * math.sqrt(0.25 / 120)
        assert rates[1] >= rates[0] - sigma
        assert rates[2] >= rates[1] - sigma


class TestJointMixing:
    def test_single_pair_matches_estimate(self):
        # With one pair the joint count is the pair's own: the joint
        # estimate equals the marginal field for field, at every n.
        pair = (sub("a"), sub("b"), frozenset(F2.ball(1)))
        results = joint_mixing([pair], UNIFORM, [0, 30], 50, 17)
        assert [r.joint.n for r in results] == [0, 30]
        for r in results:
            assert r.marginals == (r.joint,)

    def test_schedule_matches_single_n_calls(self):
        # A schedule is the single-n calls in order, field for field, with
        # repeated and unsorted lengths kept: a trial walks once to the
        # longest n, and each shorter endpoint is a prefix of the same
        # substream's draws.
        pairs = [
            (sub("a"), sub("b"), frozenset(F2.ball(1))),
            (sub("ab"), sub("ba"), frozenset(F2.ball(1))),
        ]
        for schedule in ([10, 40, 10], [40, 0, 10, 40]):
            together = joint_mixing(pairs, UNIFORM, schedule, 30, 23)
            assert together == [joint_mixing(pairs, UNIFORM, [n], 30, 23)[0] for n in schedule]

    def test_one_map_trials_call_per_schedule(self, monkeypatch):
        calls = []
        map_trials = rng.map_trials
        monkeypatch.setattr(rng, "map_trials", lambda *a: calls.append(1) or map_trials(*a))
        pair = (sub("a"), sub("b"), F2.ball(1))
        for schedule in ([10], [10, 20, 40, 80, 160], [40, 0, 10, 40]):
            calls.clear()
            joint_mixing([pair], UNIFORM, schedule, 4, 1)
            assert len(calls) == 1

    def test_empty_schedule_draws_nothing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(rng, "trial_stream", lambda *path: drawn.append(path))
        monkeypatch.setattr(rng, "map_trials", lambda *a: drawn.append(a))
        assert joint_mixing([(sub("a"), sub("b"), F2.ball(1))], UNIFORM, [], 5, 1) == []
        assert drawn == []

    def test_negative_length_named(self):
        with pytest.raises(MixingSetupError) as info:
            joint_mixing([(sub("a"), sub("b"), F2.ball(1))], UNIFORM, [10, -3], 5, 1)
        assert info.value.argument == "n_list"

    def test_setup_checked_once_per_call(self, monkeypatch):
        # One permissibility fold and one read of each marker trace for the
        # whole schedule.
        validated, traced = [], []
        require, trace = StepMeasure.require_permissible, SubgroupAutomaton.trace
        monkeypatch.setattr(StepMeasure, "require_permissible", lambda self: validated.append(1) or require(self))
        monkeypatch.setattr(SubgroupAutomaton, "trace", lambda self, w: traced.append(self) or trace(self, w))
        h, k = sub("a"), sub("b")
        joint_mixing([(h, k, F2.ball(1))], UNIFORM, [10, 20, 40, 80, 160], 3, 1)
        assert validated == [1]
        assert sum(t is h for t in traced) == sum(t is k for t in traced) == 1

    def test_union_bound(self):
        pairs = [
            (sub("a"), sub("b"), frozenset(F2.ball(1))),
            (sub("ab"), sub("ba"), frozenset(F2.ball(1))),
        ]
        [res] = joint_mixing(pairs, UNIFORM, [60], 120, 19)
        slack = sum(1 - m.p_hat for m in res.marginals)
        sigma = math.sqrt(max(res.joint.p_hat * (1 - res.joint.p_hat), 1e-9) / res.joint.trials)
        assert res.joint.p_hat >= 1 - slack - 3 * sigma

    def test_finite_index_pair_rejected(self):
        pairs = [(sub("aa", "ab", "bb"), sub("b"), frozenset(F2.ball(1)))]
        with pytest.raises(MixingSetupError):
            joint_mixing(pairs, UNIFORM, [10], 5, 1)

    def test_zero_trials_named(self):
        with pytest.raises(MixingSetupError) as info:
            joint_mixing([(sub("a"), sub("b"), F2.ball(1))], UNIFORM, [10], 0, 1)
        assert info.value.argument == "trials"

    @pytest.mark.parametrize(
        "measure, h_rank, k_rank, named",
        [(UNIFORM_F3, 2, 2, "h"), (UNIFORM, 3, 2, "h"), (UNIFORM, 2, 3, "k")],
        ids=["measure", "h", "k"],
    )
    def test_rank_mismatch_named_before_any_trial(self, monkeypatch, measure, h_rank, k_rank, named):
        # A marker whose rank is not the measure's is refused, by name,
        # before any trial: a trial would fail inside the fold builder.
        drawn = []
        monkeypatch.setattr(rng, "map_trials", lambda *a: drawn.append(a))
        h = SubgroupAutomaton.from_generators(h_rank, [A])
        k = SubgroupAutomaton.from_generators(k_rank, [B])
        with pytest.raises(MixingSetupError) as info:
            joint_mixing([(h, k, F2.ball(1))], measure, [10], 5, 1)
        assert info.value.argument == named
        assert drawn == []


class TestFreeProduct:
    def test_trivial_h_counts_nontrivial_walks(self):
        est = free_product_experiment(sub(), UNIFORM, 40, 60, 23)
        # success iff w != 1; at n = 40 that is nearly certain
        assert est.p_hat > 0.9

    def test_n0_all_fail(self):
        est = free_product_experiment(sub("a"), UNIFORM, 0, 10, 23)
        assert est.p_hat == 0.0

    def test_negative_length_named(self):
        with pytest.raises(MixingSetupError) as info:
            free_product_experiment(sub("a"), UNIFORM, -3, 10, 23)
        assert info.value.argument == "n"

    def test_zero_trials_named(self):
        with pytest.raises(MixingSetupError) as info:
            free_product_experiment(sub("a"), UNIFORM, 10, 0, 23)
        assert info.value.argument == "trials"

    def test_rank_mismatch_named(self):
        with pytest.raises(MixingSetupError) as info:
            free_product_experiment(SubgroupAutomaton.from_generators(3, [A]), UNIFORM, 10, 5, 23)
        assert info.value.argument == "h"

    def test_moderate_n_high_rate(self):
        est = free_product_experiment(sub("a"), UNIFORM, 60, 80, 29)
        assert est.p_hat > 0.85
