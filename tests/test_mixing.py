import math
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypmix import mixing, rng, selftest, stallings
from hypmix.freegroup import FreeContext, invert, multiply, reduce_word
from hypmix.mixing import (
    MixingSetupError,
    WitnessPair,
    check_witness,
    free_product_experiment,
    joint_mixing,
    witness_subgroup,
)
from hypmix.selftest import UNIFORM_F2 as UNIFORM, UNIFORM_F3
from hypmix.stallings import SubgroupAutomaton
from hypmix.walks import StepMeasure

from conftest import A, B, F2, count_canonical_forms, live_states, nontrivial_words, run_optimized, sub, words
from reference import read, sample_walk

# The radius-2 window and a^5: at gap mu <= 2 the word a^5 is longer than
# 2 mu, so those endpoints take the read route.
LONG_WINDOW = frozenset(F2.ball(2)) | {(1,) * 5}


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
        # Trial 0 of seed 11 at n = 80 is separated on the radius-2 window:
        # its success builds no graph. Trial 1 at n = 10 on a window with
        # the word aaaaa (longer than 2 mu = 4) takes the read route and
        # passes every flag, and trial 1 at n = 2 fails: each of these folds
        # once to build L, and the conjugate w L w^-1 that flag (b) reads
        # shares L's rows, with no graph built for it.
        fold, conjugate = stallings._FoldGraph.fold, SubgroupAutomaton.conjugate
        init = stallings._FoldGraph.__init__
        for window, n, trial, success, expected_folds in (
            (F2.ball(2), 80, 0, True, 0),
            (LONG_WINDOW, 10, 1, True, 1),
            (F2.ball(2), 2, 1, False, 1),
        ):
            pairs = [WitnessPair.of(sub("a"), sub("b"), window)]
            folds, built, conjugates = [], [], []

            def observed(self, g):
                conjugates.append((self, conjugate(self, g)))
                return conjugates[-1][1]

            monkeypatch.setattr(stallings._FoldGraph, "fold", lambda self: folds.append(1) or fold(self))
            monkeypatch.setattr(stallings._FoldGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
            monkeypatch.setattr(SubgroupAutomaton, "conjugate", observed)
            [[outcome]] = mixing._witness_trial(pairs, UNIFORM, [n], 11, trial)
            assert outcome.success is success
            assert len(folds) == len(built) == expected_folds
            if expected_folds:
                [(l_sub, flag_b)] = conjugates
                assert flag_b._rows is l_sub._rows
            else:
                assert conjugates == []

    def test_criterion_8_folds_once_per_read_route_endpoint(self, monkeypatch):
        # Criterion 8's instance at 100 trials: 17 endpoints take the read
        # route. Each builds one graph, for L, and conjugate builds none:
        # every flag-(b) conjugate w L w^-1 shares L's rows.
        pairs = [WitnessPair.of(*selftest._standard_instance())]
        built, read_route, conjugates = [], [], []
        init, witness, conjugate = stallings._FoldGraph.__init__, mixing.witness_subgroup, SubgroupAutomaton.conjugate

        def observed(self, g):
            before = len(built)
            result = conjugate(self, g)
            conjugates.append((self, result, len(built) - before))
            return result

        monkeypatch.setattr(stallings._FoldGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        monkeypatch.setattr(mixing, "witness_subgroup", lambda *a: read_route.append(a) or witness(*a))
        monkeypatch.setattr(SubgroupAutomaton, "conjugate", observed)
        schedule, seed = selftest.GOLDEN_MIXING_SCHEDULE, selftest.MASTER_SEED
        for trial in range(100):
            mixing._witness_trial(pairs, selftest.UNIFORM_F2, schedule, seed, trial)
        assert len(built) == len(read_route) == len(conjugates) == 17
        assert all(flag_b._rows is l_sub._rows and graphs == 0 for l_sub, flag_b, graphs in conjugates)

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
        assert read(core, 0, invert(w)) is None
        assert read(core, 0, invert(w)[:2]) is not None
        for form in (l_sub, core):
            got = form.conjugate(w).trace(window)
            assert got == _word_route(form, w, window) == h.trace(window)
            assert {F2.format(f) for f in got} == {"1", "abA", "aBA"}
            assert check_witness(form, WitnessPair.of(h, k, window), w).trace_h


class TestFlagB:
    def test_skipped_conjugate_fails_under_optimize_flag(self):
        # Trial 1 of seed 11 at n = 10 takes the read route on a window with
        # the word a^5 and passes every witness flag. If conjugate skips
        # the stem, w L w^-1 reads as L, whose trace is K's, not H's: flag
        # (b) fails, also under python -O, and the trial is not counted.
        # Trial 0 is separated, so the rule counts it either way.
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
            window = frozenset(F2.ball(2)) | {(1,) * 5}
            pairs = [mixing.WitnessPair.of(sub("a"), sub("b"), window)]
            [[kept]] = mixing._witness_trial(pairs, UNIFORM, [10], 11, 1)
            [before] = mixing.joint_mixing([(sub("a"), sub("b"), window)], UNIFORM, [10], 2, 11)
            SubgroupAutomaton.conjugate = lambda self, g: self
            [[skipped]] = mixing._witness_trial(pairs, UNIFORM, [10], 11, 1)
            [result] = mixing.joint_mixing([(sub("a"), sub("b"), window)], UNIFORM, [10], 2, 11)
            print(kept.success, before.joint.successes, skipped.trace_h, skipped.success, result.joint.successes)
            """
        )
        assert run_optimized(script).split() == ["True", "2", "False", "False", "1"]


class Fixed:
    """A measure stand-in whose walk ends at the given endpoints."""

    def __init__(self, *ends):
        self.ends = list(ends)

    def trial_positions(self, ns, seed, trial):
        return self.ends


def _route(monkeypatch, pair, w):
    """(outcome of the endpoint w under the rule, the number of L folded)."""
    built = []
    witness = mixing.witness_subgroup
    monkeypatch.setattr(mixing, "witness_subgroup", lambda *a: built.append(1) or witness(*a))
    [[outcome]] = mixing._witness_trial([pair], Fixed(w), [len(w)], 0, 0)
    monkeypatch.setattr(mixing, "witness_subgroup", witness)
    return outcome, len(built)


def _read_route(pair, w):
    return check_witness(witness_subgroup(pair.h, pair.k, w), pair, w)


@st.composite
def separation_cases(draw):
    """stem_cases with a window of the ball and a few longer words, so that
    some endpoints at gap mu >= 2 have a window word longer than 2 mu."""
    rank, h_gens, k_gens, w, radius = draw(stem_cases())
    window = set(FreeContext(rank).ball(radius)) | set(draw(st.lists(words(rank, 9), max_size=3)))
    return rank, h_gens, k_gens, w, window


class TestSeparationRule:
    # An endpoint at gap mu >= 2 with no window word longer than 2 mu passes
    # every flag without L being built; any other endpoint folds L once.

    @given(separation_cases())
    def test_never_decides_an_endpoint_the_read_route_fails(self, case):
        rank, h_gens, k_gens, w, window = case
        h = SubgroupAutomaton.from_generators(rank, h_gens)
        k = SubgroupAutomaton.from_generators(rank, k_gens)
        pair = WitnessPair.of(h, k, window)
        gap = h.join_gap(w, k)
        full = _read_route(pair, w)
        [[outcome]] = mixing._witness_trial([pair], Fixed(w), [len(w)], 0, 0)
        if gap >= 2 and 2 * gap >= pair.longest:
            assert full.success and outcome.success
        else:
            assert outcome == full
        if gap >= 1:
            # No state merges: L is K's and H's rows and a path of mu edges.
            assert live_states(witness_subgroup(h, k, w)) == live_states(h) + live_states(k) + gap - 1

    def test_gap_0_takes_the_read_route(self, monkeypatch):
        # w = 1: K's base and H's base merge, and a lies in L.
        pair = WitnessPair.of(sub("a"), sub("b"), F2.ball(2))
        assert pair.h.join_gap((), pair.k) == 0
        outcome, folds = _route(monkeypatch, pair, ())
        assert folds == 1 and outcome == _read_route(pair, ()) and not outcome.trace_k

    def test_gap_1_takes_the_read_route(self, monkeypatch):
        # H = K = <a> and w = B: w^-1 = b reads from neither base, so the
        # path is one edge. Every flag holds, but the rule asks mu >= 2.
        pair = WitnessPair.of(sub("a"), sub("a"), F2.ball(2))
        w = F2.parse("B")
        assert pair.h.join_gap(w, pair.k) == 1
        outcome, folds = _route(monkeypatch, pair, w)
        assert folds == 1 and outcome == _read_route(pair, w)

    def test_gap_2_decides_up_to_length_4(self, monkeypatch):
        # H = <a>, K = <b>, w = BA: w^-1 = ab reads from neither base, so
        # mu = 2. The shortest loop at K's base through the path is
        # ab a BA, 2 mu + 1 letters, so a window of words up to 4 letters is
        # decided and one with abaBA is not: there flag (a) fails.
        h, k, w = sub("a"), sub("b"), F2.parse("BA")
        assert h.join_gap(w, k) == 2
        for window, folds in ((F2.ball(2), 0), ({F2.parse("abaB")}, 0), ({F2.parse("abaBA")}, 1)):
            pair = WitnessPair.of(h, k, window)
            outcome, built = _route(monkeypatch, pair, w)
            assert built == folds
            assert outcome.success is (folds == 0) is _read_route(pair, w).success
        assert not _read_route(WitnessPair.of(h, k, {F2.parse("abaBA")}), w).trace_k

    def test_decided_endpoints_are_criterion_8s_successes(self, monkeypatch):
        # On criterion 8's instance every success is separated and every
        # failure takes the read route, so the rule decides 422/488/500/
        # 500/500 of the 500 endpoints at each n: the gain of skipping the
        # fold cannot vanish without this count moving.
        read = []
        witness = mixing.witness_subgroup
        monkeypatch.setattr(mixing, "witness_subgroup", lambda *a: read.append(1) or witness(*a))
        pairs = [WitnessPair.of(*selftest._standard_instance())]
        decided, successes = [], []
        for n in selftest.GOLDEN_MIXING_SCHEDULE:
            read.clear()
            outcomes = [
                mixing._witness_trial(pairs, selftest.UNIFORM_F2, [n], selftest.MASTER_SEED, t)[0][0]
                for t in range(500)
            ]
            decided.append(500 - len(read))
            successes.append(sum(o.success for o in outcomes))
        assert tuple(decided) == tuple(successes) == selftest.GOLDEN_MIXING_SUCCESSES

    def test_rule_runs_under_optimize_flag(self):
        # With the gap forced to 0 every endpoint takes the read route, and
        # every count is the same: the rule's comparisons are explicit, so
        # they run under python -O too.
        script = textwrap.dedent(
            """
            import sys
            from hypmix import mixing, selftest
            from hypmix.freegroup import FreeContext
            from hypmix.stallings import SubgroupAutomaton

            if __debug__:
                sys.exit("not running under -O")
            F2 = FreeContext(2)
            sub = lambda t: SubgroupAutomaton.from_generators(2, [F2.parse(t)])
            pairs = [
                (sub("a"), sub("b"), F2.ball(2)),
                (sub("ab"), sub("ba"), F2.ball(1)),
                (sub("a"), sub("b"), frozenset(F2.ball(2)) | {(1,) * 5}),
            ]
            folds = []
            witness = mixing.witness_subgroup
            mixing.witness_subgroup = lambda *a: folds.append(1) or witness(*a)
            def counts():
                folds.clear()
                results = mixing.joint_mixing(pairs, selftest.UNIFORM_F2, [0, 10, 20, 40], 100, 5)
                return len(folds), [[r.joint.successes, *(m.successes for m in r.marginals)] for r in results]
            ruled_folds, ruled = counts()
            SubgroupAutomaton.join_gap = lambda self, w, other: 0
            read_folds, read = counts()
            print(ruled == read, ruled_folds, read_folds)
            """
        )
        same, ruled_folds, read_folds = run_optimized(script).split()
        assert same == "True"
        assert int(ruled_folds) < int(read_folds) == 3 * 4 * 100


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
        # One permissibility fold, and one read of each marker trace and
        # rank, for the whole schedule. n = 0 and 10 put endpoints on the
        # read route, which compares L's rank with the pair's rank sum.
        validated, traced, ranked = [], [], []
        require, trace = StepMeasure.require_permissible, SubgroupAutomaton.trace
        rank_of = SubgroupAutomaton.rank_of_subgroup
        monkeypatch.setattr(StepMeasure, "require_permissible", lambda self: validated.append(1) or require(self))
        monkeypatch.setattr(SubgroupAutomaton, "trace", lambda self, w: traced.append(self) or trace(self, w))
        monkeypatch.setattr(SubgroupAutomaton, "rank_of_subgroup", lambda self: ranked.append(self) or rank_of(self))
        h, k = sub("a"), sub("b")
        joint_mixing([(h, k, F2.ball(1))], UNIFORM, [0, 10, 20, 40, 80, 160], 3, 1)
        assert validated == [1]
        assert sum(t is h for t in traced) == sum(t is k for t in traced) == 1
        assert sum(r is h for r in ranked) == sum(r is k for r in ranked) == 1
        assert len(ranked) > 2

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
        "word", [(1, -1), (7,), (0,), (-3,)], ids=["unreduced", "letter_above_rank", "letter_0", "inverse_above_rank"]
    )
    def test_bad_window_word_named_before_any_trial(self, monkeypatch, word):
        # A window word must be a reduced word of the measure's rank: (1, -1)
        # is the identity, which both markers contain, and letters 7, 0 and
        # -3 name no generator of F2.
        drawn = []
        monkeypatch.setattr(rng, "map_trials", lambda *a: drawn.append(a))
        window = [(1,), word, (2, 1)]
        for n_list in ([40], []):
            with pytest.raises(MixingSetupError) as info:
                joint_mixing([(sub("a"), sub("b"), window)], UNIFORM, n_list, 20, 1)
            assert info.value.argument == "pairs"
            assert repr(word) in str(info.value)
        assert drawn == []

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
