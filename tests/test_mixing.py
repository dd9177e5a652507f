import math
import os
import subprocess
import sys
import textwrap

import pytest

import hypmix
from hypmix import mixing, rng
from hypmix.freegroup import invert, multiply
from hypmix.mixing import (
    BasicOpenSet,
    MixingSetupError,
    WitnessCertificationError,
    check_witness,
    estimate_mixing,
    free_product_experiment,
    joint_mixing,
    quasigeodesic_constant_stat,
    random_subgroup,
    shortest_witness_word_length,
    witness_subgroup,
)
from hypmix.stallings import SubgroupAutomaton
from hypmix.walks import StepMeasure, sample_walk

from conftest import F2

UNIFORM = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)])
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


class TestCheckWitness:
    def test_w1_fails_trace_k(self):
        w = ()
        l_sub = witness_subgroup(sub("a"), sub("b"), w)
        out = check_witness(l_sub, sub("a"), sub("b"), F2.ball(1), w)
        assert not out.trace_k
        assert not out.infinite_index

    def test_trivial_markers(self):
        w = F2.parse("ab")
        l_sub = witness_subgroup(sub(), sub(), w)
        out = check_witness(l_sub, sub(), sub(), F2.ball(1), w)
        assert out.success  # 0 = 0 + 0 rank, trivial traces agree

    def test_generic_long_word(self):
        w = sample_walk(UNIFORM, 60, 71).final
        l_sub = witness_subgroup(sub("a"), sub("b"), w)
        out = check_witness(l_sub, sub("a"), sub("b"), F2.ball(2), w)
        assert out.success
        # Independent flag checks by raw membership.
        for f in F2.ball(2):
            assert l_sub.contains(f) == sub("b").contains(f)
            assert l_sub.conjugate(w).contains(f) == sub("a").contains(f)


class TestBasicOpenSet:
    def test_marker_in_own_set(self):
        s = BasicOpenSet.around(sub("a"), F2.ball(2))
        assert s.holds_for(sub("a"))

    def test_distinguishes(self):
        s = BasicOpenSet.around(sub("a"), F2.ball(2))
        assert not s.holds_for(sub("b"))


class TestWitnessCertification:
    # Trial 0 of seed 11 at n = 80 passes every witness flag, so the
    # open-set certification runs; patching it to fail must raise.

    def test_disagreement_raises(self, monkeypatch):
        pairs = [(sub("a"), sub("b"), frozenset(F2.ball(2)))]
        monkeypatch.setattr(BasicOpenSet, "holds_for", lambda self, subgroup: False)
        with pytest.raises(WitnessCertificationError):
            mixing._witness_trial(pairs, UNIFORM, 80, 11, 0)

    def test_disagreement_raises_under_optimize_flag(self):
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
            pairs = [(sub("a"), sub("b"), frozenset(F2.ball(2)))]
            mixing.BasicOpenSet.holds_for = lambda self, subgroup: False
            try:
                mixing._witness_trial(pairs, UNIFORM, 80, 11, 0)
            except mixing.WitnessCertificationError:
                sys.exit(0)
            sys.exit("no WitnessCertificationError raised")
            """
        )
        src = os.path.dirname(os.path.dirname(hypmix.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestEstimateMixing:
    def test_rejects_impermissible(self):
        bad = StepMeasure.uniform_on(2, [(1,), (-1,)])
        with pytest.raises(MixingSetupError):
            estimate_mixing(sub("a"), sub("b"), F2.ball(1), bad, 10, 5, 1)

    def test_rejects_finite_index(self):
        with pytest.raises(MixingSetupError):
            estimate_mixing(sub("a", "b"), sub("b"), F2.ball(1), UNIFORM, 10, 5, 1)

    def test_n0_deterministic(self):
        est = estimate_mixing(sub("a"), sub("b"), F2.ball(1), UNIFORM, 0, 20, 3)
        assert est.p_hat in (0.0, 1.0)
        assert est.p_hat == 0.0  # w = 1 puts a into L

    def test_single_trial_reproducible(self):
        a = estimate_mixing(sub("a"), sub("b"), F2.ball(2), UNIFORM, 40, 1, 5)
        b = estimate_mixing(sub("a"), sub("b"), F2.ball(2), UNIFORM, 40, 1, 5)
        assert a == b

    def test_thread_invariance(self):
        a = estimate_mixing(sub("a"), sub("b"), F2.ball(2), UNIFORM, 30, 40, 7, threads=1)
        b = estimate_mixing(sub("a"), sub("b"), F2.ball(2), UNIFORM, 30, 40, 7, threads=4)
        assert a == b

    def test_high_rate_at_moderate_n(self):
        est = estimate_mixing(sub("a"), sub("b"), F2.ball(2), UNIFORM, 80, 100, 11)
        assert est.p_hat > 0.8

    def test_monotone_trend(self):
        rates = []
        for n in (10, 40, 160):
            est = estimate_mixing(sub("a"), sub("b"), F2.ball(2), UNIFORM, n, 120, 13)
            rates.append(est.p_hat)
        sigma = 2 * math.sqrt(0.25 / 120)
        assert rates[1] >= rates[0] - sigma
        assert rates[2] >= rates[1] - sigma


class TestJointMixing:
    def test_single_pair_matches_estimate(self):
        pair = (sub("a"), sub("b"), frozenset(F2.ball(1)))
        joint = joint_mixing([pair], UNIFORM, 30, 50, 17)
        direct = estimate_mixing(sub("a"), sub("b"), F2.ball(1), UNIFORM, 30, 50, 17)
        assert joint.joint.successes == direct.successes
        assert joint.marginals[0].successes == direct.successes

    def test_union_bound(self):
        pairs = [
            (sub("a"), sub("b"), frozenset(F2.ball(1))),
            (sub("ab"), sub("ba"), frozenset(F2.ball(1))),
        ]
        res = joint_mixing(pairs, UNIFORM, 60, 120, 19)
        slack = sum(1 - m.p_hat for m in res.marginals)
        sigma = math.sqrt(max(res.joint.p_hat * (1 - res.joint.p_hat), 1e-9) / res.joint.trials)
        assert res.joint.p_hat >= 1 - slack - 3 * sigma

    def test_finite_index_pair_rejected(self):
        pairs = [(sub("aa", "ab", "bb"), sub("b"), frozenset(F2.ball(1)))]
        with pytest.raises(MixingSetupError):
            joint_mixing(pairs, UNIFORM, 10, 5, 1)


class TestFreeProduct:
    def test_trivial_h_counts_nontrivial_walks(self):
        est = free_product_experiment(sub(), UNIFORM, 40, 60, 23)
        # success iff w != 1; at n = 40 that is nearly certain
        assert est.p_hat > 0.9

    def test_n0_all_fail(self):
        est = free_product_experiment(sub("a"), UNIFORM, 0, 10, 23)
        assert est.p_hat == 0.0

    def test_moderate_n_high_rate(self):
        est = free_product_experiment(sub("a"), UNIFORM, 60, 80, 29)
        assert est.p_hat > 0.85


class TestRandomSubgroup:
    def test_k1_flag_iff_nontrivial(self):
        s, flag = random_subgroup([UNIFORM], 20, 31)
        assert flag == (s.rank_of_subgroup() == 1)

    def test_k2_rank2_typical(self):
        flags = []
        for t in range(500):
            _, flag = random_subgroup([UNIFORM, UNIFORM], 50, rng.substream_key(33, t) % 2**63)
            flags.append(flag)
        assert sum(flags) / len(flags) > 0.9

    def test_rank_deficit_detected(self):
        # Force both walks equal by using the same seed for both measures.
        s, flag = random_subgroup([UNIFORM], 1, 37)
        w = sample_walk(UNIFORM, 1, 37).final
        assert s.contains(w)


class TestTrendStatistics:
    def test_witness_length_grows(self):
        lengths = []
        for n in (10, 80):
            w = sample_walk(UNIFORM, n, 41).final
            lengths.append(
                shortest_witness_word_length(sub("a"), sub("b"), w, seed=43)
            )
        assert lengths[1] > lengths[0]

    def test_quasigeodesic_constant_sublinear(self):
        n = 160
        w = sample_walk(UNIFORM, n, 47).final
        c = quasigeodesic_constant_stat(sub("a"), sub("b"), w, seed=49)
        assert c / n <= 0.5
