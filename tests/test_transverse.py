import subprocess
import sys
import textwrap

import pytest

from hypmix import rng
from hypmix.freegroup import invert, multiply, power
from hypmix.stallings import SubgroupAutomaton
from hypmix.transverse import (
    CertificateError,
    TransversalityCertificate,
    TransversalityError,
    certificate,
    compute_u0,
    construct_transverse,
    overlap_bound,
    power_conjugate_into,
)

from conftest import F2, src_env
from reference import minimal_power_in, overlap_count

A, B = (1,), (2,)


def sub(*texts):
    return SubgroupAutomaton.from_generators(2, [F2.parse(t) for t in texts])


def brute_power_conjugate(h, f, m_cap, v_ball):
    """Exhaustive search for f^m in v H v^-1 over m <= m_cap, v in the ball."""
    for m in range(1, m_cap + 1):
        fm = power(f, m)
        for v in v_ball:
            if h.contains(multiply(multiply(invert(v), fm), v)):
                return m, v
    return None


class TestPowerConjugateInto:
    def test_generator_itself(self):
        assert power_conjugate_into(sub("a"), A) == (1, ())

    def test_none_for_b(self):
        assert power_conjugate_into(sub("a"), B) is None

    def test_squares(self):
        m, v = power_conjugate_into(sub("aa", "bb"), A)
        assert m == 2
        assert sub("aa", "bb").contains(multiply(multiply(invert(v), power(A, m)), v))

    def test_explicit_conjugate(self):
        got = power_conjugate_into(sub("a"), F2.parse("baB"))
        assert got == (1, B)

    def test_identity_rejected(self):
        with pytest.raises(TransversalityError):
            power_conjugate_into(sub("a"), ())

    def test_soundness_random(self):
        gen = rng.substream(51)
        for _ in range(150):
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            f = F2.random_word(gen, int(gen.integers(1, 5)))
            got = power_conjugate_into(h, f)
            if got is not None:
                m, v = got
                assert h.contains(multiply(multiply(invert(v), power(f, m)), v))

    def test_completeness_sample_vs_brute(self):
        # The acceptance suite runs the full <=4-state enumeration; here a
        # random sample with the same brute-force contract.
        gen = rng.substream(53)
        ball4 = F2.ball(4)
        for _ in range(25):
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            f = F2.random_word(gen, int(gen.integers(1, 5)))
            ours = power_conjugate_into(h, f)
            brute = brute_power_conjugate(h, f, 8, ball4)
            if ours is None:
                assert brute is None
            else:
                assert brute is not None
                assert brute[0] == ours[0]  # minimal power agrees

    def test_builder_form_matches_text_form(self):
        # Loop states are numbered as in the canonical form, not by the
        # builder's rows. The elements are the scan elements of the
        # transverse benchmark workload at its default seed.
        gen = rng.substream(20260808, 1)
        elements = [F2.random_word(gen, 1 + i % 12) for i in range(24)]
        gen = rng.substream(57)
        for _ in range(30):
            h, k = (
                SubgroupAutomaton.from_generators(2, [F2.random_word(gen, int(gen.integers(1, 6))) for _ in range(2)])
                for _ in range(2)
            )
            built = h.conjugate_join(F2.random_word(gen, int(gen.integers(0, 5))), k)
            assert built._rows[0] is None and built._base != 0
            found = [power_conjugate_into(built, f) for f in elements]
            assert any(found)
            text_form = SubgroupAutomaton.from_text(built.to_text(), 2)
            assert found == [power_conjugate_into(text_form, f) for f in elements]


class TestIsTransverse:
    def test_ab_vs_a(self):
        assert power_conjugate_into(sub("a"), F2.parse("ab")) is None

    def test_conjugate_not_transverse(self):
        assert power_conjugate_into(sub("a"), F2.parse("baB")) is not None

    def test_self_not_transverse(self):
        assert power_conjugate_into(sub("ab"), F2.parse("ab")) is not None

    def test_certificate_shape(self):
        cert = certificate(sub("a"), F2.parse("ab"))
        assert cert.transverse and cert.power is None
        cert = certificate(sub("a"), F2.parse("baB"))
        assert not cert.transverse and cert.power == 1 and cert.conjugator == B


class TestCertification:
    def test_inconsistent_certificate_rejected(self):
        with pytest.raises(CertificateError):
            TransversalityCertificate(True, 1, None, 1)
        with pytest.raises(CertificateError):
            TransversalityCertificate(False, None, (), 1)
        with pytest.raises(CertificateError):
            TransversalityCertificate(False, 1, None, 1)

    def test_failing_witness_raises(self, monkeypatch):
        monkeypatch.setattr(SubgroupAutomaton, "contains", lambda self, word: False)
        with pytest.raises(CertificateError):
            certificate(sub("a"), F2.parse("baB"))

    def test_checks_run_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import sys
            from hypmix import transverse
            from hypmix.freegroup import FreeContext
            from hypmix.stallings import SubgroupAutomaton

            if __debug__:
                sys.exit("not running under -O")
            F2 = FreeContext(2)
            h = SubgroupAutomaton.from_generators(2, [F2.parse("a")])
            try:
                transverse.TransversalityCertificate(True, 1, None, 1)
                sys.exit("inconsistent certificate accepted")
            except transverse.CertificateError:
                pass
            SubgroupAutomaton.contains = lambda self, word: False
            try:
                transverse.certificate(h, F2.parse("baB"))
            except transverse.CertificateError:
                sys.exit(0)
            sys.exit("no CertificateError raised")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestOverlap:
    def test_b_powers_near_a(self):
        assert overlap_count(sub("a"), B, (), 2, range(-10, 11)) == 5

    def test_saturation(self):
        assert overlap_count(sub("a"), A, (), 0, range(-10, 11)) == 21

    def test_transverse_only_origin(self):
        assert overlap_count(sub("a"), F2.parse("ab"), (), 0, range(-10, 11)) == 1

    def test_bound_report(self):
        per = overlap_bound(sub("a"), F2.parse("ab"), 1, 2, range(-20, 21))
        assert max(per.values()) >= 1
        assert per[()] == overlap_count(
            sub("a"), F2.parse("ab"), (), 1, range(-20, 21)
        )

    def test_transverse_counts_stable_under_widening(self):
        h = sub("a")
        f = F2.parse("ab")
        narrow = overlap_bound(h, f, 3, 2, range(-50, 51))
        wide = overlap_bound(h, f, 3, 2, range(-100, 101))
        assert narrow == wide

    def test_non_transverse_counts_grow_linearly(self):
        h = sub("a")
        f = F2.parse("baB")  # f^m in b H b^-1 for every m
        # Every power stays within |v| = 1 of the coset orbit b*<a>.
        narrow = overlap_count(h, f, B, 1, range(-25, 26))
        wide = overlap_count(h, f, B, 1, range(-50, 51))
        assert narrow == 51 and wide == 101


class TestForbiddenSet:
    def test_cyclic_self(self):
        assert compute_u0(sub("a"), A) == ((),)

    def test_disjoint(self):
        assert compute_u0(sub("a"), B) == ()

    def test_squares(self):
        assert set(compute_u0(sub("aa", "bb"), A)) == {(), A}

    def test_covering_property_exhaustive(self):
        # u^-1 H u meets <g> nontrivially => u in H * U0, checked over a ball.
        gen = rng.substream(59)
        ball = F2.ball(4)
        for _ in range(20):
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            g = F2.random_word(gen, int(gen.integers(1, 4)))
            reps = compute_u0(h, g)
            for u in ball:
                meets = minimal_power_in(h.conjugate(invert(u)), g) is not None
                if meets:
                    assert any(
                        h.contains(multiply(u, invert(r))) for r in reps
                    ), (u, reps)

    def test_identity_rejected(self):
        with pytest.raises(TransversalityError):
            compute_u0(sub("a"), ())


class TestConstructTransverse:
    def test_single_target_g_a(self):
        got = construct_transverse([sub("a")], A)
        assert got.avoided == B
        assert got.element == multiply(power(A, got.exponent), B)
        assert all(c.transverse for c in got.certificates)

    def test_two_targets(self):
        got = construct_transverse([sub("a"), sub("b")], F2.parse("ab"))
        assert all(c.transverse for c in got.certificates)
        for t in [sub("a"), sub("b")]:
            assert power_conjugate_into(t, got.element) is None

    def test_finite_index_target_rejected(self):
        with pytest.raises(TransversalityError):
            construct_transverse([sub("aa", "ab", "bb")], A)

    def test_identity_rejected(self):
        with pytest.raises(TransversalityError):
            construct_transverse([sub("a")], ())

    def test_random_targets(self):
        gen = rng.substream(61)
        built = 0
        while built < 10:
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            g = F2.random_word(gen, int(gen.integers(1, 4)))
            if h.index() != float("inf"):
                continue
            built += 1
            got = construct_transverse([h], g)
            assert power_conjugate_into(h, got.element) is None
