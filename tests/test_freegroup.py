from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypmix import rng
from hypmix.freegroup import (
    FreeContext,
    WordError,
    broken_geodesic_check,
    cyclic_reduce,
    distance,
    geodesic_vertices,
    gromov_product,
    invert,
    multiply,
    power,
    reduce_word,
    shortlex_key,
)

from conftest import F2, words, nontrivial_words
from reference import distance_to_geodesic

A, Ai, B, Bi = (1,), (-1,), (2,), (-2,)


def w(text):
    return F2.parse(text)


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([1, -1]) == ()

    def test_inner_cancellation(self):
        assert reduce_word([1, 2, -2, 1]) == (1, 1)

    def test_already_reduced(self):
        assert reduce_word([-2, 1, 2]) == (-2, 1, 2)

    def test_bad_letter(self):
        with pytest.raises(WordError):
            reduce_word([3], rank=2)
        with pytest.raises(WordError):
            reduce_word([0])

    @given(words())
    def test_idempotent(self, word):
        assert reduce_word(word) == word


class TestGroupOps:
    def test_multiply(self):
        assert multiply(w("ab"), w("Ba")) == (1, 1)

    def test_invert(self):
        assert invert(w("ab")) == w("BA")

    def test_distance(self):
        assert distance(A, B) == 2

    @given(words(), words(), words())
    def test_associative(self, u, v, t):
        assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))

    @given(words())
    def test_inverse_law(self, u):
        assert multiply(u, invert(u)) == ()

    @given(words(), words(), words())
    def test_triangle_inequality(self, u, v, t):
        assert distance(u, t) <= distance(u, v) + distance(v, t)

    @given(words(), words(), words())
    def test_isometric_action(self, g, u, v):
        assert distance(multiply(g, u), multiply(g, v)) == distance(u, v)

    def test_exact_random_checks(self):
        # 1000 random triples, explicit seeded loop.
        gen = rng.substream(7)
        for _ in range(1000):
            u = F2.random_word(gen, int(gen.integers(0, 9)))
            v = F2.random_word(gen, int(gen.integers(0, 9)))
            t = F2.random_word(gen, int(gen.integers(0, 9)))
            assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))
            assert reduce_word(u) == u


class TestPower:
    @given(st.one_of(words(2, 10), words(3, 10)))
    def test_matches_repeated_multiply(self, f):
        # Cyclically reduced or not: the strategy draws both kinds.
        for m in range(-12, 13):
            step = f if m >= 0 else invert(f)
            expected = ()
            for _ in range(abs(m)):
                expected = multiply(expected, step)
            assert power(f, m) == expected


class TestCyclicReduce:
    def test_conjugated_letter(self):
        core, conj = cyclic_reduce(w("Bab"))
        assert core == A and conj == Bi

    def test_already_cyclic(self):
        assert cyclic_reduce(w("ab")) == (w("ab"), ())

    @given(nontrivial_words())
    def test_reassembles(self, word):
        core, conj = cyclic_reduce(word)
        assert multiply(multiply(conj, core), invert(conj)) == word
        assert len(core) < 2 or core[0] != -core[-1]

    @given(nontrivial_words(max_len=6))
    def test_minimal_in_conjugacy_class(self, word):
        core, _ = cyclic_reduce(word)
        # Brute force over conjugators up to the word's own length.
        best = min(
            len(multiply(multiply(invert(g), word), g))
            for g in F2.ball(len(word))
        )
        assert len(core) == best


class TestGromovProduct:
    def test_diverging_at_depth_one(self):
        assert gromov_product(w("ab"), w("aB")) == 1

    def test_self_product(self):
        assert gromov_product(w("ab"), w("ab")) == 2

    def test_through_basepoint(self):
        assert gromov_product(A, Ai) == 0

    def test_half_integer(self):
        value = gromov_product(w("a"), w("ab"))
        assert isinstance(value, Fraction)
        assert value == 1

    @given(words(max_len=5), words(max_len=5), words(max_len=5))
    def test_equals_distance_to_geodesic(self, x, y, s):
        assert gromov_product(x, y, s) == distance_to_geodesic(s, x, y)


class TestBrokenGeodesic:
    def test_straight_chain(self):
        pts = [(), w("aa"), w("aabb")]
        assert broken_geodesic_check(pts, 0, 1) == (True, True)

    def test_backtrack_fails_hypothesis(self):
        pts = [(), A, ()]
        hyp, _ = broken_geodesic_check(pts, 0, 1)
        assert not hyp

    def test_two_points(self):
        assert broken_geodesic_check([(), w("a")], 0, 1) == (True, True)

    def test_constant_constraints(self):
        with pytest.raises(WordError):
            broken_geodesic_check([(), A, w("ab")], -1, 1)
        with pytest.raises(WordError):
            broken_geodesic_check([(), A, w("ab")], 1, 12)
        with pytest.raises(WordError):
            broken_geodesic_check([()], 0, 1)


class TestContext:
    def test_parse_format_roundtrip(self):
        for text in ["1", "a", "Ab", "abAB"]:
            assert F2.format(F2.parse(text)) == text

    def test_parse_reduces(self):
        assert F2.parse("aA") == ()

    def test_rejects_out_of_rank(self):
        with pytest.raises(WordError):
            F2.parse("c")

    def test_rejects_rank_one(self):
        with pytest.raises(WordError):
            FreeContext(1)

    def test_ball_sizes(self):
        assert len(F2.ball(0)) == 1
        assert len(F2.ball(1)) == 5
        assert len(F2.ball(2)) == 17
        assert len(F2.ball(4)) == 161
        for ctx in (F2, FreeContext(3), FreeContext(4)):
            assert [ctx.ball_size(r) for r in range(5)] == [len(ctx.ball(r)) for r in range(5)]

    def test_ball_is_shortlex_sorted(self):
        for ball in (F2.ball(3), FreeContext(3).ball(4)):
            assert ball == sorted(ball, key=shortlex_key)
            assert len(set(ball)) == len(ball)

    def test_geodesic_vertices_endpoints(self):
        verts = geodesic_vertices(w("ab"), w("aB"))
        assert verts[0] == w("ab") and verts[-1] == w("aB")
        assert len(verts) == distance(w("ab"), w("aB")) + 1
