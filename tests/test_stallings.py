import math

import pytest
from hypothesis import given, strategies as st

from hypmix import rng
from hypmix.freegroup import invert, multiply, power
from hypmix.stallings import AutomatonError, SubgroupAutomaton

from conftest import F2, F3, words

A, B = (1,), (2,)


def sub(*texts, rank=2):
    return SubgroupAutomaton.from_generators(rank, [F2.parse(t) for t in texts])


def closure_membership(generators, word_cap, prefix_cap, budget=300_000):
    """Ball-restricted closure of <generators>: the set of elements reachable
    by generator multiplications without ever leaving the prefix_cap ball.
    Independent of the folding machinery. Returns None when the enumeration
    exceeds the node budget (dense subgroups), so callers can skip."""
    gens = [tuple(g) for g in generators if g]
    steps = gens + [invert(g) for g in gens]
    seen = {()}
    frontier = [()]
    while frontier:
        cur = frontier.pop()
        for s in steps:
            nxt = multiply(cur, s)
            if len(nxt) <= prefix_cap and nxt not in seen:
                if len(seen) >= budget:
                    return None
                seen.add(nxt)
                frontier.append(nxt)
    return {w for w in seen if len(w) <= word_cap}


class TestFromGenerators:
    def test_single_loop(self):
        a = sub("a")
        assert a.n_states == 1
        assert a.n_edges() == 1

    def test_parity_kernel(self):
        h = sub("aa", "ab", "bb")
        assert h.n_states == 2

    def test_trivial(self):
        t = sub()
        assert t.n_states == 1
        assert t.n_edges() == 0

    def test_order_independent(self):
        assert sub("aa", "ab", "bb") == sub("bb", "aa", "ab")
        assert sub("a", "b") == sub("b", "a")

    def test_folding_confluence_random(self):
        gen = rng.substream(11)
        for _ in range(500):
            gens = [
                F2.random_word(gen, int(gen.integers(1, 6)))
                for _ in range(int(gen.integers(1, 4)))
            ]
            reference = SubgroupAutomaton.from_generators(2, gens)
            perm = list(gen.permutation(len(gens)))
            shuffled = [gens[i] for i in perm]
            assert SubgroupAutomaton.from_generators(2, shuffled) == reference

    def test_is_folded(self):
        gen = rng.substream(13)
        for _ in range(50):
            gens = [F2.random_word(gen, int(gen.integers(1, 7))) for _ in range(3)]
            assert SubgroupAutomaton.from_generators(2, gens).is_folded()


class TestMembership:
    def test_powers(self):
        assert sub("a").contains(F2.parse("aaa"))

    def test_not_member(self):
        assert not sub("a").contains(B)

    def test_parity_kernel_ba(self):
        assert sub("aa", "ab", "bb").contains(F2.parse("ba"))

    def test_identity_always_member(self):
        assert sub().contains(())

    def test_against_closure_enumeration(self):
        # 200 random subgroups, <= 3 generators of length <= 6, all words of
        # length <= 8 (the full acceptance criterion reruns this; keep a
        # smaller smoke version in the module suite). Draws whose closure
        # enumeration exceeds the budget (dense subgroups) are resampled.
        gen = rng.substream(17)
        ball = F2.ball(6)
        done = 0
        while done < 20:
            gens = [
                F2.random_word(gen, int(gen.integers(1, 7)))
                for _ in range(int(gen.integers(1, 4)))
            ]
            oracle = closure_membership(gens, 6, 6 + 2 * max(map(len, gens)), budget=50_000)
            if oracle is None:
                continue
            done += 1
            h = SubgroupAutomaton.from_generators(2, gens)
            for w in ball:
                assert h.contains(w) == (w in oracle)


class TestRankIndex:
    def test_cyclic(self):
        a = sub("a")
        assert a.rank_of_subgroup() == 1
        assert a.index() == math.inf

    def test_parity_kernel(self):
        h = sub("aa", "ab", "bb")
        assert h.rank_of_subgroup() == 3
        assert h.index() == 2

    def test_trivial(self):
        t = sub()
        assert t.rank_of_subgroup() == 0
        assert t.index() == math.inf

    def test_full_group(self):
        f = sub("a", "b")
        assert f.index() == 1
        assert f.rank_of_subgroup() == 2

    def test_nielsen_schreier_random_covers(self):
        # Complete automata = pairs of permutations acting transitively.
        gen = rng.substream(19)
        built = 0
        while built < 50:
            n = int(gen.integers(1, 6))
            pa = list(gen.permutation(n))
            pb = list(gen.permutation(n))
            adj = [dict() for _ in range(n)]
            for s in range(n):
                adj[s][1] = pa[s]
                adj[pa[s]][-1] = s
                adj[s][2] = pb[s]
                adj[pb[s]][-2] = s
            auto = SubgroupAutomaton._from_folded(2, adj, 0)
            if auto.index() != n:
                continue  # not transitive: reachable part is smaller
            built += 1
            assert auto.rank_of_subgroup() - 1 == n * (2 - 1)


class TestAlgebra:
    def test_conjugate_definition(self):
        c = sub("a").conjugate(B)
        assert c.contains(F2.parse("baB"))
        assert not c.contains(A)

    def test_conjugate_roundtrip(self):
        gen = rng.substream(23)
        for _ in range(40):
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 6))) for _ in range(2)]
            )
            g = F2.random_word(gen, int(gen.integers(0, 5)))
            assert h.conjugate(g).conjugate(invert(g)) == h

    def test_intersect_disjoint_cyclics(self):
        assert sub("a").intersect(sub("b")) == sub()

    def test_intersect_powers(self):
        got = sub("aa").intersect(sub("aaa"))
        assert got == sub("aaaaaa")
        # Oracle: common elements up to length 12.
        for w in [power(A, k) for k in range(-12, 13)]:
            assert got.contains(w) == (len(w) % 6 == 0)

    def test_intersection_contained_in_both(self):
        gen = rng.substream(29)
        ball = F2.ball(5)
        for _ in range(20):
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            k = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            meet = h.intersect(k)
            for w in ball:
                if meet.contains(w):
                    assert h.contains(w) and k.contains(w)

    def test_join_is_generated_union(self):
        j = sub("a").join(sub("b"))
        assert j == sub("a", "b")


class TestDistanceToOrbit:
    def test_on_orbit(self):
        assert sub("a").distance_to_orbit(F2.parse("aaaaa")) == 0

    def test_b_powers(self):
        assert sub("a").distance_to_orbit(F2.parse("bbb")) == 3

    def test_nearest_interior(self):
        assert sub("a").distance_to_orbit(F2.parse("aab")) == 1

    def test_brute_force_agreement(self):
        gen = rng.substream(31)
        ball = F2.ball(4)
        done = 0
        while done < 12:
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            elements = closure_membership(h.basis(), 14, 16, budget=50_000)
            if elements is None:
                continue
            done += 1
            for w in ball:
                brute = min(len(multiply(invert(e), w)) for e in elements)
                assert h.distance_to_orbit(w) == brute

    def test_left_invariance(self):
        gen = rng.substream(37)
        h = sub("ab", "ba")
        hs = [x for x in closure_membership(h.basis(), 8, 10)][:20]
        for _ in range(30):
            w = F2.random_word(gen, int(gen.integers(0, 7)))
            d = h.distance_to_orbit(w)
            for e in hs:
                assert h.distance_to_orbit(multiply(e, w)) == d


class TestTrace:
    def test_cyclic_ball1(self):
        t = sub("a").trace(F2.ball(1))
        assert t == {(), A, (-1,)}

    def test_parity_kernel_ball2(self):
        t = sub("aa", "ab", "bb").trace(F2.ball(2))
        assert t == {w for w in F2.ball(2) if len(w) % 2 == 0}
        assert len(t) == 13

    def test_trivial(self):
        t = sub().trace(F2.ball(2))
        assert t == {()}

    def test_respects_conjugation(self):
        gen = rng.substream(41)
        window = frozenset(F2.ball(3))
        for _ in range(20):
            h = SubgroupAutomaton.from_generators(
                2, [F2.random_word(gen, int(gen.integers(1, 5))) for _ in range(2)]
            )
            g = F2.random_word(gen, int(gen.integers(0, 4)))
            lhs = h.conjugate(g).trace(window)
            rhs = {f for f in window if h.contains(multiply(multiply(invert(g), f), g))}
            assert lhs == rhs


class TestFreeProductCertificate:
    def test_disjoint_generators(self):
        assert sub("a").certify_free_product(B)

    def test_power_fails(self):
        assert not sub("a").certify_free_product(F2.parse("aa"))

    def test_identity_rejected(self):
        with pytest.raises(Exception):
            sub("a").certify_free_product(())

    def test_squares_with_ab(self):
        h = sub("aa", "bb")
        g = F2.parse("ab")
        certified = h.certify_free_product(g)
        # Independent oracle: no alternating word h_1 g^{n_1} ... of bounded
        # complexity reduces to the identity.
        hs = [w for w in closure_membership(h.basis(), 8, 10) if w]
        powers = [power(g, n) for n in (-2, -1, 1, 2)]
        trivial_found = False
        for h1 in hs:
            for p1 in powers:
                if not multiply(h1, p1):
                    trivial_found = True
                for h2 in hs:
                    for p2 in powers:
                        if not multiply(multiply(multiply(h1, p1), h2), p2):
                            trivial_found = True
        assert certified == (not trivial_found)
        assert certified


class TestBasis:
    @given(st.integers(0, 2**32 - 1))
    def test_basis_regenerates(self, seed):
        gen = rng.substream(seed)
        gens = [F2.random_word(gen, int(gen.integers(1, 6))) for _ in range(3)]
        h = SubgroupAutomaton.from_generators(2, gens)
        assert SubgroupAutomaton.from_generators(2, h.basis()) == h

    def test_basis_size_matches_rank(self):
        h = sub("aa", "ab", "bb")
        assert len(h.basis()) == h.rank_of_subgroup()


class TestSerialization:
    def test_roundtrip(self):
        for h in [sub(), sub("a"), sub("aa", "ab", "bb"), sub("ab", "ba")]:
            assert SubgroupAutomaton.from_text(h.to_text(), 2) == h

    def test_deterministic_output(self):
        h = sub("aa", "ab", "bb")
        assert h.to_text() == sub("bb", "ab", "aa").to_text()

    def test_bad_label(self):
        with pytest.raises(AutomatonError):
            SubgroupAutomaton.from_text("1\nbase=0\n0 ab 0\n", 2)

    def test_format_shape(self):
        text = sub("a").to_text()
        assert text.splitlines()[0] == "1"
        assert text.splitlines()[1] == "base=0"
        assert text.splitlines()[2] == "0 a 0"


def refolded_conjugate(h, g):
    """Reference for conjugate: fold g b g^-1 for every basis word b of H."""
    return SubgroupAutomaton.from_generators(h.rank, [multiply(multiply(g, b), invert(g)) for b in h.basis()])


def random_subgroup(ctx, gen, max_gens=3):
    gens = [ctx.random_word(gen, int(gen.integers(1, 7))) for _ in range(int(gen.integers(0, max_gens + 1)))]
    return SubgroupAutomaton.from_generators(ctx.rank, gens)


class TestFoldBuilder:
    """conjugate, join and join_words against refolding basis words."""

    @pytest.mark.parametrize("ctx", [F2, F3], ids=["F2", "F3"])
    def test_against_refolded_basis(self, ctx):
        gen = rng.substream(43, ctx.rank)
        for _ in range(80):
            h = random_subgroup(ctx, gen)
            k = random_subgroup(ctx, gen)
            g = ctx.random_word(gen, int(gen.integers(0, 8)))
            words = [ctx.random_word(gen, int(gen.integers(0, 6))) for _ in range(int(gen.integers(0, 3)))]
            assert h.conjugate(g) == refolded_conjugate(h, g)
            assert h.join(k) == SubgroupAutomaton.from_generators(ctx.rank, h.basis() + k.basis())
            assert h.join_words(words) == SubgroupAutomaton.from_generators(ctx.rank, h.basis() + words)

    def test_trivial_h(self):
        g = F2.parse("abA")
        assert sub().conjugate(g) == sub() == refolded_conjugate(sub(), g)
        assert sub().join(sub()) == sub()
        assert sub().join(sub("ab")) == sub("ab")
        assert sub().join_words([F2.parse("ab"), ()]) == sub("ab")

    def test_empty_g(self):
        gen = rng.substream(47)
        for ctx in (F2, F3):
            for _ in range(20):
                h = random_subgroup(ctx, gen)
                assert h.conjugate(()) == h == refolded_conjugate(h, ())

    def test_tail_cancels_into_h(self):
        # g = u x with x in H: the stem's x-part folds into H, so g H g^-1
        # equals u H u^-1.
        gen = rng.substream(53)
        for ctx in (F2, F3):
            for _ in range(20):
                h = random_subgroup(ctx, gen)
                u = ctx.random_word(gen, int(gen.integers(0, 6)))
                for x in h.basis():
                    g = multiply(u, x)
                    assert h.conjugate(g) == h.conjugate(u) == refolded_conjugate(h, g)

    def test_long_stems_intersect_trivially(self):
        u = F2.random_word(rng.substream(59), 2000)
        h = SubgroupAutomaton.from_generators(2, [multiply(multiply(u, A), invert(u))])
        k = SubgroupAutomaton.from_generators(2, [multiply(multiply(u, B), invert(u))])
        assert h.intersect(k) == sub()

    def test_dangling_path_is_trimmed(self):
        h = sub("ab", "ba")
        adj = [dict(d) for d in h.transitions]
        state, letter = next((s, x) for s, d in enumerate(adj) for x in (1, -1, 2, -2) if x not in d)
        for _ in range(2000):
            adj.append({-letter: state})
            adj[state][letter] = len(adj) - 1
            state = len(adj) - 1
        assert SubgroupAutomaton._from_folded(2, adj, 0) == h
