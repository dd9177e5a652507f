import math

import pytest
from hypothesis import given, strategies as st

from hypmix import rng, stallings
from hypmix.freegroup import FreeContext, invert, multiply, power, reduce_word
from hypmix.selftest import _closure_membership, _two_letter_automaton, core_maps
from hypmix.stallings import AutomatonError, SubgroupAutomaton

from conftest import A, B, F2, F3, count_canonical_forms, live_states, nontrivial_words, sub, words
from reference import basis, follow, is_folded, read


def core_form(h):
    """(canonical rows, tree words) of h, read through its public members."""
    return h.transitions, tuple(map(h.word_to_state, range(h.n_states)))


class TestFromGenerators:
    def test_single_loop(self):
        a = sub("a")
        assert a.n_states == 1
        assert a.rank_of_subgroup() == 1

    def test_parity_kernel(self):
        h = sub("aa", "ab", "bb")
        assert h.n_states == 2

    def test_trivial(self):
        t = sub()
        assert t.n_states == 1
        assert t.rank_of_subgroup() == 0

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
            assert is_folded(SubgroupAutomaton.from_generators(2, gens))


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
            oracle = _closure_membership(gens, 6, 6 + 2 * max(map(len, gens)), budget=50_000)
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
            # The core form keeps the states the base reaches, so index()
            # counts n only when the permutations act transitively.
            form = stallings._core_form(2, adj, 0)
            auto = SubgroupAutomaton(2, form[0], 0, form)
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

    def test_join_is_generated_union(self):
        j = sub("a").conjugate_join((), sub("b"))
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
            elements = _closure_membership(basis(h), 14, 16, budget=50_000)
            if elements is None:
                continue
            done += 1
            for w in ball:
                brute = min(len(multiply(invert(e), w)) for e in elements)
                assert h.distance_to_orbit(w) == brute
        # A few core automata read from text, shapes the draws above never
        # fold. The identity is in H, so w's nearest orbit point is within
        # 2|w| of the base: ball(6) holds it for every w of ball(3).
        ball6 = F2.ball(6)
        for a, b in core_maps(3)[::40]:
            h = _two_letter_automaton(a, b)
            elements = [e for e in ball6 if h.contains(e)]
            for w in F2.ball(3):
                brute = min(len(multiply(invert(e), w)) for e in elements)
                assert h.distance_to_orbit(w) == brute

    @given(st.sampled_from(core_maps(3)), words(2, 10))
    def test_candidate_never_increases_along_the_read(self, maps, word):
        # The lemma behind the one read: the candidate (|w| - i) + depth(q_i)
        # never increases while w[:i] reads, so the last one is the distance.
        h = _two_letter_automaton(*maps)
        rows, state, candidates = h.transitions, 0, [len(word)]
        for i, letter in enumerate(word, 1):
            state = rows[state].get(letter)
            if state is None:
                break
            candidates.append(len(word) - i + len(h.word_to_state(state)))
        assert candidates == sorted(candidates, reverse=True)
        assert h.distance_to_orbit(word) == candidates[-1]

    def test_left_invariance(self):
        gen = rng.substream(37)
        h = sub("ab", "ba")
        hs = [x for x in _closure_membership(basis(h), 8, 10, budget=300_000)][:20]
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

    def test_repeated_reads_follow_the_window(self):
        h = sub("a")
        small, large = frozenset(F2.ball(1)), frozenset(F2.ball(2))
        powers = {w for w in large if set(w) <= {1} or set(w) <= {-1}}
        for window in (small, large, large, small, list(large), small):
            assert h.trace(window) == {w for w in map(tuple, window) if w in powers}

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
        hs = [w for w in _closure_membership(basis(h), 8, 10, budget=300_000) if w]
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
        assert SubgroupAutomaton.from_generators(2, basis(h)) == h

    def test_basis_size_matches_rank(self):
        h = sub("aa", "ab", "bb")
        assert len(basis(h)) == h.rank_of_subgroup()


class TestSerialization:
    def test_roundtrip(self):
        for h in [sub(), sub("a"), sub("aa", "ab", "bb"), sub("ab", "ba")]:
            assert SubgroupAutomaton.from_text(h.to_text(), 2) == h

    def test_deterministic_output(self):
        h = sub("aa", "ab", "bb")
        assert h.to_text() == sub("bb", "ab", "aa").to_text()

    def test_bad_label(self):
        # A bad label, state count or edge line is refused by name.
        for text, named in [
            ("1\nbase=0\n0 ab 0\n", "single generator, got 'ab'"),
            ("0\nbase=0\n", "bad state count '0'"),
            ("-2\nbase=0\n", "bad state count '-2'"),
            ("1\nbase=0\n0 b x\n", "bad edge line '0 b x'"),
            ("1\nbase=0\n0 q 0\n", "bad edge line '0 q 0'"),
        ]:
            with pytest.raises(AutomatonError, match=named):
                SubgroupAutomaton.from_text(text, 2)

    def test_format_shape(self):
        text = sub("a").to_text()
        assert text.splitlines()[0] == "1"
        assert text.splitlines()[1] == "base=0"
        assert text.splitlines()[2] == "0 a 0"


def refolded_conjugate(h, g):
    """Reference for conjugate: fold g b g^-1 for every basis word b of H."""
    return SubgroupAutomaton.from_generators(h.rank, [multiply(multiply(g, b), invert(g)) for b in basis(h)])


def random_subgroup(ctx, gen, max_gens=3):
    gens = [ctx.random_word(gen, int(gen.integers(1, 7))) for _ in range(int(gen.integers(0, max_gens + 1)))]
    return SubgroupAutomaton.from_generators(ctx.rank, gens)


class TestFoldBuilder:
    """conjugate and conjugate_join, the one two-part construction, against
    refolding basis words; <H, words> is conjugate_join with an empty stem."""

    @pytest.mark.parametrize("ctx", [F2, F3], ids=["F2", "F3"])
    def test_against_refolded_basis(self, ctx):
        gen = rng.substream(43, ctx.rank)
        for _ in range(80):
            h = random_subgroup(ctx, gen)
            k = random_subgroup(ctx, gen)
            g = ctx.random_word(gen, int(gen.integers(0, 8)))
            words = [ctx.random_word(gen, int(gen.integers(0, 6))) for _ in range(int(gen.integers(0, 3)))]
            assert h.conjugate(g) == refolded_conjugate(h, g)
            assert h.conjugate_join((), k) == SubgroupAutomaton.from_generators(ctx.rank, basis(h) + basis(k))
            with_words = h.conjugate_join((), SubgroupAutomaton.from_generators(ctx.rank, words))
            assert with_words == SubgroupAutomaton.from_generators(ctx.rank, basis(h) + words)

    @pytest.mark.parametrize("rank", [2, 3], ids=["F2", "F3"])
    @given(data=st.data())
    def test_conjugate_against_conjugated_generators(self, rank, data):
        # conjugate copies H's folded rows as they are; the reference folds
        # the conjugated generators of H anew. A chain of conjugates
        # carries earlier stems into the rows the next one copies, and a
        # step back along the last stem leaves it as a hair.
        gens = data.draw(st.lists(nontrivial_words(rank, 6), max_size=3))
        h, conjugated, g = SubgroupAutomaton.from_generators(rank, gens), gens, ()
        for back in data.draw(st.lists(st.booleans(), min_size=1, max_size=4)):
            g = invert(g) if back else data.draw(words(rank, 6))
            h = h.conjugate(g)
            conjugated = [multiply(multiply(g, b), invert(g)) for b in conjugated]
            reference = SubgroupAutomaton.from_generators(rank, conjugated)
            assert h == reference
            assert (h.index(), h.rank_of_subgroup()) == (reference.index(), reference.rank_of_subgroup())

    @pytest.mark.parametrize("rank", [2, 3], ids=["F2", "F3"])
    @given(data=st.data())
    def test_conjugate_when_h_reads_g_inverse(self, rank, data):
        # g^-1 is a path H reads from its base: g H g^-1 is H's rows, shared,
        # with the base at that path's end. Reading both automata changes
        # neither one's rows.
        gens = data.draw(st.lists(nontrivial_words(rank, 6), max_size=3))
        h = SubgroupAutomaton.from_generators(rank, gens)
        path, state = [], h._base
        for _ in range(data.draw(st.integers(0, 10))):
            choices = sorted(x for x in h._rows[state] if not path or x != -path[-1])
            if not choices:
                break
            path.append(data.draw(st.sampled_from(choices)))
            state = h._rows[state][path[-1]]
        g = invert(tuple(path))
        before = [None if row is None else dict(row) for row in h._rows]
        conjugate = h.conjugate(g)
        assert conjugate._rows is h._rows and conjugate._base == state
        window = FreeContext(rank).ball(2)
        for auto in (h, conjugate):
            auto.transitions, auto.trace(window), [auto.contains(x) for x in window]
        assert conjugate._rows is h._rows
        assert [None if row is None else dict(row) for row in h._rows] == before
        assert conjugate == refolded_conjugate(h, g)
        assert conjugate.trace(window) == frozenset(f for f in window if h.contains(multiply(multiply(invert(g), f), g)))

    def test_conjugate_off_h_builds_one_graph(self, monkeypatch):
        # g^-1 = BAA leaves H's rows at its last letter: conjugate folds
        # <g H g^-1, 1> through conjugate_join, in one graph of its own.
        h, g = sub("ab", "bA"), F2.parse("aab")
        assert read(h, 0, invert(g)) is None
        built = []
        init = stallings._FoldGraph.__init__
        monkeypatch.setattr(stallings._FoldGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        conjugate = h.conjugate(g)
        assert built == [(2,)]
        assert conjugate == refolded_conjugate(h, g)

    def test_trivial_h(self):
        g = F2.parse("abA")
        assert sub().conjugate(g) == sub() == refolded_conjugate(sub(), g)
        assert sub().conjugate_join((), sub()) == sub()
        assert sub().conjugate_join((), sub("ab")) == sub("ab")
        assert sub().conjugate_join((), SubgroupAutomaton.from_generators(2, [F2.parse("ab"), ()])) == sub("ab")

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
                for x in basis(h):
                    g = multiply(u, x)
                    assert h.conjugate(g) == h.conjugate(u) == refolded_conjugate(h, g)

    def test_long_stem_conjugate_roundtrip(self):
        # Conjugating back by u^-1 folds the new stem onto the old one, which
        # leaves a 2000-state hair at H's base for the core trim to remove.
        u = F2.random_word(rng.substream(59), 2000)
        h = sub("ab", "bA")
        assert h.conjugate(u).conjugate(invert(u)) == h

    def test_dangling_path_is_trimmed(self):
        h = sub("ab", "ba")
        adj = [dict(d) for d in h.transitions]
        state, letter = next((s, x) for s, d in enumerate(adj) for x in (1, -1, 2, -2) if x not in d)
        for _ in range(2000):
            adj.append({-letter: state})
            adj[state][letter] = len(adj) - 1
            state = len(adj) - 1
        assert stallings._core_form(2, adj, 0) == core_form(h)


@st.composite
def conjugate_join_cases(draw, rank):
    """(H, g, K) with H or K possibly trivial and g empty, free, ending in a
    generator of H (its tail folds into H) or starting with one of K (its
    first letters fold into K's loops)."""
    gens = st.lists(nontrivial_words(rank, 6), max_size=3)
    h_gens, k_gens = draw(gens), draw(gens)
    u = draw(words(rank, 6))
    shape = draw(st.sampled_from(["empty", "free", "tail_in_h", "head_in_k"]))
    if shape == "empty":
        g = ()
    elif shape == "tail_in_h" and h_gens:
        g = multiply(u, draw(st.sampled_from(h_gens)))
    elif shape == "head_in_k" and k_gens:
        g = multiply(draw(st.sampled_from(k_gens)), u)
    else:
        g = u
    return SubgroupAutomaton.from_generators(rank, h_gens), g, SubgroupAutomaton.from_generators(rank, k_gens)


class TestConjugateJoin:
    """<g H g^-1, K> in one fold against refolding the conjugated basis."""

    # to_text() of the instance below, recorded from the two-fold route
    # h.conjugate(g).join(k) before conjugate_join replaced it.
    PINNED = "8\nbase=0\n0 a 1\n0 b 2\n0 c 4\n1 a 4\n2 c 3\n3 b 0\n4 a 5\n6 a 7\n6 b 5\n6 c 7\n7 b 6\n"

    @pytest.mark.parametrize("rank", [2, 3], ids=["F2", "F3"])
    @given(data=st.data())
    def test_against_refolded_basis(self, rank, data):
        h, g, k = data.draw(conjugate_join_cases(rank))
        reference = SubgroupAutomaton.from_generators(
            rank, [multiply(multiply(g, b), invert(g)) for b in basis(h)] + basis(k)
        )
        assert h.conjugate_join(g, k) == reference

    def test_routes_agree_on_text_and_hash(self):
        h = SubgroupAutomaton.from_generators(3, [F3.parse("ab"), F3.parse("cA")])
        k = SubgroupAutomaton.from_generators(3, [F3.parse("bcb"), F3.parse("aaC")])
        g = F3.parse("caB")
        routes = [
            h.conjugate_join(g, k),
            SubgroupAutomaton.from_generators(3, [multiply(multiply(g, b), invert(g)) for b in basis(h)] + basis(k)),
            SubgroupAutomaton.from_text(self.PINNED, 3),
        ]
        for auto in routes:
            assert auto.to_text() == self.PINNED
            assert auto == routes[0] and hash(auto) == hash(routes[0])
            # Every row lists its letters as a < A < b < B < c < C.
            for row in auto.transitions:
                assert list(row) == sorted(row, key=lambda x: (abs(x), x < 0))

    def test_rank_mismatch(self):
        with pytest.raises(AutomatonError):
            sub("a").conjugate_join((), SubgroupAutomaton.from_generators(3, [(3,)]))
        with pytest.raises(AutomatonError):
            sub("a").join_gap((), SubgroupAutomaton.from_generators(3, [(3,)]))

    @pytest.mark.parametrize("rank", [2, 3], ids=["F2", "F3"])
    @given(data=st.data())
    def test_join_gap_is_the_fresh_path(self, rank, data):
        # join_gap reads g^-1 from the ends the fold reads g from. At a gap
        # mu >= 1 the fold merges nothing: its live states are H's, K's
        # (whose base absorbs the empty start state) and mu - 1 fresh ones,
        # and the ranks add. At mu = 0 the path's ends merge.
        h, g, k = data.draw(conjugate_join_cases(rank))
        gap = h.join_gap(invert(g), k)
        joined = h.conjugate_join(g, k)
        if gap:
            assert live_states(joined) == live_states(h) + live_states(k) + gap - 1
            assert joined.rank_of_subgroup() == h.rank_of_subgroup() + k.rank_of_subgroup()
        else:
            assert live_states(joined) < live_states(h) + live_states(k)


class EdgeGraph:
    """A labeled graph with base state 0 as a plain edge list, for batch_fold."""

    def __init__(self):
        self.edges = []
        self.identified = []
        self.n_states = 1

    def fresh(self):
        self.n_states += 1
        return self.n_states - 1

    def automaton(self, auto, at):
        number = [at, *(self.fresh() for _ in range(auto.n_states - 1))]
        self.edges += [(number[s], x, number[t]) for s, row in enumerate(auto.transitions) for x, t in row.items() if x > 0]

    def path(self, word, src, dst):
        states = [src, *(self.fresh() for _ in word[1:]), dst]
        self.edges += zip(states, word, states[1:])
        if not word:
            self.identified.append((src, dst))


def batch_fold(graph):
    """Naive reference for the fold builder: merge the ends of two
    equally-labeled edges out of one state until there are none, restart the
    scan after every merge, trim the part the base reaches to its core and
    number it breadth-first in the letter order a < A < b < B < ...
    Returns the rows of the canonical automaton."""
    parent = list(range(graph.n_states))

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for a, b in graph.identified:
        parent[find(a)] = find(b)

    def conflict():
        ends = {}
        for s, x, t in graph.edges:
            s, t = find(s), find(t)
            for key, end in (((s, x), t), ((t, -x), s)):
                other = ends.setdefault(key, end)
                if other != end:
                    return other, end
        return None

    while (pair := conflict()) is not None:
        parent[pair[0]] = pair[1]
    base = find(0)
    rows = {base: {}}
    for s, x, t in graph.edges:
        rows.setdefault(find(s), {})[x] = find(t)
        rows.setdefault(find(t), {})[-x] = find(s)
    key = lambda x: (abs(x), x < 0)

    def breadth_first():
        order = [base]
        for s in order:
            for x in sorted(rows[s], key=key):
                if rows[s][x] not in order:
                    order.append(rows[s][x])
        return order

    rows = {s: rows[s] for s in breadth_first()}
    while hairs := [s for s in rows if s != base and len(rows[s]) <= 1]:
        for s in hairs:
            for x, t in rows.pop(s).items():
                del rows[t][-x]
    order = breadth_first()
    return [[(x, order.index(rows[s][x])) for x in sorted(rows[s], key=key)] for s in order]


@st.composite
def read_in_cases(draw, rank):
    """Generators of H and K, a conjugator g and extra loops, drawn so the
    builder meets each way a path goes in: read fully from both ends, so its
    ends merge (g a readable prefix of K then the inverse of one of H; a
    loop between two prefixes of H's generators); g wholly readable
    backwards from H's base, so the base just moves; g empty; a free g; H or
    K trivial (no generators). Some loops are not freely reduced."""
    gens = st.lists(nontrivial_words(rank, 6), max_size=3)
    h_gens, k_gens = draw(gens), draw(gens)

    def prefix(of):
        if not of:
            return ()
        word = draw(st.sampled_from(of))
        return word[: draw(st.integers(0, len(word)))]

    shape = draw(st.sampled_from(["merge", "base_moves", "empty", "free"]))
    if shape == "merge":
        g = multiply(prefix(k_gens), invert(prefix(h_gens)))
    elif shape == "base_moves":
        g = invert(prefix(h_gens))
    elif shape == "empty":
        g = ()
    else:
        g = draw(words(rank, 8))
    loops = [multiply(prefix(h_gens), invert(prefix(h_gens))) for _ in range(draw(st.integers(0, 2)))]
    loops += draw(st.lists(st.lists(st.sampled_from(FreeContext(rank).letters()), max_size=6).map(tuple), max_size=2))
    return h_gens, k_gens, g, loops


class TestReadInBuilder:
    """The fold builder against batch_fold on the same graphs."""

    @pytest.mark.parametrize("rank", [2, 3], ids=["F2", "F3"])
    @given(data=st.data())
    def test_against_batch_fold(self, rank, data):
        h_gens, k_gens, g, loops = data.draw(read_in_cases(rank))
        h = SubgroupAutomaton.from_generators(rank, h_gens)
        k = SubgroupAutomaton.from_generators(rank, k_gens)

        generated = EdgeGraph()
        for word in h_gens + loops:
            generated.path(word, 0, 0)
        conjugated = EdgeGraph()
        conjugated.automaton(h, at := conjugated.fresh())
        conjugated.path(g, 0, at)
        joined = EdgeGraph()
        joined.automaton(k, 0)
        joined.automaton(h, at := joined.fresh())
        joined.path(g, 0, at)
        with_words = EdgeGraph()
        with_words.automaton(h, 0)
        for word in loops:
            with_words.path(word, 0, 0)

        for auto, graph in [
            (SubgroupAutomaton.from_generators(rank, h_gens + loops), generated),
            (h.conjugate(g), conjugated),
            (h.conjugate_join(g, k), joined),
            (h.conjugate_join((), SubgroupAutomaton.from_generators(rank, loops)), with_words),
        ]:
            assert is_folded(auto)
            assert [list(row.items()) for row in auto.transitions] == batch_fold(graph)


def canonical(auto):
    """The same subgroup read back from its text, so canonical from the start."""
    return SubgroupAutomaton.from_text(auto.to_text(), auto.rank)


class TestFoldedForm:
    """The builder's folded graph against its canonical form."""

    @pytest.mark.parametrize("rank", [2, 3], ids=["F2", "F3"])
    @given(data=st.data())
    def test_reads_agree_with_canonical_form(self, rank, data):
        h_gens, k_gens, g, loops = data.draw(read_in_cases(rank))
        h = SubgroupAutomaton.from_generators(rank, h_gens)
        k = SubgroupAutomaton.from_generators(rank, k_gens)
        window = FreeContext(rank).ball(2)
        conjugated = [multiply(multiply(g, b), invert(g)) for b in h_gens]
        probes = [*window, *h_gens, *k_gens, *(reduce_word(x) for x in loops), g, *conjugated]
        for auto in [
            SubgroupAutomaton.from_generators(rank, h_gens + loops),
            h.conjugate(g),
            h.conjugate_join(g, k),
            h.conjugate_join((), SubgroupAutomaton.from_generators(rank, loops)),
        ]:
            folded = ([auto.contains(x) for x in probes], auto.trace(window), auto.index(), auto.rank_of_subgroup())
            core = canonical(auto)
            assert folded == ([core.contains(x) for x in probes], core.trace(window), core.index(), core.rank_of_subgroup())

    def test_hair_stays_in_the_folded_graph(self):
        # Conjugating back by u^-1 leaves a 2000-state hair at H's base. The
        # folded graph keeps it; only the canonical form trims it.
        u = F2.random_word(rng.substream(59), 2000)
        h = sub("ab", "bA")
        auto = h.conjugate(u).conjugate(invert(u))
        assert sum(row is not None for row in auto._rows) > 1000
        assert (auto.index(), auto.rank_of_subgroup()) == (math.inf, 2)
        assert all(auto.contains(x) == h.contains(x) for x in F2.ball(3))
        assert auto == h and auto.n_states == 2

    def test_read_takes_canonical_states(self):
        # conjugate_join merges state 0 into K's base, so the folded rows of
        # L hold a merged-away state and their base is not 0. Their
        # transitions number states as the canonical form does.
        l_sub = sub("a").conjugate_join(F2.parse("abAAb"), sub("b", "aba"))
        assert l_sub._rows[0] is None and l_sub._base != 0
        core = canonical(l_sub)
        for q in range(core.n_states):
            for x in F2.ball(2):
                assert read(l_sub, q, x) == read(core, q, x)

    def test_canonical_form_built_once(self, monkeypatch):
        calls = count_canonical_forms(monkeypatch)
        u = F2.parse("abbaB")
        a, b = sub("ab", "bA").conjugate(u), sub("bA", "ab").conjugate(u)
        assert a.contains(multiply(multiply(u, A), invert(u))) is False
        assert (a.index(), a.rank_of_subgroup(), a.trace(F2.ball(2))) == (math.inf, 2, b.trace(F2.ball(2)))
        assert calls == []
        assert a == b and hash(a) == hash(b) and a.to_text() == b.to_text()
        assert len(calls) == 2
        # Reads of the numbering use the cached form.
        assert read(a, 0, A) == 1 and a.distance_to_orbit(()) == 0 and len(b.word_to_state(b.n_states - 1)) > 0
        assert len(calls) == 2


class TestCoreForm:
    """The one breadth-first pass that numbers the core and spells each
    state's tree word."""

    def test_tree_words_are_breadth_first_paths(self):
        # Every core automaton of F2 with at most 3 states, read from text:
        # each tree word is reduced, reads from the base to its state and is
        # as long as that state's breadth-first distance, computed here.
        for a, b in core_maps(3):
            h = _two_letter_automaton(a, b)
            rows = h.transitions
            dist = {0: 0}
            queue = [0]
            for s in queue:
                for t in rows[s].values():
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        queue.append(t)
            assert len(dist) == h.n_states
            for q in range(h.n_states):
                word = h.word_to_state(q)
                assert reduce_word(word) == word
                assert follow(rows, 0, word) == q
                assert len(word) == dist[q]

    def test_text_and_fold_build_one_form(self):
        # A subgroup read from its text and folded from a free basis has
        # one form: the same rows and the same tree words.
        for a, b in core_maps(3):
            h = _two_letter_automaton(a, b)
            folded = SubgroupAutomaton.from_generators(2, basis(h))
            assert folded._form is None
            assert core_form(folded) == core_form(h)
