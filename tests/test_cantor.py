import hashlib
import inspect
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypmix import cantor, rng
from hypmix.cantor import (
    CONE_Z,
    CONE_Z2,
    CONE_ZM2,
    DEPTH_CAP,
    NEEDS_REFINEMENT,
    OMEGA,
    SIGMA,
    ConeCertificationError,
    ConeError,
    DepthCapExceeded,
    antichain_meets_cone,
    apply_element,
    standardizing_element,
    cone_routing_element,
    cone_transposition,
    estimate_qn,
    format_label,
    from_assignments,
    hit_probability_exact,
    image_antichain,
    invert_element,
    order_cones,
    parse_label,
    simulate_hit_probability,
    superharmonic_check,
    _xi,
)
from hypmix.freegroup import FreeContext

from conftest import StuckGenerator, run_optimized
from reference import advance_reference, hit_count, merge_antichain_reference, proper_prefix_pairs

X, Y, Z = 1, 2, 3
ALL_LETTERS = tuple(FreeContext(3).letters())


def lab(text):
    return parse_label(text)


def full_partition(depth):
    out = []
    for first in ALL_LETTERS:
        out.extend(order_cones((first,), depth - 1))
    return out


def random_z_label(gen, length):
    """Random reduced label of the given length containing a z-letter."""
    while True:
        word = FreeContext(3).random_word(gen, length)
        if any(abs(l) == Z for l in word):
            return word


class TestAlphabet:
    def test_sigma_30(self):
        assert len(SIGMA) == 30

    def test_omega_18(self):
        assert len(OMEGA) == 18

    def test_omega_frozen_order(self):
        expected = [
            "xz", "xZ", "Xz", "XZ", "yz", "yZ", "Yz", "YZ",
            "zx", "zX", "zy", "zY", "zz", "Zx", "ZX", "Zy", "ZY", "ZZ",
        ]
        assert [format_label(u) for u in OMEGA] == expected

    def test_parse_format_roundtrip(self):
        for text in ("z", "zx", "ZZx", "xyzXY"):
            assert format_label(parse_label(text)) == text

    def test_parse_rejects_unreduced(self):
        with pytest.raises(ConeError):
            parse_label("xX")

    def test_parse_rejects_empty(self):
        with pytest.raises(ConeError):
            parse_label("")


class TestOrderCones:
    def test_zx_children(self):
        got = [format_label(u) for u in order_cones(lab("zx"), 1)]
        assert got == ["zxx", "zxy", "zxY", "zxz", "zxZ"]

    def test_depth_zero(self):
        assert order_cones(lab("zx"), 0) == [lab("zx")]

    def test_z_children(self):
        got = [format_label(u) for u in order_cones(lab("z"), 1)]
        assert got == ["zx", "zX", "zy", "zY", "zz"]

    def test_counts_are_powers_of_five(self):
        assert len(order_cones(lab("z"), 3)) == 125


class TestXi:
    def test_first_to_first(self):
        assert _xi(lab("zx"), lab("zy"), lab("zxx")) == lab("zyx")

    def test_second_to_second(self):
        assert _xi(lab("zx"), lab("zy"), lab("zxy")) == lab("zyX")

    def test_identity(self):
        assert _xi(lab("zx"), lab("zx"), lab("zxzz")) == lab("zxzz")

    def test_matches_order_cones_exhaustively(self):
        pairs = [(lab("zx"), lab("zy")), (lab("Zy"), lab("xz")), (lab("z"), lab("Z"))]
        for u, v in pairs:
            for depth in (1, 2, 3):
                src = order_cones(u, depth)
                dst = order_cones(v, depth)
                for s, d in zip(src, dst):
                    assert _xi(u, v, s) == d

    def test_composition_law(self):
        # xi(v,t) . xi(u,v) = xi(u,t) and xi(u,u) = id, exhaustively to depth 3.
        labels = [lab("zx"), lab("zy"), lab("Zx"), lab("xz")]
        for u in labels:
            for v in labels:
                for t in labels:
                    for depth in (1, 2, 3):
                        for w in order_cones(u, depth):
                            assert _xi(v, t, _xi(u, v, w)) == _xi(u, t, w)
        for u in labels:
            for w in order_cones(u, 3):
                assert _xi(u, u, w) == w

    def test_order_preservation(self):
        u, v = lab("zx"), lab("yZ")
        src = order_cones(u, 2)
        dst = order_cones(v, 2)
        images = [_xi(u, v, w) for w in src]
        assert images == dst  # same positions, hence order preserved


class TestApply:
    def test_left_multiplication(self):
        assert apply_element((X,), lab("zx")) == lab("xzx")

    def test_cancellation(self):
        assert apply_element((X,), lab("Xz")) == lab("z")

    def test_full_cancellation_needs_refinement(self):
        assert apply_element((X,), lab("X")) is None

    def test_permutation_on_shallow_label(self):
        sigma = tuple(range(18))
        assert apply_element((sigma,), lab("z")) is None

    def test_permutation_moves_cone(self):
        sigma = from_assignments({lab("zx"): lab("zy")})
        assert apply_element((sigma,), lab("zxx")) == lab("zyx")

    def test_permutation_fixes_f2_prefixes(self):
        sigma = from_assignments({lab("zx"): lab("zy")})
        for label in ("xy", "xyz", "YxY"):
            assert apply_element((sigma,), lab(label)) == lab(label)

    def test_permutations_fix_all_f2_points_exhaustively(self):
        gen = rng.substream(5)
        sigma = tuple(int(i) for i in gen.permutation(18))
        for label in full_partition(4):
            if all(abs(l) != Z for l in label[:2]):
                assert apply_element((sigma,), label) == label

    def test_atoms_act_right_to_left(self):
        sigma = from_assignments({lab("zx"): lab("zy")})
        assert apply_element((X, sigma), lab("zxx")) == lab("xzyx")


class TestImageAntichain:
    def test_identity_element(self):
        assert image_antichain((), [lab("zx")]) == (lab("zx"),)

    def test_permutation_partition_bijectivity(self):
        gen = rng.substream(3)
        six_cones = tuple((l,) for l in ALL_LETTERS)
        for depth in (2, 3, 4):
            sigma = tuple(int(i) for i in gen.permutation(18))
            image = image_antichain((sigma,), full_partition(depth))
            # The image is all of the boundary again; merging collapses it
            # to the six depth-one cones.
            assert image == six_cones

    def test_letter_image_of_opposite_cone(self):
        # x applied to Cone(x^-1) covers everything except Cone(x).
        image = image_antichain((X,), [lab("X")])
        assert set(image) == {(-1,), (2,), (-2,), (3,), (-3,)}
        # Pointwise verification at depth 3.
        for w in order_cones(lab("X"), 2):
            got = apply_element((X,), w)
            assert got is not None
            assert antichain_meets_cone(image, got)

    def test_refinement_roundtrip(self):
        # x then x^-1 is the identity on the cone algebra.
        g = (-X, X)
        assert image_antichain(g, [lab("X")]) == (lab("X"),)


def restart_image_antichain(g, labels, depth_cap):
    """Reference refinement: a label g cannot move splits into its children,
    and each child runs the whole element again from the rightmost atom."""
    work = list(labels)
    out = []
    while work:
        label = work.pop()
        image, left = advance_reference(g, label, len(g))
        if left:
            if len(label) >= depth_cap:
                raise DepthCapExceeded(len(label))
            work.extend(order_cones(label, 1))
        else:
            out.append(image)
    return merge_antichain_reference(out)


def random_element(gen, n, p_letter):
    """n atoms drawn as estimate_qn draws them."""
    atoms = []
    for r in gen.integers(0, p_letter.denominator, size=n).tolist():
        if r < 4 * p_letter.numerator:
            atoms.append((X, -X, Y, -Y)[r // p_letter.numerator])
        else:
            atoms.append(tuple(gen.permutation(18).tolist()))
    return tuple(atoms)


class TestImageAntichainReference:
    # Resuming a split at the atom that could not act must give exactly what
    # restarting each child from the rightmost atom gives, cap outcome
    # included; _image takes the cap that image_antichain fixes at DEPTH_CAP.

    def test_matches_restart_refinement(self):
        outcomes = set()
        for n in (10, 100, 300):
            for p_letter in (Fraction(1, 8), Fraction(1, 4)):
                for trial in range(6):
                    gen = rng.substream(17, n, p_letter.denominator, trial)
                    g = random_element(gen, n, p_letter)
                    sources = [CONE_Z] if trial % 2 == 0 else [lab("X"), lab("yz")]
                    for cap in (n // 4, n + 8):
                        outcomes.add(self.compare(g, sources, cap))
        assert outcomes == {"direct", "refined", "capped"}

    @staticmethod
    def compare(g, sources, cap):
        try:
            want = restart_image_antichain(g, sources, cap)
        except DepthCapExceeded as exc:
            with pytest.raises(DepthCapExceeded) as info:
                cantor._image(g, sources, cap)
            assert info.value.depth == exc.depth
            return "capped"
        assert cantor._image(g, sources, cap) == want
        return "refined" if any(advance_reference(g, u, len(g))[1] for u in sources) else "direct"


def reduced_word(first, ranks):
    """The reduced label starting at `first`, each later letter picked by its
    rank among the five letters that do not cancel the one before."""
    word = [first]
    for r in ranks:
        word.append([l for l in ALL_LETTERS if l != -word[-1]][r])
    return tuple(word)


# Reduced labels of 1 to 4 letters.
short_labels = st.builds(reduced_word, st.sampled_from(ALL_LETTERS), st.lists(st.integers(0, 4), max_size=3))


@st.composite
def mixed_elements(draw):
    """An element of F(x, y) letters and permutation atoms, at most 12 atoms."""
    perm = st.permutations(range(18)).map(tuple)
    return tuple(draw(st.lists(st.one_of(st.sampled_from((X, -X, Y, -Y)), perm), max_size=12)))


@st.composite
def disjoint_sources(draw):
    """One to three distinct labels of one length, so their cones are disjoint."""
    length = draw(st.integers(1, 4))
    ranks = st.lists(st.integers(0, 4), min_size=length - 1, max_size=length - 1)
    starts = st.tuples(st.sampled_from(ALL_LETTERS), ranks)
    return sorted({reduced_word(first, rest) for first, rest in draw(st.lists(starts, min_size=1, max_size=3))})


@st.composite
def labels_by_f2_run(draw):
    """A label of 1 to 6 letters whose leading F(x, y) run has a drawn
    length: 0, 1, or at least 2 letters, up to the whole label."""
    length = draw(st.integers(1, 6))
    run = draw(st.integers(0, length))
    word = []
    for _ in range(run):
        word.append(draw(st.sampled_from([l for l in (X, -X, Y, -Y) if not word or l != -word[-1]])))
    if run < length:
        ranks = draw(st.lists(st.integers(0, 4), min_size=length - run - 1, max_size=length - run - 1))
        word.extend(reduced_word(draw(st.sampled_from((Z, -Z))), ranks))
    return tuple(word)


class TestAdvance:
    # The library's letter stack, permutation skipping and healing rank
    # transport against one atom at a time with full _xi rewrites.

    @settings(max_examples=400)
    @given(mixed_elements(), labels_by_f2_run(), st.data())
    # The transport must go on past the prefix: zxyy -> zyXy.
    @example((from_assignments({(Z, X): (Z, Y)}),), (Z, X, Y, Y), None)
    # A run of one F(x, y) letter does not protect the prefix xz.
    @example((from_assignments({(X, Z): (Z, Z)}),), (X, Z), None)
    # A pop shortens the run: x^-1 sends xyz to yz, which the permutation moves.
    @example((from_assignments({(Y, Z): (Z, X)}), -X), (X, Y, Z), None)
    # A permutation that puts xz in front leaves a run of one, and y makes it two.
    @example((from_assignments({(Z, Z): (Z, X)}), Y, from_assignments({(Z, Z): (X, Z)})), (Z, Z, X), None)
    def test_matches_reference(self, g, label, data):
        i = len(g) if data is None else data.draw(st.integers(0, len(g)))
        assert cantor._advance(g, label, i) == advance_reference(g, label, i)


class TestMergeAntichain:
    # In tuple order a label sorts directly before its extensions, so the
    # neighbour check must catch every proper prefix pair.

    @settings(max_examples=400)
    @given(st.lists(short_labels, min_size=1, max_size=8))
    @example([(X,), (Y,), (X, Z, X)])  # not neighbours in shortlex order
    @example([(X,), (Y,), (Y, Z)])  # not the first pair in tuple order
    def test_raises_exactly_on_a_prefix_pair(self, labels):
        families = {}
        for label in set(labels):
            if len(label) >= 2:
                families[label[:-1]] = families.get(label[:-1], 0) + 1
        assume(max(families.values(), default=0) < 5)  # nothing merges
        if proper_prefix_pairs(labels):
            with pytest.raises(AssertionError, match="antichain invariant broken"):
                cantor._merge_antichain(labels)
        else:
            assert cantor._merge_antichain(labels) == merge_antichain_reference(labels)

    def test_checks_the_labels_before_merging(self):
        # The five children of (X,) merge back into (X,), so a check after
        # the merge alone would miss that (X,) is a prefix of each of them.
        labels = [(X,), (X, X), (X, Y), (X, -Y), (X, Z), (X, -Z)]
        with pytest.raises(AssertionError, match="antichain invariant broken"):
            cantor._merge_antichain(labels)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 10**6), max_size=12), st.integers(0, 2**32))
    # The 25 grandchildren of (X,) merge to its five children, then to (X,).
    @example([0, 5, 5, 5, 5, 5], (2**25 - 1) << 5)
    # (X, Z)'s children merge to (X, Z), which completes the family of the
    # four children of (X,) that sort before it in tuple order.
    @example([0, 8], (2**9 - 1) << 5)
    # Four children of (X,) and a grandchild, which sorts between three of
    # them and the fourth: nothing merges.
    @example([0, 6], 31 << 5)
    def test_merges_random_antichains(self, splits, keep):
        # Split cones of the six-cone partition at random, then keep a subset:
        # full families merge, and the reference agrees with the library.
        labels = [(l,) for l in ALL_LETTERS]
        for k in splits:
            label = labels.pop(k % len(labels))
            labels.extend(order_cones(label, 1))
        kept = [u for j, u in enumerate(labels) if keep >> (j % 32) & 1] or labels
        assert cantor._merge_antichain(kept) == merge_antichain_reference(kept)


class TestRawAtoms:
    # estimate_qn hands its atoms (int letters, 18-tuples of targets) straight
    # to _image; the public path checks them first and must let every valid
    # element through unchanged.

    @settings(max_examples=200)
    @given(mixed_elements(), disjoint_sources())
    @example((X,), [(-X,)])  # full cancellation: the label splits
    def test_raw_path_matches_public_path(self, g, sources):
        assert cantor._image(g, sources, DEPTH_CAP) == image_antichain(g, sources)


class TestClaimOne:
    def test_base_case_zx(self):
        f = standardizing_element(lab("zx"))
        assert len(f) == 1  # a single permutation
        assert image_antichain(f, [lab("zx")]) == (CONE_Z2,)
        assert image_antichain(f, [CONE_ZM2]) == (CONE_ZM2,)

    def test_case_one_path(self):
        f = standardizing_element(lab("xzx"))
        assert image_antichain(f, [lab("xzx")]) == (CONE_Z2,)
        assert image_antichain(f, [(-Z,) * 3]) == (CONE_ZM2,)

    def test_case_three_path(self):
        u = lab("Zxz")
        f = standardizing_element(u)
        assert image_antichain(f, [u]) == (CONE_Z2,)
        assert image_antichain(f, [(-Z,) * 3]) == (CONE_ZM2,)

    def test_rejects_bad_labels(self):
        with pytest.raises(ConeError):
            standardizing_element(lab("xy"))  # no z-letter
        with pytest.raises(ConeError):
            standardizing_element(lab("ZZ"))  # the partner cone itself
        with pytest.raises(ConeError):
            standardizing_element(lab("z"))  # too short

    def test_random_instances(self):
        gen = rng.substream(7)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            u = random_z_label(gen, n)
            if u == (-Z,) * n:
                continue
            f = standardizing_element(u)
            assert image_antichain(f, [u]) == (CONE_Z2,)
            assert image_antichain(f, [(-Z,) * n]) == (CONE_ZM2,)
            assert len(f) <= 2 * n  # linear length

    def test_word_length_linear(self):
        f = standardizing_element(lab("xzxzx"))
        assert len(f) <= 10


def bent(advance):
    """The action `advance` with each completed image longer than two letters
    moved to the next of its siblings: every cone still goes onto a cone,
    but the action inside it is no longer positional."""

    def bent_advance(atoms, label, i):
        label, left = advance(atoms, label, i)
        if not left and len(label) > 2:
            siblings = cantor._ALLOWED[label[-2]]
            label = label[:-1] + (siblings[(siblings.index(label[-1]) + 1) % 5],)
        return label, left

    return bent_advance


def unfinished_steps(advance):
    """The action `advance`, except that a two-atom element, one step of a
    standardizing element, reports one atom left unapplied. Its image is
    the true one, so only the step's own check can catch it."""

    def unfinished_advance(atoms, label, i):
        label, left = advance(atoms, label, i)
        return label, left or int(len(atoms) == 2)

    return unfinished_advance


class TestCertification:
    def test_non_positional_action_raises(self, monkeypatch):
        monkeypatch.setattr(cantor, "_advance", bent(cantor._advance))
        with pytest.raises(ConeCertificationError, match="not positional"):
            standardizing_element(lab("xzx"))

    def test_failed_recursion_step_raises(self, monkeypatch):
        monkeypatch.setattr(cantor, "_advance", unfinished_steps(cantor._advance))
        with pytest.raises(ConeCertificationError):
            standardizing_element(lab("xzx"))

    def test_non_square_discriminant_raises(self, monkeypatch):
        monkeypatch.setattr(cantor.math, "isqrt", lambda value: 1)
        with pytest.raises(ConeCertificationError):
            hit_probability_exact()

    def test_bad_permutation_block_raises(self, monkeypatch):
        trial_stream = cantor.rng.trial_stream
        monkeypatch.setattr(cantor.rng, "trial_stream", lambda *path: StuckGenerator(trial_stream(*path)))
        with pytest.raises(ConeCertificationError):
            estimate_qn(Fraction(1, 8), 10, 5, 1)

    def test_checks_run_under_optimize_flag(self):
        # bent and unfinished_steps are defined first, from this module's source.
        helpers = inspect.getsource(bent) + inspect.getsource(unfinished_steps)
        script = "import sys\nfrom hypmix import cantor\n\n" + helpers + textwrap.dedent(
            """
            if __debug__:
                sys.exit("not running under -O")
            advance = cantor._advance
            cantor._advance = bent(advance)
            try:
                cantor.standardizing_element((1, 3, 1))
                sys.exit("non-positional action accepted")
            except cantor.ConeCertificationError:
                pass
            cantor._advance = unfinished_steps(advance)
            try:
                cantor.standardizing_element((1, 3, 1))
                sys.exit("a step that left an atom unapplied was accepted")
            except cantor.ConeCertificationError as exc:
                if "did not shorten the label by one" not in str(exc):
                    sys.exit(f"the step check did not fire: {exc}")
            cantor._advance = advance
            cantor.math.isqrt = lambda value: 1
            try:
                cantor.hit_probability_exact()
                sys.exit("no ConeCertificationError raised")
            except cantor.ConeCertificationError:
                pass
            try:
                cantor._merge_antichain([(1, 3), (1,)])
                sys.exit("a label and its own prefix passed the antichain check")
            except AssertionError:
                pass
            try:
                cantor._merge_antichain([(1,), (1, 1), (1, 2), (1, -2), (1, 3), (1, -3)])
                sys.exit("a label and its full family of children passed the antichain check")
            except AssertionError:
                pass
            class Stuck:  # its permutation rows repeat a label
                def __init__(self, gen):
                    self.integers = gen.integers
                    self.bit_generator = gen.bit_generator

                def permuted(self, rows, axis):
                    rows[:, 0] = rows[:, 1]
                    return rows

            trial_stream = cantor.rng.trial_stream
            cantor.rng.trial_stream = lambda *path: Stuck(trial_stream(*path))
            try:
                cantor.estimate_qn(1 / 8, 10, 5, 1)
                sys.exit("a non-permutation row passed the trial's check")
            except cantor.ConeCertificationError:
                pass
            entries = (
                lambda g: cantor.apply_element(g, (3, 3)),
                lambda g: cantor.image_antichain(g, [(3, 3)]),
                cantor.invert_element,
            )
            for entry in entries:
                for bad in ((3,), ((0,) * 18,)):
                    try:
                        entry(bad)
                        sys.exit(f"the element {bad} passed the element check")
                    except cantor.ConeError:
                        pass
            """
        )
        run_optimized(script)


class TestClaimTwo:
    def test_pivot_gives_identity(self):
        assert cone_transposition(lab("ZZZ")) == ()

    def test_swap_and_fix(self):
        u = lab("zx")
        g = cone_transposition(u)
        assert image_antichain(g, [u]) == (CONE_ZM2,)
        assert image_antichain(g, [CONE_ZM2]) == (u,)
        for w in order_cones(lab("z"), 1) + order_cones(lab("x"), 1):
            if w in (u, CONE_ZM2):
                continue
            assert image_antichain(g, [w]) == (w,)

    def test_fixes_sampled_points(self):
        u = lab("zx")
        g = cone_transposition(u)
        fixed_point = lab("yzyzy")
        assert apply_element(g, fixed_point) == fixed_point

    def test_involution(self):
        u = lab("zyx")
        g = cone_transposition(u)
        double = g + g
        for w in (u, (-Z,) * 3, lab("zxx")):
            assert image_antichain(double, [w]) == (w,)

    def test_random_instances(self):
        gen = rng.substream(9)
        for _ in range(10):
            n = int(gen.integers(2, 6))
            u = random_z_label(gen, n)
            g = cone_transposition(u)
            pivot = (-Z,) * n
            if u == pivot:
                assert g == ()
                continue
            assert image_antichain(g, [u]) == (pivot,)
            assert image_antichain(g, [pivot]) == (u,)
            # every other cone of the same depth is fixed setwise and
            # pointwise (the image label equality certifies the positional
            # identity on the cone)
            others = [w for w in full_partition(n) if w not in (u, pivot)]
            for w in others[:: max(1, len(others) // 10)]:
                assert image_antichain(g, [w]) == (w,)


class TestClaimThree:
    def test_single_pair(self):
        g = cone_routing_element([(lab("zx"), lab("zy"))], 2)
        assert image_antichain(g, [lab("zx")]) == (lab("zy"),)

    def test_identity_pair(self):
        g = cone_routing_element([(lab("zx"), lab("zx"))], 2)
        assert image_antichain(g, [lab("zx")]) == (lab("zx"),)

    def test_pivot_involved(self):
        g = cone_routing_element([(lab("ZZ"), lab("zz"))], 2)
        assert image_antichain(g, [lab("ZZ")]) == (lab("zz"),)

    def test_three_pairs_depth3(self):
        pairs = [
            (lab("zxx"), lab("Zyx")),
            (lab("xzx"), lab("zzz")),
            (lab("yzy"), lab("xzy")),
        ]
        g = cone_routing_element(pairs, 3)
        for u, v in pairs:
            assert image_antichain(g, [u]) == (v,)

    def test_collisions_rejected(self):
        with pytest.raises(ConeError):
            cone_routing_element([(lab("zx"), lab("zy")), (lab("zx"), lab("zz"))], 2)

    def test_f2_labels_rejected(self):
        with pytest.raises(ConeError):
            cone_routing_element([(lab("xy"), lab("zx"))], 2)

    def test_random_instances(self):
        gen = rng.substream(11)
        for _ in range(10):
            n = int(gen.integers(2, 4))
            k = int(gen.integers(1, 4))
            us, vs = set(), set()
            while len(us) < k:
                us.add(random_z_label(gen, n))
            while len(vs) < k:
                vs.add(random_z_label(gen, n))
            pairs = list(zip(sorted(us), sorted(vs)))
            g = cone_routing_element(pairs, n)
            for u, v in pairs:
                assert image_antichain(g, [u]) == (v,)


def built(build, *args):
    """repr of the element that build returns, or its refusal message."""
    try:
        return repr(build(*args))
    except ConeError as exc:
        return f"ConeError: {exc}"


class TestElementPin:
    # Recorded from the recursive standardizing_element, which checked
    # every intermediate element: the one-loop construction must build the
    # same atoms and refuse the same labels with the same messages.
    DIGEST = "169bb00950ccc74fcf8f72d5078d160d0de9d1f8dbcbd32eed2e7c5bcc56d9ad"

    def test_elements_match_the_recorded_digest(self):
        gen = rng.substream(32)
        digest = hashlib.sha256()
        labels = [random_z_label(gen, n) for n in range(2, 151)]
        labels += [(-Z,) * 2, (-Z,) * 7, (Z,), (X, Y), (X, -X, Z), (Z, 7), ()]
        for u in labels:
            for build in (standardizing_element, cone_transposition):
                digest.update(f"{u} {built(build, u)}\n".encode())
        for depth in range(2, 8):
            for k in range(1, 6):
                us = {random_z_label(gen, depth) for _ in range(k)}
                vs = {random_z_label(gen, depth) for _ in range(len(us))}
                pairs = list(zip(sorted(us), sorted(vs)))
                digest.update(f"{pairs} {built(cone_routing_element, pairs, depth)}\n".encode())
        assert digest.hexdigest() == self.DIGEST


class TestTransience:
    def test_exact_value(self):
        hp = hit_probability_exact()
        assert hp.minimal_root == Fraction(1, 3)
        assert hp.roots == (Fraction(1, 3), Fraction(1, 1))

    def test_value_iteration_oracle(self):
        q = 0.0
        for _ in range(200):
            q = 0.25 + 0.75 * q * q
        assert abs(q - 1 / 3) < 1e-9

    def test_monte_carlo_smoke(self):
        p, lo, hi = simulate_hit_probability(20_000, 2_000, 101)
        assert abs(p - 1 / 3) < 0.02
        assert lo <= 1 / 3 <= hi

    @pytest.mark.parametrize(
        "trials, horizon, seed",
        [(3_001, 500, s) for s in range(5)]
        + [(2_000, h, 3) for h in (1, 2, 4, 6, 12)]
        + [(1, 7, 1), (777, 31, 9), (50, 0, 2)],
    )
    def test_chain_matches_compacting_every_step(self, trials, horizon, seed):
        # The chain updates in place and compacts only when a trial leaves;
        # the draw sizes, and so the hits, must be those of the chain that
        # compacts after every step.
        p, _, _ = simulate_hit_probability(trials, horizon, seed)
        assert p == hit_count(trials, horizon, seed) / trials

    def test_superharmonic_radius1_matches_radius4(self):
        assert superharmonic_check(1) == superharmonic_check(4) == True  # noqa: E712

    def test_superharmonic_rejects_radius0(self):
        with pytest.raises(ConeError):
            superharmonic_check(0)


class TestQn:
    def test_n0_is_zero(self):
        est = estimate_qn(Fraction(1, 8), 0, 50, 5)
        assert est.p_hat == 0.0
        assert est.depth_cap_exceeded == 0

    def test_stays_below_ceiling(self):
        est = estimate_qn(Fraction(1, 8), 30, 400, 7)
        assert est.p_hat <= 0.35 + 3 * 0.025
        assert est.depth_cap_exceeded == 0

    def test_pure_letter_walk_bounded_by_truncated_hitting(self):
        # p_letter = 1/4 leaves no mass for permutations. The cone-hitting
        # event then forces the walk to pass through x, so q_n is bounded by
        # the probability of hitting x within n steps (value-iteration DP),
        # itself below the 1/3 ceiling.
        n = 60
        est = estimate_qn(Fraction(1, 4), n, 600, 9)
        # DP for P(hit distance 0 within t steps | start at distance d).
        hit = [1.0] + [0.0] * (n + 2)
        for _ in range(n):
            new = hit[:]
            for d in range(1, n + 1):
                new[d] = 0.25 * hit[d - 1] + 0.75 * hit[d + 1]
            hit = new
        bound = hit[1]
        sigma = (est.p_hat * (1 - est.p_hat) / est.trials) ** 0.5
        assert bound < 1 / 3
        assert est.p_hat <= bound + 3 * max(sigma, 0.02)
        assert est.p_hat > 0.03  # the event does occur at a positive rate

    def test_thread_invariance(self):
        a = estimate_qn(Fraction(1, 8), 20, 60, 11, threads=1)
        b = estimate_qn(Fraction(1, 8), 20, 60, 11, threads=4)
        assert a == b

    def test_default_cap_never_censors(self):
        # A split's children get past the atom that split them, so an
        # n-atom trial from Cone(z) splits at depth at most n.
        n = 10
        assert estimate_qn(Fraction(1, 8), n, 200, 5, depth_cap=n + 1).depth_cap_exceeded == 0
        assert estimate_qn(Fraction(1, 8), n, 200, 5, depth_cap=3).depth_cap_exceeded > 0

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_one_split_per_atom(self, n):
        # Each x^-1 cancels the whole label, so every atom splits once.
        assert cantor._image((-X,) * n, [(X,)], n + 1)
        with pytest.raises(DepthCapExceeded) as info:
            cantor._image((-X,) * n, [(X,)], n)
        assert info.value.depth == n

    def test_bad_letter_mass(self):
        with pytest.raises(ConeError):
            estimate_qn(Fraction(1, 3), 10, 10, 1)


class TestInverse:
    def test_element_inverse_roundtrip(self):
        gen = rng.substream(13)
        sigma = tuple(int(i) for i in gen.permutation(18))
        sigma_inv = tuple(sigma.index(j) for j in range(18))
        g = (X, sigma, -Y, sigma_inv, Y)
        gi = invert_element(g)
        for label in (lab("zx"), lab("Zyx"), lab("xzz")):
            assert image_antichain(gi + g, [label]) == (label,)


class TestElementBoundary:
    # z is not in the acting group, and an atom must be an int letter or the
    # 18-tuple of a permutation's targets; nothing else reaches the action.
    @pytest.mark.parametrize(
        "atom",
        [Z, -Z, 0, (0,) * 18, tuple(range(17)), np.int64(1), list(range(18)), tuple(np.arange(18))],
        ids=["z", "Z", "zero", "repeated-target", "17-targets", "numpy-letter", "list", "numpy-targets"],
    )
    @pytest.mark.parametrize(
        "entry",
        [lambda g: apply_element(g, CONE_Z2), lambda g: image_antichain(g, [CONE_Z2]), invert_element],
        ids=["apply_element", "image_antichain", "invert_element"],
    )
    def test_refuses_other_atoms(self, entry, atom):
        with pytest.raises(ConeError):
            entry((X, atom))


class TestFromAssignments:
    # A permutation atom acts on the 18 two-letter labels with a z-letter;
    # any other label is named in a ConeError, not a KeyError.
    @pytest.mark.parametrize("label", ["xy", "zxz"], ids=["xy-only", "three-letters"])
    def test_refuses_labels_outside_omega(self, label):
        with pytest.raises(ConeError, match=label):
            from_assignments({lab(label): lab("zx")})
        with pytest.raises(ConeError, match=label):
            from_assignments({lab("zx"): lab(label)})


class TestElementText:
    def test_letter_roundtrip(self):
        from hypmix.cantor import format_element

        assert format_element((1, -2, -1, 2)) == "x Y X y"

    def test_identity_formats_as_one(self):
        from hypmix.cantor import format_element

        assert format_element(()) == "1"


class TestPositionalActionLaw:
    def test_apply_is_positional_for_random_elements(self):
        # For any element g and cone label u deep enough that apply succeeds,
        # the action restricted to Cone(u) must be the positional bijection
        # onto Cone(g(u)): images of extensions coincide with xi transport.
        gen = rng.substream(15)
        for _ in range(40):
            atoms = []
            for _ in range(int(gen.integers(1, 6))):
                if gen.integers(0, 2):
                    atoms.append([1, -1, 2, -2][int(gen.integers(0, 4))])
                else:
                    atoms.append(tuple(int(i) for i in gen.permutation(18)))
            g = tuple(atoms)
            u = random_z_label(gen, int(gen.integers(2, 5)))
            image = apply_element(g, u)
            if image is NEEDS_REFINEMENT:
                continue
            for w in order_cones(u, 2):
                got = apply_element(g, w)
                assert got is not None
                assert got == _xi(u, image, w)
