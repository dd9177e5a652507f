import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from hypmix import cantor, rng
from hypmix.cantor import (
    CONE_Z,
    CONE_Z2,
    CONE_ZM2,
    NEEDS_REFINEMENT,
    OMEGA,
    SIGMA,
    ConeCertificationError,
    ConeError,
    ConePermutation,
    DepthCapExceeded,
    antichain_meets_cone,
    apply_element,
    standardizing_element,
    cone_routing_element,
    cone_transposition,
    estimate_qn,
    format_label,
    hit_probability_exact,
    image_antichain,
    invert_element,
    order_cones,
    parse_label,
    simulate_hit_probability,
    superharmonic_check,
    xi,
)

from conftest import src_env

X, Y, Z = 1, 2, 3
ALL_LETTERS = (1, -1, 2, -2, 3, -3)


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
        word = []
        for _ in range(length):
            choices = [l for l in ALL_LETTERS if not word or l != -word[-1]]
            word.append(choices[int(gen.integers(0, len(choices)))])
        word = tuple(word)
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
        assert xi(lab("zx"), lab("zy"), lab("zxx")) == lab("zyx")

    def test_second_to_second(self):
        assert xi(lab("zx"), lab("zy"), lab("zxy")) == lab("zyX")

    def test_identity(self):
        assert xi(lab("zx"), lab("zx"), lab("zxzz")) == lab("zxzz")

    def test_prefix_required(self):
        with pytest.raises(ConeError):
            xi(lab("zx"), lab("zy"), lab("zyx"))

    def test_matches_order_cones_exhaustively(self):
        pairs = [(lab("zx"), lab("zy")), (lab("Zy"), lab("xz")), (lab("z"), lab("Z"))]
        for u, v in pairs:
            for depth in (1, 2, 3):
                src = order_cones(u, depth)
                dst = order_cones(v, depth)
                for s, d in zip(src, dst):
                    assert xi(u, v, s) == d

    def test_composition_law(self):
        # xi(v,t) . xi(u,v) = xi(u,t) and xi(u,u) = id, exhaustively to depth 3.
        labels = [lab("zx"), lab("zy"), lab("Zx"), lab("xz")]
        for u in labels:
            for v in labels:
                for t in labels:
                    for depth in (1, 2, 3):
                        for w in order_cones(u, depth):
                            assert xi(v, t, xi(u, v, w)) == xi(u, t, w)
        for u in labels:
            for w in order_cones(u, 3):
                assert xi(u, u, w) == w

    def test_order_preservation(self):
        u, v = lab("zx"), lab("yZ")
        src = order_cones(u, 2)
        dst = order_cones(v, 2)
        images = [xi(u, v, w) for w in src]
        assert images == dst  # same positions, hence order preserved


class TestApply:
    def test_left_multiplication(self):
        assert apply_element((X,), lab("zx")) == lab("xzx")

    def test_cancellation(self):
        assert apply_element((X,), lab("Xz")) == lab("z")

    def test_full_cancellation_needs_refinement(self):
        assert apply_element((X,), lab("X")) is None

    def test_permutation_on_shallow_label(self):
        sigma = ConePermutation(tuple(range(18)))
        assert apply_element((sigma,), lab("z")) is None

    def test_permutation_moves_cone(self):
        sigma = ConePermutation.from_assignments({lab("zx"): lab("zy")})
        assert apply_element((sigma,), lab("zxx")) == lab("zyx")

    def test_permutation_fixes_f2_prefixes(self):
        sigma = ConePermutation.from_assignments({lab("zx"): lab("zy")})
        for label in ("xy", "xyz", "YxY"):
            assert apply_element((sigma,), lab(label)) == lab(label)

    def test_permutations_fix_all_f2_points_exhaustively(self):
        gen = rng.substream(5)
        sigma = ConePermutation(tuple(int(i) for i in gen.permutation(18)))
        for label in full_partition(4):
            if all(abs(l) != Z for l in label[:2]):
                assert apply_element((sigma,), label) == label

    def test_atoms_act_right_to_left(self):
        sigma = ConePermutation.from_assignments({lab("zx"): lab("zy")})
        assert apply_element((X, sigma), lab("zxx")) == lab("xzyx")


class TestImageAntichain:
    def test_identity_element(self):
        assert image_antichain((), [lab("zx")]) == (lab("zx"),)

    def test_permutation_partition_bijectivity(self):
        gen = rng.substream(3)
        six_cones = tuple((l,) for l in ALL_LETTERS)
        for depth in (2, 3, 4):
            sigma = ConePermutation(tuple(int(i) for i in gen.permutation(18)))
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
        image = apply_element(g, label)
        if image is None:
            if len(label) >= depth_cap:
                raise DepthCapExceeded(len(label))
            work.extend(order_cones(label, 1))
        else:
            out.append(image)
    return cantor._merge_antichain(out)


def random_element(gen, n, p_letter):
    """n atoms drawn as estimate_qn draws them."""
    atoms = []
    for r in gen.integers(0, p_letter.denominator, size=n).tolist():
        if r < 4 * p_letter.numerator:
            atoms.append((X, -X, Y, -Y)[r // p_letter.numerator])
        else:
            atoms.append(ConePermutation(tuple(gen.permutation(18).tolist())))
    return tuple(atoms)


class TestImageAntichainReference:
    # Resuming a split at the atom that could not act must give exactly what
    # restarting each child from the rightmost atom gives, cap outcome included.

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
                image_antichain(g, sources, cap)
            assert info.value.depth == exc.depth
            return "capped"
        assert image_antichain(g, sources, cap) == want
        return "refined" if any(apply_element(g, u) is None for u in sources) else "direct"


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


class TestCertification:
    def test_non_positional_action_raises(self, monkeypatch):
        monkeypatch.setattr(cantor, "xi", lambda u, v, w: v)
        with pytest.raises(ConeCertificationError):
            standardizing_element(lab("xzx"))

    def test_failed_recursion_step_raises(self, monkeypatch):
        monkeypatch.setattr(cantor, "apply_element", lambda g, label: NEEDS_REFINEMENT)
        with pytest.raises(ConeCertificationError):
            standardizing_element(lab("xzx"))

    def test_non_square_discriminant_raises(self, monkeypatch):
        monkeypatch.setattr(cantor.math, "isqrt", lambda value: 1)
        with pytest.raises(ConeCertificationError):
            hit_probability_exact()

    def test_checks_run_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import sys
            from hypmix import cantor

            if __debug__:
                sys.exit("not running under -O")
            cantor.xi = lambda u, v, w: v
            try:
                cantor.standardizing_element((1, 3, 1))
                sys.exit("non-positional action accepted")
            except cantor.ConeCertificationError:
                pass
            cantor.math.isqrt = lambda value: 1
            try:
                cantor.hit_probability_exact()
            except cantor.ConeCertificationError:
                sys.exit(0)
            sys.exit("no ConeCertificationError raised")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


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

    def test_bad_letter_mass(self):
        with pytest.raises(ConeError):
            estimate_qn(Fraction(1, 3), 10, 10, 1)


class TestInverse:
    def test_element_inverse_roundtrip(self):
        gen = rng.substream(13)
        sigma = ConePermutation(tuple(int(i) for i in gen.permutation(18)))
        g = (X, sigma, -Y, sigma.inverse(), Y)
        gi = invert_element(g)
        for label in (lab("zx"), lab("Zyx"), lab("xzz")):
            assert image_antichain(gi + g, [label]) == (label,)


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
                    atoms.append(
                        ConePermutation(tuple(int(i) for i in gen.permutation(18)))
                    )
            g = tuple(atoms)
            u = random_z_label(gen, int(gen.integers(2, 5)))
            image = apply_element(g, u)
            if image is NEEDS_REFINEMENT:
                continue
            for w in order_cones(u, 2):
                got = apply_element(g, w)
                assert got is not None
                assert got == xi(u, image, w)
