import importlib.util
import textwrap
from pathlib import Path

import pytest

from hypmix import rng
from hypmix.freegroup import FreeContext, WordError, cyclic_reduce, invert, multiply, power
from hypmix.harness import ExperimentConfig, run
from hypmix.selftest import _map_rows, _table_min_powers, _two_letter_automaton, core_maps
from hypmix.stallings import SubgroupAutomaton
from hypmix.transverse import (
    CertificateError,
    TransversalityCertificate,
    TransversalityError,
    _core_loop_states,
    _element,
    certificate,
    compute_u0,
    construct_transverse,
    overlap_bound,
    power_conjugate_into,
)

from conftest import A, B, F2, run_optimized, sub
from reference import (
    all_core_automata,
    brute_min_m,
    conjugate_splits,
    core_loop_states,
    minimal_power_in,
    overlap_count,
)


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


def check_loop_scan_on_core_maps():
    """_core_loop_states against core_loop_states, which reads the whole word
    core^m from each state for each m, on every three-state core automaton;
    returns power_conjugate_into's answers in scan order."""
    cores = [w for w in F2.ball(4) if w and cyclic_reduce(w)[0] == w]
    answers = []
    for a, b in core_maps(3):
        h = _two_letter_automaton(a, b)
        for core in cores:
            loops = core_loop_states(h, core)
            assert _core_loop_states(h, core) == loops
            # The least m, at the lowest state that has it.
            want = min(((m, q) for q, m in loops.items()), default=None)
            got = power_conjugate_into(h, core)
            assert got == (None if want is None else (want[0], invert(h.word_to_state(want[1]))))
            answers.append(got)
    return answers


class TestLoopScan:
    def test_matches_reference_on_core_maps(self):
        check_loop_scan_on_core_maps()

    def test_one_state(self):
        for h, loops in ((sub(), {}), (sub("a"), {0: 1}), (sub("a", "b"), {0: 1})):
            assert h.n_states == 1
            assert _core_loop_states(h, A) == loops == core_loop_states(h, A)
        assert _core_loop_states(sub("a"), B) == {}

    def test_cycle_of_length_n_states(self):
        h = sub("aaa")
        assert h.n_states == 3
        assert _core_loop_states(h, A) == {0: 3, 1: 3, 2: 3}
        assert power_conjugate_into(h, A) == (3, ())
        assert power_conjugate_into(h, F2.parse("baB")) == (3, B)

    def test_smaller_cycle_wins(self):
        # The a-cycle at the base has length 3; the one behind b, on the
        # higher-numbered states 3 and 4, has length 2.
        h = sub("aaa", "baaB")
        assert _core_loop_states(h, A) == {0: 3, 1: 3, 2: 3, 3: 2, 4: 2}
        assert h.word_to_state(3) == B
        assert power_conjugate_into(h, A) == (2, invert(B))

    def test_equal_m_takes_the_lowest_state(self):
        # a^2 loops at the base's two states and at the two behind b.
        h = sub("aa", "baaB")
        assert _core_loop_states(h, A) == {0: 2, 1: 2, 2: 2, 3: 2}
        assert power_conjugate_into(h, A) == (2, ())
        assert power_conjugate_into(h, F2.parse("baB")) == (2, B)


class TestElementMemo:
    # _element reduces each distinct (element, rank) once for every caller.

    def test_warm_scan_matches_cold_scan(self):
        _element.cache_clear()
        cold = check_loop_scan_on_core_maps()
        misses = _element.cache_info().misses
        warm = check_loop_scan_on_core_maps()
        assert warm == cold
        assert _element.cache_info().misses == misses

    def test_rank_is_part_of_the_key(self):
        c = (3,)
        assert power_conjugate_into(SubgroupAutomaton.from_generators(3, [c]), c) == (1, ())
        with pytest.raises(WordError):
            power_conjugate_into(sub("a"), c)
        with pytest.raises(WordError):
            compute_u0(sub("a"), c)

    def test_errors_are_not_cached(self):
        h = sub("a")
        for bad in ((1, 0), (2, 5)):
            for _ in range(2):
                with pytest.raises(WordError):
                    power_conjugate_into(h, bad)
        assert _element((1, 2), 2) == ((1, 2), (1, 2), ())
        for identity in ((), (1, 2, -2, -1)):
            for _ in range(2):
                with pytest.raises(TransversalityError, match="power-conjugacy undefined"):
                    power_conjugate_into(h, identity)
                with pytest.raises(TransversalityError, match="forbidden set undefined"):
                    compute_u0(h, identity)
                with pytest.raises(TransversalityError, match="power-conjugacy undefined"):
                    certificate(h, identity)

    def test_list_and_tuple_inputs_agree(self):
        h = sub("aa", "baB")
        for f in ((2, 1, -2), (2, 1, 1, -1, 2, -2, -2), (1, 2)):
            assert power_conjugate_into(h, list(f)) == power_conjugate_into(h, f)
            assert compute_u0(h, list(f)) == compute_u0(h, f)
            assert certificate(h, list(f)) == certificate(h, f)
        assert power_conjugate_into(sub("a"), [2, 1, -2]) == (1, B)

    def test_size_stays_bounded(self):
        h = sub("a")
        words = [w for w in F2.ball(6) if w]
        maxsize = _element.cache_info().maxsize
        assert len(words) > maxsize
        first = [power_conjugate_into(h, w) for w in words]
        assert _element.cache_info().currsize == maxsize
        # The earliest words were evicted; their answers do not change.
        assert [power_conjugate_into(h, w) for w in words] == first
        assert _element.cache_info().currsize == maxsize


class TestCriterion6Oracle:
    def test_table_matches_per_pair_search(self):
        # The table oracle of criterion 6 against the per-pair search on the
        # three-state catalogue and criterion 6's elements and conjugators.
        maps = core_maps(3)
        fs = [w for w in F2.ball(4) if w]
        vs = F2.ball(4)
        table = _table_min_powers(maps, fs, vs)
        assert table.shape == (160, len(maps))
        rows = [_map_rows(a, b) for a, b in maps]
        for i, f in enumerate(fs):
            per_v = conjugate_splits(f, vs)
            assert [brute_min_m(r, per_v) or 0 for r in rows] == table[i].tolist()
        assert 0 < (table == 0).sum() < table.size
        # No minimal m here exceeds 3, so the default cap of 8 never binds;
        # a cap of 2 does.
        capped = _table_min_powers(maps, fs[:52], vs, m_cap=2)
        for i, f in enumerate(fs[:52]):
            per_v = conjugate_splits(f, vs)
            assert [brute_min_m(r, per_v, m_cap=2) or 0 for r in rows] == capped[i].tolist()
        assert (table[:52] == 3).any() and not (capped == 3).any()


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
        run_optimized(script)


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

    def test_rank_5_run_stops_at_the_first_avoided_element(self, monkeypatch):
        # F5's ball of radius AVOID_RADIUS_CAP = 8 holds about 5 * 10^7
        # words; the avoided element lies within radius 1, so no ball past
        # radius 3 may be built.
        ball = FreeContext.ball

        def small_ball(ctx, radius):
            if radius > 3:
                raise AssertionError(f"built the radius-{radius} ball of rank {ctx.rank}")
            return ball(ctx, radius)

        monkeypatch.setattr(FreeContext, "ball", small_ball)
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = transverse\nseed = 1\n[params]\nrank = 5\ntargets = a | b\ng = ab\n"
        )
        rows = run(cfg)
        assert [r.params for r in rows if r.metric == "exponent"] == ["rank=5;g=ab;f=aba;a=a"]
        assert [r.value for r in rows if r.metric == "certified_transverse"] == [1.0, 1.0]

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


def _bench_workloads():
    """bench/workloads.py, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCoreMaps:
    # Criterion 6 scans the automata of core_maps; its brute force reads a
    # table built from the maps.

    @pytest.mark.parametrize("max_states", [1, 2, 3])
    def test_matches_canonicalizing_every_pair(self, max_states):
        got = [_two_letter_automaton(a, b) for a, b in core_maps(max_states)]
        assert len(got) == len(set(got))
        assert set(got) == set(all_core_automata(max_states))

    def test_rows_are_the_canonical_rows(self):
        for a, b in core_maps(4):
            assert tuple(_map_rows(a, b)) == _two_letter_automaton(a, b).transitions

    def test_line_format_matches_the_bench_catalogue(self):
        # The transverse workload's catalogue, in its order.
        texts = []
        for a, b in core_maps(4):
            lines = [str(len(a)), "base=0"]
            for s in range(len(a)):
                lines += [f"{s} {label} {m[s]}" for label, m in (("a", a), ("b", b)) if m[s] is not None]
            texts.append("\n".join(lines) + "\n")
        assert texts == _bench_workloads()._catalogue_texts(4)
