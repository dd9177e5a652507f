import multiprocessing
import os
import subprocess
import sys
from concurrent import futures
from fractions import Fraction

import numpy as np
import pytest

from hypmix import rng
from hypmix.cantor import ConeCertificationError, estimate_qn
from hypmix.freegroup import FreeContext
from hypmix.mixing import WitnessPair, _witness_trial, joint_mixing
from hypmix.selftest import UNIFORM_F2 as UNIFORM
from hypmix.stallings import SubgroupAutomaton
from hypmix.walks import drift_estimate

from conftest import StuckGenerator, src_env

# Draws from rng.substream(20260808, 0), each from a fresh substream. The
# goldens rest on numpy's Philox output and on its bounded-integer and
# permutation algorithms; a numpy release that changes either must fail here,
# by name, rather than show up as a drifted estimate.
SEED, PATH = 20260808, (0,)
RANDOM_RAW = [9126000501111596204, 9792695406494489782, 10696830480035199171, 4282962404391261904]
INTEGERS_BELOW_8 = [5, 3, 4, 4, 5, 4, 2, 1, 7, 2, 6, 5]
PERMUTATION_18 = [4, 17, 7, 1, 14, 8, 11, 2, 6, 9, 16, 15, 10, 13, 0, 5, 3, 12]


def fresh():
    return rng.substream(SEED, *PATH)


def test_stream_pin():
    got = {
        "random_raw": [int(x) for x in fresh().bit_generator.random_raw(len(RANDOM_RAW))],
        "integers(0, 8)": fresh().integers(0, 8, size=len(INTEGERS_BELOW_8)).tolist(),
        "permutation(18)": fresh().permutation(18).tolist(),
    }
    want = {
        "random_raw": RANDOM_RAW,
        "integers(0, 8)": INTEGERS_BELOW_8,
        "permutation(18)": PERMUTATION_18,
    }
    changed = [f"{key}: {got[key]} != {want[key]}" for key in want if got[key] != want[key]]
    assert not changed, "numpy stream changed: " + "; ".join(changed)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_batched_permutations_pin(k):
    # cantor.estimate_qn draws a trial's k permutations in one permuted call.
    # It must give the rows of k sequential permutation(18) calls and leave
    # the stream where they leave it; a numpy release that breaks this must
    # fail here rather than drift criterion 13's rows.
    batched, sequential = fresh(), fresh()
    rows = batched.permuted(np.tile(np.arange(18), (k, 1)), axis=1)
    assert rows.shape == (k, 18)
    assert rows.tolist() == [sequential.permutation(18).tolist() for _ in range(k)]
    after = len(INTEGERS_BELOW_8)
    assert batched.integers(0, 8, size=after).tolist() == sequential.integers(0, 8, size=after).tolist()


# Denominators of step measures: powers of two, which numpy's Lemire sampler
# draws from 32-bit half-words without ever rejecting, and others just past
# 2^32 and 2^63, where it rejects draws and may use more than one raw word
# for one value.
PREFIX_DENOMINATORS = [4, 6, 12, 2**32 + 5, 2**63 + 7, 2**64 - 1]
PREFIX_SIZES = [(0, 0), (0, 9), (1, 1), (1, 160), (7, 8), (13, 40), (80, 160), (159, 160)]


@pytest.mark.parametrize("denominator", PREFIX_DENOMINATORS)
def test_bounded_draws_prefix_stable(denominator):
    # StepMeasure.positions draws max(ns) steps once for a whole schedule;
    # its endpoint at n stays the n-step walk only while the first n of N
    # bounded draws equal a size-n draw from the same fresh stream.
    changed = []
    for trial in range(40):
        for n, size in PREFIX_SIZES:
            long = rng.trial_stream(SEED, trial).integers(0, denominator, size=size, dtype=np.uint64)[:n]
            short = rng.trial_stream(SEED, trial).integers(0, denominator, size=n, dtype=np.uint64)
            if long.tolist() != short.tolist():
                changed.append((trial, n, size))
    assert not changed, f"numpy stream changed: bounded draws below {denominator} are not prefix-stable at {changed[:5]}"


# draw_below takes its raw route for the powers of two up to 2^32 and calls
# integers for the rest; sizes odd and even, on either side of the walks'
# SHORT_WALK cut and of a drift walk.
DRAW_BELOW_BOUNDS = [2, 4, 8, 6, 12, 2**16, 2**17, 2**19, 2**31, 2**32, 2**32 + 5]
DRAW_BELOW_SIZES = [0, 1, 2, 7, 160, 161, 10_001]


def after_draw(gen: np.random.Generator) -> list:
    return [
        gen.permuted(np.tile(np.arange(18), (3, 1)), axis=1).tolist(),
        gen.integers(0, 7, 5).tolist(),
    ]


@pytest.mark.parametrize("bound", DRAW_BELOW_BOUNDS)
def test_draw_below_matches_integers(bound):
    # The same values and dtype as integers(0, bound), and the stream left
    # where integers leaves it, with or without a half-word stashed by an
    # odd-sized draw before.
    changed = []
    for trial in range(4):
        for stash in (0, 1):
            for size in DRAW_BELOW_SIZES:
                got, want = rng.substream(SEED, trial), rng.substream(SEED, trial)
                for gen in (got, want):
                    gen.integers(0, 8, size=stash)
                assert got.bit_generator.state["has_uint32"] == stash
                drawn = rng.draw_below(got, bound, size)
                expected = want.integers(0, bound, size=size, dtype=np.uint64)
                if drawn.dtype != expected.dtype or drawn.tolist() != expected.tolist():
                    changed.append((trial, stash, size, "values"))
                elif after_draw(got) != after_draw(want):
                    changed.append((trial, stash, size, "draws after"))
    assert not changed, f"numpy stream changed: draw_below({bound}) differs from integers at {changed[:5]}"


@pytest.mark.parametrize(
    "threads, trials, cpus, workers",
    [
        (100_000, 50, 4, 4),
        (3, 50, 4, 3),
        (100_000, 2, 4, 2),
        (100_000, 50, 1, None),
        (8, 50, None, None),
        (1, 50, 4, None),
    ],
)
def test_map_trials_caps_workers(monkeypatch, threads, trials, cpus, workers):
    # At most min(threads, trials, CPU count) workers, forked; one worker
    # runs inline. The stand-in executor records its size and start method
    # and starts no process.
    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
    assert rng.map_trials(lambda t: t * t, trials, threads) == [t * t for t in range(trials)]
    assert pools == ([] if workers is None else [(workers, "fork")])
    assert rng._trial_fn is None


@pytest.fixture
def two_workers(monkeypatch):
    """Two worker processes on any host. After every map_trials call, one
    whose trial raised included, no worker is left running and the module
    global holding the trial function is clear."""
    map_trials = rng.map_trials

    def checked(fn, trials, threads=1):
        try:
            return map_trials(fn, trials, threads)
        finally:
            assert multiprocessing.active_children() == []
            assert rng._trial_fn is None

    monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rng, "map_trials", checked)


# Seeds and paths for the re-keying pins: seeds on both sides of 2^63 and
# past 2^64 (substream_key masks them), paths of one to three parts.
REKEY_CASES = [
    (seed, path)
    for seed in (0, 7, 20260808, 2**63 + 12345, 2**64 - 1, 2**70 + 3)
    for path in ((0,), (1,), (299,), (3, 5), (2**63, 1, 4))
]


def mixed_draws(gen: np.random.Generator) -> list:
    """Odd-sized 32-bit bounded draws, 64-bit bounded draws, a batched
    permutation and doubles, interleaved so that a half-used uint32 sits in
    the buffer between them."""
    return [
        gen.integers(0, 8, size=3).tolist(),
        gen.integers(0, 2**40 + 7, size=2, dtype=np.uint64).tolist(),
        gen.integers(0, 1000, size=1).tolist(),
        gen.permuted(np.tile(np.arange(18), (2, 1)), axis=1).tolist(),
        gen.random(3).tolist(),
        gen.integers(0, 3, size=5).tolist(),
    ]


def test_trial_stream_matches_substream():
    # Before each re-key the process's generator holds a half-used uint32
    # from an odd-sized integers(0, 8) draw; none of it may reach the next
    # trial.
    differ = []
    for seed, path in REKEY_CASES:
        stale = rng.trial_stream(seed, *path)
        stale.integers(0, 8)
        assert stale.bit_generator.state["has_uint32"] == 1
        if mixed_draws(rng.trial_stream(seed, *path)) != mixed_draws(rng.substream(seed, *path)):
            differ.append((seed, path))
    assert not differ, f"re-keyed stream differs from substream: {differ}"


def test_trial_stream_state_is_a_new_philox():
    for seed, path in REKEY_CASES:
        rng.trial_stream(seed, 9).integers(0, 8)
        got = rng.trial_stream(seed, *path).bit_generator.state
        want = rng.substream(seed, *path).bit_generator.state
        assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
        assert got["state"]["counter"].tolist() == [0, 0, 0, 0] == want["state"]["counter"].tolist()
        assert (got["buffer_pos"], got["has_uint32"], got["uinteger"]) == (4, 0, 0)
        assert (want["buffer_pos"], want["has_uint32"], want["uinteger"]) == (4, 0, 0)


# Block keys: seeds masked to the same word, and indices at both ends of a
# block and far past the first; fallback paths: indices outside [0, 2^63),
# a two-part path and no path at all.
BLOCK_SEEDS = (0, 1, -1, 2**64 - 1, 2**64 + 3, 20260808)
BLOCK_TRIALS = (0, 255, 256, 257, 2**20 + 1)
FALLBACK_PATHS = ((-1,), (2**63,), (2**64 - 1,), (2**64 + 5,), (3, 5), ())


def keyed(monkeypatch, seed, path) -> tuple[int, int]:
    """(the key trial_stream(seed, *path) sets, as one 128-bit integer, the
    number of substream_key calls it makes)."""
    calls = []
    substream_key = rng.substream_key
    monkeypatch.setattr(rng, "substream_key", lambda *a: calls.append(a) or substream_key(*a))
    lo, hi = rng.trial_stream(seed, *path).bit_generator.state["state"]["key"].tolist()
    monkeypatch.setattr(rng, "substream_key", substream_key)
    return (hi << 64) | lo, len(calls)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_block_keys_match_substream_key(monkeypatch, warm):
    for seed in BLOCK_SEEDS:
        for t in BLOCK_TRIALS:
            rng._key_block.cache_clear()
            if warm:
                rng.trial_stream(seed, t)
            before = rng._key_block.cache_info()
            assert keyed(monkeypatch, seed, (t,)) == (rng.substream_key(seed, t), 0), (seed, t)
            after = rng._key_block.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == ((1, 0) if warm else (0, 1))
        for path in FALLBACK_PATHS:
            rng._key_block.cache_clear()
            if warm:
                rng.trial_stream(seed, *path)
            assert keyed(monkeypatch, seed, path) == (rng.substream_key(seed, *path), 1), (seed, path)
            assert rng._key_block.cache_info().currsize == 0


def bit_state(gen: np.random.Generator) -> dict:
    """The generator's Philox state, its arrays as lists."""
    state = gen.bit_generator.state
    return {
        "counter": state["state"]["counter"].tolist(),
        "key": state["state"]["key"].tolist(),
        "buffer": state["buffer"].tolist(),
        "buffer_pos": state["buffer_pos"],
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


def drawn_and_after(gen: np.random.Generator, draws: np.ndarray) -> tuple:
    """A draw's dtype and values, the state it left, and the rows of a
    following batched permutation."""
    state = bit_state(gen)
    rows = gen.permuted(np.tile(np.arange(18), (5, 1)), axis=1).tolist()
    return draws.dtype, draws.tolist(), state, rows


def live(after: tuple) -> tuple:
    """drawn_and_after's record without uinteger when no half-word is
    stashed: a spent half-word that no later draw reads."""
    dtype, values, state, rows = after
    if not state["has_uint32"]:
        state = dict(state, uinteger=None)
    return dtype, values, state, rows


TRIAL_DRAW_BOUNDS = [2**b for b in range(1, 33)] + [3, 6, 12, 2**33, 2**63 - 1]
TRIAL_DRAW_SIZES = [0, 1, 2, 3, 159, 160, 161]


@pytest.mark.parametrize("bound", TRIAL_DRAW_BOUNDS)
def test_trial_draw_matches_draw_below(bound):
    # The draws, the state left behind (has_uint32 and uinteger included)
    # and the next permuted rows are draw_below's on the re-keyed stream.
    # The draws and the rows are also integers' on a new substream; its
    # state may differ only in uinteger, a spent half-word that an even
    # count of 32-bit draws leaves behind and no later draw reads. The
    # process's generator last drew an odd-sized integers call, so a
    # half-word is stashed before each re-key.
    changed = []
    for trial in (0, 1, 300):
        for size in TRIAL_DRAW_SIZES:
            rng.trial_stream(SEED, 9).integers(0, 8)
            got = drawn_and_after(*rng.trial_draw(SEED, trial, bound, size))
            gen = rng.trial_stream(SEED, trial)
            below = drawn_and_after(gen, rng.draw_below(gen, bound, size))
            gen = rng.substream(SEED, trial)
            integers = drawn_and_after(gen, gen.integers(0, bound, size=size, dtype=np.uint64))
            if got != below or live(got) != live(integers):
                changed.append((trial, size))
    assert not changed, f"trial_draw({bound}) differs from draw_below at {changed[:5]}"


class StateReads:
    """A bit generator stand-in that logs each read of its state."""

    def __init__(self, bit_generator, reads):
        self._bit_generator = bit_generator
        self._reads = reads

    @property
    def state(self):
        self._reads.append(1)
        return self._bit_generator.state

    def __getattr__(self, name):
        return getattr(self._bit_generator, name)


class ReadCounting:
    """A generator stand-in whose bit generator logs its state reads."""

    def __init__(self, gen, reads):
        self.integers = gen.integers
        self.permuted = gen.permuted
        self.bit_generator = StateReads(gen.bit_generator, reads)


def count_state_reads(monkeypatch) -> tuple[list, list]:
    """(the trial streams opened, the state reads made through them) from
    here on."""
    opened, reads = [], []
    trial_stream = rng.trial_stream
    monkeypatch.setattr(
        rng, "trial_stream", lambda *path: opened.append(path) or ReadCounting(trial_stream(*path), reads)
    )
    return opened, reads


def _mix_trials(trials):
    # The mix workload's instance: H = <a>, K = <b>, the ball of radius 2.
    h, k = (SubgroupAutomaton.from_generators(2, [g]) for g in ((1,), (2,)))
    pair = WitnessPair.of(h, k, FreeContext(2).ball(2))
    return [_witness_trial([pair], UNIFORM, [10, 20, 40, 80, 160], SEED, t) for t in range(trials)]


def _qn_trials(trials):
    return estimate_qn(Fraction(1, 8), 10, trials, SEED)


@pytest.mark.parametrize("run", [_mix_trials, _qn_trials], ids=["mix", "estimate_qn"])
def test_a_trial_reads_no_state(monkeypatch, run):
    # A trial's first draw is from a stream trial_stream has just re-keyed,
    # which holds no stashed half-word, so nothing reads the state back.
    # The results are those of unwrapped streams.
    want = run(12)
    opened, reads = count_state_reads(monkeypatch)
    assert run(12) == want
    assert len(opened) == 12
    assert reads == []
    # The proxy sees the read draw_below makes on a stream of unknown state.
    rng.draw_below(rng.trial_stream(SEED, 0), 4, 160)
    assert reads == [1]


def uneven_draws(gen: np.random.Generator, t: int) -> list:
    return gen.integers(0, 8, size=t % 7 + 1).tolist() + gen.integers(0, 2**40, size=2).tolist()


def test_trial_stream_in_worker_processes(two_workers):
    # The parent builds its generator first, so each forked worker inherits
    # it mid-stream; every trial must still draw its own substream, and the
    # parent's generator must still re-key to substream's draws afterwards.
    rng.trial_stream(31, 0).integers(0, 8)
    got = rng.map_trials(lambda t: (os.getpid(), uneven_draws(rng.trial_stream(31, t), t)), 400, 2)
    want = [uneven_draws(rng.substream(31, t), t) for t in range(400)]
    assert [draws for _, draws in got] == want, "re-keyed stream differs from substream"
    # Two forked workers, one contiguous chunk each.
    pids = [pid for pid, _ in got]
    assert len(set(pids[:200])) == len(set(pids[200:])) == 1
    assert len({pids[0], pids[200], os.getpid()}) == 3
    for seed, path in REKEY_CASES:
        assert mixed_draws(rng.trial_stream(seed, *path)) == mixed_draws(rng.substream(seed, *path))


def _witness_run(threads):
    h = SubgroupAutomaton.from_generators(2, [(1,)])
    k = SubgroupAutomaton.from_generators(2, [(2,)])
    window = [(), (1,), (2,), (1, 2), (2, 1)]
    return joint_mixing([(h, k, window)], UNIFORM, [6, 30], 24, 5, threads)


def _drift_run(threads):
    return drift_estimate(UNIFORM, 301, 24, 5, threads)


def _qn_run(threads):
    return estimate_qn(Fraction(1, 8), 15, 24, 5, threads=threads)


@pytest.mark.parametrize("run", [_witness_run, _drift_run, _qn_run], ids=["joint_mixing", "drift_estimate", "estimate_qn"])
def test_trial_loops_equal_at_one_and_two_threads(monkeypatch, two_workers, run):
    # The re-keyed streams give the same estimate at 1 and 2 worker
    # processes, and the same as a new substream per trial.
    one, two = run(1), run(2)
    monkeypatch.setattr(rng, "trial_stream", rng.substream)
    assert one == two == run(1)


def _stuck_permutation_block(monkeypatch):
    trial_stream = rng.trial_stream
    monkeypatch.setattr(rng, "trial_stream", lambda *path: StuckGenerator(trial_stream(*path)))
    return lambda threads: estimate_qn(Fraction(1, 8), 10, 5, 1, threads=threads)


@pytest.mark.parametrize(
    "broken, error",
    [(_stuck_permutation_block, ConeCertificationError)],
    ids=["cone"],
)
def test_trial_exception_reaches_the_caller(monkeypatch, two_workers, broken, error):
    # A trial that raises in a worker process raises the same exception, by
    # type and message, as it does inline.
    run = broken(monkeypatch)
    with pytest.raises(error) as inline:
        run(1)
    with pytest.raises(error) as forked:
        run(2)
    assert type(forked.value) is error
    assert str(forked.value) == str(inline.value)


def test_cli_import_loads_no_pool_or_random():
    # The pool modules load only when a run forks workers, and numpy.random
    # on the first trial; a fresh import, which the benchmark times, loads
    # neither.
    script = (
        "import sys\nimport hypmix.cli\n"
        "print(' '.join(m for m in ('numpy.random', 'concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
