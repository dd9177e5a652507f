import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from hypmix import rng
from hypmix.cantor import estimate_qn
from hypmix.mixing import joint_mixing
from hypmix.stallings import SubgroupAutomaton
from hypmix.walks import StepMeasure, drift_estimate

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
    # At most min(threads, trials, CPU count) workers; one worker runs
    # inline. The stand-in pool records its size and starts no thread.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
    assert rng.map_trials(lambda t: t * t, trials, threads) == [t * t for t in range(trials)]
    assert sizes == ([] if workers is None else [workers])


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
    # Before each re-key the thread's generator holds a half-used uint32
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


def test_threads_keep_their_own_trial_stream():
    # Two threads take turns: each re-keys, draws, and yields to the other
    # before drawing again. Each must still read its own substream on.
    turns = [threading.Event() for _ in range(6)]
    got = {}

    def worker(name, seed, steps):
        draws = []
        for step in steps:
            assert turns[step].wait(timeout=60)
            if step < 2:
                gen = rng.trial_stream(seed, 0)
            draws.append(gen.integers(0, 8, size=3).tolist())
            if step + 1 < len(turns):
                turns[step + 1].set()
        got[name] = (draws, gen)

    threads = [
        threading.Thread(target=worker, args=("even", 11, [0, 2, 4]), daemon=True),
        threading.Thread(target=worker, args=("odd", 12, [1, 3, 5]), daemon=True),
    ]
    for t in threads:
        t.start()
    turns[0].set()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for name, seed in (("even", 11), ("odd", 12)):
        fresh_gen = rng.substream(seed, 0)
        assert got[name][0] == [fresh_gen.integers(0, 8, size=3).tolist() for _ in range(3)]
    assert got["even"][1] is not got["odd"][1]


def test_trial_stream_under_thread_stress():
    # More workers than cores and a short switch interval: a generator shared
    # between threads would hand one trial's buffer or counter to another.
    def one(t):
        gen = rng.trial_stream(31, t)
        return gen.integers(0, 8, size=t % 7 + 1).tolist() + gen.integers(0, 2**40, size=2).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(one, range(400), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    want = []
    for t in range(400):
        gen = rng.substream(31, t)
        want.append(gen.integers(0, 8, size=t % 7 + 1).tolist() + gen.integers(0, 2**40, size=2).tolist())
    assert got == want, "re-keyed stream differs from substream"


UNIFORM = StepMeasure.uniform_on(2, [(1,), (-1,), (2,), (-2,)])


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
def test_trial_loops_equal_at_one_and_two_threads(monkeypatch, run):
    # The re-keyed streams give the same estimate at 1 and 2 threads, and
    # the same as a new substream per trial.
    one, two = run(1), run(2)
    monkeypatch.setattr(rng, "trial_stream", rng.substream)
    assert one == two == run(1)
