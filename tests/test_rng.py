import numpy as np
import pytest

from hypmix import rng

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
