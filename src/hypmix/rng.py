"""Deterministic random number streams for Monte Carlo experiments.

All randomness in this package flows through Philox-4x64-10, a counter-based
generator with published round constants, wrapped by numpy. Each trial of an
experiment draws from its own substream, keyed by SplitMix64-mixing the master
seed with the trial index (and any further path components). Substreams are
therefore independent of scheduling: a trial produces identical bits whether
it runs first, last, or in another worker process.

A stream that a caller keeps comes from substream, a new generator. A trial
loop draws from trial_stream instead: each process keeps one generator and
re-keys its Philox per trial, to the key, zero counter and empty buffers a
new Philox holds, as a counter-based generator is meant to be used (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). The draws are
the same; the cost of building a generator per trial is not paid. Nor is
the cost of keying it one index at a time: the keys of single trial
indices come in cached blocks of 256 consecutive indices, SplitMix64-mixed
in one numpy uint64 pass, which wraps mod 2^64 as substream_key's masked
arithmetic does. An index outside [0, 2^63), and any longer or shorter
path, is keyed by substream_key.

Step draws go through draw_below, which returns what integers(0, bound)
returns and leaves the generator where that call leaves it. numpy draws a
bound up to 2^32 by Lemire's method ("Fast random integer generation in an
interval", ACM TOMACS 2019) on 32-bit halves of Philox's 64-bit words, low
half first, stashing the high half for the next 32-bit draw. For a power of
two 2^b the method never rejects and returns the top b bits of each half,
so draw_below reads such bounds as raw words shifted right: the draw method
differs from integers, the bits do not. Other bounds go to integers.
Whether a half-word is stashed is read from the generator's state, which
numpy builds as a dict on every read. A trial's first draw, trial_draw,
skips that read: a stream trial_stream has just re-keyed holds no stashed
half-word.
"""

from __future__ import annotations

import functools
import os
import sys

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood 2014).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state, returning (new_state, output word)."""
    state = (state + _SM_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
    z ^= z >> 31
    return state, z


def substream_key(master_seed: int, *path: int) -> int:
    """128-bit Philox key derived from a master seed and a path of indices."""
    state = master_seed & _MASK64
    for index in path:
        state, _ = _splitmix64(state ^ (index & _MASK64))
    state, lo = _splitmix64(state)
    state, hi = _splitmix64(state)
    return (hi << 64) | lo


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (master_seed, *path).

    The same arguments always yield a generator producing the same stream,
    regardless of how many other substreams were opened before it.
    """
    return np.random.Generator(np.random.Philox(key=substream_key(master_seed, *path)))


# Viewed as uint32 on a little-endian host, a raw Philox word lists its low
# half first, the half numpy draws first.
_RAW_ROUTE = sys.byteorder == "little"


def draw_below(gen: np.random.Generator, bound: int, size: int) -> np.ndarray:
    """gen.integers(0, bound, size=size, dtype=np.uint64), and gen left in
    the state that call leaves it in.

    A bound 2^b with 1 <= b <= 32 takes the raw route on a little-endian
    host: each 64-bit word of random_raw gives two draws, its low half
    first, each half shifted right by 32 - b. A half-word that an earlier
    odd-sized draw stashed is drawn first, and an odd last draw is drawn
    alone, both through integers, so that numpy consumes and stashes
    half-words exactly as one integers call does.
    """
    return _draw(gen, bound, size, fresh=False)


def _draw(gen: np.random.Generator, bound: int, size: int, fresh: bool) -> np.ndarray:
    """draw_below's body. A fresh stream holds no stashed half-word, so
    its state is not read; any other stream's stash flag is read once."""
    if not (_RAW_ROUTE and 2 <= bound <= 2**32 and bound & (bound - 1) == 0):
        return gen.integers(0, bound, size=size, dtype=np.uint64)
    out = np.empty(size, dtype=np.uint64)
    start = 1 if size and not fresh and gen.bit_generator.state["has_uint32"] else 0
    if start:
        out[0] = gen.integers(0, bound, dtype=np.uint64)
    words = (size - start) // 2
    raw = gen.bit_generator.random_raw(words).view(np.uint32)
    np.right_shift(raw, 33 - bound.bit_length(), out=out[start : start + 2 * words])
    if (size - start) % 2:
        out[-1] = gen.integers(0, bound, dtype=np.uint64)
    return out


# This process's one trial generator, built on first use so that importing
# the package does not load numpy.random, and the Philox state of a new
# substream, its key left to fill in.
_gen = None
_state = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
# fn of the running map_trials call: forked workers inherit it, so no
# closure is pickled.
_trial_fn = None


# trial_stream takes the key of a single trial index from a block of
# _KEY_BLOCK consecutive indices, SplitMix64-mixed in one numpy pass.
_KEY_BLOCK = 256


@functools.lru_cache(maxsize=8)
def _key_block(master_seed: int, block: int) -> tuple:
    """The Philox keys (lo, hi) of substream_key(master_seed, t) for the
    _KEY_BLOCK trial indices t of a block, 0 <= master_seed < 2^64.

    The index path's SplitMix64 round only advances the state, so the
    key's two words are the outputs of the next two rounds. numpy's
    uint64 arithmetic wraps mod 2^64, as the masked integer code does.
    """

    def mix(z):
        z = (z ^ (z >> 30)) * np.uint64(_SM_MIX1)
        z = (z ^ (z >> 27)) * np.uint64(_SM_MIX2)
        return z ^ (z >> 31)

    gamma = np.uint64(_SM_GAMMA)
    index = np.arange(block * _KEY_BLOCK, (block + 1) * _KEY_BLOCK, dtype=np.uint64)
    state = (index ^ np.uint64(master_seed)) + gamma + gamma
    return tuple(zip(mix(state).tolist(), mix(state + gamma).tolist()))


def trial_stream(master_seed: int, *path: int) -> np.random.Generator:
    """The process's generator, re-keyed to draw what
    substream(master_seed, *path) draws.

    Its Philox gets the key substream would give, a zero counter and empty
    buffers, so nothing of an earlier trial carries over. A path of one
    index t with 0 <= t < 2^63 takes its key from t's cached block; any
    other path goes through substream_key. The generator is valid until
    trial_stream is called again: a trial draws from it and keeps no
    reference to it.
    """
    global _gen
    if _gen is None:
        _gen = np.random.Generator(np.random.Philox(0))
    if len(path) == 1 and 0 <= path[0] < 2**63:
        block, at = divmod(path[0], _KEY_BLOCK)
        _state["state"]["key"] = _key_block(master_seed & _MASK64, block)[at]
    else:
        key = substream_key(master_seed, *path)
        _state["state"]["key"] = (key & _MASK64, key >> 64)
    _gen.bit_generator.state = _state
    return _gen


def trial_draw(master_seed: int, trial: int, bound: int, size: int) -> tuple[np.random.Generator, np.ndarray]:
    """(trial_stream(master_seed, trial), draw_below of size draws below
    bound from it): the same draws, and the generator left in the same
    state. The stream is fresh, so it holds no stashed half-word and its
    state is not read back."""
    gen = trial_stream(master_seed, trial)
    return gen, _draw(gen, bound, size, fresh=True)


def _run_chunk(start: int, stop: int) -> list:
    return [_trial_fn(t) for t in range(start, stop)]


def map_trials(fn, trials: int, threads: int = 1) -> list:
    """Evaluate fn(trial_index) for 0 <= trial_index < trials.

    Results come back ordered by trial index no matter the worker count, so
    any reduction over them is scheduling-independent. fn seeds itself,
    drawing from trial_stream keyed by its trial index, so a trial's draws
    do not depend on the worker that runs it. Each process caches its own
    blocks of trial keys, and a block's keys are substream_key's whichever
    process mixes them. At most min(threads, trials, CPU count) worker
    processes are forked, each to run one contiguous chunk of trial
    indices; one worker, or a platform without fork, runs inline. A
    trial's exception reaches the caller, and no worker outlives the call.
    """
    global _trial_fn
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in range(trials)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = [trials * i // workers for i in range(workers + 1)]
    _trial_fn = fn
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            chunks = list(pool.map(_run_chunk, bounds[:-1], bounds[1:]))
    finally:
        _trial_fn = None
    return [result for chunk in chunks for result in chunk]
