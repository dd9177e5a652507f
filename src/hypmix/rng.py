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
the same; the cost of building a generator per trial is not paid.

Step draws go through draw_below, which returns what integers(0, bound)
returns and leaves the generator where that call leaves it. numpy draws a
bound up to 2^32 by Lemire's method ("Fast random integer generation in an
interval", ACM TOMACS 2019) on 32-bit halves of Philox's 64-bit words, low
half first, stashing the high half for the next 32-bit draw. For a power of
two 2^b the method never rejects and returns the top b bits of each half,
so draw_below reads such bounds as raw words shifted right: the draw method
differs from integers, the bits do not. Other bounds go to integers.
"""

from __future__ import annotations

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
    if not (_RAW_ROUTE and 2 <= bound <= 2**32 and bound & (bound - 1) == 0):
        return gen.integers(0, bound, size=size, dtype=np.uint64)
    bitgen = gen.bit_generator
    out = np.empty(size, dtype=np.uint64)
    start = 1 if size and bitgen.state["has_uint32"] else 0
    if start:
        out[0] = gen.integers(0, bound, dtype=np.uint64)
    words = (size - start) // 2
    raw = bitgen.random_raw(words).view(np.uint32)
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


def trial_stream(master_seed: int, *path: int) -> np.random.Generator:
    """The process's generator, re-keyed to draw what
    substream(master_seed, *path) draws.

    Its Philox gets the key substream would give, a zero counter and empty
    buffers, so nothing of an earlier trial carries over. The generator is
    valid until trial_stream is called again: a trial draws from it and
    keeps no reference to it.
    """
    global _gen
    if _gen is None:
        _gen = np.random.Generator(np.random.Philox(0))
    key = substream_key(master_seed, *path)
    _state["state"]["key"] = (key & _MASK64, key >> 64)
    _gen.bit_generator.state = _state
    return _gen


def _run_chunk(start: int, stop: int) -> list:
    return [_trial_fn(t) for t in range(start, stop)]


def map_trials(fn, trials: int, threads: int = 1) -> list:
    """Evaluate fn(trial_index) for 0 <= trial_index < trials.

    Results come back ordered by trial index no matter the worker count, so
    any reduction over them is scheduling-independent. fn seeds itself,
    drawing from trial_stream keyed by its trial index, so a trial's draws
    do not depend on the worker that runs it. At most
    min(threads, trials, CPU count) worker processes are forked, each to run
    one contiguous chunk of trial indices; one worker, or a platform without
    fork, runs inline. A trial's exception reaches the caller, and no worker
    outlives the call.
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
