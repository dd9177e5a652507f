"""Deterministic random number streams for Monte Carlo experiments.

All randomness in this package flows through Philox-4x64-10, a counter-based
generator with published round constants, wrapped by numpy. Each trial of an
experiment draws from its own substream, keyed by SplitMix64-mixing the master
seed with the trial index (and any further path components). Substreams are
therefore independent of scheduling: a trial produces identical bits whether
it runs first, last, or on another worker thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


def map_trials(fn, trials: int, threads: int = 1) -> list:
    """Evaluate fn(trial_index) for 0 <= trial_index < trials.

    Results come back ordered by trial index no matter the thread count, so
    any reduction over them is scheduling-independent. fn must take care of
    its own substream seeding. At most min(threads, trials, CPU count)
    workers start, however large threads is.
    """
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))
