"""Finitely supported random walks on F_k.

A step measure assigns exact rational probabilities to finitely many reduced
words. The walk w_n = g_1 ... g_n multiplies i.i.d. increments; its law is
the n-fold convolution of the measure. A measure is permissible for the
mixing experiments when it is finite (automatic here), symmetric, has
generating support, and that support generates a non-cyclic subgroup; in a
free group nothing else can fail, so require_permissible checks exactly
these flags. The uniform measure on a symmetric free generating set is the
canonical example, with drift (2k-2)/(2k): each step extends the current
reduced word unless it undoes the last letter.

Sampling is exact: increments are drawn by scaling the probabilities to a
common denominator D and drawing unbiased integers below D from the trial's
Philox substream, so walk endpoints are reproducible bit for bit from
(measure, n, seed) alone. Every walk draws through rng.draw_below, which
gives the values of integers(0, D) and reads a power-of-two D from raw
bits. For D <= 2^16 the measure keeps a step table of D rows, each support
word's padded letters repeated by its numerator, so draw u steps by row u;
a larger D maps u to the support through the cumulative thresholds.
Either way the steps of a seed are the same.

Walk endpoints are reduced without the trajectory. The draws are one call
per trial schedule: positions draws max(ns) steps once and returns w_n for
each n of an ascending schedule. The schedule cuts the walk into segments,
the steps between two of its lengths. Consecutive short segments (under
SHORT_WALK padded letters each) are listed once and pushed through one
stack, which holds w_n at each n: no numpy call and no seam join per
segment. A long segment is reduced by whole-array numpy passes, each
deleting the first adjacent inverse pair of every run of them, for at most
MAX_PASSES passes; what is left finishes in freegroup.reduce_word, and the
result joins the previous endpoint with multiply, which cancels only at the
seam. Free reduction is confluent, so the endpoint is the same either way.
Bounded Philox draws are prefix-stable (the first n of N draws are the n
draws of a size-n call on the same stream), so each w_n is the endpoint of
a walk of n steps drawn alone, bit for bit.
final_position is the schedule of one length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import rng
from .freegroup import Word, invert, multiply, reduce_word, shortlex_key
from .stallings import SubgroupAutomaton
from .stats import mean_ci95


class MeasureError(ValueError):
    """Invalid step measure or sampling request."""


class DriftRangeError(RuntimeError):
    """An estimated drift lies outside [0, longest step length]."""


# Walk segments of fewer than SHORT_WALK padded letters go through the
# stack of positions, longer ones through _reduce's numpy passes. Measured
# on one segment (Python 3.11, numpy 2.4, 2 CPUs, two runs), stack time
# over numpy time is 0.41-0.45 / 0.64-0.67 / 1.03-1.09 / 1.48 / 2.1-2.2
# for uniform F2 steps at 256 / 512 / 1,024 / 2,048 / 4,096 letters; for
# steps a, b, ab and their inverses with mass 1/2 at the identity it is
# 0.72-0.78 at 1,024 and 1.06-1.15 at 2,048 padded letters. MAX_PASSES
# bounds the passes before reduce_word takes over.
SHORT_WALK = 1024
MAX_PASSES = 32

# Measures with a denominator up to STEP_TABLE_MAX map draws to steps
# through a table of that many rows.
STEP_TABLE_MAX = 2**16


class StepMeasure:
    """Finitely supported probability measure on reduced words of F_k."""

    def __init__(self, rank: int, weights: Mapping[Sequence[int], Fraction]):
        if rank < 2:
            raise MeasureError("rank must be >= 2")
        entries: dict[Word, Fraction] = {}
        for raw, p in weights.items():
            word = reduce_word(raw, rank)
            p = Fraction(p)
            if p <= 0:
                raise MeasureError(f"non-positive mass {p} on {raw!r}")
            entries[word] = entries.get(word, Fraction(0)) + p
        if sum(entries.values()) != 1:
            raise MeasureError(f"masses sum to {sum(entries.values())}, not 1")
        self.rank = rank
        self.entries: dict[Word, Fraction] = dict(
            sorted(entries.items(), key=lambda kv: shortlex_key(kv[0]))
        )
        denom = math.lcm(*(p.denominator for p in self.entries.values()))
        if denom >= 2**64:
            raise MeasureError("probability denominators too fine for exact 64-bit sampling")
        self._denominator = denom
        numerators = [int(p * denom) for p in self.entries.values()]
        self._thresholds = np.array(list(accumulate(numerators)), dtype=np.uint64)
        # One row per support word, padded with 0 (no letter); int64 holds any rank.
        self._letters = np.zeros((len(self.entries), self.max_step_length()), dtype=np.int64)
        for row, word in zip(self._letters, self.entries):
            row[: len(word)] = word
        self._table = None
        if denom <= STEP_TABLE_MAX:
            self._table = np.repeat(self._letters, numerators, axis=0)

    @classmethod
    def uniform_on(
        cls,
        rank: int,
        words: Iterable[Sequence[int]],
        identity_mass: Fraction | int = 0,
    ) -> "StepMeasure":
        """Uniform measure on a finite set, optionally lazy.

        identity_mass puts explicit mass on the identity and splits the rest
        uniformly; without it the set must not contain the identity.
        """
        words = [reduce_word(w, rank) for w in words]
        if not words:
            raise MeasureError("empty support")
        identity_mass = Fraction(identity_mass)
        if not 0 <= identity_mass < 1:
            raise MeasureError("identity mass must lie in [0, 1)")
        support = [w for w in words if w]
        if len(support) < len(words) and identity_mass == 0:
            raise MeasureError("identity in support requires an explicit laziness mass")
        if len(set(support)) != len(support):
            raise MeasureError("repeated word in support")
        weights: dict[Word, Fraction] = {}
        share = (1 - identity_mass) / len(support)
        for w in support:
            weights[w] = share
        if identity_mass > 0:
            weights[()] = identity_mass
        return cls(rank, weights)

    def __repr__(self):
        return f"StepMeasure(rank={self.rank}, support={len(self.entries)})"

    def max_step_length(self) -> int:
        return max(len(w) for w in self.entries)

    # --- validation ---------------------------------------------------------

    def require_permissible(self) -> None:
        """Raise MeasureError naming each walk-theoretic hypothesis the
        measure fails.

        symmetric: mu(g) = mu(g^-1). generating: the support generates all
        of F_k (folded support has index 1). non_elementary: the support
        generates a subgroup of rank >= 2. Finite support holds by
        construction, and the remaining condition of the general theory,
        triviality of the maximal finite subgroup normalized by the support,
        is automatic in a free group, so neither is tested.
        """
        folded = SubgroupAutomaton.from_generators(self.rank, list(self.entries))
        flags = {
            "symmetric": all(self.entries.get(invert(w)) == p for w, p in self.entries.items()),
            "generating": folded.index() == 1,
            "non_elementary": folded.rank_of_subgroup() >= 2,
        }
        failures = [name for name, ok in flags.items() if not ok]
        if failures:
            raise MeasureError(f"measure fails permissibility: {', '.join(failures)}")

    # --- sampling ---------------------------------------------------------------

    def positions(self, ns: Sequence[int], gen: np.random.Generator) -> list[Word]:
        """Endpoints w_n after each n of an ascending schedule, from one draw
        of max(ns) steps, without storing the trajectory. One take maps
        the draws to the padded letters of the steps: through the step
        table, or above STEP_TABLE_MAX through the support index that the
        thresholds give.

        The schedule cuts the walk into segments, the steps between two of
        its lengths. A run of consecutive short segments, each under
        SHORT_WALK padded letters, is listed once and pushed through one
        stack, snapshot at each n of the run: no numpy call and no seam
        join per segment. A long segment is reduced by _reduce and joined
        to the previous endpoint with multiply, which cancels only at the
        seam; a run of short segments after it starts its stack from that
        endpoint.
        """
        require_schedule(ns)
        if not ns:
            return []
        u = rng.draw_below(gen, self._denominator, ns[-1])
        if self._table is None:
            steps = self._letters.take(np.searchsorted(self._thresholds, u, side="right"), axis=0)
        else:
            steps = self._table.take(u, axis=0)
        width = steps.shape[1]
        ends: list[Word] = []
        w: Word = ()
        spans = zip([0, *ns], ns)
        for short, run in groupby(spans, key=lambda span: (span[1] - span[0]) * width < SHORT_WALK):
            run = list(run)
            if not short:
                for a, b in run:
                    w = multiply(w, self._reduce(steps[a:b]))
                    ends.append(w)
                continue
            letters = iter(steps[run[0][0] : run[-1][1]].ravel().tolist())
            stack = list(w)
            for a, b in run:
                # filter drops the 0 padding.
                for x in filter(None, islice(letters, (b - a) * width)):
                    if stack and stack[-1] == -x:
                        stack.pop()
                    else:
                        stack.append(x)
                w = tuple(stack)
                ends.append(w)
        return ends

    def final_position(self, n: int, gen: np.random.Generator) -> Word:
        """Endpoint of an n-step walk: the schedule of one length."""
        return self.positions([n], gen)[0]

    @staticmethod
    def _reduce(steps: np.ndarray) -> Word:
        """The reduced word of a long segment, rows of the padded letter
        table.

        While the word has at least SHORT_WALK letters, for at most
        MAX_PASSES passes, one numpy pass deletes the first adjacent inverse
        pair of every run of them; a pass that finds none has a reduced
        word. A word under SHORT_WALK letters, or one still unreduced when
        the passes run out, finishes in reduce_word. Free reduction is
        confluent, so deleting any disjoint set of adjacent inverse pairs
        keeps the reduced word: the endpoint is reduce_word's, after at
        most MAX_PASSES + 1 linear passes.
        """
        a = steps.ravel()
        a = a[a != 0]
        for _ in range(MAX_PASSES):
            if len(a) < SHORT_WALK:
                break
            cancel = a[:-1] == -a[1:]
            if not cancel.any():
                return tuple(a.tolist())
            first = cancel.copy()
            first[1:] &= ~cancel[:-1]
            keep = np.ones(len(a), dtype=bool)
            keep[:-1] &= ~first
            keep[1:] &= ~first
            a = a[keep]
        return reduce_word(a.tolist())


def require_schedule(ns: Sequence[int]) -> None:
    """Raise MeasureError unless ns is an ascending list of walk lengths >= 0."""
    if any(n < 0 for n in ns):
        raise MeasureError(f"walk length must be >= 0, got {min(ns)}")
    if list(ns) != sorted(ns):
        raise MeasureError("walk lengths must be in ascending order")


@dataclass(frozen=True)
class DriftEstimate:
    """Monte Carlo estimate of the linear escape rate d(1, w_n)/n."""

    d_hat: float
    n: int
    trials: int
    ci_half_width: float

    @property
    def ci_low(self) -> float:
        return self.d_hat - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.d_hat + self.ci_half_width


def drift_estimate(
    measure: StepMeasure,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> DriftEstimate:
    """Estimate the drift of the walk over independent trials.

    Each trial runs on its own substream, so the estimate is identical for
    any number of worker processes. Refuses impermissible measures.
    """
    if trials <= 0:
        raise MeasureError("need at least one trial")
    if n <= 0:
        raise MeasureError("need a positive walk length")
    measure.require_permissible()

    def one(trial: int) -> float:
        gen = rng.trial_stream(seed, trial)
        return len(measure.final_position(n, gen)) / n

    values = rng.map_trials(one, trials, threads)
    mean, half = mean_ci95(values)
    est = DriftEstimate(mean, n, trials, half)
    if not 0.0 <= est.d_hat <= measure.max_step_length() + 1e-12:
        raise DriftRangeError(
            f"drift {est.d_hat} outside [0, {measure.max_step_length()}]"
        )
    return est
