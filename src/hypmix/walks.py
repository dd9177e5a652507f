"""Finitely supported random walks on F_k.

A step measure assigns exact rational probabilities to finitely many reduced
words. The walk w_n = g_1 ... g_n multiplies i.i.d. increments; its law is
the n-fold convolution of the measure, computed exactly for small n. A
measure is permissible for the mixing experiments when it is finite
(automatic here), symmetric, has generating support, and that support
generates a non-cyclic subgroup; in a free group nothing else can fail, so
the validation report covers exactly these flags. The uniform measure on a
symmetric free generating set is the canonical example, with drift
(2k-2)/(2k): each step extends the current reduced word unless it undoes the
last letter.

Sampling is exact: increments are drawn by scaling the probabilities to a
common denominator D and drawing unbiased integers below D from the trial's
Philox substream, so trajectories are reproducible bit for bit from
(measure, n, seed) alone.

Walk endpoints are reduced without the trajectory. A long walk (at least
SHORT_WALK letters) is reduced by whole-array numpy passes, each deleting
the first adjacent inverse pair of every run of them, for at most
MAX_PASSES passes; a short walk, or what is left when the passes run out,
finishes on a Python stack. Free reduction is confluent, so the endpoint is
the same either way, and the draws are one call per walk as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


CONVOLUTION_CAP = 8
SUPPORT_CAP = 8
# Walk endpoints: below SHORT_WALK letters the stack beats a numpy pass
# (measured crossover between 512 and 2,048 letters); MAX_PASSES bounds
# the passes before the stack takes over.
SHORT_WALK = 1024
MAX_PASSES = 32


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
        self._words = list(self.entries)
        cum = 0
        thresholds = []
        for p in self.entries.values():
            cum += int(p * denom)
            thresholds.append(cum)
        self._thresholds = np.array(thresholds, dtype=np.uint64)
        # One row per support word, padded with 0 (no letter); int64 holds any rank.
        self._letters = np.zeros((len(self._words), self.max_step_length()), dtype=np.int64)
        for row, word in zip(self._letters, self._words):
            row[: len(word)] = word

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

    def mass(self, word: Sequence[int]) -> Fraction:
        return self.entries.get(tuple(word), Fraction(0))

    def max_step_length(self) -> int:
        return max(len(w) for w in self.entries)

    # --- validation ---------------------------------------------------------

    def validate(self) -> "PermissibilityReport":
        """Check the walk-theoretic hypotheses this measure must satisfy.

        finite: always true by construction. symmetric: mu(g) = mu(g^-1).
        generating: the support generates all of F_k (folded support has
        index 1). non_elementary: the support generates a subgroup of rank
        >= 2. The remaining condition of the general theory, triviality of
        the maximal finite subgroup normalized by the support, is automatic
        in a free group and is recorded in the notes instead of tested.
        """
        symmetric = all(self.mass(invert(w)) == p for w, p in self.entries.items())
        folded = SubgroupAutomaton.from_generators(self.rank, list(self.entries))
        generating = folded.index() == 1
        non_elementary = folded.rank_of_subgroup() >= 2
        return PermissibilityReport(
            finite=True,
            symmetric=symmetric,
            generating=generating,
            non_elementary=non_elementary,
            notes="finite-radical condition holds automatically in a free group",
        )

    # --- exact convolution ----------------------------------------------------

    def convolve(self, n: int, cap: int = CONVOLUTION_CAP) -> dict[Word, Fraction]:
        """Exact law of w_n as a map word -> probability.

        Guarded by a cap (default 8 steps with support up to 8 words) since
        the support of the law grows exponentially.
        """
        if n < 0:
            raise MeasureError("negative convolution power")
        if n > cap:
            raise MeasureError(f"convolution power {n} exceeds the cap {cap}")
        if len(self.entries) > SUPPORT_CAP and n > 1:
            raise MeasureError(
                f"support size {len(self.entries)} exceeds the cap {SUPPORT_CAP}"
            )
        dist: dict[Word, Fraction] = {(): Fraction(1)}
        for _ in range(n):
            nxt: dict[Word, Fraction] = {}
            for w, p in dist.items():
                for g, q in self.entries.items():
                    v = multiply(w, g)
                    nxt[v] = nxt.get(v, Fraction(0)) + p * q
            dist = nxt
        return dist

    # --- sampling ---------------------------------------------------------------

    def draw_indices(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Indices into the support, exactly distributed, from one substream."""
        u = gen.integers(0, self._denominator, size=size, dtype=np.uint64)
        return np.searchsorted(self._thresholds, u, side="right")

    def words_by_index(self) -> list[Word]:
        return self._words

    def final_position(self, n: int, gen: np.random.Generator) -> Word:
        """Endpoint of an n-step walk, without storing the trajectory.

        The increments are spelled out through the padded letter table.
        While the word has at least SHORT_WALK letters, for at most
        MAX_PASSES passes, one numpy pass deletes the first adjacent inverse
        pair of every run of them; a pass that finds none has a reduced
        word. A short walk, or a word still unreduced when the passes run
        out, finishes on a stack. Free reduction is confluent, so deleting
        any disjoint set of adjacent inverse pairs keeps the reduced word:
        the endpoint is the stack's, after at most MAX_PASSES + 1 linear
        passes.
        """
        idx = self.draw_indices(gen, n)
        a = self._letters[idx].ravel()
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
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        for x in a.tolist():
            if stack and stack[-1] == -x:
                pop()
            else:
                push(x)
        return tuple(stack)


@dataclass(frozen=True)
class PermissibilityReport:
    finite: bool
    symmetric: bool
    generating: bool
    non_elementary: bool
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.finite and self.symmetric and self.generating and self.non_elementary

    def failures(self) -> list[str]:
        return [
            name
            for name, ok in [
                ("finite", self.finite),
                ("symmetric", self.symmetric),
                ("generating", self.generating),
                ("non_elementary", self.non_elementary),
            ]
            if not ok
        ]


@dataclass(frozen=True)
class Trajectory:
    """A sampled walk: increments g_1..g_n and positions 1, w_1, ..., w_n."""

    increments: tuple[Word, ...]
    positions: tuple[Word, ...]
    seed: int

    @property
    def final(self) -> Word:
        return self.positions[-1]


def sample_walk(measure: StepMeasure, n: int, seed: int) -> Trajectory:
    """Sample an n-step walk; deterministic in (measure, n, seed)."""
    if n < 0:
        raise MeasureError("negative walk length")
    gen = rng.substream(seed)
    idx = measure.draw_indices(gen, n)
    words = measure.words_by_index()
    increments = tuple(words[i] for i in idx.tolist())
    positions = [()]
    for g in increments:
        positions.append(multiply(positions[-1], g))
    return Trajectory(increments, tuple(positions), seed)


@dataclass(frozen=True)
class DriftEstimate:
    """Monte Carlo estimate of the linear escape rate d(1, w_n)/n."""

    d_hat: float
    n: int
    trials: int
    ci_half_width: float
    seed: int

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
    allow_impermissible: bool = False,
    threads: int = 1,
) -> DriftEstimate:
    """Estimate the drift of the walk over independent trials.

    Each trial runs on its own substream, so the estimate is identical for
    any thread count. Refuses impermissible measures unless overridden
    (a point mass, say, still has a perfectly good deterministic drift).
    """
    if trials <= 0:
        raise MeasureError("need at least one trial")
    if n <= 0:
        raise MeasureError("need a positive walk length")
    if not allow_impermissible:
        report = measure.validate()
        if not report.passed:
            raise MeasureError(
                f"measure fails permissibility: {', '.join(report.failures())}; "
                "pass allow_impermissible=True to estimate anyway"
            )

    def one(trial: int) -> float:
        gen = rng.substream(seed, trial)
        return len(measure.final_position(n, gen)) / n

    values = rng.map_trials(one, trials, threads)
    mean, half = mean_ci95(values)
    est = DriftEstimate(mean, n, trials, half, seed)
    if not 0.0 <= est.d_hat <= measure.max_step_length() + 1e-12:
        raise DriftRangeError(
            f"drift {est.d_hat} outside [0, {measure.max_step_length()}]"
        )
    return est
