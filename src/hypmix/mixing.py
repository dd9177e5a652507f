"""Monte Carlo experiments on the conjugation action over the subgroup space.

The space of subgroups carries the topology of pointwise convergence on
finite windows: a basic open set fixes a finite set F of words and the exact
membership pattern a subgroup must show on F. The experiments certify the
witness route to mixing: for infinite-index finitely generated H and K and a
walk endpoint w, the subgroup L = <w^-1 H w, K> should, for long walks,

  (a) intersect F exactly like K (so L lands in any open set around K),
  (b) satisfy w L w^-1 ∩ F = H ∩ F (so w moves L into any set around H),
  (c) have infinite index, and
  (d) decompose as the free product of the conjugate of H and K, visible
      here as additivity of free rank.

A trial succeeding certifies that w maps one open set into the other; a
failing trial proves nothing, so estimates are reported as lower bounds.
Everything per trial is exact; only the aggregation over trials is
statistical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import rng
from .freegroup import Word, invert, labeled_path, minimal_c, multiply, reduce_word
from .stallings import SubgroupAutomaton
from .stats import proportion_ci95
from .walks import StepMeasure


class MixingSetupError(ValueError):
    """Preconditions on measures or marker subgroups violated."""


class WitnessCertificationError(RuntimeError):
    """A trial's witness flags and its open-set certification disagree."""


@dataclass(frozen=True)
class BasicOpenSet:
    """The open set {L : L ∩ window = marker ∩ window}."""

    marker: SubgroupAutomaton
    window: frozenset

    @classmethod
    def around(cls, marker: SubgroupAutomaton, window) -> "BasicOpenSet":
        return cls(marker, frozenset(tuple(w) for w in window))

    def holds_for(self, subgroup: SubgroupAutomaton) -> bool:
        return subgroup.trace(self.window) == self.marker.trace(self.window)


@dataclass(frozen=True)
class WitnessOutcome:
    """Exact flags for one walk endpoint."""

    walk_word: Word
    witness: SubgroupAutomaton
    trace_k: bool
    trace_h: bool
    infinite_index: bool
    free_product_rank: bool

    @property
    def success(self) -> bool:
        return self.trace_k and self.trace_h and self.infinite_index and self.free_product_rank


@dataclass(frozen=True)
class MixingEstimate:
    """A certified-success frequency with its confidence interval."""

    n: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    interpretation: str

    @classmethod
    def from_counts(cls, n, trials, successes, seed, interpretation) -> "MixingEstimate":
        p, lo, hi = proportion_ci95(successes, trials)
        return cls(n, trials, successes, p, lo, hi, seed, interpretation)


@dataclass(frozen=True)
class JointMixingResult:
    joint: MixingEstimate
    marginals: tuple


def witness_subgroup(
    h: SubgroupAutomaton, k: SubgroupAutomaton, w: Sequence[int]
) -> SubgroupAutomaton:
    """L = <w^-1 H w, K>."""
    w = reduce_word(w, h.rank)
    return h.conjugate(invert(w)).join(k)


def check_witness(
    l_sub: SubgroupAutomaton,
    h: SubgroupAutomaton,
    k: SubgroupAutomaton,
    window,
    w: Sequence[int],
) -> WitnessOutcome:
    """Evaluate all four witness flags exactly.

    Flag (b) is read through the word route: f lies in w L w^-1 exactly when
    the reduced word w^-1 f w lies in L, so no conjugate is folded.
    """
    w = reduce_word(w, h.rank)
    w_inv = invert(w)
    window = frozenset(tuple(f) for f in window)
    trace_k = l_sub.trace(window) == k.trace(window)
    conjugated = frozenset(f for f in window if l_sub.contains(multiply(multiply(w_inv, f), w)))
    trace_h = conjugated == h.trace(window)
    infinite_index = l_sub.index() == math.inf
    free_rank = l_sub.rank_of_subgroup() == h.rank_of_subgroup() + k.rank_of_subgroup()
    return WitnessOutcome(w, l_sub, trace_k, trace_h, infinite_index, free_rank)


def _require_permissible(measure: StepMeasure):
    report = measure.validate()
    if not report.passed:
        raise MixingSetupError(
            f"measure fails permissibility: {', '.join(report.failures())}"
        )


def _require_infinite_index(*subs: SubgroupAutomaton):
    for s in subs:
        if s.index() != math.inf:
            raise MixingSetupError("marker subgroups must have infinite index")


def _witness_trial(pairs, measure, n, seed, trial) -> list[WitnessOutcome]:
    """Witness outcomes of one walk endpoint for each (H, K, window) pair.

    A success is certified independently of the flags: by the automaton
    route, L must lie in the open set around K and the folded conjugate
    w L w^-1 in the open set around H. A disagreement raises
    WitnessCertificationError, also under python -O.
    """
    gen = rng.substream(seed, trial)
    w = measure.final_position(n, gen)
    outcomes = []
    for h, k, window in pairs:
        l_sub = witness_subgroup(h, k, w)
        outcome = check_witness(l_sub, h, k, window, w)
        if outcome.success:
            u_set = BasicOpenSet.around(k, window)
            v_set = BasicOpenSet.around(h, window)
            if not (u_set.holds_for(l_sub) and v_set.holds_for(l_sub.conjugate(w))):
                raise WitnessCertificationError(
                    f"trial {trial}: witness flags succeed but the open-set check fails"
                )
        outcomes.append(outcome)
    return outcomes


def estimate_mixing(
    h: SubgroupAutomaton,
    k: SubgroupAutomaton,
    window,
    measure: StepMeasure,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> MixingEstimate:
    """Fraction of walk endpoints whose witness subgroup certifies mixing.

    A lower bound for the chance that the endpoint maps the open set around
    K into the open set around H; witness failure does not refute that.
    """
    _require_permissible(measure)
    _require_infinite_index(h, k)
    if trials <= 0:
        raise MixingSetupError("need at least one trial")
    window = frozenset(tuple(f) for f in window)
    pairs = [(h, k, window)]
    results = rng.map_trials(
        lambda t: _witness_trial(pairs, measure, n, seed, t)[0].success,
        trials,
        threads,
    )
    return MixingEstimate.from_counts(
        n, trials, sum(results), seed, "lower bound on n-step mass of N(U,V)"
    )


def joint_mixing(
    pairs,
    measure: StepMeasure,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> JointMixingResult:
    """Joint witness success for several (H, K, window) pairs on one walk.

    The same endpoint must certify every pair simultaneously, the diagonal
    form of transitivity; marginal estimates come along for the union-bound
    comparison.
    """
    _require_permissible(measure)
    if not pairs:
        raise MixingSetupError("need at least one pair")
    norm_pairs = []
    for h, k, window in pairs:
        _require_infinite_index(h, k)
        norm_pairs.append((h, k, frozenset(tuple(f) for f in window)))
    if trials <= 0:
        raise MixingSetupError("need at least one trial")
    per_trial = rng.map_trials(
        lambda t: [o.success for o in _witness_trial(norm_pairs, measure, n, seed, t)],
        trials,
        threads,
    )
    joint = sum(all(flags) for flags in per_trial)
    marginals = tuple(
        MixingEstimate.from_counts(
            n,
            trials,
            sum(flags[i] for flags in per_trial),
            seed,
            f"marginal witness success, pair {i}",
        )
        for i in range(len(norm_pairs))
    )
    return JointMixingResult(
        MixingEstimate.from_counts(n, trials, joint, seed, "joint witness success"),
        marginals,
    )


def free_product_experiment(
    h: SubgroupAutomaton,
    measure: StepMeasure,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> MixingEstimate:
    """Fraction of endpoints g with g loxodromic and <H, g> = H * <g>.

    Loxodromic here just means g != 1 (every nontrivial element of a free
    group translates along an axis); the free-product structure is certified
    by rank additivity of the join, and the join of finitely generated
    subgroups is again finitely generated, hence acts cocompactly on its
    orbit hull, so that part needs no per-trial check.
    """
    _require_permissible(measure)
    _require_infinite_index(h)
    if trials <= 0:
        raise MixingSetupError("need at least one trial")

    def one(trial: int) -> bool:
        gen = rng.substream(seed, trial)
        w = measure.final_position(n, gen)
        if not w:
            return False
        return h.certify_free_product(w)

    results = rng.map_trials(one, trials, threads)
    return MixingEstimate.from_counts(
        n, trials, sum(results), seed, "free-product absorption success"
    )


def random_subgroup(
    measures: Sequence[StepMeasure], n: int, seed: int
) -> tuple[SubgroupAutomaton, bool]:
    """Fold the subgroup generated by k independent walk endpoints.

    The flag reports whether the folded rank equals k, the expected free
    rank of a random k-generated subgroup for long walks.
    """
    if not measures:
        raise MixingSetupError("need at least one measure")
    rank = measures[0].rank
    if any(m.rank != rank for m in measures):
        raise MixingSetupError("measures live in different free groups")
    walks = [
        m.final_position(n, rng.substream(seed, i)) for i, m in enumerate(measures)
    ]
    sub = SubgroupAutomaton.from_generators(rank, walks)
    return sub, sub.rank_of_subgroup() == len(measures)


# --- trend statistics for the quasi-geodesic picture ------------------------


def _orbit_sample(sub: SubgroupAutomaton, length_cap: int, count: int, gen) -> list[Word]:
    """Distinct random nontrivial subgroup elements via bounded loops."""
    from .freegroup import shortlex_key
    from .transverse import _orbit_elements

    elements = [e for e in _orbit_elements(sub, length_cap) if e]
    if not elements:
        return []
    picks = gen.integers(0, len(elements), size=count)
    return sorted({elements[int(i)] for i in picks}, key=shortlex_key)


def shortest_witness_word_length(
    h: SubgroupAutomaton,
    k: SubgroupAutomaton,
    w: Sequence[int],
    element_cap: int = 4,
    sample: int = 40,
    seed: int = 0,
) -> int:
    """Min length over sampled witness-subgroup elements involving w.

    Elements of <w^-1 H w, K> of bounded shape k1 (w^-1 h1 w) k2
    [(w^-1 h2 w) k3], h_i nontrivial: exactly the normal forms whose
    geodesics the witness argument straightens. Long walks should make every
    such element long; a short one would collapse the free-product
    structure.
    """
    w = reduce_word(w, h.rank)
    w_inv = invert(w)
    gen = rng.substream(seed)
    hs = _orbit_sample(h, element_cap, sample, gen)
    ks = _orbit_sample(k, element_cap, sample, gen) + [()]
    best = None
    for h1 in hs:
        syl1 = multiply(multiply(w_inv, h1), w)
        for k1 in ks:
            for k2 in ks:
                one = multiply(multiply(k1, syl1), k2)
                if one and (best is None or len(one) < best):
                    best = len(one)
                for h2 in hs:
                    syl2 = multiply(multiply(w_inv, h2), w)
                    two = multiply(one, syl2) if k2 else None
                    if two and (best is None or len(two) < best):
                        best = len(two)
    return best if best is not None else 0


def quasigeodesic_constant_stat(
    h: SubgroupAutomaton,
    k: SubgroupAutomaton,
    w: Sequence[int],
    slope: int = 8,
    element_cap: int = 4,
    samples: int = 30,
    max_syllables: int = 4,
    seed: int = 0,
) -> int:
    """Max additive constant making sampled alternating paths slope-quasi-geodesic.

    Samples reduced alternating label sequences over (H ∪ K minus identity)
    and w^{+-1}, builds the based path, and reports the worst minimal_c at
    the given slope. For the standard instance this grows sublinearly in the
    walk length.
    """
    w = reduce_word(w, h.rank)
    if not w:
        return 0
    gen = rng.substream(seed)
    pool_y = [e for e in _orbit_sample(h, element_cap, samples, gen)] + [
        e for e in _orbit_sample(k, element_cap, samples, gen)
    ]
    if not pool_y:
        return 0
    worst = 0
    w_inv = invert(w)
    for _ in range(samples):
        # Reduced over the alphabet: no two consecutive subgroup letters and
        # never w immediately followed by w^-1 (or vice versa).
        labels: list[Word] = []
        prev_was_y = False
        length = 2 + int(gen.integers(0, max_syllables - 1))
        for _ in range(length):
            take_y = (not prev_was_y) and bool(gen.integers(0, 2))
            if take_y:
                labels.append(pool_y[int(gen.integers(0, len(pool_y)))])
                prev_was_y = True
            else:
                if labels and not prev_was_y:
                    forced = w if labels[-1] == w else w_inv
                    labels.append(forced)
                else:
                    labels.append(w if gen.integers(0, 2) else w_inv)
                prev_was_y = False
        path = labeled_path(labels)
        c = minimal_c(path, slope)
        worst = max(worst, int(math.ceil(c)))
    return worst
