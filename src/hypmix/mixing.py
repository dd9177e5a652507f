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

joint_mixing is the one witness estimator. Mixing is its one-pair case:
the single marginal of one (H, K, F) pair. Transitivity asks one endpoint
to certify several pairs at once, its joint count. One call covers a whole
schedule of walk lengths n and checks its set-up once for all of them.
Trial t walks once for the whole schedule, on its own substream: its
endpoint at each n is the prefix w_n of that one walk, which is the walk a
call at that n alone would draw, so one rng.map_trials call covers every n.

Most endpoints are decided without building L. The gap mu of the join is
the number of letters of w^-1 that folding L would spell with fresh states
(SubgroupAutomaton.join_gap). At mu >= 1, L's automaton is K's and H's
joined by a path of mu edges (Kapovich & Myasnikov, "Stallings foldings and
subgroups of free groups", J. Algebra 2002). A reduced window word that
leaves one marker's side and comes back crosses that path twice and turns on
the far side, so it has at least 2 mu + 1 letters: flags (a) and (b) hold
when no window word is longer than 2 mu. No state merges, so the ranks add:
flag (d). At mu >= 2 the path's inner states have degree 2 < 2 * rank, so L
is no full cover: flag (c). An endpoint with mu >= 2 and no window word
longer than 2 mu is separated: all four flags hold. Every other endpoint
takes the read route: it folds L once per pair and reads the flags off it.

A window trace is a subgroup's membership pattern on F. joint_mixing reads
the markers' traces, the sum of their ranks and the longest window word
once, into a WitnessPair; on the read route a trial compares two patterns
with the traces, one route per flag: flag (a) reads the window from L's
base, and flag (b) from the base of w L w^-1. In L's automaton, w L w^-1 is
the subgroup read at the end of the path spelling w^-1 from the base
(Kapovich & Myasnikov). The fold that builds L keeps that path whole, so
its conjugate shares L's rows and only moves the base. check_witness takes
the reduced endpoint the walk returns and reduces nothing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import rng
from .freegroup import Word, WordError, invert, reduce_word
from .stallings import SubgroupAutomaton
from .stats import proportion_ci95
from .walks import MeasureError, StepMeasure, require_schedule


class MixingSetupError(ValueError):
    """Preconditions on measures or marker subgroups violated; argument
    names the parameter at fault."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


@dataclass(frozen=True)
class WitnessPair:
    """Markers H and K with a window F, their traces H ∩ F and K ∩ F, the
    sum of their free ranks and the length of F's longest word.

    The basic open sets around H and K are the subgroups with these traces,
    so the traces are read once here, not once per trial; so are the rank
    sum that flag (d) compares with and the length that the separation rule
    compares with 2 mu.
    """

    h: SubgroupAutomaton
    k: SubgroupAutomaton
    window: frozenset
    trace_h: frozenset
    trace_k: frozenset
    rank_sum: int
    longest: int

    @classmethod
    def of(cls, h: SubgroupAutomaton, k: SubgroupAutomaton, window) -> "WitnessPair":
        """Read the pair once; a window word that is not a reduced word of
        H's rank is refused, naming argument "pairs"."""
        window = frozenset(tuple(f) for f in window)
        for f in window:
            try:
                reduced = reduce_word(f, h.rank) == f
            except WordError:
                reduced = False
            if not reduced:
                raise MixingSetupError("pairs", f"window word {f} is not a reduced word of rank {h.rank}")
        return cls(
            h,
            k,
            window,
            h.trace(window),
            k.trace(window),
            h.rank_of_subgroup() + k.rank_of_subgroup(),
            max(map(len, window), default=0),
        )


@dataclass(frozen=True)
class WitnessOutcome:
    """Exact flags for one walk endpoint."""

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

    @classmethod
    def from_counts(cls, n, trials, successes) -> "MixingEstimate":
        p, lo, hi = proportion_ci95(successes, trials)
        return cls(n, trials, successes, p, lo, hi)


@dataclass(frozen=True)
class JointMixingResult:
    joint: MixingEstimate
    marginals: tuple


def witness_subgroup(
    h: SubgroupAutomaton, k: SubgroupAutomaton, w: Sequence[int]
) -> SubgroupAutomaton:
    """L = <w^-1 H w, K>, folded in one pass.

    A trial builds it only for an endpoint on the read route, and there it
    is the only fold: flag (b) reads the conjugate w L w^-1, which follows
    w^-1 along the stem this fold builds from L's base, so it shares L's rows
    and only moves the base.
    """
    return h.conjugate_join(invert(w), k)


def check_witness(l_sub: SubgroupAutomaton, pair: WitnessPair, w: Word) -> WitnessOutcome:
    """Evaluate all four witness flags exactly for the reduced endpoint w
    on the read route, from L = witness_subgroup(pair.h, pair.k, w).

    Each open-set flag compares one window trace with the marker's: flag (a)
    L's, read from its base, and flag (b) that of the conjugate w L w^-1,
    read from the base it moves to. Flag (d) compares L's rank with the
    pair's rank sum. The comparisons are explicit, so they also run under
    python -O.
    """
    trace_k = l_sub.trace(pair.window) == pair.trace_k
    trace_h = l_sub.conjugate(w).trace(pair.window) == pair.trace_h
    infinite_index = l_sub.index() == math.inf
    free_rank = l_sub.rank_of_subgroup() == pair.rank_sum
    return WitnessOutcome(trace_k, trace_h, infinite_index, free_rank)


def _require_setup(measure: StepMeasure, markers, trials: int, lengths) -> None:
    """The checks a witness estimate makes once, before any trial: a
    permissible measure, each (name, subgroup) marker of the measure's rank
    and of infinite index, at least one trial, and walk lengths >= 0, where
    lengths is the (name, lengths) pair of the argument that holds them."""
    try:
        measure.require_permissible()
    except MeasureError as exc:
        raise MixingSetupError("measure", str(exc))
    for name, s in markers:
        if s.rank != measure.rank:
            raise MixingSetupError(name, f"marker of rank {s.rank} for a measure of rank {measure.rank}")
        if s.index() != math.inf:
            raise MixingSetupError(name, "marker subgroups must have infinite index")
    if trials <= 0:
        raise MixingSetupError("trials", "need at least one trial")
    name, ns = lengths
    try:
        require_schedule(sorted(ns))
    except MeasureError as exc:
        raise MixingSetupError(name, str(exc))


_SEPARATED = WitnessOutcome(True, True, True, True)


def _witness_trial(pairs: list[WitnessPair], measure, ns, seed, trial) -> list[list[WitnessOutcome]]:
    """Witness outcomes for each pair at each endpoint of one walk, walked
    once for the ascending schedule ns.

    Each pair and endpoint reads the gap mu of the join first. A separated
    endpoint, mu >= 2 with no window word longer than 2 mu, passes every
    flag by the path argument of the module docstring and builds nothing.
    Any other endpoint folds L once and is certified by its flags alone:
    flag (a) compares L's trace with K's, and flag (b) the trace of
    w L w^-1 with H's, the two comparisons that define the basic open sets
    around K and H. The rule's comparisons are explicit too, so they also
    run under python -O.
    """
    gen = rng.trial_stream(seed, trial)
    outcomes = []
    for w in measure.positions(ns, gen):
        at_w = []
        for pair in pairs:
            gap = pair.h.join_gap(w, pair.k)
            if gap >= 2 and 2 * gap >= pair.longest:
                at_w.append(_SEPARATED)
            else:
                at_w.append(check_witness(witness_subgroup(pair.h, pair.k, w), pair, w))
        outcomes.append(at_w)
    return outcomes


def joint_mixing(
    pairs,
    measure: StepMeasure,
    n_list: Sequence[int],
    trials: int,
    seed: int,
    threads: int = 1,
) -> list[JointMixingResult]:
    """Joint witness success for several (H, K, window) pairs on one walk,
    at each walk length of n_list.

    The same endpoint must certify every pair simultaneously, the diagonal
    form of transitivity; marginal estimates come along for the union-bound
    comparison. A marginal is a lower bound for the chance that the endpoint
    maps the open set around K into the open set around H; witness failure
    does not refute that. With one pair, marginals[0] is the mixing estimate.
    The set-up, window words included, is checked and the marker traces are
    read once, for every n, and one rng.map_trials call runs the trials of
    the whole schedule: each walks once, to the longest n. Results follow
    n_list, repeats included.
    """
    if not pairs:
        raise MixingSetupError("pairs", "need at least one pair")
    markers = [m for h, k, _ in pairs for m in (("h", h), ("k", k))]
    _require_setup(measure, markers, trials, ("n_list", n_list))
    pairs = [WitnessPair.of(h, k, window) for h, k, window in pairs]
    if not n_list:
        return []
    schedule = sorted(set(n_list))
    per_trial = rng.map_trials(
        lambda t: [[o.success for o in at_n] for at_n in _witness_trial(pairs, measure, schedule, seed, t)],
        trials,
        threads,
    )
    by_n = {}
    for at, n in enumerate(schedule):
        flags = [trial_flags[at] for trial_flags in per_trial]
        joint = MixingEstimate.from_counts(n, trials, sum(map(all, flags)))
        marginals = tuple(
            MixingEstimate.from_counts(n, trials, sum(f[i] for f in flags)) for i in range(len(pairs))
        )
        by_n[n] = JointMixingResult(joint, marginals)
    return [by_n[n] for n in n_list]


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
    _require_setup(measure, [("h", h)], trials, ("n", [n]))

    def one(trial: int) -> bool:
        gen = rng.trial_stream(seed, trial)
        w = measure.final_position(n, gen)
        if not w:
            return False
        return h.certify_free_product(w)

    results = rng.map_trials(one, trials, threads)
    return MixingEstimate.from_counts(n, trials, sum(results))
