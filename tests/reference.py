"""Independent references that the tests compare the library against.

No experiment, CLI path or acceptance criterion reaches these, so they live
with the tests: a change to a library module cannot change the reference
that checks it. Each one computes its answer the slow, direct way.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from hypmix import rng
from hypmix.cantor import OMEGA, OMEGA_INDEX, _xi
from hypmix.freegroup import (
    Word,
    cyclic_reduce,
    distance,
    geodesic_vertices,
    invert,
    multiply,
    reduce_word,
)
from hypmix.selftest import _two_letter_automaton
from hypmix.stallings import SubgroupAutomaton
from hypmix.transverse import TransversalityError
from hypmix.walks import MeasureError, StepMeasure

# The law of w_n is computed exactly up to CONVOLUTION_CAP steps, and past
# one step only for supports of at most SUPPORT_CAP words: it grows
# exponentially.
CONVOLUTION_CAP = 8
SUPPORT_CAP = 8


# --- freegroup ---------------------------------------------------------------


def distance_to_geodesic(s: Word, x: Word, y: Word) -> int:
    """min over vertices v of [x, y] of d(s, v), by explicit enumeration."""
    return min(distance(s, v) for v in geodesic_vertices(x, y))


# --- stallings ---------------------------------------------------------------


def follow(rows: Sequence[dict[int, int]], state: int, word: Sequence[int]) -> int | None:
    """Follow a word from a state through rows, one letter at a time; None
    once a letter has no edge."""
    for letter in word:
        state = rows[state].get(letter)  # type: ignore[assignment]
        if state is None:
            return None
    return state


def read(h: SubgroupAutomaton, state: int, word: Sequence[int]) -> int | None:
    """Follow a word from a state in the canonical numbering of h."""
    return follow(h.transitions, state, word)


def is_folded(h: SubgroupAutomaton) -> bool:
    """Whether every edge has its inverse edge, so no state has two edges
    with one label."""
    for s, row in enumerate(h.transitions):
        for letter, t in row.items():
            if h.transitions[t].get(-letter) != s:
                return False
    return True


def basis(h: SubgroupAutomaton) -> list[Word]:
    """A free basis of the subgroup from the canonical spanning tree.

    One generator per non-tree edge: tree word in, the edge, tree word
    back. The list is deterministic and has length rank_of_subgroup().
    """
    tree = [h.word_to_state(t) for t in range(h.n_states)]
    tree_edges = set()
    for t in range(1, h.n_states):
        # Last letter of the tree word identifies the parent edge.
        last = tree[t][-1]
        parent = h.transitions[t][-last]
        tree_edges.add((parent, last, t) if last > 0 else (t, -last, parent))
    out = []
    for s in range(h.n_states):
        for letter, t in h.transitions[s].items():
            if letter < 0:
                continue
            if (s, letter, t) in tree_edges:
                continue
            out.append(reduce_word(tree[s] + (letter,) + invert(tree[t])))
    return out


# --- walks -------------------------------------------------------------------


def convolve(measure: StepMeasure, n: int, cap: int = CONVOLUTION_CAP) -> dict[Word, Fraction]:
    """Exact law of w_n as a map word -> probability."""
    if n < 0:
        raise MeasureError("negative convolution power")
    if n > cap:
        raise MeasureError(f"convolution power {n} exceeds the cap {cap}")
    if len(measure.entries) > SUPPORT_CAP and n > 1:
        raise MeasureError(f"support size {len(measure.entries)} exceeds the cap {SUPPORT_CAP}")
    dist: dict[Word, Fraction] = {(): Fraction(1)}
    for _ in range(n):
        nxt: dict[Word, Fraction] = {}
        for w, p in dist.items():
            for g, q in measure.entries.items():
                v = multiply(w, g)
                nxt[v] = nxt.get(v, Fraction(0)) + p * q
        dist = nxt
    return dist


@dataclass(frozen=True)
class Trajectory:
    """A sampled walk: increments g_1..g_n and positions 1, w_1, ..., w_n."""

    increments: tuple[Word, ...]
    positions: tuple[Word, ...]
    seed: int

    @property
    def final(self) -> Word:
        return self.positions[-1]


def step_indices(measure: StepMeasure, gen: np.random.Generator, n: int) -> list[int]:
    """Indices into measure.entries of n steps: n draws of integers(0, D),
    D the lcm of the masses' denominators, each mapped to the first entry
    whose cumulative numerator exceeds it."""
    denom = math.lcm(*(p.denominator for p in measure.entries.values()))
    cumulative = list(accumulate(int(p * denom) for p in measure.entries.values()))
    return [bisect.bisect_right(cumulative, u) for u in gen.integers(0, denom, size=n, dtype=np.uint64).tolist()]


def sample_walk(measure: StepMeasure, n: int, seed: int) -> Trajectory:
    """An n-step walk from the draws of rng.substream(seed), multiplied out
    one increment at a time; deterministic in (measure, n, seed)."""
    if n < 0:
        raise MeasureError("negative walk length")
    words = list(measure.entries)
    increments = tuple(words[i] for i in step_indices(measure, rng.substream(seed), n))
    positions = [()]
    for g in increments:
        positions.append(multiply(positions[-1], g))
    return Trajectory(increments, tuple(positions), seed)


# --- selftest ----------------------------------------------------------------


def partial_injections(n: int) -> list[tuple]:
    """Every partial injective map of range(n) into itself (None = undefined),
    by domain size."""
    out = []
    idx = list(range(n))
    for k in range(n + 1):
        for dom in combinations(idx, k):
            for img in permutations(idx, k):
                m = [None] * n
                for d, i in zip(dom, img):
                    m[d] = i
                out.append(tuple(m))
    return out


def all_core_automata(max_states: int) -> list[SubgroupAutomaton]:
    """The automata of selftest.core_maps, by canonicalizing every pair of
    partial injections and keeping each distinct core once."""
    canon: dict = {}
    for n in range(1, max_states + 1):
        pis = partial_injections(n)
        for pa in pis:
            for pb in pis:
                # The canonical form trims hairs and numbers the states the
                # base reaches: all n remain exactly when the graph is a
                # connected core.
                sub = _two_letter_automaton(pa, pb)
                if sub.n_states == n:
                    canon[sub] = sub
    return list(canon.values())


# --- transverse --------------------------------------------------------------


def minimal_power_in(h: SubgroupAutomaton, g: Sequence[int]) -> int | None:
    """Minimal m >= 1 with g^m in H itself, or None.

    Write g = u c u^-1; g^m labels a base loop iff u reads base -> q0 and
    c^m loops at q0, so the same pigeonhole walk decides membership of all
    powers at once.
    """
    g = reduce_word(g, h.rank)
    if not g:
        raise TransversalityError("power membership undefined for the identity")
    core, conj = cyclic_reduce(g)
    q0 = read(h, 0, conj)
    if q0 is None:
        return None
    cur: int | None = q0
    for m in range(1, h.n_states + 1):
        cur = read(h, cur, core)  # type: ignore[arg-type]
        if cur is None:
            return None
        if cur == q0:
            return m
    return None


def core_loop_states(h: SubgroupAutomaton, core: Word) -> dict[int, int]:
    """{q: least m <= n_states with core^m reading q -> q}, by reading the
    whole word core^m from q for each m in turn."""
    out = {}
    for q in range(h.n_states):
        for m in range(1, h.n_states + 1):
            if read(h, q, core * m) == q:
                out[q] = m
                break
    return out


def conjugate_splits(f: Word, vs: Iterable[Word]) -> list[tuple[Word, Word]]:
    """For each v, the (c, k) with v^-1 f v = c k c^-1 and k cyclically
    reduced."""
    out = []
    for v in vs:
        core, conj = cyclic_reduce(multiply(multiply(invert(v), f), v))
        out.append((conj, core))
    return out


def brute_min_m(rows: Sequence[dict[int, int]], per_v: Iterable[tuple[Word, Word]], m_cap: int = 8) -> int | None:
    """Least m <= m_cap with some v^-1 f^m v = c k^m c^-1 labelling a base
    loop of rows, given the (c, k) of every v; None when there is none. Each
    conjugate is read letter by letter from the base, then k again and
    again until the walk comes back, falls off or m_cap runs out."""
    best = None
    for conj, core in per_v:
        s0 = follow(rows, 0, conj)
        if s0 is None:
            continue
        cur: int | None = s0
        for m in range(1, m_cap + 1):
            cur = follow(rows, cur, core)  # type: ignore[arg-type]
            if cur is None:
                break
            if cur == s0:
                if best is None or m < best:
                    best = m
                break
        if best == 1:
            return 1
    return best


def overlap_count(
    h: SubgroupAutomaton,
    f: Sequence[int],
    v: Sequence[int],
    e_bound: int,
    m_range: Iterable[int],
) -> int:
    """|{m in m_range : d(f^m, v*H) <= E}|, exactly.

    d(f^m, v*H) = d(v^-1 f^m, H) is read off the automaton; f^m is the m-fold
    product of f (or of f^-1 for m < 0) by multiply, not freegroup.power,
    which overlap_bound uses.
    """
    if e_bound < 0:
        raise TransversalityError("neighborhood bound must be >= 0")
    f = reduce_word(f, h.rank)
    v_inv = invert(reduce_word(v, h.rank))
    count = 0
    for m in m_range:
        step = f if m >= 0 else invert(f)
        f_m: Word = ()
        for _ in range(abs(m)):
            f_m = multiply(f_m, step)
        count += h.distance_to_orbit(multiply(v_inv, f_m)) <= e_bound
    return count


# --- cantor ------------------------------------------------------------------


def advance_reference(atoms: tuple, label: tuple, i: int) -> tuple[tuple, int]:
    """cantor._advance one atom at a time: a tuple prepend or slice per
    letter, and an Omega lookup and a full _xi rewrite per permutation,
    with no permutation skipped unread."""
    while i:
        atom = atoms[i - 1]
        if isinstance(atom, int):
            if label[0] != -atom:
                label = (atom,) + label
            elif len(label) > 1:
                label = label[1:]
            else:
                return label, i
        elif len(label) < 2:
            return label, i
        else:
            prefix = label[:2]
            if prefix in OMEGA_INDEX:
                label = _xi(prefix, OMEGA[atom[OMEGA_INDEX[prefix]]], label)
        i -= 1
    return label, 0


def proper_prefix_pairs(labels: Iterable[tuple]) -> list[tuple[tuple, tuple]]:
    """Every pair (a, b) of the labels with a a proper prefix of b, found by
    comparing each pair."""
    labels = set(labels)
    return [(a, b) for a in labels for b in labels if len(a) < len(b) and b[: len(a)] == a]


def merge_antichain_reference(antichain: Iterable[tuple]) -> tuple[tuple, ...]:
    """cantor._merge_antichain on an antichain: each pass replaces every full
    family of five siblings by its parent, until a pass finds none, and the
    result is listed in shortlex order. AssertionError if some label has one
    of its own proper prefixes among the labels."""
    current = set(antichain)
    if any(label[:j] in current for label in current for j in range(1, len(label))):
        raise AssertionError("antichain invariant broken")
    # Merging a full family keeps an antichain one, so no later check is needed.
    while True:
        families: dict[tuple, list] = {}
        for label in current:
            if len(label) >= 2:
                families.setdefault(label[:-1], []).append(label)
        full = [parent for parent, kids in families.items() if len(kids) == 5]
        if not full:
            break
        for parent in full:
            current.difference_update(families[parent])
            current.add(parent)
    rank = {l: r for r, l in enumerate((1, -1, 2, -2, 3, -3))}
    return tuple(sorted(current, key=lambda label: (len(label), [rank[l] for l in label])))


def hit_count(trials: int, horizon: int, seed: int) -> int:
    """Trials of the distance chain of simulate_hit_probability that hit 0
    within the horizon, compacting the live trials after every step."""
    gen = rng.substream(seed)
    dist = np.ones(trials, dtype=np.int64)
    hits = 0
    remaining = horizon
    while dist.size and remaining > 0:
        dist = dist + np.where(gen.integers(0, 4, size=dist.size) == 0, -1, 1)
        remaining -= 1
        hits += int((dist == 0).sum())
        dist = dist[(dist != 0) & (dist <= remaining)]
    return hits
