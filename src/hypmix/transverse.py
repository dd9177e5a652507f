"""Transversality of elements to finitely generated subgroups of F_k.

An element f is transverse to H when every neighborhood of every coset orbit
v*H meets the powers of f in a bounded set; since subgroup orbits in the
tree are quasi-convex and every nontrivial element is loxodromic with
discrete (hence WPD) dynamics, transversality is equivalent to the algebraic
condition that no nonzero power of f lies in any conjugate of H.

That condition is decidable on the Stallings automaton. Write f = u c u^-1
with c cyclically reduced. A power f^m is conjugate into H exactly when c^m,
read as a reduced word, closes a loop at some state q of the automaton of H
(then f^m lies in (u p_q^-1) H (u p_q^-1)^-1 for the tree word p_q from the
base to q). Pigeonhole makes the search finite: reading c repeatedly from q
walks a partial map on the state set, so if the walk ever returns to q it
returns within n_states steps; testing exponents m <= n_states is complete.

The same loop scan yields the finite forbidden set U0: whenever a conjugate
u^-1 H u meets <g> nontrivially, u falls into one of the right cosets
H * (p_q * w^-1) indexed by the states q at which some bounded power of the
cyclic core of g closes a loop (w the conjugator of g). Choosing any element
a outside the finitely many double cosets U0^-1 H U0 and outside the maximal
cyclic subgroup containing g makes g^n * a transverse to H for every
sufficiently large n; the constructor certifies the resulting element
instead of trusting the asymptotic bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .freegroup import (
    FreeContext,
    Word,
    cyclic_reduce,
    elementary_closure_contains,
    invert,
    multiply,
    power,
    reduce_word,
    root,
    shortlex_key,
)
from .stallings import SubgroupAutomaton


class TransversalityError(ValueError):
    """Bad input (identity element, finite-index target) or exhausted search."""


class CertificateError(RuntimeError):
    """A transversality certificate is inconsistent or its witness fails.

    Raised explicitly, so the check also runs under python -O.
    """


@dataclass(frozen=True)
class TransversalityCertificate:
    """Outcome of the power-conjugacy decision for (H, f).

    Either transverse (no power of f meets any conjugate of H), or a witness
    pair: f^power lies in conjugator * H * conjugator^-1. The pigeonhole
    bound records how many exponents sufficed for completeness.
    """

    element: Word
    transverse: bool
    power: int | None
    conjugator: Word | None
    pigeonhole_bound: int

    def __post_init__(self):
        if self.transverse != (self.power is None):
            raise CertificateError("a certificate is transverse exactly when it has no power")


@dataclass(frozen=True)
class OverlapReport:
    """Exact counts of powers f^m landing E-close to coset orbits v*H."""

    element: Word
    e_bound: int
    radius: int
    m_lo: int
    m_hi: int
    per_conjugator: dict
    max_count: int


@dataclass(frozen=True)
class ForbiddenSet:
    """Finite coset data controlling which conjugates of H can meet <g>.

    representatives: words u with {u : u^-1 H u meets <g>} contained in
    H * representatives. root_core / conjugator describe the maximal cyclic
    subgroup containing g: it is generated by conjugator * root_core *
    conjugator^-1.
    """

    representatives: tuple
    root_core: Word
    conjugator: Word


@dataclass(frozen=True)
class TransverseConstruction:
    """A certified transverse element f = g^exponent * avoided."""

    element: Word
    avoided: Word
    exponent: int
    certificates: tuple


def _core_loop_states(h: SubgroupAutomaton, core: Word) -> dict[int, int]:
    """States q where some power of the cyclically reduced core loops.

    Returns {q: minimal positive m with core^m reading q -> q}. Reading core
    from a state is a partial self-map of the states, so any return to q
    happens within n_states iterations.
    """
    n = h.n_states
    step: list[int | None] = [h.read(q, core) for q in range(n)]
    out: dict[int, int] = {}
    for q in range(n):
        cur: int | None = q
        for m in range(1, n + 1):
            cur = step[cur]  # type: ignore[index]
            if cur is None:
                break
            if cur == q:
                out[q] = m
                break
    return out


def power_conjugate_into(h: SubgroupAutomaton, f: Sequence[int]) -> tuple[int, Word] | None:
    """Minimal m >= 1 with f^m in some conjugate of H, plus a conjugator.

    Returns (m, v) with f^m in v H v^-1, or None when no power of f is
    conjugate into H (completeness by the pigeonhole bound m <= n_states).
    """
    f = reduce_word(f, h.rank)
    if not f:
        raise TransversalityError("power-conjugacy undefined for the identity")
    core, conj = cyclic_reduce(f)
    loops = _core_loop_states(h, core)
    if not loops:
        return None
    m, q = min((m, q) for q, m in loops.items())
    v = multiply(conj, invert(h.word_to_state(q)))
    return m, v


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
    q0 = h.read(0, conj)
    if q0 is None:
        return None
    cur: int | None = q0
    for m in range(1, h.n_states + 1):
        cur = h.read(cur, core)
        if cur is None:
            return None
        if cur == q0:
            return m
    return None


def certificate(h: SubgroupAutomaton, f: Sequence[int]) -> TransversalityCertificate:
    f = reduce_word(f, h.rank)
    found = power_conjugate_into(h, f)
    if found is None:
        return TransversalityCertificate(f, True, None, None, h.n_states)
    m, v = found
    witness = multiply(multiply(invert(v), power(f, m)), v)
    if not h.contains(witness):
        raise CertificateError("witness verification failed")
    return TransversalityCertificate(f, False, m, v, h.n_states)


def overlap_count(
    h: SubgroupAutomaton,
    f: Sequence[int],
    v: Sequence[int],
    e_bound: int,
    m_range: Iterable[int],
) -> int:
    """|{m in m_range : d(f^m, v*H) <= E}|, exactly.

    d(f^m, v*H) = d(v^-1 f^m, H) is read off the automaton.
    """
    if e_bound < 0:
        raise TransversalityError("neighborhood bound must be >= 0")
    f = reduce_word(f, h.rank)
    v_inv = invert(reduce_word(v, h.rank))
    count = 0
    for m, word in _powers_over(f, sorted(m_range)):
        if h.distance_to_orbit(multiply(v_inv, word)) <= e_bound:
            count += 1
    return count


def _powers_over(f: Word, ms: list[int]):
    """Yield (m, f^m) over an exponent list, building core powers stepwise."""
    core, conj = cyclic_reduce(f)
    conj_inv = invert(conj)
    core_inv = invert(core)
    mids: dict[int, Word] = {0: ()}
    hi = max(ms, default=0)
    lo = min(ms, default=0)
    cur: Word = ()
    for m in range(1, hi + 1):
        cur = multiply(cur, core)
        mids[m] = cur
    cur = ()
    for m in range(-1, lo - 1, -1):
        cur = multiply(cur, core_inv)
        mids[m] = cur
    for m in ms:
        yield m, multiply(multiply(conj, mids[m]), conj_inv)


def overlap_bound(
    h: SubgroupAutomaton,
    f: Sequence[int],
    e_bound: int,
    radius: int,
    m_range: Iterable[int],
) -> OverlapReport:
    """Max over conjugators v in the radius ball of overlap_count.

    Exact for the scanned window. For a transverse f the per-conjugator
    counts stay constant under enlarging the exponent window; a witness pair
    (m0, v0) instead makes the count for v0 grow linearly with the window.
    """
    f = reduce_word(f, h.rank)
    ms = sorted(m_range)
    ctx = FreeContext(h.rank)
    per: dict[Word, int] = {}
    powers = list(_powers_over(f, ms))
    for v in ctx.ball(radius):
        v_inv = invert(v)
        count = 0
        for _, word in powers:
            if h.distance_to_orbit(multiply(v_inv, word)) <= e_bound:
                count += 1
        per[v] = count
    return OverlapReport(
        element=f,
        e_bound=e_bound,
        radius=radius,
        m_lo=ms[0],
        m_hi=ms[-1],
        per_conjugator=per,
        max_count=max(per.values()),
    )


def compute_u0(h: SubgroupAutomaton, g: Sequence[int]) -> ForbiddenSet:
    """The finite forbidden set U0 for (H, g): see the module docstring.

    Representatives are shortlex-least in their right H-coset among the
    candidates and pairwise in distinct cosets.
    """
    g = reduce_word(g, h.rank)
    if not g:
        raise TransversalityError("forbidden set undefined for the identity")
    core, conj = cyclic_reduce(g)
    loops = _core_loop_states(h, core)
    candidates = sorted(
        (multiply(h.word_to_state(q), invert(conj)) for q in loops),
        key=shortlex_key,
    )
    reps: list[Word] = []
    for u in candidates:
        if not any(h.contains(multiply(u, invert(r))) for r in reps):
            reps.append(u)
    root_core, _ = root(core) if core else ((), 1)
    return ForbiddenSet(tuple(reps), root_core=root_core, conjugator=conj)


def construct_transverse(
    targets: Sequence[SubgroupAutomaton],
    g: Sequence[int],
    exponent_cap: int = 64,
    avoid_radius_cap: int = 8,
) -> TransverseConstruction:
    """Produce a certified element transverse to every target.

    Works like the existence proof: pick the shortlex-least a avoiding the
    double cosets U0_i^-1 H_i U0_i and the maximal cyclic subgroup of g
    (finitely many cosets never cover a free group), then walk n = 1, 2, ...
    until g^n * a certifies transverse to every target. The output carries
    the certificates; nothing is trusted asymptotically.

    Raises for finite-index targets (every element has a power conjugate
    into such a subgroup) and on cap exhaustion, reporting the largest
    exponent tried.
    """
    if not targets:
        raise TransversalityError("need at least one target subgroup")
    rank = targets[0].rank
    if any(t.rank != rank for t in targets):
        raise TransversalityError("targets live in different free groups")
    g = reduce_word(g, rank)
    if not g:
        raise TransversalityError("cannot build from the identity")
    for t in targets:
        if t.index() != math.inf:
            raise TransversalityError(
                f"target of finite index {t.index()} admits no transverse element"
            )
    forbidden = [compute_u0(t, g) for t in targets]

    def excluded(a: Word) -> bool:
        if elementary_closure_contains(g, a):
            return True
        for t, fs in zip(targets, forbidden):
            for u1 in fs.representatives:
                for u2 in fs.representatives:
                    if t.contains(multiply(multiply(u1, a), invert(u2))):
                        return True
        return False

    ctx = FreeContext(rank)
    avoided: Word | None = None
    for a in ctx.ball(avoid_radius_cap):
        if not excluded(a):
            avoided = a
            break
    if avoided is None:
        raise TransversalityError(
            f"no avoided element within radius {avoid_radius_cap}"
        )

    g_power: Word = ()
    for n_exp in range(1, exponent_cap + 1):
        g_power = multiply(g_power, g)
        f = multiply(g_power, avoided)
        if not f:
            continue
        certs = [certificate(t, f) for t in targets]
        if all(c.transverse for c in certs):
            return TransverseConstruction(f, avoided, n_exp, tuple(certs))
    raise TransversalityError(
        f"no certified transverse element up to exponent {exponent_cap}"
    )
