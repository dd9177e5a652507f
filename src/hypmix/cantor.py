"""The boundary action that is highly transitive but not mixing.

Setting: the rank-3 tree over the letters x, y, z (encoded 1, 2, 3; capital
serialization for inverses). Its boundary consists of the infinite reduced
words; the cone of a finite reduced label u is the clopen set of boundary
points extending u. The acting group is the free product of F(x, y) with the
symmetric group on the 18 two-letter labels that contain a z-letter (Omega,
frozen in lexicographic order under x < x^-1 < y < y^-1 < z < z^-1):

- letters of F(x, y) act by left multiplication on boundary words;
- a permutation sigma of Omega sends Cone(u) to Cone(sigma(u)) for u in
  Omega via the unique order-preserving bijection, and fixes every point
  whose two-letter prefix uses only x, y letters.

Both generators preserve the "same order-position" structure: restricted to
any cone they realize the positional bijection xi between source and target
cones, which is what makes exact open-set computations possible. Images of
finite cone unions are tracked as antichains of labels (no label a prefix of
another). Atoms act right to left on an intermediate label; when the next
atom is not yet determined at its depth (a permutation needs two letters, a
letter may cancel a length-1 label), the intermediate label splits into its
five children and the computation resumes at that same atom. The atoms
already applied act on the source cone as the positional bijection onto the
intermediate cone, so these children are exactly the images of the source
label's children. A depth cap counts the depth of the source label.

The non-mixing mechanism: permutations fix all points with F(x, y)-prefixes
of length 2, so the cone of x^2 can only be entered through the F(x, y)
letters, and the projected walk on F(x, y) is transient. The probability of
ever hitting the vertex x solves q = 1/4 + (3/4) q^2 (step toward x with
probability 1/4, away with 3/4, then pass through two independent levels),
giving the ceiling 1/3 < 1 for the cone-hitting events; laziness and the
permutation steps only delay the projected walk without changing which
vertices it can ever reach, so the ceiling holds for every letter mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .freegroup import Word, letter_key
from .stats import proportion_ci95

X, Y, Z = 1, 2, 3
_LETTERS = (1, -1, 2, -2, 3, -3)  # the fixed order x < x^-1 < y < y^-1 < z < z^-1
_LETTER_NAMES = {1: "x", -1: "X", 2: "y", -2: "Y", 3: "z", -3: "Z"}
_NAME_LETTERS = {v: k for k, v in _LETTER_NAMES.items()}

# Allowed extension letters after a given last letter, in order.
_ALLOWED = {last: tuple(l for l in _LETTERS if l != -last) for last in _LETTERS}
_ALLOWED_RANK = {
    last: {l: i for i, l in enumerate(allowed)} for last, allowed in _ALLOWED.items()
}


class ConeError(ValueError):
    """Malformed cone label or illegal constructor input."""


class ConeCertificationError(AssertionError):
    """A constructed element or an exact constant failed its verification.

    Raised explicitly, so the check also runs under python -O. It is an
    AssertionError so that callers counting failed constructions (criterion
    11) still catch it.
    """


class DepthCapExceeded(RuntimeError):
    def __init__(self, depth: int):
        super().__init__(f"a source cone label of depth {depth} needs refinement")
        self.depth = depth


def parse_label(text: str) -> Word:
    raw = []
    for ch in text.strip():
        if ch not in _NAME_LETTERS:
            raise ConeError(f"invalid boundary letter {ch!r}")
        raw.append(_NAME_LETTERS[ch])
    word = tuple(raw)
    if not word:
        raise ConeError("cone labels are nonempty")
    if any(word[i] == -word[i + 1] for i in range(len(word) - 1)):
        raise ConeError(f"label {text!r} is not freely reduced")
    return word


def format_label(label: Word) -> str:
    return "".join(_LETTER_NAMES[l] for l in label)


def _check_label(label: Sequence[int]) -> Word:
    label = tuple(label)
    if not label:
        raise ConeError("cone labels are nonempty")
    for l in label:
        if l not in _LETTER_NAMES:
            raise ConeError(f"letter {l} outside the x, y, z alphabet")
    if any(label[i] == -label[i + 1] for i in range(len(label) - 1)):
        raise ConeError("label is not freely reduced")
    return label


def in_f2_part(label: Sequence[int]) -> bool:
    """Whether the label uses only x, y letters (no z)."""
    return all(abs(l) != Z for l in label)


def _all_length2() -> tuple[Word, ...]:
    out = []
    for first in _LETTERS:
        for second in _ALLOWED[first]:
            out.append((first, second))
    return tuple(out)


SIGMA: tuple[Word, ...] = _all_length2()  # the 30 two-letter labels
OMEGA: tuple[Word, ...] = tuple(u for u in SIGMA if not in_f2_part(u))  # 18 of them
OMEGA_INDEX = {u: i for i, u in enumerate(OMEGA)}

CONE_Z: Word = (Z,)
CONE_Z2: Word = (Z, Z)
CONE_ZM2: Word = (-Z, -Z)
CONE_X2: Word = (X, X)


@dataclass(frozen=True)
class ConePermutation:
    """A permutation of the 18 Omega labels; fixes the x,y-only labels."""

    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(18)):
            raise ConeError("not a permutation of the 18 cone labels")

    @classmethod
    def from_assignments(cls, assignments: dict) -> "ConePermutation":
        """The permutation realizing the given label assignments, completed
        deterministically (remaining sources to remaining targets in order)."""
        mapping: dict[int, int] = {}
        used_targets = set()
        for src, dst in assignments.items():
            i, j = OMEGA_INDEX[_check_label(src)], OMEGA_INDEX[_check_label(dst)]
            if i in mapping and mapping[i] != j:
                raise ConeError("conflicting images for one cone label")
            if j in used_targets and mapping.get(i) != j:
                raise ConeError("two cone labels sent to the same target")
            mapping[i] = j
            used_targets.add(j)
        free_targets = [j for j in range(18) if j not in used_targets]
        for i in range(18):
            if i not in mapping:
                mapping[i] = free_targets.pop(0)
        return cls(tuple(mapping[i] for i in range(18)))

    def inverse(self) -> "ConePermutation":
        inv = [0] * 18
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return ConePermutation(tuple(inv))

    def __repr__(self):
        moved = {
            format_label(OMEGA[i]): format_label(OMEGA[j])
            for i, j in enumerate(self.mapping)
            if i != j
        }
        return f"ConePermutation({moved})" if moved else "ConePermutation(id)"


# A group element is a word over F(x,y)-letters (ints +-1, +-2) and
# ConePermutation atoms; the rightmost atom acts first.
GElement = tuple


def invert_element(g: GElement) -> GElement:
    out = []
    for atom in reversed(g):
        out.append(-atom if isinstance(atom, int) else atom.inverse())
    return tuple(out)


def format_element(g: GElement) -> str:
    parts = []
    for atom in g:
        if isinstance(atom, int):
            parts.append(_LETTER_NAMES[atom])
        else:
            images = ",".join(format_label(OMEGA[j]) for j in atom.mapping)
            parts.append(f"perm[{images}]")
    return " ".join(parts) if parts else "1"


# --- cone order and the positional bijections --------------------------------


def order_cones(u: Sequence[int], depth: int) -> list[Word]:
    """All reduced extensions of u by `depth` letters, lexicographically."""
    u = _check_label(u)
    if depth < 0:
        raise ConeError("depth must be >= 0")
    level = [u]
    for _ in range(depth):
        level = [label + (l,) for label in level for l in _ALLOWED[label[-1]]]
    return level


def xi(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> Word:
    """Order-position transport: the label in Cone(v) at the same
    lexicographic position that w occupies in Cone(u).

    Each extension letter is replaced by the letter of equal rank among the
    five allowed continuations on the target side, so the map costs one pass
    and never enumerates cones.
    """
    u, v, w = _check_label(u), _check_label(v), _check_label(w)
    if w[: len(u)] != u:
        raise ConeError("u must be a prefix of w")
    return _xi(u, v, w)


def _xi(u: Word, v: Word, w: Word) -> Word:
    """xi on labels already known to be valid, with u a prefix of w."""
    out = list(v)
    last_src, last_dst = u[-1], v[-1]
    for letter in w[len(u):]:
        rank = _ALLOWED_RANK[last_src][letter]
        image = _ALLOWED[last_dst][rank]
        out.append(image)
        last_src, last_dst = letter, image
    return tuple(out)


# --- the action ---------------------------------------------------------------


# Returned when an action is not determined at the current label depth.
# Labels are nonempty tuples, so None cannot be mistaken for one.
NEEDS_REFINEMENT = None


def _advance(g: GElement, label: Word, i: int) -> tuple[Word, int]:
    """Apply the atoms g[i-1], ..., g[0] (right to left) to Cone(label).

    Stops at the first atom that is not determined at the label's depth and
    returns (label, atoms left), with 0 atoms left once every atom has acted.
    """
    while i:
        atom = g[i - 1]
        if isinstance(atom, int):
            if label[0] != -atom:
                label = (atom,) + label
            elif len(label) > 1:
                label = label[1:]
            else:
                return label, i  # full cancellation: the image is not a cone
        elif len(label) < 2:
            return label, i  # a permutation reads two letters
        else:
            prefix = label[:2]
            idx = OMEGA_INDEX.get(prefix)
            # A two-letter prefix inside F(x, y) is fixed pointwise.
            if idx is not None:
                target = OMEGA[atom.mapping[idx]]
                if target != prefix:
                    label = _xi(prefix, target, label)
        i -= 1
    return label, 0


def apply_element(g: GElement, label: Sequence[int]):
    """Image label of Cone(label) under g, or NEEDS_REFINEMENT.

    Atoms act right to left. The image is exact whenever every intermediate
    label is deep enough for the next atom: two letters for a permutation,
    no full cancellation for a letter. Restricted to the cone, g acts as the
    positional bijection onto the returned cone.
    """
    label, left = _advance(g, _check_label(label), len(g))
    return NEEDS_REFINEMENT if left else label


def _children(label: Word) -> list[Word]:
    return [label + (l,) for l in _ALLOWED[label[-1]]]


def _merge_antichain(labels: Iterable[Word]) -> tuple[Word, ...]:
    """Replace any full sibling family by its parent, repeatedly."""
    current = set(labels)
    changed = True
    while changed:
        changed = False
        by_parent: dict[Word, list[Word]] = {}
        for label in current:
            if len(label) >= 2:
                by_parent.setdefault(label[:-1], []).append(label)
        for parent, kids in by_parent.items():
            if len(kids) == 5:
                current.difference_update(kids)
                current.add(parent)
                changed = True
                break
    out = tuple(sorted(current, key=lambda l: (len(l), tuple(letter_key(x) for x in l))))
    for i, a in enumerate(out):
        for b in out:
            if a is not b and b[: len(a)] == a:
                raise AssertionError("antichain invariant broken")
    return out


def image_antichain(
    g: GElement, labels: Iterable[Sequence[int]], depth_cap: int = 64
) -> tuple[Word, ...]:
    """Exact image of a disjoint union of cones under g, as an antichain.

    Atoms act right to left. When the next atom cannot act on the current
    intermediate label, that label splits into its five children and each
    resumes at the same atom: the atoms already applied map the source cone
    positionally onto the intermediate one, so the children are the images
    of the source label's children. The cap counts source depth:
    DepthCapExceeded is raised when a source label of depth >= depth_cap
    would have to split.
    """
    work = [(label, len(g), len(label)) for label in map(_check_label, labels)]
    out = []
    while work:
        label, left, depth = work.pop()
        label, left = _advance(g, label, left)
        if not left:
            out.append(_check_label(label))
        elif depth >= depth_cap:
            raise DepthCapExceeded(depth)
        else:
            work.extend((child, left, depth + 1) for child in _children(label))
    return _merge_antichain(out)


def antichain_meets_cone(antichain: Iterable[Word], cone: Word) -> bool:
    """Whether the union of the antichain's cones intersects Cone(cone)."""
    for label in antichain:
        short = min(len(label), len(cone))
        if label[:short] == cone[:short]:
            return True
    return False


# --- the element constructors ---------------------------------------------------


def _case_step(u: Word) -> tuple[int, ConePermutation]:
    """One recursion step: a letter a and a permutation sigma with
    (a^-1 sigma)[Cone(u)] = Cone(u'), |u'| = |u| - 1, and z^-n -> z^-(n-1)."""
    u2 = u[:2]
    if in_f2_part(u2):
        a = u[0]
        sigma = ConePermutation.from_assignments({CONE_ZM2: (a, -Z)})
    elif u2 == CONE_ZM2:
        a = X
        sigma = ConePermutation.from_assignments({CONE_ZM2: (a, -Z)})
    else:
        a = X
        sigma = ConePermutation.from_assignments({u2: (a, Z), CONE_ZM2: (a, -Z)})
    return a, sigma


def standardizing_element(u: Sequence[int]) -> GElement:
    """An element sending Cone(u) to Cone(z^2) and Cone(z^-n) to Cone(z^-2).

    Requires |u| = n >= 2, u containing a z-letter, u != z^-n. Recursive:
    a length-2 u needs one permutation; otherwise a permutation and one
    letter shorten u and z^-n in lockstep. The returned word has one
    permutation and at most one letter per level.
    """
    u = _check_label(u)
    n = len(u)
    if n < 2:
        raise ConeError("need a label of length >= 2")
    if in_f2_part(u):
        raise ConeError("label must contain a z-letter")
    if u == (-Z,) * n:
        raise ConeError("label z^-n is the partner cone, not a valid source")
    if n == 2:
        sigma = ConePermutation.from_assignments({u: CONE_Z2, CONE_ZM2: CONE_ZM2})
        element: GElement = (sigma,)
    else:
        a, sigma = _case_step(u)
        step: GElement = (-a, sigma)
        u_next = apply_element(step, u)
        if u_next is NEEDS_REFINEMENT or len(u_next) != n - 1:
            raise ConeCertificationError("recursion step did not shorten the label by one")
        element = standardizing_element(u_next) + step
    _verify_standardizing(element, u)
    return element


def _verify_standardizing(element: GElement, u: Word):
    n = len(u)
    zmn = (-Z,) * n
    if image_antichain(element, [u]) != (CONE_Z2,):
        raise ConeCertificationError("cone equation for u failed")
    if image_antichain(element, [zmn]) != (CONE_ZM2,):
        raise ConeCertificationError("cone equation for z^-n failed")
    # Pointwise, two levels deeper: the action must be the positional map.
    for source, target in ((u, CONE_Z2), (zmn, CONE_ZM2)):
        for w in order_cones(source, 2):
            if apply_element(element, w) != xi(source, target, w):
                raise ConeCertificationError(
                    f"action on Cone({format_label(source)}) is not positional at {format_label(w)}"
                )


def cone_transposition(u: Sequence[int]) -> GElement:
    """An element swapping Cone(u) with Cone(z^-n), fixing all other points.

    For u = z^-n the identity does it; otherwise conjugate the transposition
    of Cone(z^2) and Cone(z^-2) by a standardizing element for u.
    """
    u = _check_label(u)
    n = len(u)
    if n < 2:
        raise ConeError("need a label of length >= 2")
    if in_f2_part(u):
        raise ConeError("label must contain a z-letter")
    if u == (-Z,) * n:
        return ()
    f = standardizing_element(u)
    tau = ConePermutation.from_assignments({CONE_Z2: CONE_ZM2, CONE_ZM2: CONE_Z2})
    return invert_element(f) + (tau,) + f


def cone_routing_element(pairs: Sequence[tuple], depth: int) -> GElement:
    """An element mapping Cone(u_i) onto Cone(v_i) for all pairs at once.

    Sources must be distinct, targets distinct, all labels of the given
    length and containing a z-letter. The requested partial map extends to
    a permutation of finitely many depth-n cones; transpositions through
    the pivot cone z^-n (each a cone_transposition) compose to it.
    Pairs touching the pivot are routed like any other cycle entry.
    """
    pivot = (-Z,) * depth
    us, vs = [], []
    for u, v in pairs:
        u, v = _check_label(u), _check_label(v)
        for label in (u, v):
            if len(label) != depth:
                raise ConeError("all labels must have the stated length")
            if in_f2_part(label):
                raise ConeError("labels must contain a z-letter")
        us.append(u)
        vs.append(v)
    if len(set(us)) != len(us) or len(set(vs)) != len(vs):
        raise ConeError("sources and targets must each be distinct")

    def sort_key(label):
        return tuple(letter_key(l) for l in label)

    support = sorted(set(us) | set(vs) | {pivot}, key=sort_key)
    perm = dict(zip(us, vs))
    remaining_src = [s for s in support if s not in perm]
    remaining_dst = [t for t in support if t not in set(vs)]
    perm.update(zip(remaining_src, remaining_dst))

    # Cycle decomposition into pivot transpositions, first-applied first.
    first_applied: list[Word] = []
    seen = set()
    for start in support:
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = perm[cur]
        if pivot in cycle:
            i = cycle.index(pivot)
            cycle = cycle[i:] + cycle[:i]  # starts at the pivot
            first_applied.extend(cycle[1:])
        else:
            first_applied.extend(cycle + [cycle[0]])

    element: GElement = ()
    for label in first_applied:
        element = cone_transposition(label) + element
    for u, v in zip(us, vs):
        if image_antichain(element, [u]) != (v,):
            raise ConeCertificationError("pair verification failed")
    return element


# --- transience of the projected walk -----------------------------------------


@dataclass(frozen=True)
class HitProbability:
    """Roots of the first-passage equation q = 1/4 + (3/4) q^2."""

    minimal_root: Fraction
    roots: tuple

    @property
    def value(self) -> Fraction:
        return self.minimal_root


def hit_probability_exact() -> HitProbability:
    """Probability that the projected uniform walk ever hits the vertex x.

    From distance 1 the walk steps to distance 0 with probability 1/4 and to
    distance 2 with probability 3/4, whence q = 1/4 + (3/4) q^2. The
    quadratic 3q^2 - 4q + 1 has roots 1/3 and 1; transience selects the
    minimal root. Laziness and permutation steps delay the projection
    without changing the hitting event, so the value is measure-independent
    given symmetric letter masses.
    """
    a, b, c = 3, -4, 1
    disc = b * b - 4 * a * c
    sq = math.isqrt(disc)
    if sq * sq != disc:
        raise ConeCertificationError("the discriminant of the first-passage equation is not a square")
    roots = sorted((Fraction(-b - sq, 2 * a), Fraction(-b + sq, 2 * a)))
    return HitProbability(minimal_root=roots[0], roots=tuple(roots))


def simulate_hit_probability(
    trials: int, horizon: int, seed: int
) -> tuple[float, float, float]:
    """Monte Carlo estimate of hitting the vertex x within the horizon.

    Simulates the exact distance-to-x chain of the uniform projected walk:
    from any vertex other than x exactly one of the four letters moves
    toward x, so the distance performs a (1/4 down, 3/4 up) walk started at
    1 and absorbed at 0. A trial whose distance exceeds the steps remaining
    is a certain miss and is abandoned early; that pruning is exact.
    Returns (p_hat, ci_low, ci_high).
    """
    gen = rng.substream(seed)
    dist = np.ones(trials, dtype=np.int64)
    hits = 0
    remaining = horizon
    while dist.size and remaining > 0:
        steps = np.where(
            gen.integers(0, 4, size=dist.size) == 0, -1, 1
        )
        dist = dist + steps
        remaining -= 1
        hit_now = dist == 0
        hits += int(hit_now.sum())
        alive = ~hit_now & (dist <= remaining)
        dist = dist[alive]
    p, lo, hi = proportion_ci95(hits, trials)
    return p, lo, hi


def superharmonic_check(radius: int) -> bool:
    """Exact verification that v -> 3^{-|v|} is superharmonic for the lazy
    projected measure (letter mass 1/(18!+4) each, the rest on the identity).

    Checks sum_g nu(g) f(vg) <= f(v) over the radius ball of F(x, y):
    equality off the identity (one letter moves toward the root, three
    away), strict at the identity (all four letters move away). The measure
    is symmetric, so the two convolution conventions agree.
    """
    if radius < 1:
        raise ConeError("radius must be >= 1")
    group_size = math.factorial(18) + 4
    nu_letter = Fraction(1, group_size)
    nu_lazy = 1 - 4 * nu_letter

    def f(word: Word) -> Fraction:
        return Fraction(1, 3 ** len(word))

    letters = (1, -1, 2, -2)
    stack: list[Word] = [()]
    seen = {()}
    while stack:
        v = stack.pop()
        value = nu_lazy * f(v)
        for l in letters:
            if v and v[-1] == -l:
                value += nu_letter * f(v[:-1])
            else:
                value += nu_letter * f(v + (l,))
        if v:
            if value != f(v):
                return False
        else:
            if not value < f(v):
                return False
        if len(v) < radius:
            for l in letters:
                if not v or v[-1] != -l:
                    w = v + (l,)
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return True


@dataclass(frozen=True)
class QnEstimate:
    """Monte Carlo estimate of the cone-hitting probability q_n."""

    n: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    depth_cap: int
    depth_cap_exceeded: int


def estimate_qn(
    p_letter: Fraction,
    n: int,
    trials: int,
    seed: int,
    depth_cap: int | None = None,
    threads: int = 1,
) -> QnEstimate:
    """Estimate q_n = P(w_n(Cone(z)) meets Cone(x^2)) by exact per-trial
    antichain images.

    Steps put mass p_letter on each of x, x^-1, y, y^-1 and the remainder on
    a uniformly random permutation of the 18 cone labels (Fisher-Yates from
    the trial substream). Per-trial decisions are exact; only the average is
    statistical. The projected-walk ceiling 1/3 applies for every p_letter
    with 4*p_letter <= 1.
    """
    p_letter = Fraction(p_letter)
    if p_letter <= 0 or 4 * p_letter > 1:
        raise ConeError("need 0 < p_letter and 4*p_letter <= 1")
    if p_letter.denominator >= 2**64:
        raise ConeError("letter mass denominator too fine for exact 64-bit sampling")
    if depth_cap is None:
        depth_cap = n + 8
    den = p_letter.denominator
    num = p_letter.numerator
    letters = (X, -X, Y, -Y)

    def one(trial: int) -> tuple[bool, bool]:
        gen = rng.substream(seed, trial)
        draws = gen.integers(0, den, size=n)
        atoms = []
        for r in draws.tolist():
            if r < 4 * num:
                atoms.append(letters[r // num])
            else:
                atoms.append(ConePermutation(tuple(gen.permutation(18).tolist())))
        try:
            image = image_antichain(tuple(atoms), [CONE_Z], depth_cap)
        except DepthCapExceeded:
            return False, True
        return antichain_meets_cone(image, CONE_X2), False

    results = rng.map_trials(one, trials, threads)
    successes = sum(hit for hit, _ in results)
    exceeded = sum(exc for _, exc in results)
    p, lo, hi = proportion_ci95(successes, trials)
    return QnEstimate(n, trials, successes, p, lo, hi, seed, depth_cap, exceeded)
