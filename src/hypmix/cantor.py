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

A group element has one form everywhere: a tuple of atoms, each an F(x, y)
letter (an int) or a permutation written as the 18-tuple of its targets.
The public entries check every atom and raise ConeError for anything else;
an estimate_qn trial checks its whole block of drawn permutations at once
and hands its atoms to the image computation directly.

Both generators preserve the "same order-position" structure: restricted to
any cone they realize the positional bijection xi between source and target
cones, which is what makes exact open-set computations possible. Images of
finite cone unions are tracked as antichains of labels (no label a prefix of
another). Atoms act right to left on an intermediate label, held as a letter
stack: a letter pushes or pops, a permutation rewrites the two-letter prefix
and carries deeper letters by rank only up to the first letter that maps to
itself, and while the label starts with two F(x, y) letters every
permutation is skipped unread. When the next atom is not yet
determined at its depth (a permutation needs two letters, a letter may
cancel a length-1 label), the intermediate label splits into its five
children and the computation resumes at that same atom. The atoms already
applied act on the source cone as the positional bijection onto the
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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .freegroup import FreeContext, Word
from .stats import proportion_ci95

X, Y, Z = 1, 2, 3
_LETTERS = tuple(FreeContext(3).letters())  # the fixed order x < x^-1 < y < y^-1 < z < z^-1
_LETTER_NAMES = {1: "x", -1: "X", 2: "y", -2: "Y", 3: "z", -3: "Z"}
_NAME_LETTERS = {v: k for k, v in _LETTER_NAMES.items()}
_ALPHABET = frozenset(_LETTERS)

# Allowed extension letters after a given last letter, in order.
_ALLOWED = {last: tuple(l for l in _LETTERS if l != -last) for last in _LETTERS}
_LETTER_RANK = {l: i for i, l in enumerate(_LETTERS)}
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
    try:
        letters = [_NAME_LETTERS[ch] for ch in text.strip()]
    except KeyError as exc:
        raise ConeError(f"invalid boundary letter {exc.args[0]!r}") from None
    return _check_label(letters)


def format_label(label: Word) -> str:
    return "".join(_LETTER_NAMES[l] for l in label)


def _check_label(label: Sequence[int]) -> Word:
    label = tuple(label)
    if not label:
        raise ConeError("cone labels are nonempty")
    if not _ALPHABET.issuperset(label):
        for l in label:
            if l not in _ALPHABET:
                raise ConeError(f"letter {l} outside the x, y, z alphabet")
    # Two neighbours cancel exactly when their sum is 0.
    if 0 in map(operator.add, label, label[1:]):
        raise ConeError("label is not freely reduced")
    return label


def in_f2_part(label: Sequence[int]) -> bool:
    """Whether the label uses only x, y letters (no z)."""
    return all(abs(l) != Z for l in label)


def _children(label: Word) -> list[Word]:
    return [label + (l,) for l in _ALLOWED[label[-1]]]


# The 30 two-letter labels.
SIGMA: tuple[Word, ...] = tuple(u for l in _LETTERS for u in _children((l,)))
OMEGA: tuple[Word, ...] = tuple(u for u in SIGMA if not in_f2_part(u))  # 18 of them
OMEGA_INDEX = {u: i for i, u in enumerate(OMEGA)}
# The count of leading F(x, y) letters of each Omega label: 1 or 0.
_OMEGA_F2 = tuple(int(abs(u[0]) != Z) for u in OMEGA)

CONE_Z: Word = (Z,)
CONE_Z2: Word = (Z, Z)
CONE_ZM2: Word = (-Z, -Z)
CONE_X2: Word = (X, X)


# A group element is a tuple of atoms; the rightmost atom acts first. An atom
# is an F(x, y) letter (the int +-1 or +-2) or a permutation of Omega given
# as the 18-tuple of its targets: it sends OMEGA[i] to OMEGA[atom[i]] and
# fixes the x,y-only labels.
GElement = tuple

_F2_LETTERS = (X, -X, Y, -Y)
_TARGETS = list(range(18))
_TARGET_TYPES = [int] * 18


def _check_element(g: GElement) -> GElement:
    """g as a tuple, or ConeError at its first atom that is neither an
    F(x, y) letter nor a permutation of the 18 cone labels.

    Raised explicitly, so the check also runs under python -O.
    """
    g = tuple(g)
    for atom in g:
        if atom.__class__ is int:
            if atom not in _F2_LETTERS:
                raise ConeError(f"letter {atom} is not in F(x, y)")
        elif (
            atom.__class__ is not tuple
            or list(map(type, atom)) != _TARGET_TYPES
            or sorted(atom) != _TARGETS
        ):
            raise ConeError(f"atom {atom!r} is not a permutation of the 18 cone labels")
    return g


def _omega_index(label: Sequence[int]) -> int:
    """The position of a cone label in Omega, or ConeError naming it."""
    label = _check_label(label)
    if label not in OMEGA_INDEX:
        raise ConeError(f"label {format_label(label)} is not one of the 18 cone labels")
    return OMEGA_INDEX[label]


def from_assignments(assignments: dict) -> tuple:
    """The permutation atom realizing the given label assignments, completed
    deterministically (remaining sources to remaining targets in order)."""
    mapping: dict[int, int] = {}
    used_targets = set()
    for src, dst in assignments.items():
        i, j = _omega_index(src), _omega_index(dst)
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
    return tuple(mapping[i] for i in range(18))


def invert_element(g: GElement) -> GElement:
    out = []
    for atom in reversed(_check_element(g)):
        # The inverse permutation lists the sources in the order of their targets.
        out.append(-atom if atom.__class__ is int else tuple(sorted(range(18), key=atom.__getitem__)))
    return tuple(out)


def format_element(g: GElement) -> str:
    parts = []
    for atom in g:
        if isinstance(atom, int):
            parts.append(_LETTER_NAMES[atom])
        else:
            images = ",".join(format_label(OMEGA[j]) for j in atom)
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
        level = [child for label in level for child in _children(label)]
    return level


def _xi(u: Word, v: Word, w: Word) -> Word:
    """Order-position transport: the label in Cone(v) at the same
    lexicographic position that w occupies in Cone(u).

    Each extension letter is replaced by the letter of equal rank among the
    five allowed continuations on the target side, so the map costs one pass
    and never enumerates cones. The labels must be valid, with u a prefix
    of w.
    """
    out = list(v)
    last_src, last_dst = u[-1], v[-1]
    for letter in w[len(u):]:
        rank = _ALLOWED_RANK[last_src][letter]
        image = _ALLOWED[last_dst][rank]
        out.append(image)
        last_src, last_dst = letter, image
    return tuple(out)


# --- the action ---------------------------------------------------------------


# The cap on the source depth of image_antichain and of the constructors'
# checks; estimate_qn takes a cap of its own.
DEPTH_CAP = 64

# Returned when an action is not determined at the current label depth.
# Labels are nonempty tuples, so None cannot be mistaken for one.
NEEDS_REFINEMENT = None


def _advance(atoms: tuple, label: Word, i: int) -> tuple[Word, int]:
    """Apply the atoms atoms[i-1], ..., atoms[0] (right to left) to
    Cone(label).

    Stops at the first atom that is not determined at the label's depth and
    returns (label, atoms left), with 0 atoms left once every atom has acted.

    The label is a letter stack with its first letter on top, so a letter
    atom pushes or pops, and f2 counts the label's leading F(x, y) letters.
    Atom letters lie in F(x, y), so a push adds one to the count and a pop
    takes one off. While the count is at least 2, every permutation fixes
    the label pointwise and is skipped, and no letter can cancel the whole
    label. Below 2, the two-letter prefix lies in Omega: a permutation
    rewrites it and carries the deeper letters by rank, as _xi does, up to
    the first letter its image agrees with; from there on every letter maps
    to itself. A letter costs O(1) and a permutation one step per letter it
    changes: all of them in zxxx -> zXXX, rarely more than two on random
    labels.
    """
    word = list(reversed(label))
    f2 = 0
    for l in label:
        if abs(l) == Z:
            break
        f2 += 1
    while i:
        atom = atoms[i - 1]
        if atom.__class__ is int:
            if word[-1] != -atom:
                word.append(atom)
                f2 += 1
            elif len(word) > 1:
                word.pop()
                f2 -= 1
            else:
                break  # full cancellation: the image is not a cone
        elif f2 < 2:
            if len(word) < 2:
                break  # a permutation reads two letters
            src = OMEGA_INDEX[word[-1], word[-2]]
            dst = atom[src]
            if dst != src:
                last_src = word[-2]
                word[-1], last_dst = OMEGA[dst]
                word[-2] = last_dst
                j = len(word) - 3
                while j >= 0 and last_src != last_dst:
                    letter = word[j]
                    last_dst = word[j] = _ALLOWED[last_dst][_ALLOWED_RANK[last_src][letter]]
                    last_src = letter
                    j -= 1
                f2 = _OMEGA_F2[dst]
        i -= 1
    word.reverse()
    return tuple(word), i


def apply_element(g: GElement, label: Sequence[int]):
    """Image label of Cone(label) under g, or NEEDS_REFINEMENT.

    Atoms act right to left. The image is exact whenever every intermediate
    label is deep enough for the next atom: two letters for a permutation,
    no full cancellation for a letter. Restricted to the cone, g acts as the
    positional bijection onto the returned cone.
    """
    g = _check_element(g)
    label, left = _advance(g, _check_label(label), len(g))
    return NEEDS_REFINEMENT if left else label


def _merge_antichain(labels: Iterable[Word]) -> tuple[Word, ...]:
    """Replace any full sibling family by its parent, repeatedly.

    The labels must form an antichain, and so must the merged ones: both
    are checked, the merged ones only when some family merged. One stack
    pass in tuple order merges: labels between two siblings extend their
    parent, so four labels of a label's length on top of the stack, the
    lowest its sibling, complete its family. They give way to the parent,
    which may complete a family with the labels below it.
    """
    ordered = sorted(set(labels))
    _check_antichain(ordered)
    merged: list[Word] = []
    for label in ordered:
        while (
            len(label) >= 2
            and len(merged) >= 4
            and merged[-4][:-1] == label[:-1]
            and all(len(kid) == len(label) for kid in merged[-4:])
        ):
            del merged[-4:]
            label = label[:-1]
        merged.append(label)
    if len(merged) < len(ordered):
        _check_antichain(merged)
    merged.sort(key=_shortlex_key)
    return tuple(merged)


def _check_antichain(ordered: list[Word]) -> None:
    """AssertionError, raised explicitly so that it also runs under -O, if
    one of the labels, in tuple order, is a proper prefix of another."""
    # In tuple order a label sorts directly before its extensions, so any
    # prefix pair shows up as a pair of neighbours.
    for short, long in zip(ordered, ordered[1:]):
        if long[: len(short)] == short:
            raise AssertionError("antichain invariant broken")


def _shortlex_key(label: Word) -> tuple:
    """The order of freegroup.shortlex_key, read from a rank table."""
    return (len(label), bytes(map(_LETTER_RANK.__getitem__, label)))


def image_antichain(g: GElement, labels: Iterable[Sequence[int]]) -> tuple[Word, ...]:
    """Exact image of a disjoint union of cones under g, as an antichain.

    Atoms act right to left. When the next atom cannot act on the current
    intermediate label, that label splits into its five children and each
    resumes at the same atom: the atoms already applied map the source cone
    positionally onto the intermediate one, so the children are the images
    of the source label's children. The cap counts source depth:
    DepthCapExceeded is raised when a source label of depth >= DEPTH_CAP
    would have to split.
    """
    return _image(_check_element(g), [_check_label(label) for label in labels], DEPTH_CAP)


def _image(atoms: tuple, labels: Iterable[Word], depth_cap: int) -> tuple[Word, ...]:
    """image_antichain on atoms and labels already checked."""
    work = [(label, len(atoms), len(label)) for label in labels]
    out = []
    while work:
        label, left, depth = work.pop()
        label, left = _advance(atoms, label, left)
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


def _case_step(u: Word) -> tuple[int, tuple]:
    """One standardizing step: a letter a and a permutation sigma with
    (a^-1 sigma)[Cone(u)] = Cone(u'), |u'| = |u| - 1, and z^-n -> z^-(n-1)."""
    u2 = u[:2]
    if in_f2_part(u2):
        a = u[0]
        sigma = from_assignments({CONE_ZM2: (a, -Z)})
    elif u2 == CONE_ZM2:
        a = X
        sigma = from_assignments({CONE_ZM2: (a, -Z)})
    else:
        a = X
        sigma = from_assignments({u2: (a, Z), CONE_ZM2: (a, -Z)})
    return a, sigma


def standardizing_element(u: Sequence[int]) -> GElement:
    """An element sending Cone(u) to Cone(z^2) and Cone(z^-n) to Cone(z^-2).

    Requires |u| = n >= 2, u containing a z-letter, u != z^-n. One loop:
    a permutation and one letter shorten the label and z^-n in lockstep
    down to length 2, where one permutation finishes. The returned word has
    one permutation and at most one letter per level; it is certified once.
    """
    u = _check_label(u)
    n = len(u)
    if n < 2:
        raise ConeError("need a label of length >= 2")
    if in_f2_part(u):
        raise ConeError("label must contain a z-letter")
    if u == (-Z,) * n:
        raise ConeError("label z^-n is the partner cone, not a valid source")
    element: GElement = ()
    label = u
    while len(label) > 2:
        a, sigma = _case_step(label)
        step: GElement = (-a, sigma)
        shorter, left = _advance(step, label, 2)
        if left or len(shorter) != len(label) - 1:
            raise ConeCertificationError("a step did not shorten the label by one")
        element = step + element
        label = shorter
    element = (from_assignments({label: CONE_Z2, CONE_ZM2: CONE_ZM2}),) + element
    _verify_standardizing(element, u)
    return element


def _verify_standardizing(element: GElement, u: Word):
    """The cone equations of a standardizing element for the checked label
    u, and its positional action two levels below both source cones.

    The element is checked once; the probes then act on its atoms directly.
    """
    atoms = _check_element(element)
    n = len(u)
    zmn = (-Z,) * n
    if _image(atoms, [u], DEPTH_CAP) != (CONE_Z2,):
        raise ConeCertificationError("cone equation for u failed")
    if _image(atoms, [zmn], DEPTH_CAP) != (CONE_ZM2,):
        raise ConeCertificationError("cone equation for z^-n failed")
    # Pointwise, two levels deeper: the action must be the positional map.
    for source, target in ((u, CONE_Z2), (zmn, CONE_ZM2)):
        for w in order_cones(source, 2):
            image, left = _advance(atoms, w, len(atoms))
            if left or image != _xi(source, target, w):
                raise ConeCertificationError(
                    f"action on Cone({format_label(source)}) is not positional at {format_label(w)}"
                )


def cone_transposition(u: Sequence[int]) -> GElement:
    """An element swapping Cone(u) with Cone(z^-n), fixing all other points.

    For u = z^-n the identity does it; otherwise conjugate the transposition
    of Cone(z^2) and Cone(z^-2) by a standardizing element for u.
    """
    u = _check_label(u)
    if len(u) >= 2 and u == (-Z,) * len(u):
        return ()
    f = standardizing_element(u)
    tau = from_assignments({CONE_Z2: CONE_ZM2, CONE_ZM2: CONE_Z2})
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

    support = sorted(set(us) | set(vs) | {pivot}, key=_shortlex_key)
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

    Each step draws one integer below 4 per live trial and updates the
    distances in place. The live trials are compacted only on a step where
    one of them leaves. After t steps every distance is at most 1 + t and
    has the parity of 1 + t, so while t is even and 1 + t <= remaining no
    trial can hit 0 or be pruned, and the step looks no further.
    """
    gen = rng.substream(seed)
    dist = np.ones(trials, dtype=np.int64)
    hits = 0
    for t in range(1, horizon + 1):
        if not dist.size:
            break
        remaining = horizon - t
        down = rng.draw_below(gen, 4, dist.size) == 0
        # Read as int8, the steps -1 and +1 stay one byte wide.
        dist += 1 - 2 * down.view(np.int8)
        if t % 2 == 0 and 1 + t <= remaining:
            continue
        hit = int(np.count_nonzero(dist == 0))
        if hit or dist.max() > remaining:
            hits += hit
            dist = dist[(dist != 0) & (dist <= remaining)]
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

    for v in FreeContext(2).ball(radius):
        value = nu_lazy * f(v)
        for l in _F2_LETTERS:
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
    a uniformly random permutation of the 18 cone labels (one batched
    `permuted` draw, the same stream). Per-trial decisions are exact; only
    the average is statistical. The projected-walk ceiling 1/3 applies for
    every p_letter with 4*p_letter <= 1.

    The children of a split always get past the atom that split them, so a
    chain of splits splits at most once per atom: an n-atom trial from
    Cone(z) splits at source depth at most n. Any depth_cap above n, the
    default n + 8 included, therefore never censors a trial.
    """
    p_letter = Fraction(p_letter)
    if p_letter <= 0 or 4 * p_letter > 1:
        raise ConeError("need 0 < p_letter and 4*p_letter <= 1")
    # Denominators above 2^63 are refused, so every step integer fits an int64.
    if p_letter.denominator > 2**63:
        raise ConeError("letter mass denominator above 2^63, too fine for exact 64-bit sampling")
    if depth_cap is None:
        depth_cap = n + 8
    den = p_letter.denominator
    num = p_letter.numerator
    letter_bound = 4 * num
    letters = _F2_LETTERS
    identity = np.arange(18)

    def one(trial: int) -> tuple[bool, bool]:
        gen = rng.trial_stream(seed, trial)
        draws = rng.draw_below(gen, den, n)
        k = int(np.count_nonzero(draws >= letter_bound))
        rows = gen.permuted(np.tile(identity, (k, 1)), axis=1)
        # Checked once per trial, explicitly, so it also runs under -O.
        if not (np.sort(rows, axis=1) == identity).all():
            raise ConeCertificationError("a drawn row is not a permutation of the 18 cone labels")
        perms = iter(map(tuple, rows.tolist()))
        atoms = tuple(
            letters[r // num] if r < letter_bound else next(perms) for r in draws.tolist()
        )
        try:
            image = _image(atoms, [CONE_Z], depth_cap)
        except DepthCapExceeded:
            return False, True
        return antichain_meets_cone(image, CONE_X2), False

    results = rng.map_trials(one, trials, threads)
    successes = sum(hit for hit, _ in results)
    exceeded = sum(exc for _, exc in results)
    p, lo, hi = proportion_ci95(successes, trials)
    return QnEstimate(n, trials, successes, p, lo, hi, depth_cap, exceeded)
