"""Exact arithmetic in the free group F_k and exact geometry of its Cayley tree.

A word is a tuple of nonzero ints: +i stands for the i-th generator (1-based),
-i for its inverse. Freely reduced words are in bijection with the vertices of
the Cayley tree of F_k, a (2k)-regular tree with edge-path metric
d(u, v) = |reduce(u^-1 v)|. The tree is 0-hyperbolic, so the coarse-geometry
toolkit (Gromov products, broken geodesics) becomes exact here; Gromov
products are half-integers and are kept as Fractions, never floats.

Serialization: generators are the ASCII letters a, b, c, ... and inverses the
corresponding uppercase letters; the empty word prints as "1".

TREE_CONSTANTS records how the hyperbolicity-dependent constants of the
general theory specialize at delta = 0:

  delta                      0    (geodesic triangles are 0-slim: tripods)
  quadrangle_slim            0    (2*delta)
  thin_triangle              0    (6*delta)
  broken_geodesic_c0_min     0    (168*delta)
  broken_geodesic_c1_factor  12   (need C1 > 12*(C0 + 12*delta) = 12*C0)
  broken_geodesic_bound      2    (conclusion: d(x_i, [x_0, x_m]) <= 2*C0)

All geometry is vertex-based: Gromov products and geodesics are evaluated
at vertices of the tree only, which is where they are exact; midpoints of
edges are never materialized.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]

TREE_CONSTANTS = {
    "delta": 0,
    "quadrangle_slim": 0,
    "thin_triangle": 0,
    "broken_geodesic_c0_min": 0,
    "broken_geodesic_c1_factor": 12,
    "broken_geodesic_bound": 2,
}


class WordError(ValueError):
    """Malformed word, letter outside the generator range, or bad constants."""


def letter_key(letter: int) -> tuple[int, int]:
    """Sort key realizing the letter order a < a^-1 < b < b^-1 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


def shortlex_key(word: Word) -> tuple:
    """Sort key for shortlex order: by length, then letterwise."""
    return (len(word), tuple(letter_key(x) for x in word))


def reduce_word(raw: Iterable[int], rank: int | None = None) -> Word:
    """Freely reduce a letter sequence (stack-based, single pass).

    Idempotent; raises WordError on zero letters or, when rank is given,
    letters outside 1..rank.
    """
    stack: list[int] = []
    for letter in raw:
        if letter == 0 or (rank is not None and abs(letter) > rank):
            raise WordError(f"letter {letter} outside generator range 1..{rank}")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def invert(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def multiply(u: Word, v: Word) -> Word:
    """Product of two reduced words; cancellation happens only at the seam."""
    cut = 0
    max_cut = min(len(u), len(v))
    while cut < max_cut and u[len(u) - 1 - cut] == -v[cut]:
        cut += 1
    return u[: len(u) - cut] + v[cut:]


def power(word: Word, n: int) -> Word:
    """word^n via the cyclic decomposition, so cost is linear in the output."""
    if n == 0:
        return ()
    if n < 0:
        return invert(power(word, -n))
    core, conj = cyclic_reduce(word)
    return multiply(multiply(conj, core * n), invert(conj))


def distance(u: Word, v: Word) -> int:
    """Tree distance between the vertices u and v: |u^-1 v|."""
    return len(u) + len(v) - 2 * common_prefix_length(u, v)


def common_prefix_length(u: Word, v: Word) -> int:
    common = 0
    max_common = min(len(u), len(v))
    while common < max_common and u[common] == v[common]:
        common += 1
    return common


def cyclic_reduce(word: Word) -> tuple[Word, Word]:
    """Split word = conjugator * core * conjugator^-1 with core cyclically reduced.

    The core has minimal length in the conjugacy class of word.
    """
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[i:j], word[:i]


def elementary_closure_contains(g: Word, a: Word) -> bool:
    """Whether a lies in the maximal cyclic subgroup containing g (g != 1).

    Free groups have torsion-free centralizers, so this is just the
    commutation test a*g == g*a.
    """
    if not g:
        raise WordError("maximal cyclic subgroup undefined for the identity")
    return multiply(a, g) == multiply(g, a)


def gromov_product(x: Word, y: Word, s: Word = ()) -> Fraction:
    """(x|y)_s = (d(x,s) + d(y,s) - d(x,y)) / 2, an exact half-integer.

    In a tree this equals the distance from s to the geodesic [x, y], the
    least d(s, v) over the geodesic_vertices v of [x, y].
    """
    return Fraction(distance(x, s) + distance(y, s) - distance(x, y), 2)


def geodesic_vertices(x: Word, y: Word) -> list[Word]:
    """Vertices of the tree geodesic [x, y], from x through meet(x,y) to y."""
    common = common_prefix_length(x, y)
    down = [x[:i] for i in range(len(x), common, -1)]
    up = [y[:i] for i in range(common, len(y) + 1)]
    return down + up


def broken_geodesic_check(
    points: Sequence[Word],
    c0: Fraction | int,
    c1: Fraction | int,
) -> tuple[bool, bool]:
    """Broken-geodesic criterion for a chain of points, specialized to trees.

    hypothesis: consecutive points are at distance >= C1 apart and the Gromov
    product of each point's neighbours at that point is <= C0.
    conclusion: every point lies within 2*C0 of the geodesic joining the
    endpoints. At delta = 0 the criterion needs C0 >= 0 and C1 > 12*C0; with
    C0 = 0 the conclusion places each point exactly on the geodesic.
    """
    c0 = Fraction(c0)
    c1 = Fraction(c1)
    if c0 < TREE_CONSTANTS["broken_geodesic_c0_min"]:
        raise WordError("need C0 >= 0")
    if c1 <= TREE_CONSTANTS["broken_geodesic_c1_factor"] * c0:
        raise WordError("need C1 > 12*C0 at delta = 0")
    if len(points) < 2:
        raise WordError("need at least two points")
    hypothesis = all(
        distance(points[i - 1], points[i]) >= c1 for i in range(1, len(points))
    ) and all(
        gromov_product(points[i - 1], points[i + 1], points[i]) <= c0
        for i in range(1, len(points) - 1)
    )
    bound = TREE_CONSTANTS["broken_geodesic_bound"] * c0
    conclusion = all(
        gromov_product(points[0], points[-1], p) <= bound for p in points
    )
    return hypothesis, conclusion


# --- serialization and enumeration ---------------------------------------


class FreeContext:
    """A free group F_k (k >= 2); the identity, the empty word, is its basepoint.

    Handles parsing/formatting of words and enumeration of metric balls; the
    word operations themselves are the module-level functions on plain
    tuples.
    """

    def __init__(self, rank: int):
        if rank < 2:
            raise WordError("rank must be >= 2 (non-elementary)")
        if rank > 26:
            raise WordError("rank limited to 26 by the a..z serialization")
        self.rank = rank

    def __repr__(self):
        return f"FreeContext(rank={self.rank})"

    def letters(self) -> list[int]:
        """All 2k letters in the order a < a^-1 < b < b^-1 < ..."""
        out = []
        for i in range(1, self.rank + 1):
            out.append(i)
            out.append(-i)
        return out

    def parse(self, text: str) -> Word:
        """Parse the a..z / A..Z word grammar; "1" denotes the empty word."""
        text = text.strip()
        if text in ("", "1"):
            return ()
        raw = []
        for ch in text:
            if "a" <= ch <= "z":
                raw.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                raw.append(-(ord(ch) - ord("A") + 1))
            else:
                raise WordError(f"invalid character {ch!r} in word {text!r}")
        if any(abs(x) > self.rank for x in raw):
            raise WordError(f"word {text!r} uses generators beyond rank {self.rank}")
        return reduce_word(raw)

    def format(self, word: Word) -> str:
        if not word:
            return "1"
        out = []
        for x in word:
            if abs(x) > self.rank:
                raise WordError(f"letter {x} beyond rank {self.rank}")
            out.append(chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1))
        return "".join(out)

    def sphere(self, radius: int) -> Iterator[Word]:
        """Reduced words of length exactly radius, in lexicographic order."""
        if radius == 0:
            yield ()
            return
        letters = self.letters()

        def extend(word: list[int], depth: int):
            for x in letters:
                if word and word[-1] == -x:
                    continue
                word.append(x)
                if depth == 1:
                    yield tuple(word)
                else:
                    yield from extend(word, depth - 1)
                word.pop()

        yield from extend([], radius)

    def ball(self, radius: int) -> list[Word]:
        """All reduced words of length <= radius, in shortlex order."""
        out: list[Word] = []
        for r in range(radius + 1):
            out.extend(self.sphere(r))
        return out

    def random_word(self, gen, length: int) -> Word:
        """Uniformly random reduced word of exactly the given length."""
        if length == 0:
            return ()
        letters = self.letters()
        word = [letters[int(gen.integers(0, len(letters)))]]
        while len(word) < length:
            choices = [x for x in letters if x != -word[-1]]
            word.append(choices[int(gen.integers(0, len(choices)))])
        return tuple(word)
