"""Finitely generated subgroups of F_k as folded core automata.

A subgroup automaton is a finite connected graph with edges labeled by
generators, a distinguished base state, and deterministic, co-deterministic
transitions (no state carries two equally-labeled edges in the same
direction). Transitions store both directions: following letter -i from a
state traverses an i-labeled edge backwards. The words read on reduced
base-to-base loops are exactly the elements of the subgroup. Its core drops
the hairs, the non-base states of degree <= 1, until every non-base state
has degree >= 2, so every edge lies on some reduced base loop.

An automaton keeps the folded graph its builder leaves: rows indexed by the
builder's states (None for a merged-away state), a base state that need not
be 0, and possibly hairs. Membership, window traces, rank and index are read
on that graph: a reduced word never enters a hair and comes back, a hair
adds one state and one edge, so rank = edges - states + 1 keeps its value,
and a graph with a hair is no full cover, nor is its core. The core form
is built in one pass on first use and cached: the core, numbered
breadth-first from the base with the fixed letter order a < a^-1 < b <
b^-1 < ..., each state's row listing its letters in that order, and each
state's spanning-tree word, spelled as the numbering first meets the state.
`transitions` returns the rows, and everything that reads state numbers
goes through the form (n_states, the tree words, text, equality, hashing,
and transverse's power-conjugacy scan), so two automata of one subgroup have
equal rows and equality of subgroups is equality of objects, compared row by
row. All instances are immutable; every operation returns a fresh automaton.

One fold builder makes every automaton from words and automata, and keeps
its graph folded as it grows (Kapovich & Myasnikov, "Stallings foldings and
subgroups of free groups", J. Algebra 2002). An automaton goes in as a copy
of its folded rows, never canonicalized on the way. A word goes in as a path
that is read rather than unioned state by state: the graph follows as much
of the word as it can from both ends, fresh states spell only the unread
middle, and a path read to the end merges its two ends and folds what that
forces. Generators are loops read in at the base. Every other construction
is one operation, <g H g^-1, K> (conjugate_join): K's automaton merged into
the base, H's copied in beside it and a stem spelling g read in between.
The conjugate g H g^-1 is its case K = 1, and <H, g> its case of an empty
stem with K = <g>. The read from both ends is one routine, which join_gap
shares: given g^-1, it reads H's and K's rows from the same two ends and
counts the letters of g that conjugate_join would spell with fresh states,
the gap mu, without building a graph. When H's automaton already reads g
backwards from its base, as L reads w back along its own stem for the
conjugate w L w^-1 that mixing's flag (b) reads, that stem would merge the
new base away at once, with no state added and no edge moved: conjugate
then builds no graph and returns H's rows, shared, with the base moved to
the state g^-1 reads to.

Basepoint convention: all orbit computations measure distances from the
identity vertex. Moving the basepoint to another vertex t changes the
quasi-convexity constant of an orbit by at most 2*d(s,t) (plus the
hyperbolicity terms, zero here); we keep the identity throughout and record
this as an identity rather than an operation.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .freegroup import FreeContext, Word, WordError, cyclic_reduce, invert, reduce_word


class AutomatonError(ValueError):
    """Malformed automaton input or serialization."""


def _follow(rows: Sequence[dict[int, int] | None], state: int, word: Sequence[int]) -> int | None:
    """Follow a word from a state through the rows; None once undefined."""
    for letter in word:
        state = rows[state].get(letter)  # type: ignore[union-attr,assignment]
        if state is None:
            return None
    return state


def _read_ends(src_rows, p: int, dst_rows, q: int, word: Word) -> tuple[int, int, int, int]:
    """Read a reduced word in from both ends, as a path from p to q: from q
    backwards through dst_rows as far as it goes, then from p forwards
    through src_rows, up to where the backward read stopped. Returns
    (p, lo, q, hi), the states the two reads reach and the bounds of the
    unread middle word[lo:hi]. Both reads stop at the first letter they miss,
    so this costs the letters read, not the word's length.

    _FoldGraph.attach_path reads a path in this way, and
    SubgroupAutomaton.join_gap counts the middle of conjugate_join's path
    with it, from the path's other end."""
    lo, hi = 0, len(word)
    while hi > lo and (prev := dst_rows[q].get(-word[hi - 1])) is not None:
        q, hi = prev, hi - 1
    while lo < hi and (nxt := src_rows[p].get(word[lo])) is not None:
        p, lo = nxt, lo + 1
    return p, lo, q, hi


def _core_form(rank: int, rows: list[dict[int, int] | None], base: int) -> tuple[tuple[dict[int, int], ...], tuple[Word, ...]]:
    """(canonical rows, tree words) of folded rows (None for merged-away
    states): trim them to the core in place and number the states the base
    reaches breadth-first. A state's tree word, spelled when the pass first
    meets it, is its discoverer's plus one letter: a shortest path, whose
    length is the state's graph distance to the base."""
    # Core trim: drop non-base states of degree <= 1 until none remain.
    # Dropping a state lowers only its neighbour's degree, so a worklist
    # of such states visits each edge once.
    hairs = [s for s, row in enumerate(rows) if row is not None and len(row) <= 1 and s != base]
    while hairs:
        s = hairs.pop()
        row = rows[s]
        rows[s] = None
        for letter, t in row.items():  # type: ignore[union-attr]
            out = rows[t]
            del out[-letter]  # type: ignore[union-attr]
            if t != base and len(out) == 1:  # type: ignore[arg-type]
                hairs.append(t)

    # Canonical BFS numbering from the base, letters in fixed order. A
    # state's targets are numbered by the time its row is written, and
    # each row lists its letters in that same order.
    letter_order = [x for i in range(1, rank + 1) for x in (i, -i)]
    number = {base: 0}
    order = [base]
    words: list[Word] = [()]
    transitions = []
    for s in order:
        out, word = rows[s], words[len(transitions)]
        row = {}
        for letter in letter_order:
            t = out.get(letter)  # type: ignore[union-attr]
            if t is not None:
                if t not in number:
                    number[t] = len(order)
                    order.append(t)
                    words.append(word + (letter,))
                row[letter] = number[t]
        transitions.append(row)
    return tuple(transitions), tuple(words)


class _FoldGraph:
    """A labeled graph with base find(0), kept folded while it is built.

    Each state has a row, letter -> target, holding both directions of its
    edges, and a union-find parent; a merged-away state's row is None. The
    graph starts from one empty base state, 0. An
    automaton goes in as a copy of its rows, a component of its own that a
    merge or a path then joins to the rest. A path is read in: the graph
    reads as much of its word as it can from both ends, fresh states spell
    only the unread middle, and when nothing is left unread the two ends are
    merged. A merge absorbs the state with fewer edges, moves those edges
    onto the survivor and merges again wherever two equally-labeled edges
    meet, so every call leaves the graph folded.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.rows: list[dict[int, int] | None] = [{}]
        self.parent = [0]

    def find(self, s: int) -> int:
        parent = self.parent
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def add_states(self, count: int) -> range:
        first = len(self.rows)
        self.rows.extend({} for _ in range(count))
        self.parent.extend(range(first, first + count))
        return range(first, first + count)

    def attach(self, automaton: "SubgroupAutomaton") -> int:
        """Copy the automaton's folded rows in as a new component, each state
        shifted by one offset, and return where its base landed."""
        offset = len(self.rows)
        self.rows.extend(
            None if row is None else {letter: t + offset for letter, t in row.items()} for row in automaton._rows
        )
        self.parent.extend(range(offset, len(self.rows)))
        return offset + automaton._base

    def attach_path(self, word: Sequence[int], src: int, dst: int):
        """Read in a path spelling the word from src to dst."""
        word = reduce_word(word, self.rank)
        rows = self.rows
        p, lo, q, hi = _read_ends(rows, self.find(src), rows, self.find(dst), word)
        if lo == hi:
            if p != q:
                self._merge(p, q)
            return
        middle = word[lo:hi]
        # On a closed path the unread middle may not be cyclically reduced:
        # its first and last k letters then spell one stem out of p.
        k = len(cyclic_reduce(middle)[1]) if p == q else 0
        nodes = [p, *self.add_states(len(middle) - k - 1)]
        nodes.extend(reversed(nodes[1 : k + 1]))
        nodes.append(q)
        for u, letter, v in zip(nodes, middle, nodes[1:]):
            rows[u][letter] = v  # type: ignore[index]
            rows[v][-letter] = u  # type: ignore[index]

    def _merge(self, a: int, b: int):
        """Identify states a and b, then fold what that forces.

        Targets go stale while merges cascade and are read through find;
        afterwards every row that could hold a stale target is rewritten."""
        rows, parent, find = self.rows, self.parent, self.find
        pending = [(a, b)]
        touched = []
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if len(rows[a]) < len(rows[b]):  # type: ignore[arg-type]
                a, b = b, a
            parent[b] = a
            moved = rows[b]
            rows[b] = None
            if not moved:
                continue
            row = rows[a]
            touched.append(a)
            for letter, t in moved.items():
                touched.append(t)
                old = row.setdefault(letter, t)  # type: ignore[union-attr]
                if old != t:
                    pending.append((old, t))
        for s in touched:
            row = rows[find(s)]
            for letter, t in row.items():  # type: ignore[union-attr]
                row[letter] = find(t)  # type: ignore[index]

    def fold(self) -> "SubgroupAutomaton":
        """Hand the rows over as they are: no trim, no numbering."""
        return SubgroupAutomaton(self.rank, self.rows, self.find(0))


class SubgroupAutomaton:
    """Folded Stallings automaton of a finitely generated H <= F_k, with its
    canonical core form built when first read."""

    __slots__ = ("rank", "_rows", "_base", "_form")

    def __init__(
        self,
        rank: int,
        rows: Sequence[dict[int, int] | None],
        base: int,
        form: tuple[tuple[dict[int, int], ...], tuple[Word, ...]] | None = None,
    ):
        # Internal: callers go through from_generators / from_text / the
        # algebraic operations. rows and base are a folded graph, which the
        # automaton owns from here on; form, when given, is its core form.
        self.rank = rank
        self._rows = rows
        self._base = base
        self._form = form

    # --- construction -----------------------------------------------------

    @classmethod
    def from_generators(cls, rank: int, generators: Iterable[Sequence[int]]) -> "SubgroupAutomaton":
        """Fold the wedge of loops spelling the generators.

        The result is independent of generator order and of folding order;
        an empty generating set yields the trivial subgroup.
        """
        if rank < 2:
            raise AutomatonError("rank must be >= 2")
        graph = _FoldGraph(rank)
        for gen in generators:
            graph.attach_path(gen, 0, 0)
        return graph.fold()

    # --- structure --------------------------------------------------------

    def _core(self) -> tuple[tuple[dict[int, int], ...], tuple[Word, ...]]:
        """Build and cache the core form from a copy of the folded rows. A
        reader writes `self._form or self._core()`: a cached read is no call."""
        rows = [None if row is None else dict(row) for row in self._rows]
        self._form = _core_form(self.rank, rows, self._base)
        return self._form

    @property
    def transitions(self) -> tuple[dict[int, int], ...]:
        """The canonical rows."""
        return (self._form or self._core())[0]

    @property
    def n_states(self) -> int:
        return len((self._form or self._core())[0])

    def __eq__(self, other):
        # Canonical rows list their letters in the fixed order, so equal
        # dicts are equal rows.
        return (
            isinstance(other, SubgroupAutomaton)
            and self.rank == other.rank
            and self.transitions == other.transitions
        )

    def __hash__(self):
        return hash((self.rank, tuple(tuple(d.items()) for d in self.transitions)))

    def __repr__(self):
        return f"SubgroupAutomaton(rank={self.rank}, states={self.n_states}, subgroup_rank={self.rank_of_subgroup()})"

    # --- membership and geometry -------------------------------------------

    def contains(self, word: Sequence[int]) -> bool:
        """Whether the reduced word labels a base-to-base path."""
        return _follow(self._rows, self._base, word) == self._base

    def rank_of_subgroup(self) -> int:
        """Free rank of the subgroup: edges - states + 1 of the folded graph,
        which a hair leaves as it is on the core."""
        live = [len(row) for row in self._rows if row is not None]
        return sum(live) // 2 - len(live) + 1

    def index(self) -> int | float:
        """Subgroup index: the state count when the folded graph is a full
        cover (all 2k directions everywhere), infinity otherwise. A graph
        with a hair is no full cover, and neither is its core."""
        live = [len(row) for row in self._rows if row is not None]
        if all(degree == 2 * self.rank for degree in live):
            return len(live)
        return math.inf

    def word_to_state(self, state: int) -> Word:
        """A reduced word reading from the base to the given state."""
        return (self._form or self._core())[1][state]

    def distance_to_orbit(self, word: Sequence[int]) -> int:
        """Tree distance from the vertex to the orbit {h : h in H}.

        Equals min over readable prefixes w[:i], ending at state q_i, of
        (|w| - i) + depth(q_i), where depth(q_i) is the length of q_i's
        spanning-tree word: the candidate h = w[:i] * tree(q_i)^-1 is at
        most that far from w, and the decomposition of a nearest h along
        its common prefix with w attains the minimum. The longest prefix
        that reads attains it: a letter read lowers |w| - i by one, and the
        two ends of an edge of a breadth-first tree differ in depth by at
        most one, so the candidate never increases along the read.
        """
        rows, tree = self._form or self._core()
        state = read = 0
        for letter in word:
            nxt = rows[state].get(letter)
            if nxt is None:
                break
            state, read = nxt, read + 1
        return len(word) - read + len(tree[state])

    # --- algebra ------------------------------------------------------------

    def conjugate(self, g: Sequence[int]) -> "SubgroupAutomaton":
        """Automaton of g H g^-1: a stem spelling g from a new base to H's.

        g^-1 is read from H's base first; rows hold both directions of each
        edge, so a word that reads ends where its free reduction does. If
        all of it reads, the stem is already there: the result shares H's
        rows, which no automaton changes, with its base at the state
        reached. That is the case of mixing's flag (b), which reads w L w^-1
        on the L a witness trial has just folded. Otherwise it is
        <g H g^-1, 1>, folded by conjugate_join."""
        state = _follow(self._rows, self._base, invert(g))
        if state is not None:
            return SubgroupAutomaton(self.rank, self._rows, state)
        return self.conjugate_join(g, SubgroupAutomaton(self.rank, [{}], 0))

    def conjugate_join(self, g: Sequence[int], other: "SubgroupAutomaton") -> "SubgroupAutomaton":
        """Automaton of <g H g^-1, K>: K's automaton at the base, H's at a
        fresh state, and a stem spelling g read in between, in one pass."""
        if other.rank != self.rank:
            raise AutomatonError("rank mismatch in conjugate_join")
        graph = _FoldGraph(self.rank)
        graph._merge(0, graph.attach(other))
        graph.attach_path(g, 0, graph.attach(self))
        return graph.fold()

    def join_gap(self, w: Word, other: "SubgroupAutomaton") -> int:
        """The gap mu of <w^-1 H w, K>: the number of letters of w^-1 that
        conjugate_join(w^-1, other) spells with fresh states, for a reduced
        w. It reads w forwards from H's base and backwards from K's base and
        counts the letters neither read reaches, so it costs the letters
        read, not w's length, and builds no graph.

        The fold reads w^-1 in from the same two ends, K's base forwards and
        H's base backwards, with the same routine. Which read goes first
        only decides which side claims letters both could read; either way
        mu = max(0, |w| - (letters K's end reads) - (letters H's end reads)).

        At mu >= 1 the fold merges nothing: the automaton of <w^-1 H w, K> is
        K's and H's folded rows, joined by a path of mu edges through mu - 1
        fresh states of degree 2. mixing decides witness endpoints from
        that shape without building it."""
        if other.rank != self.rank:
            raise AutomatonError("rank mismatch in join_gap")
        _, lo, _, hi = _read_ends(self._rows, self._base, other._rows, other._base, w)
        return hi - lo

    def certify_free_product(self, g: Sequence[int]) -> bool:
        """Whether <H, g> decomposes as the free product H * <g>.

        Criterion: the join <H, <g>>, folded by conjugate_join with an empty
        stem, has free rank exactly rank(H) + 1. The natural surjection
        H * <g> -> <H, g> between free groups then has equal finite ranks,
        and free groups are Hopfian, so it is an isomorphism.
        """
        word = reduce_word(g, self.rank)
        if not word:
            raise WordError("the identity generates no free factor")
        join = self.conjugate_join((), SubgroupAutomaton.from_generators(self.rank, [word]))
        return join.rank_of_subgroup() == self.rank_of_subgroup() + 1

    def trace(self, window: Iterable[Sequence[int]]) -> frozenset:
        """Membership pattern on a window: the window words in the subgroup.

        A caller that compares many subgroups with one marker reads the
        marker's trace once: mixing.WitnessPair does so once per joint_mixing
        call.
        """
        rows, base = self._rows, self._base
        return frozenset(w for w in map(tuple, window) if _follow(rows, base, w) == base)

    # --- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Line format: state count, base marker, then `src label dst` per edge
        (positive direction only), in canonical order."""
        ctx = FreeContext(self.rank)
        lines = [str(self.n_states), "base=0"]
        for s, row in enumerate(self.transitions):
            for letter, t in row.items():
                if letter > 0:
                    lines.append(f"{s} {ctx.format((letter,))} {t}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, rank: int) -> "SubgroupAutomaton":
        ctx = FreeContext(rank)
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 2 or lines[1] != "base=0":
            raise AutomatonError("expected a state count line then 'base=0'")
        n = int(lines[0]) if lines[0].isdecimal() else 0
        if n < 1:  # the base state 0 must exist
            raise AutomatonError(f"bad state count {lines[0]!r}")
        adj: list[dict[int, int] | None] = [dict() for _ in range(n)]
        for line in lines[2:]:
            try:  # a wrong part count, a bad label (WordError) or a bad state index
                src, label, dst = line.split()
                word, s, t = ctx.parse(label), int(src), int(dst)
            except ValueError as exc:
                raise AutomatonError(f"bad edge line {line!r}") from exc
            if len(word) != 1 or word[0] < 0:
                raise AutomatonError(f"edge label must be a single generator, got {label!r}")
            if not (0 <= s < n and 0 <= t < n):
                raise AutomatonError(f"edge {line!r} references a missing state")
            letter = word[0]
            if adj[s].get(letter, t) != t or adj[t].get(-letter, s) != s:  # type: ignore[union-attr]
                raise AutomatonError(f"edge {line!r} breaks determinism")
            adj[s][letter] = t  # type: ignore[index]
            adj[t][-letter] = s  # type: ignore[index]
        form = _core_form(rank, adj, 0)
        return cls(rank, form[0], 0, form)

