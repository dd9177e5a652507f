"""Finitely generated subgroups of F_k as folded core automata.

A subgroup automaton is a finite connected graph with edges labeled by
generators, a distinguished base state, and deterministic, co-deterministic
transitions (no state carries two equally-labeled edges in the same
direction). Transitions store both directions: following letter -i from a
state traverses an i-labeled edge backwards. The automaton is a core graph:
every non-base state has degree >= 2, so every edge lies on some reduced
base loop, and the words read on reduced base-to-base loops are exactly the
elements of the subgroup.

Automata are canonicalized after construction (BFS numbering from the base
with the fixed letter order a < a^-1 < b < b^-1 < ...), which makes equality
of subgroups equality of objects. All instances are immutable; construction
folds once and every operation returns a fresh automaton.

One fold builder makes every automaton from words and automata: generators
are loops at the base, a join wedges two automata at the base, and g H g^-1
hangs H's automaton from a new base by a stem spelling g.

Basepoint convention: all orbit computations measure distances from the
identity vertex. Moving the basepoint to another vertex t changes the
quasi-convexity constant of an orbit by at most 2*d(s,t) (plus the
hyperbolicity terms, zero here); we keep the identity throughout and record
this as an identity rather than an operation.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .freegroup import Word, WordError, invert, reduce_word


class AutomatonError(ValueError):
    """Malformed automaton input or serialization."""


def _fold(edges: list[tuple[int, int, int]], n_states: int) -> tuple[list[dict[int, int] | None], int]:
    """Fold a labeled graph given as (state, letter, state) edges.

    Returns the folded adjacency (dict letter -> target per surviving state,
    None for merged-away states) and the state that state 0 folded into.
    """
    parent = list(range(n_states))
    size = [1] * n_states
    adj: list[dict[int, int] | None] = [dict() for _ in range(n_states)]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = list(edges)

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        moved = adj[rb]
        adj[rb] = None
        for letter, target in moved.items():
            pending.append((ra, letter, find(target)))

    while pending:
        u, letter, v = pending.pop()
        u, v = find(u), find(v)
        du = adj[u]
        existing = du.get(letter)
        if existing is not None:
            w = find(existing)
            du[letter] = w
            if w != v:
                union(w, v)
            continue
        du[letter] = v
        dv = adj[v] if v != u else du
        rev = dv.get(-letter)
        if rev is not None:
            w = find(rev)
            dv[-letter] = w
            if w != u:
                union(w, u)
        else:
            dv[-letter] = u

    resolved: list[dict[int, int] | None] = [None] * n_states
    for s in range(n_states):
        if find(s) == s:
            resolved[s] = {letter: find(t) for letter, t in adj[s].items()}
    return resolved, find(0)


class _FoldGraph:
    """Edges of a labeled graph with base state 0, folded once by fold()."""

    def __init__(self, rank: int):
        self.rank = rank
        self.edges: list[tuple[int, int, int]] = []
        self.n_states = 1

    def attach_path(self, word: Sequence[int], src: int, dst: int | None = None) -> int:
        """Add a path spelling the word from src to dst (a fresh state when
        None) and return its end; an empty word adds nothing, ending at src."""
        word = reduce_word(word, self.rank)
        if not word:
            return src
        if dst is None:
            dst = self.n_states
            self.n_states += 1
        path = [src, *range(self.n_states, self.n_states + len(word) - 1), dst]
        self.n_states += len(word) - 1
        self.edges.extend(zip(path, word, path[1:]))
        return dst

    def attach(self, automaton: "SubgroupAutomaton", at: int):
        """Add a copy of the automaton with its base glued to state at."""
        number = [at, *range(self.n_states, self.n_states + automaton.n_states - 1)]
        self.n_states += automaton.n_states - 1
        for s, d in enumerate(automaton.transitions):
            self.edges.extend((number[s], letter, number[t]) for letter, t in d.items() if letter > 0)

    def fold(self) -> "SubgroupAutomaton":
        adj, base = _fold(self.edges, self.n_states)
        return SubgroupAutomaton._from_folded(self.rank, adj, base)


class SubgroupAutomaton:
    """Folded core Stallings automaton of a finitely generated H <= F_k."""

    __slots__ = (
        "rank",
        "transitions",
        "_key",
        "_tree_words",
        "_return_dist",
        "_rank_cache",
        "_index_cache",
    )

    def __init__(self, rank: int, transitions: tuple[dict[int, int], ...]):
        # Internal: callers go through from_generators / from_text / the
        # algebraic operations, all of which canonicalize.
        self.rank = rank
        self.transitions = transitions
        self._key = (
            rank,
            len(transitions),
            tuple(tuple(sorted(d.items())) for d in transitions),
        )
        self._tree_words: tuple[Word, ...] | None = None
        self._return_dist: tuple[int, ...] | None = None
        self._rank_cache: int | None = None
        self._index_cache: int | float | None = None

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

    @classmethod
    def _from_folded(cls, rank: int, adj: list[dict[int, int] | None], base: int) -> "SubgroupAutomaton":
        """Restrict to the reachable part, trim to the core, canonicalize."""
        # Reachable states.
        reach = {base}
        stack = [base]
        while stack:
            s = stack.pop()
            for t in adj[s].values():  # type: ignore[union-attr]
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
        live = {s: dict(adj[s]) for s in reach}  # type: ignore[arg-type]

        # Core trim: drop non-base states of degree <= 1 until none remain.
        # Dropping a state lowers only its neighbour's degree, so a worklist
        # of such states visits each edge once.
        hairs = [s for s in live if s != base and len(live[s]) <= 1]
        while hairs:
            s = hairs.pop()
            for letter, t in live.pop(s).items():
                out = live[t]
                del out[-letter]
                if t != base and len(out) == 1:
                    hairs.append(t)

        # Canonical BFS numbering from the base, letters in fixed order.
        letter_order = []
        for i in range(1, rank + 1):
            letter_order.append(i)
            letter_order.append(-i)
        number = {base: 0}
        order = [base]
        head = 0
        while head < len(order):
            s = order[head]
            head += 1
            for letter in letter_order:
                t = live[s].get(letter)
                if t is not None and t not in number:
                    number[t] = len(order)
                    order.append(t)
        transitions = tuple(
            {letter: number[t] for letter, t in sorted(live[s].items(), key=lambda kv: (abs(kv[0]), kv[0] < 0))}
            for s in order
        )
        return cls(rank, transitions)

    # --- structure --------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def n_edges(self) -> int:
        return sum(len(d) for d in self.transitions) // 2

    def __eq__(self, other):
        return isinstance(other, SubgroupAutomaton) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"SubgroupAutomaton(rank={self.rank}, states={self.n_states}, edges={self.n_edges()})"

    def is_folded(self) -> bool:
        for s, d in enumerate(self.transitions):
            for letter, t in d.items():
                if self.transitions[t].get(-letter) != s:
                    return False
        return True

    # --- membership and geometry -------------------------------------------

    def read(self, state: int, word: Sequence[int]) -> int | None:
        """Follow a reduced word from a state; None once undefined."""
        for letter in word:
            nxt = self.transitions[state].get(letter)
            if nxt is None:
                return None
            state = nxt
        return state

    def contains(self, word: Sequence[int]) -> bool:
        """Whether the reduced word labels a base-to-base path."""
        return self.read(0, word) == 0

    def rank_of_subgroup(self) -> int:
        """Free rank of the subgroup: edges - states + 1 of the core graph."""
        if self._rank_cache is None:
            self._rank_cache = self.n_edges() - self.n_states + 1
        return self._rank_cache

    def index(self) -> int | float:
        """Subgroup index: the state count when the automaton is a full cover
        (all 2k directions everywhere), infinity otherwise."""
        if self._index_cache is None:
            if all(len(d) == 2 * self.rank for d in self.transitions):
                self._index_cache = self.n_states
            else:
                self._index_cache = math.inf
        return self._index_cache

    def _tree(self) -> tuple[Word, ...]:
        """Canonical spanning-tree words base -> state (BFS, letter order)."""
        if self._tree_words is None:
            words: list[Word | None] = [None] * self.n_states
            words[0] = ()
            queue = [0]
            head = 0
            while head < len(queue):
                s = queue[head]
                head += 1
                for letter, t in self.transitions[s].items():
                    if words[t] is None:
                        words[t] = words[s] + (letter,)  # type: ignore[operator]
                        queue.append(t)
            self._tree_words = tuple(words)  # type: ignore[assignment]
        return self._tree_words  # type: ignore[return-value]

    def word_to_state(self, state: int) -> Word:
        """A reduced word reading from the base to the given state."""
        return self._tree()[state]

    def basis(self) -> list[Word]:
        """A free basis of the subgroup from the canonical spanning tree.

        One generator per non-tree edge: tree word in, the edge, tree word
        back. The list is deterministic and has length rank_of_subgroup().
        """
        tree = self._tree()
        tree_edges = set()
        for t in range(1, self.n_states):
            # Last letter of the tree word identifies the parent edge.
            last = tree[t][-1]
            parent = self.transitions[t][-last]
            tree_edges.add((parent, last, t) if last > 0 else (t, -last, parent))
        out = []
        for s in range(self.n_states):
            for letter, t in self.transitions[s].items():
                if letter < 0:
                    continue
                if (s, letter, t) in tree_edges:
                    continue
                out.append(reduce_word(tree[s] + (letter,) + invert(tree[t])))
        return out

    def _returns(self) -> tuple[int, ...]:
        """Graph distance from each state back to the base."""
        if self._return_dist is None:
            dist = [-1] * self.n_states
            dist[0] = 0
            queue = [0]
            head = 0
            while head < len(queue):
                s = queue[head]
                head += 1
                for t in self.transitions[s].values():
                    if dist[t] < 0:
                        dist[t] = dist[s] + 1
                        queue.append(t)
            self._return_dist = tuple(dist)
        return self._return_dist

    def distance_to_orbit(self, word: Sequence[int]) -> int:
        """Tree distance from the vertex to the orbit {h : h in H}.

        Equals min over readable prefixes w[:i] (ending at state q) of
        (|w| - i) + dist(q, base): the candidate h = w[:i] * (return word)
        is at most that far from w, and the decomposition of a nearest h
        along its common prefix with w attains the minimum.
        """
        returns = self._returns()
        best = len(word) + returns[0]
        state = 0
        for i, letter in enumerate(word):
            nxt = self.transitions[state].get(letter)
            if nxt is None:
                break
            state = nxt
            value = (len(word) - i - 1) + returns[state]
            if value < best:
                best = value
        return best

    # --- algebra ------------------------------------------------------------

    def conjugate(self, g: Sequence[int]) -> "SubgroupAutomaton":
        """Automaton of g H g^-1: a stem spelling g from a new base to H's."""
        graph = _FoldGraph(self.rank)
        graph.attach(self, graph.attach_path(g, 0))
        return graph.fold()

    def join(self, other: "SubgroupAutomaton") -> "SubgroupAutomaton":
        """Automaton of <H, K>: both automata wedged at the base."""
        if other.rank != self.rank:
            raise AutomatonError("rank mismatch in join")
        graph = _FoldGraph(self.rank)
        graph.attach(self, 0)
        graph.attach(other, 0)
        return graph.fold()

    def join_words(self, words: Iterable[Sequence[int]]) -> "SubgroupAutomaton":
        """Automaton of <H, words>: one loop per word wedged onto H."""
        graph = _FoldGraph(self.rank)
        graph.attach(self, 0)
        for word in words:
            graph.attach_path(word, 0, 0)
        return graph.fold()

    def intersect(self, other: "SubgroupAutomaton") -> "SubgroupAutomaton":
        """Automaton of H intersect K via the pairing of the two automata."""
        if other.rank != self.rank:
            raise AutomatonError("rank mismatch in intersect")
        pair_index = {(0, 0): 0}
        pairs = [(0, 0)]
        adj: list[dict[int, int] | None] = [dict()]
        head = 0
        while head < len(pairs):
            s1, s2 = pairs[head]
            s = pair_index[(s1, s2)]
            head += 1
            for letter, t1 in self.transitions[s1].items():
                t2 = other.transitions[s2].get(letter)
                if t2 is None:
                    continue
                key = (t1, t2)
                if key not in pair_index:
                    pair_index[key] = len(pairs)
                    pairs.append(key)
                    adj.append(dict())
                adj[s][letter] = pair_index[key]  # type: ignore[index]
        return SubgroupAutomaton._from_folded(self.rank, adj, 0)

    def certify_free_product(self, g: Sequence[int]) -> bool:
        """Whether <H, g> decomposes as the free product H * <g>.

        Criterion: the join has free rank exactly rank(H) + 1. The natural
        surjection H * <g> -> <H, g> between free groups then has equal
        finite ranks, and free groups are Hopfian, so it is an isomorphism.
        """
        word = reduce_word(g, self.rank)
        if not word:
            raise WordError("the identity generates no free factor")
        return self.join_words([word]).rank_of_subgroup() == self.rank_of_subgroup() + 1

    def trace(self, window: Iterable[Sequence[int]]) -> frozenset:
        """Membership pattern on a window: the window words in the subgroup."""
        return frozenset(w for w in map(tuple, window) if self.contains(w))

    # --- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Line format: state count, base marker, then `src label dst` per edge
        (positive direction only), in canonical order."""
        from .freegroup import FreeContext

        ctx = FreeContext(self.rank)
        lines = [str(self.n_states), "base=0"]
        for s in range(self.n_states):
            for letter, t in self.transitions[s].items():
                if letter > 0:
                    lines.append(f"{s} {ctx.format((letter,))} {t}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, rank: int) -> "SubgroupAutomaton":
        from .freegroup import FreeContext

        ctx = FreeContext(rank)
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 2 or lines[1] != "base=0":
            raise AutomatonError("expected a state count line then 'base=0'")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise AutomatonError(f"bad state count {lines[0]!r}") from exc
        adj: list[dict[int, int] | None] = [dict() for _ in range(n)]
        for line in lines[2:]:
            parts = line.split()
            if len(parts) != 3:
                raise AutomatonError(f"bad edge line {line!r}")
            src, label, dst = parts
            word = ctx.parse(label)
            if len(word) != 1 or word[0] < 0:
                raise AutomatonError(f"edge label must be a single generator, got {label!r}")
            s, t = int(src), int(dst)
            if not (0 <= s < n and 0 <= t < n):
                raise AutomatonError(f"edge {line!r} references a missing state")
            letter = word[0]
            if adj[s].get(letter, t) != t or adj[t].get(-letter, s) != s:  # type: ignore[union-attr]
                raise AutomatonError(f"edge {line!r} breaks determinism")
            adj[s][letter] = t  # type: ignore[index]
            adj[t][-letter] = s  # type: ignore[index]
        return cls._from_folded(rank, adj, 0)

