"""The acceptance suite: fourteen criteria and the one runner behind them.

Each criterion is a check returning (passed, detail, rows): pass/fail, a
human detail line and deterministic result rows. The @_criterion decorator
registers a check under its id and name in CRITERIA, times the call and
packs the outcome into a CriterionResult; no check reads the clock itself.
Seeds are frozen here; golden values were produced by a pilot run of this
very code and are regression-checked bit for bit. Stated time budgets are
reported in the detail lines, not asserted, since wall clocks vary across
machines.

selftest() is the only runner: the CLI subcommand and kind = selftest both
call it, and report_rows() turns its results into rows for either. The
determinism criterion (14) reruns the other criteria of the run with a
different worker count and compares the emitted CSV bytes.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import cantor, mixing, rng, transverse
from .freegroup import (
    FreeContext,
    broken_geodesic_check,
    common_prefix_length,
    cyclic_reduce,
    geodesic_vertices,
    invert,
    multiply,
)
from .harness import ConfigError, ResultRow, emit
from .stallings import SubgroupAutomaton
from .walks import StepMeasure, drift_estimate

MASTER_SEED = 20260808

F2 = FreeContext(2)
F3 = FreeContext(3)
UNIFORM_F2 = StepMeasure.uniform_on(2, [(x,) for x in F2.letters()])
UNIFORM_F3 = StepMeasure.uniform_on(3, [(x,) for x in F3.letters()])

# Golden values frozen from the pilot run (seed MASTER_SEED). Criterion 8
# reproduces these success counts bit for bit; criterion 9 its count.
GOLDEN_MIXING_SCHEDULE = (10, 20, 40, 80, 160)
GOLDEN_MIXING_SUCCESSES = (422, 488, 500, 500, 500)
GOLDEN_FREEPROD_SUCCESSES = 500


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    rows: list
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:2d} [{status}] {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _row(cid, params, metric, value, ci=(None, None), seed=MASTER_SEED):
    return ResultRow(f"criterion_{cid}", params, metric, float(value), ci[0], ci[1], seed)


CRITERIA: dict[int, Callable[..., CriterionResult]] = {}


def _timed(cid: int, name: str):
    """Turn a check returning (passed, detail, rows) into a timed CriterionResult."""

    def wrap(check):
        @functools.wraps(check)
        def timed(*args, **kwargs) -> CriterionResult:
            started = time.perf_counter()
            passed, detail, rows = check(*args, **kwargs)
            return CriterionResult(cid, name, passed, detail, rows, time.perf_counter() - started)

        return timed

    return wrap


def _criterion(cid: int, name: str):
    """Register a first-pass check, timed, as CRITERIA[cid]."""

    def register(check):
        CRITERIA[cid] = _timed(cid, name)(check)
        return CRITERIA[cid]

    return register


# --- shared oracle set-up --------------------------------------------------------


def _two_letter_automaton(pa, pb) -> SubgroupAutomaton:
    """The automaton of the graph with a-edges s -> pa[s] and b-edges s -> pb[s],
    based at state 0, read through its line format. pa and pb are (partial)
    permutations of range(n); None means no edge."""
    lines = [str(len(pa)), "base=0"]
    lines += [f"{s} {label} {t}" for label, perm in (("a", pa), ("b", pb)) for s, t in enumerate(perm) if t is not None]
    return SubgroupAutomaton.from_text("\n".join(lines), 2)


def _ball_distances(radius: int):
    """The F2 ball of this radius, its word index and its distance matrix."""
    ball = F2.ball(radius)
    size = len(ball)
    dist = np.zeros((size, size), dtype=np.int32)
    for i, u in enumerate(ball):
        for j in range(i + 1, size):
            c = common_prefix_length(u, ball[j])
            dist[i, j] = dist[j, i] = (len(u) - c) + (len(ball[j]) - c)
    return ball, {w: i for i, w in enumerate(ball)}, dist


# --- 1: membership vs closure enumeration -----------------------------------


def _closure_membership(generators, word_cap, prefix_cap, budget=50_000):
    gens = [tuple(g) for g in generators if g]
    steps = gens + [invert(g) for g in gens]
    seen = {()}
    frontier = [()]
    while frontier:
        cur = frontier.pop()
        for s in steps:
            nxt = multiply(cur, s)
            if len(nxt) <= prefix_cap and nxt not in seen:
                if len(seen) >= budget:
                    return None
                seen.add(nxt)
                frontier.append(nxt)
    return {w for w in seen if len(w) <= word_cap}


@_criterion(1, "membership vs closure enumeration")
def _criterion_1(threads: int = 1):
    gen = rng.substream(MASTER_SEED, 1)
    ball8 = F2.ball(8)
    instances = 0
    resampled = 0
    mismatches = 0
    while instances < 200:
        gens = [
            F2.random_word(gen, int(gen.integers(1, 7)))
            for _ in range(int(gen.integers(1, 4)))
        ]
        oracle = _closure_membership(gens, 8, 8 + 2 * max(map(len, gens)))
        if oracle is None:
            resampled += 1
            continue
        instances += 1
        sub = SubgroupAutomaton.from_generators(2, gens)
        for w in ball8:
            if sub.contains(w) != (w in oracle):
                mismatches += 1
    passed = mismatches == 0
    rows = [
        _row(1, "instances=200;word_cap=8", "mismatches", mismatches),
        _row(1, "instances=200;word_cap=8", "oracle_resamples", resampled),
    ]
    return (
        passed,
        f"200 subgroups x {len(ball8)} words, {mismatches} mismatches "
        f"({resampled} dense draws resampled); budget 60s",
        rows,
    )


# --- 2: rank-index law on finite covers ---------------------------------------


@_criterion(2, "rank-index law on finite covers")
def _criterion_2(threads: int = 1):
    gen = rng.substream(MASTER_SEED, 2)
    built = failures = 0
    while built < 50:
        n = int(gen.integers(1, 6))
        pa = list(gen.permutation(n))
        pb = list(gen.permutation(n))
        sub = _two_letter_automaton(pa, pb)
        if sub.index() != n:
            continue
        built += 1
        if sub.rank_of_subgroup() - 1 != n * (2 - 1):
            failures += 1
    passed = failures == 0
    rows = [_row(2, "covers=50;max_states=5", "violations", failures)]
    return (
        passed,
        f"50 covers, {failures} violations of rank-1 = index*(k-1); budget 5s",
        rows,
    )


# --- 3: drift ------------------------------------------------------------------


@_criterion(3, "escape rate of the uniform walks")
def _criterion_3(threads: int = 1):
    est2 = drift_estimate(UNIFORM_F2, 10_000, 2000, MASTER_SEED, threads=threads)
    est3 = drift_estimate(UNIFORM_F3, 10_000, 2000, MASTER_SEED, threads=threads)
    err2 = abs(est2.d_hat - 0.5)
    err3 = abs(est3.d_hat - 2 / 3)
    passed = err2 <= 0.01 and err3 <= 0.01
    rows = [
        _row(3, "rank=2;n=10000;trials=2000", "drift", est2.d_hat, (est2.ci_low, est2.ci_high)),
        _row(3, "rank=3;n=10000;trials=2000", "drift", est3.d_hat, (est3.ci_low, est3.ci_high)),
    ]
    return (
        passed,
        f"|D2-1/2|={err2:.4f}, |D3-2/3|={err3:.4f}, tolerance 0.01; budget 60s",
        rows,
    )


# --- 4: Gromov product identity, exhaustive -----------------------------------


@_criterion(4, "Gromov product equals distance to the geodesic")
def _criterion_4(threads: int = 1):
    ball, index, dist = _ball_distances(4)
    size = len(ball)
    bad = 0
    for i, u in enumerate(ball):
        for j in range(i, size):
            v = ball[j]
            verts = np.fromiter(
                (index[w] for w in geodesic_vertices(u, v)), dtype=np.int64
            )
            explicit = dist[verts, :].min(axis=0)
            formula = dist[i, :] + dist[j, :] - dist[i, j]
            bad += int(np.count_nonzero(formula != 2 * explicit))
    passed = bad == 0
    rows = [_row(4, f"ball_radius=4;points={size}", "violations", bad)]
    return (
        passed,
        f"all {size}^3 ordered triples, {bad} violations; budget 30s",
        rows,
    )


# --- 5: broken geodesics at zero slack -----------------------------------------


@_criterion(5, "broken geodesic chains lie on geodesics")
def _criterion_5(threads: int = 1):
    ball, index, dist = _ball_distances(4)
    size = len(ball)
    # Hypothesis side: the Gromov tensor. zero_triple[j][i, k] says the
    # product of x_i and x_k at x_j vanishes and the chain steps are >= 1.
    zero_triple: dict[int, np.ndarray] = {}
    for j in range(size):
        col = dist[:, j][:, None] + dist[j, :][None, :] - dist
        zero_triple[j] = (col == 0) & (dist[:, j][:, None] > 0) & (dist[j, :][None, :] > 0)
    # Conclusion side, independently: explicit geodesic vertex membership.
    # on_geo[i, j, k] <=> x_j is a vertex of the enumerated geodesic [x_i, x_k].
    on_geo = np.zeros((size, size, size), dtype=bool)
    for i, u in enumerate(ball):
        for k in range(i, size):
            verts = [index[w] for w in geodesic_vertices(u, ball[k])]
            on_geo[i, verts, k] = True
            on_geo[k, verts, i] = True
    bad3 = 0
    bad4 = 0
    for j in range(size):
        # chains (i, j, k): hypothesis must put x_j on the geodesic [x_i, x_k]
        bad3 += int(np.count_nonzero(zero_triple[j] & ~on_geo[:, j, :]))
    for j in range(size):
        zj = zero_triple[j]
        for k in range(size):
            if j == k or dist[j, k] == 0:
                continue
            heads = np.flatnonzero(zj[:, k])
            if heads.size == 0:
                continue
            tails = np.flatnonzero(zero_triple[k][j, :])
            if tails.size == 0:
                continue
            # conclusion: x_j and x_k lie on [x_i, x_l] for every head/tail combo
            bad4 += int(np.count_nonzero(~on_geo[np.ix_(heads, [j], tails)]))
            bad4 += int(np.count_nonzero(~on_geo[np.ix_(heads, [k], tails)]))
    # Tie the public operation to the tensor oracle on sampled chains.
    gen = rng.substream(MASTER_SEED, 5)
    op_disagreements = 0
    for _ in range(500):
        idx = [int(gen.integers(0, size)) for _ in range(int(gen.integers(3, 5)))]
        points = [ball[i] for i in idx]
        hyp, concl = broken_geodesic_check(points, 0, 1)
        expected_hyp = all(
            dist[idx[t - 1], idx[t]] >= 1 for t in range(1, len(idx))
        ) and all(
            dist[idx[t - 1], idx[t]] + dist[idx[t + 1], idx[t]] - dist[idx[t - 1], idx[t + 1]] == 0
            for t in range(1, len(idx) - 1)
        )
        if hyp != expected_hyp or (hyp and not concl):
            op_disagreements += 1
    passed = bad3 == 0 and bad4 == 0 and op_disagreements == 0
    rows = [
        _row(5, "ball_radius=4;chains<=4", "violations_len3", bad3),
        _row(5, "ball_radius=4;chains<=4", "violations_len4", bad4),
        _row(5, "ball_radius=4;chains<=4", "operation_disagreements", op_disagreements),
    ]
    return (
        passed,
        f"exhaustive chains of length <= 4 in the radius-4 ball: "
        f"{bad3}+{bad4} violations, {op_disagreements} operation disagreements",
        rows,
    )


# --- 6: power-conjugacy decision vs exhaustive search ---------------------------


def _map_rows(a: tuple, b: tuple) -> list[dict[int, int]]:
    """The rows of the graph with a-edges s -> a[s] and b-edges s -> b[s]
    (None for no edge), inverse edges included."""
    rows: list[dict[int, int]] = [{} for _ in a]
    for letter, targets in ((1, a), (2, b)):
        for s, t in enumerate(targets):
            if t is not None:
                rows[s][letter] = t
                rows[t][-letter] = s
    return rows


def core_maps(max_states: int) -> list[tuple[tuple, tuple]]:
    """The (a-map, b-map) pairs of every folded core automaton of F2 with
    at most max_states states, each once, numbered as its canonical form.

    A pair of partial injections of range(n) is kept when every state but
    the base has two edge ends and breadth-first search from 0 over a, A,
    b, B meets the states in order 0, ..., n - 1. Listed by n, then a-map,
    then b-map, a map ordered state by state with None before 0, ..., n - 1.
    """
    out = []
    for n in range(1, max_states + 1):
        maps = [()]
        for _ in range(n):
            maps = [m + (t,) for m in maps for t in (None, *range(n)) if t is None or t not in m]
        for a in maps:
            for b in maps:
                rows = _map_rows(a, b)
                order = [0]
                for s in order:
                    for t in map(rows[s].get, (1, -1, 2, -2)):
                        if t is not None and t not in order:
                            order.append(t)
                if order == list(range(n)) and all(len(row) >= 2 for row in rows[1:]):
                    out.append((a, b))
    return out


# Columns of criterion 6's table: the four letters of F2, then a padding
# letter that stays put.
_TABLE_COLUMNS = {1: 0, -1: 1, 2: 2, -2: 3}
_STAY = 4


def _map_table(maps: list[tuple[tuple, tuple]]) -> tuple[np.ndarray, np.ndarray]:
    """One flat transition table over the states of every (a-map, b-map)
    pair, read from the maps themselves: row s holds the targets of s under
    a, A, b, B and stay, a missing edge leads to the sink, the last row, and
    the sink leads only to itself. Returns the table and each pair's base
    row."""
    bases = np.cumsum([0] + [len(a) for a, _ in maps])
    sink = int(bases[-1])
    table = np.full((sink + 1, 5), sink, dtype=np.intp)
    table[:, _STAY] = np.arange(sink + 1)
    for base, (a, b) in zip(bases.tolist(), maps):
        for column, targets in ((0, a), (2, b)):
            for s, t in enumerate(targets):
                if t is not None:
                    table[base + s, column] = base + t
                    table[base + t, column + 1] = base + s
    return table, bases[:-1]


def _table_min_powers(maps: list[tuple[tuple, tuple]], fs: list, vs: list, m_cap: int = 8) -> np.ndarray:
    """By exhaustive search over m <= m_cap and v in vs: for each f and each
    pair of maps, the least m with v^-1 f^m v labelling a base loop for some
    v, or 0 when there is none.

    Write v^-1 f v = c k c^-1 with k cyclically reduced: each conjugator c
    is read from every base at once, one gather per letter, then each
    (v, pair) with a start state walks the map of k, one gather per m,
    until it comes back (m found), drops into the sink or m_cap runs out.
    """
    table, bases = _map_table(maps)
    sink = table.shape[0] - 1
    out = np.zeros((len(fs), len(maps)), dtype=np.intp)
    for i, f in enumerate(fs):
        splits = [cyclic_reduce(multiply(multiply(invert(v), f), v)) for v in vs]
        width = max(len(conj) for _, conj in splits)
        columns = np.full((len(vs), width), _STAY, dtype=np.intp)
        for row, (_, conj) in enumerate(splits):
            columns[row, : len(conj)] = [_TABLE_COLUMNS[x] for x in conj]
        start = np.broadcast_to(bases, (len(vs), len(maps)))
        for j in range(width):
            start = table[start, columns[:, j, None]]
        # One map over all states per distinct cyclic core.
        cores: dict = {}
        core_of = [cores.setdefault(core, len(cores)) for core, _ in splits]
        core_steps = np.empty((len(cores), sink + 1), dtype=np.intp)
        for core, k in cores.items():
            states = np.arange(sink + 1)
            for x in core:
                states = table[states, _TABLE_COLUMNS[x]]
            core_steps[k] = states
        v_index, pair = np.nonzero(start != sink)
        start = start[v_index, pair]
        core_row = np.asarray(core_of)[v_index]
        cur = start
        best = out[i]
        for m in range(1, m_cap + 1):
            cur = core_steps[core_row, cur]
            back = cur == start
            found = pair[back]
            best[found[best[found] == 0]] = m
            live = ~back & (cur != sink)
            cur, start, pair, core_row = cur[live], start[live], pair[live], core_row[live]
    return out


@_criterion(6, "power-conjugacy decision vs exhaustive search")
def _criterion_6(threads: int = 1):
    maps = core_maps(4)
    fs = [w for w in F2.ball(4) if w]
    # The brute force reads a table built from the maps, not the automaton.
    brute = _table_min_powers(maps, fs, F2.ball(4)).tolist()

    mismatches = 0
    pairs = 0
    for j, (a, b) in enumerate(maps):
        sub = _two_letter_automaton(a, b)
        for i, f in enumerate(fs):
            ours = transverse.power_conjugate_into(sub, f)
            pairs += 1
            if (0 if ours is None else ours[0]) != brute[i][j]:
                mismatches += 1
    passed = mismatches == 0
    rows = [
        _row(6, f"subgroups={len(maps)};elements={len(fs)}", "mismatches", mismatches),
        _row(6, f"subgroups={len(maps)};elements={len(fs)}", "pairs_checked", pairs),
    ]
    return (
        passed,
        f"all {len(maps)} core automata with <= 4 states x {len(fs)} elements, "
        f"{mismatches} mismatches (m <= 8, conjugators in the radius-4 ball); budget 120s",
        rows,
    )


# --- 7: transverse constructor and bounded overlap ------------------------------


@_criterion(7, "transverse constructor with stable overlap")
def _criterion_7(threads: int = 1):
    configs = [
        ([["a"]], "a"),
        ([["a"], ["b"]], "ab"),
        ([["ab"]], "ab"),
    ]
    rows = []
    all_ok = True
    details = []
    for gens_list, g_text in configs:
        targets = [
            SubgroupAutomaton.from_generators(2, [F2.parse(t) for t in gens])
            for gens in gens_list
        ]
        g = F2.parse(g_text)
        got = transverse.construct_transverse(targets, g)
        ok = all(c.transverse for c in got.certificates)
        stable = True
        for target in targets:
            narrow = transverse.overlap_bound(target, got.element, 3, 4, range(-200, 201))
            wide = transverse.overlap_bound(target, got.element, 3, 4, range(-400, 401))
            if narrow != wide:
                stable = False
        all_ok = all_ok and ok and stable
        label = "+".join("".join(g) for g in gens_list)
        details.append(f"{label}:f={F2.format(got.element)}")
        rows.append(
            _row(7, f"targets={label};g={g_text}", "certified", 1.0 if ok else 0.0)
        )
        rows.append(
            _row(7, f"targets={label};g={g_text}", "overlap_stable", 1.0 if stable else 0.0)
        )
    return (
        all_ok,
        "; ".join(details) + " (counts constant from window 200 to 400)",
        rows,
    )


# --- 8: the mixing curve ---------------------------------------------------------


def _standard_instance():
    h = SubgroupAutomaton.from_generators(2, [F2.parse("a")])
    k = SubgroupAutomaton.from_generators(2, [F2.parse("b")])
    return h, k, F2.ball(2)


@_criterion(8, "mixing witness curve on the standard instance")
def _criterion_8(threads: int = 1):
    results = mixing.joint_mixing(
        [_standard_instance()], UNIFORM_F2, GOLDEN_MIXING_SCHEDULE, 500, MASTER_SEED, threads
    )
    estimates = [r.marginals[0] for r in results]
    golden_ok = tuple(e.successes for e in estimates) == GOLDEN_MIXING_SUCCESSES
    sigma2 = 2 * math.sqrt(0.25 / 500)
    monotone = all(
        estimates[i + 1].p_hat >= estimates[i].p_hat - sigma2
        for i in range(len(estimates) - 1)
    )
    final_ok = estimates[-1].p_hat >= 0.9
    passed = golden_ok and monotone and final_ok
    rows = [
        _row(
            8,
            f"H=a;K=b;window_radius=2;trials=500;n={e.n}",
            "p_hat",
            e.p_hat,
            (e.ci_low, e.ci_high),
        )
        for e in estimates
    ]
    return (
        passed,
        f"p_hat over n={GOLDEN_MIXING_SCHEDULE}: "
        + ", ".join(f"{e.p_hat:.3f}" for e in estimates)
        + f"; golden={'ok' if golden_ok else 'DRIFTED'}, final >= 0.9: {final_ok}; budget 300s",
        rows,
    )


# --- 9: free-product absorption ---------------------------------------------------


@_criterion(9, "free-product absorption of walk endpoints")
def _criterion_9(threads: int = 1):
    h = SubgroupAutomaton.from_generators(2, [F2.parse("a")])
    est = mixing.free_product_experiment(h, UNIFORM_F2, 100, 500, MASTER_SEED, threads)
    golden_ok = est.successes == GOLDEN_FREEPROD_SUCCESSES
    passed = est.p_hat >= 0.95 and golden_ok
    rows = [
        _row(9, "H=a;n=100;trials=500", "certified_fraction", est.p_hat, (est.ci_low, est.ci_high))
    ]
    return (
        passed,
        f"certified fraction {est.p_hat:.3f} >= 0.95, golden={'ok' if golden_ok else 'DRIFTED'}; budget 120s",
        rows,
    )


# --- 10: joint transitivity via the union bound -----------------------------------


@_criterion(10, "joint witness success obeys the union bound")
def _criterion_10(threads: int = 1):
    pairs = [
        (
            SubgroupAutomaton.from_generators(2, [F2.parse("a")]),
            SubgroupAutomaton.from_generators(2, [F2.parse("b")]),
            frozenset(F2.ball(1)),
        ),
        (
            SubgroupAutomaton.from_generators(2, [F2.parse("ab")]),
            SubgroupAutomaton.from_generators(2, [F2.parse("ba")]),
            frozenset(F2.ball(1)),
        ),
    ]
    rows = []
    ok = True
    summary = []
    for res in mixing.joint_mixing(pairs, UNIFORM_F2, GOLDEN_MIXING_SCHEDULE, 500, MASTER_SEED, threads):
        n = res.joint.n
        slack = sum(1 - m.p_hat for m in res.marginals)
        sigma = math.sqrt(
            max(res.joint.p_hat * (1 - res.joint.p_hat), 1e-9) / res.joint.trials
        )
        bound_ok = res.joint.p_hat >= 1 - slack - 3 * sigma
        ok = ok and bound_ok
        summary.append(f"n={n}:{res.joint.p_hat:.3f}")
        rows.append(
            _row(
                10,
                f"pairs=2;trials=500;n={n}",
                "joint_p_hat",
                res.joint.p_hat,
                (res.joint.ci_low, res.joint.ci_high),
            )
        )
        for i, m in enumerate(res.marginals):
            rows.append(
                _row(10, f"pairs=2;trials=500;n={n};pair={i}", "marginal_p_hat", m.p_hat)
            )
    return (
        ok,
        "; ".join(summary),
        rows,
    )


# --- 11: boundary-action constructors ----------------------------------------------


@_criterion(11, "boundary-action element constructors verify")
def _criterion_11(threads: int = 1):
    gen = rng.substream(MASTER_SEED, 11)
    failures = 0

    def random_z_label(length):
        while True:
            word = F3.random_word(gen, length)
            if any(abs(l) == 3 for l in word):
                return word

    for _ in range(50):
        n = int(gen.integers(2, 6))
        u = random_z_label(n)
        pivot = (-3,) * n
        if u != pivot:
            try:
                # standardizing_element verifies the two cone equations and the
                # pointwise positional action at depth n + 2 internally.
                cantor.standardizing_element(u)
            except (AssertionError, cantor.ConeError):
                failures += 1
        g = cantor.cone_transposition(u)
        if cantor.image_antichain(g, [u]) != (pivot,):
            failures += 1
        if cantor.image_antichain(g, [pivot]) != (u,):
            failures += 1
        # fixity on 100 sampled points of the other cones at depth n + 3
        others = [
            w
            for first in F3.letters()
            for w in cantor.order_cones((first,), n - 1)
            if w not in (u, pivot)
        ]
        for i in gen.integers(0, len(others), size=100):
            # The probe is one of the 125 labels of depth |w| + 3 below w,
            # drawn uniformly from order_cones(w, 3).
            probe = cantor.order_cones(others[int(i)], 3)[int(gen.integers(0, 125))]
            got = cantor.apply_element(g, probe)
            if got != probe:
                failures += 1

    for _ in range(50):
        n = int(gen.integers(2, 4))
        k = int(gen.integers(1, 4))
        us, vs = set(), set()
        while len(us) < k:
            us.add(random_z_label(n))
        while len(vs) < k:
            vs.add(random_z_label(n))
        pairs = list(zip(sorted(us), sorted(vs)))
        try:
            element = cantor.cone_routing_element(pairs, n)
            for u, v in pairs:
                if cantor.image_antichain(element, [u]) != (v,):
                    failures += 1
        except (AssertionError, cantor.ConeError):
            failures += 1

    passed = failures == 0
    rows = [_row(11, "instances=50x3", "failures", failures)]
    return (
        passed,
        f"50 random instances per constructor, {failures} failures; budget 120s",
        rows,
    )


# --- 12: transience constants --------------------------------------------------------


@_criterion(12, "transience constants of the projected walk")
def _criterion_12(threads: int = 1):
    exact = cantor.hit_probability_exact()
    exact_ok = exact.minimal_root == Fraction(1, 3) and exact.roots == (
        Fraction(1, 3),
        Fraction(1, 1),
    )
    p, lo, hi = cantor.simulate_hit_probability(100_000, 10_000, MASTER_SEED)
    mc_ok = abs(p - 1 / 3) <= 0.01
    sh_ok = cantor.superharmonic_check(8)
    passed = exact_ok and mc_ok and sh_ok
    rows = [
        _row(12, "equation=3q^2-4q+1", "hit_exact", float(exact.minimal_root)),
        _row(12, "trials=100000;horizon=10000", "hit_mc", p, (lo, hi)),
        _row(12, "radius=8", "superharmonic", 1.0 if sh_ok else 0.0),
    ]
    return (
        passed,
        f"exact 1/3 {'ok' if exact_ok else 'FAIL'}, MC {p:.4f} within 0.01, "
        f"superharmonic radius 8 {'ok' if sh_ok else 'FAIL'}",
        rows,
    )


# --- 13: the non-mixing signature ------------------------------------------------------


@_criterion(13, "cone-hitting stays below the transience ceiling")
def _criterion_13(threads: int = 1):
    rows = []
    ok = True
    values = []
    for n in (10, 50, 100):
        est = cantor.estimate_qn(Fraction(1, 8), n, 10_000, MASTER_SEED, threads=threads)
        ok = ok and est.p_hat <= 0.35 and est.depth_cap_exceeded == 0
        values.append(f"q_{n}={est.p_hat:.4f}")
        rows.append(
            _row(
                13,
                f"p_letter=1/8;trials=10000;n={n}",
                "q_hat",
                est.p_hat,
                (est.ci_low, est.ci_high),
            )
        )
    return (
        ok,
        ", ".join(values)
        + " all <= 0.35, against the mixing curve reaching >= 0.9 (criterion 8): "
        "the two actions separate; budget 300s",
        rows,
    )


# --- 14: determinism under rerun and thread count ---------------------------------------


@_timed(14, "bit-identical reruns at any thread count")
def criterion_14(first_pass: dict[int, CriterionResult], threads: int = 2):
    """Rerun the first-pass criteria with a different worker count; compare bytes."""
    unstable = []
    for cid in sorted(first_pass):
        again = CRITERIA[cid](threads=threads)
        if emit(first_pass[cid].rows) != emit(again.rows):
            unstable.append(cid)
    passed = not unstable
    rows = [_row(14, f"reruns={len(first_pass)};threads={threads}", "unstable_criteria", len(unstable))]
    return (
        passed,
        "all criteria reproduce byte-identical CSV"
        if passed
        else f"criteria {unstable} drifted",
        rows,
    )


def selftest(criteria: Iterable[int] = range(1, 15), threads: int = 1) -> list[CriterionResult]:
    """Run the given criteria in id order at this worker count.

    Criterion 14 reruns the other criteria of this call, or all of 1-13 when
    it is the only id given, at another worker count: 2 after a 1-worker
    pass, 1 otherwise. An unknown id raises ConfigError before any
    criterion runs.
    """
    wanted = sorted(set(criteria))
    unknown = [cid for cid in wanted if cid not in CRITERIA and cid != 14]
    if unknown:
        raise ConfigError("params.criteria", f"unknown criterion {unknown[0]}")
    first_ids = sorted(CRITERIA) if wanted == [14] else [cid for cid in wanted if cid != 14]
    first = {cid: CRITERIA[cid](threads=threads) for cid in first_ids}
    results = list(first.values())
    if 14 in wanted:
        results.append(criterion_14(first, threads=2 if threads == 1 else 1))
    return results


def report_rows(results: Iterable[CriterionResult], seed: int) -> list[ResultRow]:
    """Each result's `passed` row, stamped with the run's seed, then its rows."""
    rows: list[ResultRow] = []
    for result in results:
        rows.append(_row(result.cid, result.name, "passed", result.passed, seed=seed))
        rows.extend(result.rows)
    return rows
