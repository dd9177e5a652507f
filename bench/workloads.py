"""The four benchmark workloads, driven through the package's public API.

Each workload has three parts:

- ``setup(seed)`` builds the inputs: configs, measures, automata. It is
  timed as set-up and never traced.
- ``run(inputs, workers)`` is the timed pass. It returns the emitted bytes,
  which must not depend on the worker count.
- ``check(inputs, data, expected)`` checks those bytes and returns
  (label, ok) pairs.

``inputs["ops"]`` is the work of one pass in the unit of ``ops_per_s``.
"""

from __future__ import annotations

import hashlib

from hypmix import harness, rng, transverse
from hypmix.freegroup import FreeContext
from hypmix.stallings import SubgroupAutomaton

DEFAULT_SEED = 20260808

MIX_N = (10, 20, 40, 80, 160)
MIX_TRIALS = 100
DRIFT_N = 10_000
DRIFT_TRIALS = 100
DRIFT_MEASURES = (
    # (name, rank, measure, identity_mass); the uniform ones have drift (2k-2)/(2k).
    ("uniform_f2", 2, "uniform: a A b B", None),
    ("uniform_f3", 3, "uniform: a A b B c C", None),
    ("lazy_f2_pairs", 2, "uniform: a A b B ab BA", "1/2"),
)
CANTOR_N = (10, 50, 100)
CANTOR_TRIALS = 300
CATALOGUE_STATES = 4
CATALOGUE_SIZE = 3302
SCAN_ELEMENTS = 24
SCAN_MAX_LENGTH = 12


def _config(kind: str, seed: int, workers: int, params: dict) -> harness.ExperimentConfig:
    lines = ["[experiment]", f"kind = {kind}", f"seed = {seed}", f"threads = {workers}", "[params]"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    return harness.ExperimentConfig.from_text("\n".join(lines) + "\n")


def _by_workers(kind: str, seed: int, params: dict) -> dict:
    return {w: _config(kind, seed, w, params) for w in (1, 2)}


def run_configs(inputs: dict, workers: int) -> bytes:
    """The timed pass of the workloads that go through harness.run."""
    rows = []
    for by_workers in inputs["configs"]:
        rows += harness.run(by_workers[workers])
    return harness.emit(rows)


def _rows(data: bytes, metric: str) -> list:
    return [r for r in harness.parse_rows(data) if r.metric == metric]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_check(name: str, inputs: dict, data: bytes, expected: dict) -> list:
    if inputs["seed"] != DEFAULT_SEED:
        return []
    return [(f"{name}: sha256 of the emitted bytes at the default seed", digest(data) == expected["digests"][name])]


# --- mix ------------------------------------------------------------------------


def mix_setup(seed: int) -> dict:
    params = {
        "rank": 2,
        "measure": "uniform: a A b B",
        "h": "a",
        "k": "b",
        "window_radius": 2,
        "n_list": ",".join(map(str, MIX_N)),
        "trials": MIX_TRIALS,
    }
    return {"seed": seed, "configs": [_by_workers("mix", seed, params)], "ops": MIX_TRIALS * len(MIX_N)}


def mix_check(inputs: dict, data: bytes, expected: dict) -> list:
    rows = _rows(data, "p_hat")
    p = [r.value for r in rows]
    sigma2 = 2 * (0.25 / MIX_TRIALS) ** 0.5
    out = [
        ("mix: one p_hat per n", len(p) == len(MIX_N)),
        ("mix: p_hat at n=160 >= 0.9", bool(p) and p[-1] >= 0.9),
        ("mix: p_hat never drops by more than 2 sigma", all(b >= a - sigma2 for a, b in zip(p, p[1:]))),
    ]
    return out + _digest_check("mix", inputs, data, expected)


# --- drift ----------------------------------------------------------------------


def drift_setup(seed: int) -> dict:
    configs = []
    for _name, rank, measure, identity_mass in DRIFT_MEASURES:
        params = {"rank": rank, "measure": measure, "n": DRIFT_N, "trials": DRIFT_TRIALS}
        if identity_mass:
            params["identity_mass"] = identity_mass
        configs.append(_by_workers("drift", seed, params))
    return {"seed": seed, "configs": configs, "ops": len(configs) * DRIFT_TRIALS * DRIFT_N}


def drift_check(inputs: dict, data: bytes, expected: dict) -> list:
    rows = _rows(data, "drift")
    out = [("drift: one row per measure", len(rows) == len(DRIFT_MEASURES))]
    for (name, rank, _m, identity_mass), row in zip(DRIFT_MEASURES, rows):
        if identity_mass is None:
            exact = (2 * rank - 2) / (2 * rank)
            out.append((f"drift: |d_hat - {exact:.4f}| <= 0.01 on {name}", abs(row.value - exact) <= 0.01))
    return out + _digest_check("drift", inputs, data, expected)


# --- cantor_qn ------------------------------------------------------------------


def cantor_setup(seed: int) -> dict:
    params = {"mode": "qn", "p_letter": "1/8", "n_list": ",".join(map(str, CANTOR_N)), "trials": CANTOR_TRIALS}
    return {"seed": seed, "configs": [_by_workers("cantor", seed, params)], "ops": CANTOR_TRIALS * len(CANTOR_N)}


def cantor_check(inputs: dict, data: bytes, expected: dict) -> list:
    q = _rows(data, "q_hat")
    capped = _rows(data, "depth_cap_exceeded")
    out = [
        ("cantor_qn: one q_hat per n", len(q) == len(CANTOR_N)),
        ("cantor_qn: q_hat <= 0.35 at every n", bool(q) and all(r.value <= 0.35 for r in q)),
        ("cantor_qn: no trial hit the depth cap", len(capped) == len(CANTOR_N) and all(r.value == 0 for r in capped)),
    ]
    return out + _digest_check("cantor_qn", inputs, data, expected)


# --- transverse -----------------------------------------------------------------


def _partial_injections(n: int) -> list[tuple]:
    """Every partial injective map of range(n) into itself (None = undefined)."""
    maps = [()]
    for _ in range(n):
        maps = [m + (t,) for m in maps for t in (None, *range(n)) if t is None or t not in m]
    return maps


def _is_canonical_core(a: tuple, b: tuple) -> bool:
    """Whether the two partial maps form a folded core automaton on all n
    states whose BFS numbering from state 0 (letters a, A, b, B) is 0..n-1."""
    n = len(a)
    inv_a = [None] * n
    inv_b = [None] * n
    for s in range(n):
        if a[s] is not None:
            inv_a[a[s]] = s
        if b[s] is not None:
            inv_b[b[s]] = s
    order = [0]
    seen = {0}
    for s in order:
        for t in (a[s], inv_a[s], b[s], inv_b[s]):
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    if order != list(range(n)):
        return False
    for s in range(1, n):
        if sum(t is not None for t in (a[s], inv_a[s], b[s], inv_b[s])) < 2:
            return False
    return True


def _catalogue_texts(max_states: int) -> list[str]:
    """Line-format texts of every folded core automaton of F2 with at most
    max_states states, each once, in its canonical numbering."""
    texts = []
    for n in range(1, max_states + 1):
        maps = _partial_injections(n)
        for a in maps:
            for b in maps:
                if not _is_canonical_core(a, b):
                    continue
                lines = [str(n), "base=0"]
                for s in range(n):
                    for label, m in (("a", a), ("b", b)):
                        if m[s] is not None:
                            lines.append(f"{s} {label} {m[s]}")
                texts.append("\n".join(lines) + "\n")
    return texts


def transverse_setup(seed: int) -> dict:
    catalogue = [SubgroupAutomaton.from_text(t, 2) for t in _catalogue_texts(CATALOGUE_STATES)]
    ctx = FreeContext(2)
    gen = rng.substream(seed, 1)
    elements = [ctx.random_word(gen, 1 + i % SCAN_MAX_LENGTH) for i in range(SCAN_ELEMENTS)]
    return {
        "seed": seed,
        "ctx": ctx,
        "catalogue": catalogue,
        "elements": elements,
        "ops": len(catalogue) * len(elements),
    }


def transverse_run(inputs: dict, workers: int) -> bytes:
    catalogue, elements = inputs["catalogue"], inputs["elements"]

    # One "trial" per automaton, so the scan runs on the package's own
    # trial-parallel backend at either worker count.
    def scan(i: int) -> list:
        return [transverse.power_conjugate_into(catalogue[i], f) for f in elements]

    fmt = inputs["ctx"].format
    rows = []
    for i, found in enumerate(rng.map_trials(scan, len(catalogue), workers)):
        cells = " ".join("-" if d is None else f"{d[0]}:{fmt(d[1])}" for d in found)
        rows.append(
            harness.ResultRow(
                "transverse_scan",
                f"automaton={i};decisions={cells}",
                "conjugate_into",
                float(sum(d is not None for d in found)),
                None,
                None,
                inputs["seed"],
            )
        )
    return harness.emit(rows)


def _free_reduce(letters) -> tuple:
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def transverse_check(inputs: dict, data: bytes, expected: dict) -> list:
    catalogue, elements = inputs["catalogue"], inputs["elements"]
    texts = [a.to_text() for a in catalogue]
    out = [
        (
            f"transverse: catalogue holds the {CATALOGUE_SIZE} distinct canonical automata",
            len(set(catalogue)) == len(catalogue) == CATALOGUE_SIZE
            and texts == [SubgroupAutomaton.from_text(t, 2).to_text() for t in texts],
        )
    ]
    ctx = inputs["ctx"]
    verified = True
    rows = harness.parse_rows(data)
    for h, row in zip(catalogue, rows):
        cells = row.params.split("decisions=", 1)[1].split()
        for f, cell in zip(elements, cells):
            if cell == "-":
                continue
            m_text, v_text = cell.split(":")
            m, v = int(m_text), ctx.parse(v_text)
            v_inv = tuple(-x for x in reversed(v))
            verified = verified and m >= 1 and h.contains(_free_reduce(v_inv + f * m + v))
    out.append(("transverse: one row per automaton", len(rows) == len(catalogue)))
    out.append(("transverse: every (m, v) has v^-1 f^m v in H", verified))
    return out + _digest_check("transverse", inputs, data, expected)


WORKLOADS = {
    "mix": (mix_setup, run_configs, mix_check),
    "drift": (drift_setup, run_configs, drift_check),
    "cantor_qn": (cantor_setup, run_configs, cantor_check),
    "transverse": (transverse_setup, transverse_run, transverse_check),
}
