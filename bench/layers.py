"""Per-layer metrics from a traced pass.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``; a
trial callback of ``rng.map_trials`` is ``<caller>/trial``, where caller is
the span that called ``map_trials`` ("bench" when the benchmark did). The
observers below read arguments and results of a few spans to count work
that a span count alone does not show.
"""

from __future__ import annotations

from workloads import CANTOR_N, MIX_N

FOLD = "stallings.SubgroupAutomaton.from_generators"


def _fold(tracer, args, kwargs, result, duration):
    generators = args[2] if len(args) > 2 else kwargs.get("generators", ())
    if isinstance(generators, (list, tuple)):
        tracer.count("fold.letters", sum(len(g) for g in generators))
    tracer.count("fold.states_out", result.n_states)


def _final_position(tracer, args, kwargs, result, duration):
    tracer.count("walks.steps", args[1] if len(args) > 1 else kwargs["n"])


def _check_witness(tracer, args, kwargs, result, duration):
    tracer.count("mixing.successes", bool(result.success))


def _per_n(prefix: str, n_index: int):
    def observe(tracer, args, kwargs, result, duration):
        n = args[n_index] if len(args) > n_index else kwargs["n"]
        tracer.count(f"{prefix}.n{n}_s", duration)

    return observe


def _apply_element(tracer, args, kwargs, result, duration):
    # Labels are nonempty tuples; anything else asks for refinement.
    tracer.count("cantor.refinements", not isinstance(result, tuple))


def _power_conjugate_into(tracer, args, kwargs, result, duration):
    tracer.count("transverse.transverse", result is None)


def _emit(tracer, args, kwargs, result, duration):
    tracer.count("harness.emit.bytes", len(result))


OBSERVERS = {
    FOLD: _fold,
    "walks.StepMeasure.final_position": _final_position,
    "mixing.check_witness": _check_witness,
    "mixing.estimate_mixing": _per_n("mixing", 4),
    "cantor.estimate_qn": _per_n("cantor", 1),
    "cantor.apply_element": _apply_element,
    "transverse.power_conjugate_into": _power_conjugate_into,
    "harness.emit": _emit,
}

# (name, unit) in the order they are reported.
METRICS = (
    [
        ("stallings.fold.calls", "count"),
        ("stallings.fold.letters", "count"),
        ("stallings.fold.states_out", "count"),
        ("stallings.fold.self_s", "s"),
        ("stallings.folds_per_trial", "1/trial"),
        ("stallings.conjugate.calls", "count"),
        ("stallings.join.calls", "count"),
        ("stallings.join_words.calls", "count"),
        ("stallings.read.calls", "count"),
        ("stallings.self_s", "s"),
        ("walks.final_position.calls", "count"),
        ("walks.steps", "count"),
        ("walks.draw_s", "s"),
        ("walks.reduce_s", "s"),
        ("walks.steps_per_s", "1/s"),
        ("rng.substream.calls", "count"),
        ("rng.substream_s", "s"),
        ("rng.map_trials.overhead_s", "s"),
        ("rng.map_trials.speedup_2w", "ratio"),
        ("mixing.trials", "count"),
        ("mixing.witness_subgroup_s", "s"),
        ("mixing.check_witness_s", "s"),
        ("mixing.success_frac", "frac"),
    ]
    + [(f"mixing.n{n}_s", "s") for n in MIX_N]
    + [
        ("cantor.image_antichain.calls", "count"),
        ("cantor.image_antichain_s", "s"),
        ("cantor.apply_element.calls", "count"),
        ("cantor.refine_frac", "frac"),
        ("cantor.permutations", "count"),
        ("cantor.estimate_qn.self_s", "s"),
    ]
    + [(f"cantor.n{n}_s", "s") for n in CANTOR_N]
    + [
        ("transverse.power_conjugate_into.calls", "count"),
        ("transverse.power_conjugate_into_s", "s"),
        ("transverse.transverse_frac", "frac"),
        ("freegroup.reduce_word.calls", "count"),
        ("freegroup.multiply.calls", "count"),
        ("freegroup.self_s", "s"),
        ("harness.parse_s", "s"),
        ("harness.run_s", "s"),
        ("harness.emit_s", "s"),
        ("harness.emit.bytes", "count"),
        ("trace.overhead_frac", "frac"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer) -> dict[str, float]:
    """Every metric of METRICS except trace.overhead_frac and
    rng.map_trials.speedup_2w, from one traced pass."""
    st = tracer.stat
    c = tracer.counters.get

    def self_of(layer: str) -> float:
        return sum(s.self_time for name, s in tracer.stats.items() if name.startswith(layer + "."))

    trials = sum(s.calls for name, s in tracer.stats.items() if name.endswith("/trial") and ":" not in name)
    position = st("walks.StepMeasure.final_position")
    apply = st("cantor.apply_element")
    deciding = st("transverse.power_conjugate_into")
    witness_checks = st("mixing.check_witness")
    out = {
        "stallings.fold.calls": st(FOLD).calls,
        "stallings.fold.letters": c("fold.letters", 0.0),
        "stallings.fold.states_out": c("fold.states_out", 0.0),
        "stallings.fold.self_s": st(FOLD).self_time,
        "stallings.folds_per_trial": _ratio(st(FOLD).in_trial, trials),
        "stallings.conjugate.calls": st("stallings.SubgroupAutomaton.conjugate").calls,
        "stallings.join.calls": st("stallings.SubgroupAutomaton.join").calls,
        "stallings.join_words.calls": st("stallings.SubgroupAutomaton.join_words").calls,
        "stallings.read.calls": st("stallings.SubgroupAutomaton.read").calls,
        "stallings.self_s": self_of("stallings"),
        "walks.final_position.calls": position.calls,
        "walks.steps": c("walks.steps", 0.0),
        "walks.draw_s": st("walks.StepMeasure.draw_indices").total,
        "walks.reduce_s": position.self_time,
        "walks.steps_per_s": _ratio(c("walks.steps", 0.0), position.total),
        "rng.substream.calls": st("rng.substream").calls,
        "rng.substream_s": st("rng.substream").total,
        "rng.map_trials.overhead_s": st("rng.map_trials").self_time,
        "mixing.trials": st("mixing.estimate_mixing/trial").calls,
        "mixing.witness_subgroup_s": st("mixing.witness_subgroup").total,
        "mixing.check_witness_s": witness_checks.total,
        "mixing.success_frac": _ratio(c("mixing.successes", 0.0), witness_checks.calls),
        "cantor.image_antichain.calls": st("cantor.image_antichain").calls,
        "cantor.image_antichain_s": st("cantor.image_antichain").total,
        "cantor.apply_element.calls": apply.calls,
        "cantor.refine_frac": _ratio(c("cantor.refinements", 0.0), apply.calls),
        "cantor.permutations": st("cantor.ConePermutation.__init__").calls,
        # The trial callback is a closure of estimate_qn, so its self time
        # (drawing atoms per step) is booked to estimate_qn.
        "cantor.estimate_qn.self_s": st("cantor.estimate_qn").self_time
        + st("cantor.estimate_qn/trial").self_time,
        "transverse.power_conjugate_into.calls": deciding.calls,
        "transverse.power_conjugate_into_s": deciding.total,
        "transverse.transverse_frac": _ratio(c("transverse.transverse", 0.0), deciding.calls),
        "freegroup.reduce_word.calls": st("freegroup.reduce_word").calls,
        "freegroup.multiply.calls": st("freegroup.multiply").calls,
        "freegroup.self_s": self_of("freegroup"),
        "harness.parse_s": sum(st(f"parse:{name}").total for name in ("harness.parse_measure", "harness.parse_subgroup")),
        "harness.run_s": st("harness.run").total,
        "harness.emit_s": st("harness.emit").total,
        "harness.emit.bytes": c("harness.emit.bytes", 0.0),
    }
    for n in MIX_N:
        out[f"mixing.n{n}_s"] = c(f"mixing.n{n}_s", 0.0)
    for n in CANTOR_N:
        out[f"cantor.n{n}_s"] = c(f"cantor.n{n}_s", 0.0)
    return out
