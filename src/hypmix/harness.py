"""Config-driven experiment runner with deterministic outputs.

Configs are INI files with an [experiment] section (kind, seed, out,
threads) and a [params] section of kind-specific keys. Every run is a pure
function of its config: trial substreams are keyed by (seed, trial index),
aggregation is ordered by trial index, and the emitted CSV/JSON bytes are
identical across reruns and thread counts. Rows carry no wall-clock time;
the CLI times a run itself and prints that to stderr (or as a comment header
on request), so output files stay byte-stable.
"""

from __future__ import annotations

import configparser
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .freegroup import FreeContext, Word, WordError
from .stallings import SubgroupAutomaton
from .walks import StepMeasure, drift_estimate
from . import cantor, mixing, rng, transverse

KINDS = ("walk", "drift", "mix", "freeprod", "transverse", "cantor", "selftest")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"[{field_name}] {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    threads: int = 1
    out: str | None = None
    params: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError("config", f"cannot read {path}")
        return cls.from_parser(parser)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        return cls.from_parser(parser)

    @classmethod
    def from_parser(cls, parser: configparser.ConfigParser) -> "ExperimentConfig":
        if "experiment" not in parser:
            raise ConfigError("experiment", "missing [experiment] section")
        section = parser["experiment"]
        kind = section.get("kind", "").strip()
        if kind not in KINDS:
            raise ConfigError("experiment.kind", f"unknown kind {kind!r}, expected one of {KINDS}")
        try:
            seed = int(section.get("seed", "0"))
        except ValueError:
            raise ConfigError("experiment.seed", f"not an integer: {section.get('seed')!r}")
        try:
            threads = int(section.get("threads", "1"))
        except ValueError:
            raise ConfigError("experiment.threads", f"not an integer: {section.get('threads')!r}")
        if threads < 1:
            raise ConfigError("experiment.threads", "must be >= 1")
        out = section.get("out", "").strip() or None
        params = dict(parser["params"]) if "params" in parser else {}
        return cls(kind=kind, seed=seed, threads=threads, out=out, params=params)

    def to_text(self) -> str:
        parser = configparser.ConfigParser()
        parser["experiment"] = {
            "kind": self.kind,
            "seed": str(self.seed),
            "threads": str(self.threads),
        }
        if self.out:
            parser["experiment"]["out"] = self.out
        parser["params"] = {k: str(v) for k, v in self.params.items()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class ResultRow:
    """One metric of one experiment."""

    experiment: str
    params: str
    metric: str
    value: float
    ci_low: float | None
    ci_high: float | None
    seed: int


CSV_COLUMNS = ("experiment", "params", "metric", "value", "ci_low", "ci_high", "seed")


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(rows: Sequence[ResultRow], fmt: str = "csv") -> bytes:
    """Serialize rows deterministically (UTF-8, LF)."""
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in rows:
            lines.append(
                ",".join(
                    _format_value(getattr(r, col)).replace(",", ";") for col in CSV_COLUMNS
                )
            )
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = [
            {col: getattr(r, col) for col in CSV_COLUMNS} for r in rows
        ]
        return (json.dumps(payload, indent=None, separators=(",", ":")) + "\n").encode()
    raise ConfigError("format", f"unknown format {fmt!r}")


def config_header(config: ExperimentConfig) -> bytes:
    """The config echoed as CSV comment lines (deterministic)."""
    lines = [f"# {line}" for line in config.to_text().strip().splitlines()]
    return ("\n".join(lines) + "\n").encode()


def parse_rows(data: bytes) -> list[ResultRow]:
    """Inverse of emit(..., 'csv').

    Comment lines (the embedded config, optional timing) are skipped."""
    lines = [
        ln for ln in data.decode().strip().splitlines() if not ln.startswith("#")
    ]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigError("csv", "missing or wrong header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ConfigError("csv", f"bad row {line!r}")
        experiment, params, metric, value, ci_low, ci_high, seed = parts
        rows.append(
            ResultRow(
                experiment,
                params,
                metric,
                float(value),
                float(ci_low) if ci_low else None,
                float(ci_high) if ci_high else None,
                int(seed),
            )
        )
    return rows


# --- parameter parsing helpers -------------------------------------------------


def _get(params: dict, key: str, default=None, required=False) -> str:
    if key in params and str(params[key]).strip():
        return str(params[key]).strip()
    if required:
        raise ConfigError(f"params.{key}", "required")
    return default


def _get_int(params: dict, key: str, default=None, required=False) -> int:
    raw = _get(params, key, None, required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"params.{key}", f"not an integer: {raw!r}")


def _get_fraction(params: dict, key: str, default=None, required=False) -> Fraction:
    raw = _get(params, key, None, required)
    if raw is None:
        return default
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"params.{key}", f"not a rational: {raw!r}")


def _get_int_list(params: dict, key: str, required=False) -> list[int]:
    raw = _get(params, key, None, required)
    if raw is None:
        return []
    try:
        return [int(x) for x in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"params.{key}", f"not an integer list: {raw!r}")


def parse_words(ctx: FreeContext, raw: str, key: str) -> list[Word]:
    try:
        return [ctx.parse(tok) for tok in raw.split()]
    except WordError as exc:
        raise ConfigError(f"params.{key}", str(exc))


def parse_measure(params: dict, ctx: FreeContext) -> StepMeasure:
    """Measure syntax: `measure = uniform: a A b B` (optionally
    `identity_mass = 1/2`), or `measure = entries: ab:1/8 BA:7/8`."""
    raw = _get(params, "measure", required=True)
    identity_mass = _get_fraction(params, "identity_mass", Fraction(0))
    try:
        if raw.startswith("uniform:"):
            words = parse_words(ctx, raw[len("uniform:"):], "measure")
            return StepMeasure.uniform_on(ctx.rank, words, identity_mass)
        if raw.startswith("entries:"):
            weights = {}
            for tok in raw[len("entries:"):].split():
                word_text, _, frac_text = tok.partition(":")
                weights[ctx.parse(word_text)] = Fraction(frac_text)
            return StepMeasure(ctx.rank, weights)
    except (WordError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError("params.measure", str(exc))
    raise ConfigError("params.measure", "expected 'uniform: ...' or 'entries: ...'")


def parse_subgroup(ctx: FreeContext, raw: str, key: str) -> SubgroupAutomaton:
    return SubgroupAutomaton.from_generators(ctx.rank, parse_words(ctx, raw, key))


# --- dispatch -------------------------------------------------------------------


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the experiment; deterministic given the config."""
    if config.kind == "walk":
        rows = _run_walk(config)
    elif config.kind == "drift":
        rows = _run_drift(config)
    elif config.kind == "mix":
        rows = _run_mix(config)
    elif config.kind == "freeprod":
        rows = _run_freeprod(config)
    elif config.kind == "transverse":
        rows = _run_transverse(config)
    elif config.kind == "cantor":
        rows = _run_cantor(config)
    elif config.kind == "selftest":
        from .selftest import selftest_rows

        rows = selftest_rows(threads=config.threads)
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError("experiment.kind", config.kind)
    return rows


def _run_walk(config: ExperimentConfig) -> list[ResultRow]:
    rank = _get_int(config.params, "rank", 2)
    ctx = FreeContext(rank)
    measure = parse_measure(config.params, ctx)
    n = _get_int(config.params, "n", required=True)
    if n < 0:
        raise ConfigError("params.n", f"walk length must be >= 0, got {n}")
    final = measure.final_position(n, rng.substream(config.seed))
    echo = f"rank={rank};n={n}"
    return [
        ResultRow("walk", echo, "endpoint_distance", float(len(final)), None, None, config.seed),
        ResultRow("walk", echo + f";word={ctx.format(final)}", "endpoint_recorded", 1.0, None, None, config.seed),
    ]


def _run_drift(config: ExperimentConfig) -> list[ResultRow]:
    rank = _get_int(config.params, "rank", 2)
    ctx = FreeContext(rank)
    measure = parse_measure(config.params, ctx)
    n = _get_int(config.params, "n", required=True)
    trials = _get_int(config.params, "trials", required=True)
    if n <= 0:
        raise ConfigError("params.n", f"walk length must be >= 1, got {n}")
    if trials <= 0:
        raise ConfigError("params.trials", f"must be >= 1, got {trials}")
    est = drift_estimate(measure, n, trials, config.seed, threads=config.threads)
    echo = f"rank={rank};n={n};trials={trials}"
    return [
        ResultRow("drift", echo, "drift", est.d_hat, est.ci_low, est.ci_high, config.seed)
    ]


def _run_mix(config: ExperimentConfig) -> list[ResultRow]:
    rank = _get_int(config.params, "rank", 2)
    ctx = FreeContext(rank)
    measure = parse_measure(config.params, ctx)
    h = parse_subgroup(ctx, _get(config.params, "h", required=True), "h")
    k = parse_subgroup(ctx, _get(config.params, "k", required=True), "k")
    radius = _get_int(config.params, "window_radius", 2)
    trials = _get_int(config.params, "trials", required=True)
    n_list = _get_int_list(config.params, "n_list", required=True)
    window = ctx.ball(radius)
    rows = []
    for n in n_list:
        est = mixing.estimate_mixing(h, k, window, measure, n, trials, config.seed, config.threads)
        echo = f"rank={rank};window_radius={radius};trials={trials};n={n}"
        rows.append(
            ResultRow("mix", echo, "p_hat", est.p_hat, est.ci_low, est.ci_high, config.seed)
        )
    return rows


def _run_freeprod(config: ExperimentConfig) -> list[ResultRow]:
    rank = _get_int(config.params, "rank", 2)
    ctx = FreeContext(rank)
    measure = parse_measure(config.params, ctx)
    h = parse_subgroup(ctx, _get(config.params, "h", required=True), "h")
    n = _get_int(config.params, "n", required=True)
    trials = _get_int(config.params, "trials", required=True)
    est = mixing.free_product_experiment(h, measure, n, trials, config.seed, config.threads)
    echo = f"rank={rank};n={n};trials={trials}"
    return [
        ResultRow("freeprod", echo, "certified_fraction", est.p_hat, est.ci_low, est.ci_high, config.seed)
    ]


def _run_transverse(config: ExperimentConfig) -> list[ResultRow]:
    rank = _get_int(config.params, "rank", 2)
    ctx = FreeContext(rank)
    targets_raw = _get(config.params, "targets", required=True)
    targets = [
        parse_subgroup(ctx, part.strip(), "targets")
        for part in targets_raw.split("|")
        if part.strip()
    ]
    if not targets:
        raise ConfigError("params.targets", "need at least one subgroup")
    g = parse_words(ctx, _get(config.params, "g", required=True), "g")
    if len(g) != 1:
        raise ConfigError("params.g", "expected a single word")
    try:
        got = transverse.construct_transverse(targets, g[0])
    except transverse.TransversalityError as exc:
        raise ConfigError("params.targets", str(exc))
    echo = f"rank={rank};g={ctx.format(g[0])};f={ctx.format(got.element)};a={ctx.format(got.avoided)}"
    rows = [
        ResultRow("transverse", echo, "exponent", float(got.exponent), None, None, config.seed)
    ]
    for i, cert in enumerate(got.certificates):
        rows.append(
            ResultRow(
                "transverse",
                echo + f";target={i}",
                "certified_transverse",
                1.0 if cert.transverse else 0.0,
                None,
                None,
                config.seed,
            )
        )
    return rows


def certificate_text(ctx: FreeContext, construction) -> str:
    """Human-readable certificate for the transverse constructor output."""
    lines = [
        f"element {ctx.format(construction.element)}",
        f"avoided {ctx.format(construction.avoided)}",
        f"exponent {construction.exponent}",
    ]
    for i, cert in enumerate(construction.certificates):
        if cert.transverse:
            lines.append(
                f"target {i}: transverse (no power up to pigeonhole bound "
                f"{cert.pigeonhole_bound} conjugates into the subgroup)"
            )
        else:  # pragma: no cover - constructor never returns these
            lines.append(
                f"target {i}: witness power {cert.power} conjugator {ctx.format(cert.conjugator)}"
            )
    return "\n".join(lines) + "\n"


def _run_cantor(config: ExperimentConfig) -> list[ResultRow]:
    mode = _get(config.params, "mode", required=True)
    if mode == "qn":
        p_letter = _get_fraction(config.params, "p_letter", Fraction(1, 8))
        trials = _get_int(config.params, "trials", required=True)
        n_list = _get_int_list(config.params, "n_list", required=True)
        depth_cap = _get_int(config.params, "depth_cap", None)
        if trials <= 0:
            raise ConfigError("params.trials", f"must be >= 1, got {trials}")
        if any(n < 0 for n in n_list):
            raise ConfigError("params.n_list", f"walk lengths must be >= 0, got {n_list}")
        rows = []
        for n in n_list:
            est = cantor.estimate_qn(p_letter, n, trials, config.seed, depth_cap, config.threads)
            echo = f"p_letter={p_letter};trials={trials};n={n};depth_cap={est.depth_cap}"
            rows.append(
                ResultRow("cantor_qn", echo, "q_hat", est.p_hat, est.ci_low, est.ci_high, config.seed)
            )
            rows.append(
                ResultRow("cantor_qn", echo, "depth_cap_exceeded", float(est.depth_cap_exceeded), None, None, config.seed)
            )
        return rows
    if mode == "transience":
        trials = _get_int(config.params, "trials", 100_000)
        horizon = _get_int(config.params, "horizon", 10_000)
        radius = _get_int(config.params, "radius", 8)
        exact = cantor.hit_probability_exact()
        p, lo, hi = cantor.simulate_hit_probability(trials, horizon, config.seed)
        ok = cantor.superharmonic_check(radius)
        echo = f"trials={trials};horizon={horizon};radius={radius}"
        return [
            ResultRow("cantor_transience", echo, "hit_exact", float(exact.minimal_root), None, None, config.seed),
            ResultRow("cantor_transience", echo, "hit_mc", p, lo, hi, config.seed),
            ResultRow("cantor_transience", echo, "superharmonic", 1.0 if ok else 0.0, None, None, config.seed),
        ]
    if mode in ("claim1", "claim2"):
        u = cantor.parse_label(_get(config.params, "u", required=True))
        build = cantor.standardizing_element if mode == "claim1" else cantor.cone_transposition
        try:
            element = build(u)
        except cantor.ConeError as exc:
            raise ConfigError("params.u", str(exc))
        echo = f"u={cantor.format_label(u)};letters={len(element)}"
        return [
            ResultRow(f"cantor_{mode}", echo, "verified", 1.0, None, None, config.seed)
        ]
    if mode == "claim3":
        raw = _get(config.params, "pairs", required=True)
        pairs = []
        for tok in raw.split():
            src, _, dst = tok.partition(":")
            if not dst:
                raise ConfigError("params.pairs", f"expected u:v, got {tok!r}")
            pairs.append((cantor.parse_label(src), cantor.parse_label(dst)))
        depth = len(pairs[0][0])
        try:
            element = cantor.cone_routing_element(pairs, depth)
        except cantor.ConeError as exc:
            raise ConfigError("params.pairs", str(exc))
        echo = f"pairs={raw};letters={len(element)}"
        return [
            ResultRow("cantor_claim3", echo, "verified", 1.0, None, None, config.seed)
        ]
    raise ConfigError("params.mode", f"unknown cantor mode {mode!r}")
