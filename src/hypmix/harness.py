"""Config-driven experiment runner with deterministic outputs.

Configs are INI files with an [experiment] section (kind, seed, out,
threads) and a [params] section of kind-specific keys; the CLI's flag forms
build the same two sections from their flags. Both go through one path:
ExperimentConfig.from_sections reads [experiment], and each runner reads its
[params] keys through a Params reader, each read stating its default and
its lower bound. A key no read takes is refused as unknown before any trial
runs, so a misspelt key is an error, never a run at the default.

Every run is a pure function of its config: trial substreams are keyed by
(seed, trial index), aggregation is ordered by trial index, and the emitted
CSV/JSON bytes are identical across reruns and thread counts. Rows carry no
wall-clock time; the CLI times a run itself and prints that to stderr (or as
a comment header on request), so output files stay byte-stable.

run_with_report() returns the rows together with the report text rendered
from the same construction: the certificate of a transverse run, the
transcript of a cantor claim, and the PASS/FAIL line of each criterion a
selftest run checks. Nothing is built twice to be shown.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .freegroup import FreeContext, Word, WordError
from .stallings import SubgroupAutomaton
from .walks import MeasureError, StepMeasure, drift_estimate
from . import cantor, mixing, transverse

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
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError):
            raise ConfigError("config", f"cannot read {path}")
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse INI text. Malformed INI raises ConfigError naming
        <section>.<key> where the parser knows the key, else config; a
        section other than [experiment] and [params] is refused."""
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            if "experiment" not in parser:
                raise ConfigError("experiment", "missing [experiment] section")
            for name in parser.sections():
                if name not in ("experiment", "params"):
                    raise ConfigError(name, "unknown section")
            return cls.from_sections(parser["experiment"], parser["params"] if "params" in parser else {})
        except (configparser.DuplicateOptionError, configparser.InterpolationError) as exc:
            raise ConfigError(f"{exc.section}.{exc.option}", exc.message)
        except configparser.Error as exc:
            raise ConfigError("config", exc.message)

    @classmethod
    def from_sections(cls, experiment, params) -> "ExperimentConfig":
        """The config of an [experiment] and a [params] mapping of raw strings.

        A config file and the CLI's flag forms both come through here, so
        kind, seed, threads and out are read and checked in one place; any
        other [experiment] key is refused. The params are kept raw for the
        kind's runner to read."""
        section = Params(experiment, "experiment")
        kind = section.read("kind")
        if kind not in _RUNNERS:
            raise ConfigError("experiment.kind", f"unknown kind {kind!r}, expected one of {tuple(_RUNNERS)}")
        config = cls(
            kind=kind,
            seed=section.read("seed", int, 0),
            threads=section.read("threads", int, 1, least=1),
            out=section.read("out", default=None),
            params=dict(params),
        )
        section.done()
        return config

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


# The rows of one run and the report text rendered from the same construction.
_Outcome = tuple[list[ResultRow], str]

CSV_COLUMNS = ("experiment", "params", "metric", "value", "ci_low", "ci_high", "seed")


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(rows: Sequence[ResultRow], fmt: str = "csv") -> bytes:
    """Serialize rows deterministically (UTF-8, LF).

    CSV quotes a field only when it holds a comma, a quote or a line break,
    so parse_rows() reads back exactly the rows written."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_format_value(getattr(r, col)) for col in CSV_COLUMNS] for r in rows)
        return buf.getvalue().encode()
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

    The leading comment lines (the embedded config, optional timing) are
    skipped."""
    lines = itertools.dropwhile(lambda line: line.startswith("#"), io.StringIO(data.decode(), newline=""))
    records = [record for record in csv.reader(lines) if record]
    if not records or tuple(records[0]) != CSV_COLUMNS:
        raise ConfigError("csv", "missing or wrong header")
    rows = []
    for parts in records[1:]:
        if len(parts) != len(CSV_COLUMNS):
            raise ConfigError("csv", f"bad row {parts!r}")
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


# --- parameter reading -----------------------------------------------------------

_REQUIRED = object()


def _int_list(raw: str) -> list[int]:
    values = [int(x) for x in raw.replace(",", " ").split()]
    if not values:
        raise ValueError(raw)
    return values


# What a value that a parser refuses was expected to be.
_EXPECTED = {int: "an integer", Fraction: "a rational", _int_list: "an integer list"}


class Params:
    """The raw strings of one config section, read key by key.

    Each read names its key, the parser of its value (str, int, Fraction
    or _int_list), its default (none: the key is required) and its lower
    bound (of every entry, for a list), so a value is checked where it is
    read. A key given with an empty value is refused, not read as absent:
    an empty `trials =` must not run the default count. Once a runner's
    reads are done, done() refuses the first key that no read took."""

    def __init__(self, raw, section: str = "params"):
        self._raw = raw
        self._section = section
        self._unread = dict.fromkeys(raw)

    def read(self, key: str, parse=str, default=_REQUIRED, least=None):
        name = f"{self._section}.{key}"
        self._unread.pop(key, None)
        if key not in self._raw:
            if default is _REQUIRED:
                raise ConfigError(name, "required")
            return default
        raw = str(self._raw[key]).strip()
        if not raw:
            raise ConfigError(name, "empty value")
        try:
            value = parse(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(name, f"not {_EXPECTED[parse]}: {raw!r}")
        lowest = min(value) if parse is _int_list else value
        if least is not None and lowest < least:
            raise ConfigError(name, f"must be >= {least}, got {lowest}")
        return value

    def done(self) -> None:
        if self._unread:
            raise ConfigError(f"{self._section}.{next(iter(self._unread))}", "unknown key")


def _context(params: Params) -> FreeContext:
    try:
        return FreeContext(params.read("rank", int, 2))
    except WordError as exc:
        raise ConfigError("params.rank", str(exc))


def default_measure(params: dict) -> str:
    """The flag forms' measure when none is given: uniform on the letters of
    the rank the raw params name. An invalid rank is refused as params.rank,
    as the run itself would refuse it."""
    ctx = _context(Params(params))
    return "uniform: " + " ".join(ctx.format((x,)) for x in ctx.letters())


def parse_words(ctx: FreeContext, raw: str, key: str) -> list[Word]:
    try:
        return [ctx.parse(tok) for tok in raw.split()]
    except WordError as exc:
        raise ConfigError(f"params.{key}", str(exc))


def parse_measure(params: Params, ctx: FreeContext) -> StepMeasure:
    """Measure syntax: `measure = uniform: a A b B` (optionally
    `identity_mass = 1/2`), or `measure = entries: ab:1/8 BA:7/8`."""
    raw = params.read("measure")
    if raw.startswith("uniform:"):
        # Only the uniform form reads identity_mass; beside entries it is refused as unknown.
        identity_mass = params.read("identity_mass", Fraction, Fraction(0), least=0)
        if identity_mass >= 1:
            raise ConfigError("params.identity_mass", f"must be < 1, got {identity_mass}")
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
    return run_with_report(config)[0]


def run_with_report(config: ExperimentConfig) -> _Outcome:
    """The rows of the experiment and the report text of the same run.

    The report is the certificate of a transverse run, the transcript of a
    cantor claim or the PASS/FAIL lines of a selftest run, rendered from the
    results the rows describe; it is empty for drift, mix, freeprod and the
    cantor estimates. The runner reads its params through one Params reader
    and calls done() before its first trial."""
    return _RUNNERS[config.kind](config, Params(config.params))


def _run_drift(config: ExperimentConfig, params: Params) -> _Outcome:
    ctx = _context(params)
    measure = parse_measure(params, ctx)
    n = params.read("n", int, least=1)
    trials = params.read("trials", int, least=1)
    params.done()
    try:
        est = drift_estimate(measure, n, trials, config.seed, threads=config.threads)
    except MeasureError as exc:  # n and trials are checked above: the measure is at fault
        raise ConfigError("params.measure", str(exc))
    echo = f"rank={ctx.rank};n={n};trials={trials}"
    return [
        ResultRow("drift", echo, "drift", est.d_hat, est.ci_low, est.ci_high, config.seed)
    ], ""


def _run_mix(config: ExperimentConfig, params: Params) -> _Outcome:
    ctx = _context(params)
    measure = parse_measure(params, ctx)
    h = parse_subgroup(ctx, params.read("h"), "h")
    k = parse_subgroup(ctx, params.read("k"), "k")
    radius = params.read("window_radius", int, 2, least=0)
    trials = params.read("trials", int, least=1)
    n_list = params.read("n_list", _int_list, least=0)
    params.done()
    try:
        results = mixing.joint_mixing(
            [(h, k, ctx.ball(radius))], measure, n_list, trials, config.seed, config.threads
        )
    except mixing.MixingSetupError as exc:
        raise ConfigError(f"params.{exc.argument}", str(exc))
    rows = []
    for result in results:
        est = result.marginals[0]
        echo = f"rank={ctx.rank};window_radius={radius};trials={trials};n={est.n}"
        rows.append(
            ResultRow("mix", echo, "p_hat", est.p_hat, est.ci_low, est.ci_high, config.seed)
        )
    return rows, ""


def _run_freeprod(config: ExperimentConfig, params: Params) -> _Outcome:
    ctx = _context(params)
    measure = parse_measure(params, ctx)
    h = parse_subgroup(ctx, params.read("h"), "h")
    n = params.read("n", int, least=0)
    trials = params.read("trials", int, least=1)
    params.done()
    try:
        est = mixing.free_product_experiment(h, measure, n, trials, config.seed, config.threads)
    except mixing.MixingSetupError as exc:
        raise ConfigError(f"params.{exc.argument}", str(exc))
    echo = f"rank={ctx.rank};n={n};trials={trials}"
    return [
        ResultRow("freeprod", echo, "certified_fraction", est.p_hat, est.ci_low, est.ci_high, config.seed)
    ], ""


def _run_transverse(config: ExperimentConfig, params: Params) -> _Outcome:
    ctx = _context(params)
    targets_raw = params.read("targets")
    g = params.read("g")
    params.done()
    targets = [
        parse_subgroup(ctx, part.strip(), "targets")
        for part in targets_raw.split("|")
        if part.strip()
    ]
    if not targets:
        raise ConfigError("params.targets", "need at least one subgroup")
    g = parse_words(ctx, g, "g")
    if len(g) != 1:
        raise ConfigError("params.g", "expected a single word")
    if not g[0]:
        raise ConfigError("params.g", "cannot build from the identity")
    try:
        got = transverse.construct_transverse(targets, g[0])
    except transverse.TransversalityError as exc:
        raise ConfigError("params.targets", str(exc))
    echo = f"rank={ctx.rank};g={ctx.format(g[0])};f={ctx.format(got.element)};a={ctx.format(got.avoided)}"
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
    return rows, _certificate_text(ctx, got)


def _certificate_text(ctx: FreeContext, construction) -> str:
    """Human-readable certificate for the transverse constructor output."""
    lines = [
        f"element {ctx.format(construction.element)}",
        f"avoided {ctx.format(construction.avoided)}",
        f"exponent {construction.exponent}",
    ]
    # construct_transverse returns only when every certificate is transverse.
    for i, cert in enumerate(construction.certificates):
        lines.append(
            f"target {i}: transverse (no power up to pigeonhole bound "
            f"{cert.pigeonhole_bound} conjugates into the subgroup)"
        )
    return "\n".join(lines) + "\n"


def _claim_transcript(element, checks: list[str]) -> str:
    """The group word of a verified cantor claim, then what was verified."""
    return "\n".join([f"group word: {cantor.format_element(element)}", *checks]) + "\n"


def _run_cantor(config: ExperimentConfig, params: Params) -> _Outcome:
    mode = params.read("mode")
    if mode == "qn":
        p_letter = params.read("p_letter", Fraction, Fraction(1, 8))
        trials = params.read("trials", int, least=1)
        n_list = params.read("n_list", _int_list, least=0)
        # The source cone z has depth 1; a cap at or below it forbids every split.
        depth_cap = params.read("depth_cap", int, None, least=2)
        params.done()
        rows = []
        for n in n_list:
            try:
                est = cantor.estimate_qn(p_letter, n, trials, config.seed, depth_cap, config.threads)
            except cantor.ConeError as exc:  # n, trials and depth_cap are checked above
                raise ConfigError("params.p_letter", str(exc))
            echo = f"p_letter={p_letter};trials={trials};n={n};depth_cap={est.depth_cap}"
            rows.append(
                ResultRow("cantor_qn", echo, "q_hat", est.p_hat, est.ci_low, est.ci_high, config.seed)
            )
            rows.append(
                ResultRow("cantor_qn", echo, "depth_cap_exceeded", float(est.depth_cap_exceeded), None, None, config.seed)
            )
        return rows, ""
    if mode == "transience":
        trials = params.read("trials", int, 100_000, least=1)
        horizon = params.read("horizon", int, 10_000, least=1)
        radius = params.read("radius", int, 8, least=1)
        params.done()
        exact = cantor.hit_probability_exact()
        p, lo, hi = cantor.simulate_hit_probability(trials, horizon, config.seed)
        ok = cantor.superharmonic_check(radius)
        echo = f"trials={trials};horizon={horizon};radius={radius}"
        return [
            ResultRow("cantor_transience", echo, "hit_exact", float(exact.minimal_root), None, None, config.seed),
            ResultRow("cantor_transience", echo, "hit_mc", p, lo, hi, config.seed),
            ResultRow("cantor_transience", echo, "superharmonic", 1.0 if ok else 0.0, None, None, config.seed),
        ], ""
    if mode in ("claim1", "claim2"):
        build = cantor.standardizing_element if mode == "claim1" else cantor.cone_transposition
        u = params.read("u")
        params.done()
        try:
            u = cantor.parse_label(u)
            element = build(u)
        except cantor.ConeError as exc:
            raise ConfigError("params.u", str(exc))
        label, pivot = cantor.format_label(u), "Z" * len(u)
        if mode == "claim1":
            checks = [
                f"image of Cone({label}) is Cone(zz)",
                f"image of Cone({pivot}) is Cone(ZZ)",
                f"positional action verified pointwise at depth {len(u) + 2}",
            ]
        else:
            checks = [
                f"swaps Cone({label}) with Cone({pivot})",
                "fixes every other cone of that depth pointwise",
            ]
        echo = f"u={label};letters={len(element)}"
        return [
            ResultRow(f"cantor_{mode}", echo, "verified", 1.0, None, None, config.seed)
        ], _claim_transcript(element, checks)
    if mode == "claim3":
        raw = params.read("pairs")
        params.done()
        pairs = []
        try:
            for tok in raw.split():
                src, _, dst = tok.partition(":")
                if not dst:
                    raise ConfigError("params.pairs", f"expected u:v, got {tok!r}")
                pairs.append((cantor.parse_label(src), cantor.parse_label(dst)))
            element = cantor.cone_routing_element(pairs, len(pairs[0][0]))
        except cantor.ConeError as exc:
            raise ConfigError("params.pairs", str(exc))
        checks = [
            f"maps Cone({cantor.format_label(s)}) onto Cone({cantor.format_label(d)})"
            for s, d in pairs
        ]
        echo = f"pairs={raw};letters={len(element)}"
        return [
            ResultRow("cantor_claim3", echo, "verified", 1.0, None, None, config.seed)
        ], _claim_transcript(element, checks)
    raise ConfigError("params.mode", f"unknown cantor mode {mode!r}")


def _run_selftest(config: ExperimentConfig, params: Params) -> _Outcome:
    from .selftest import report_rows, selftest

    criteria = params.read("criteria", _int_list, range(1, 15), least=1)
    params.done()
    results = selftest(criteria, config.threads)
    return report_rows(results, config.seed), "".join(f"{r.line()}\n" for r in results)


_RUNNERS = {
    "drift": _run_drift,
    "mix": _run_mix,
    "freeprod": _run_freeprod,
    "transverse": _run_transverse,
    "cantor": _run_cantor,
    "selftest": _run_selftest,
}
