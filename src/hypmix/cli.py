"""Command line driver.

    hypmix run --config exp.ini [--out results.csv] [--format csv|json]
    hypmix drift|mix|freeprod|transverse|cantor ... (flag forms)
    hypmix selftest [--criteria 1,2,...] [--out report.csv]

Exit codes: 0 success, 1 configuration, validation or usage error (the
message names the field, `[usage]` for a malformed command line), 2
acceptance failure in selftest mode. Data outputs are byte-deterministic;
wall time goes to stderr (or a leading comment block with --timing).

A flag form is a config file written as flags. Each kind flag carries its
raw string into [params] under the key it spells (--n-list: n_list, --H:
h), and --seed and --threads carry theirs into [experiment]; a flag not
given leaves no key. config_from_args hands both sections to
harness.ExperimentConfig.from_sections, the path a config file takes, so
flags and files share every default and every check, and a flag the kind
or cantor mode does not read is refused as an unknown key. The one default
the CLI adds is the walk kinds' measure: uniform on the rank's letters.

Every subcommand makes one run: the experiment subcommands through
harness.run_with_report, whose report text (a transverse certificate, a
cantor claim transcript) comes from the same construction as the rows, and
`selftest` through selftest.selftest, the runner kind = selftest uses too,
with rows from the same selftest.report_rows. The CLI times each call as a
whole for --timing and the `elapsed:` line; each criterion's own time is
taken where selftest registers it.
"""

from __future__ import annotations

import argparse
import sys
import time

from .freegroup import WordError
from .harness import ConfigError, ExperimentConfig, _int_list, config_header, default_measure, emit, run_with_report
from .cantor import ConeError
from .mixing import MixingSetupError
from .stallings import AutomatonError
from .transverse import TransversalityError
from .walks import MeasureError

# The --measure default of the walk kinds, filled in once the rank is known.
_UNIFORM = object()

_HELP = {
    "--measure": "e.g. 'uniform: a A b B'; default uniform on the rank's letters",
    "--H": "generators, e.g. 'a'",
    "--n-list": "e.g. 10,20,40,80,160",
    "--targets": "inline: 'a | b' (| separates subgroups)",
    "--u": "cone label for claims 1 and 2",
    "--pairs": "claim 3 pairs 'zx:zy zz:Zx'",
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a `[usage]` error, exit code 1
    like any other input error; exit code 2 stays with a failed acceptance
    run."""

    def error(self, message):
        raise ConfigError("usage", f"{self.prog}: {message}")


class _Carry(argparse.Action):
    """Carries a flag's raw string to its dest: `<section>.<key>` for a kind
    flag, the bare name for --out, --format, --emit-certificate, --config
    and --criteria. A mode flag carries its const instead (with --claim's
    number appended). A kind flag not given sets nothing. A dest given twice
    is refused, as a config file refuses a repeated key: the namespace's
    `given` set records each dest carried."""

    def __init__(self, *args, default=argparse.SUPPRESS, **kwargs):
        super().__init__(*args, default=default, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            raise ConfigError(self.dest, f"given twice, the second time by {option_string}")
        given.add(self.dest)
        setattr(namespace, self.dest, values if self.const is None else self.const + "".join(values))


def _carry(parser, section: str, flag: str) -> None:
    """A flag whose raw string goes into [section] under the key it spells."""
    key = flag.lstrip("-").replace("-", "_").lower()
    parser.add_argument(
        flag,
        action=_Carry,
        dest=f"{section}.{key}",
        metavar=key.upper(),
        help=_HELP.get(flag),
        **({"default": _UNIFORM} if flag == "--measure" else {}),
    )


def _add_output(parser) -> None:
    parser.add_argument("--out", action=_Carry, default=None)
    parser.add_argument("--format", action=_Carry, choices=("csv", "json"), default="csv")
    parser.add_argument("--timing", action="store_true", help="prepend a wall-time comment")


def _kind(sub, kind: str, help: str, *flags: str):
    parser = sub.add_parser(kind, help=help)
    for flag in ("--seed", "--threads"):
        _carry(parser, "experiment", flag)
    _add_output(parser)
    for flag in flags:
        _carry(parser, "params", flag)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypmix")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", action=_Carry, required=True)
    _add_output(p_run)

    _kind(sub, "drift", "estimate the walk escape rate", "--rank", "--measure", "--n", "--trials")
    _kind(
        sub, "mix", "witness-based mixing curve",
        "--rank", "--H", "--K", "--window-radius", "--measure", "--n-list", "--trials",
    )
    _kind(sub, "freeprod", "free-product absorption experiment", "--rank", "--H", "--measure", "--n", "--trials")

    p_tv = _kind(sub, "transverse", "construct a certified transverse element", "--rank", "--targets", "--g")
    p_tv.add_argument(
        "--subgroups",
        default=argparse.SUPPRESS,
        help="file with one subgroup per line (whitespace-separated generators)",
    )
    p_tv.add_argument("--emit-certificate", action=_Carry, default=None)

    p_cz = _kind(
        sub, "cantor", "boundary-action experiments",
        "--u", "--pairs", "--p-letter", "--n-list", "--trials", "--depth-cap", "--horizon", "--radius",
    )
    p_cz.add_argument("--claim", action=_Carry, dest="params.mode", const="claim", choices=("1", "2", "3"))
    for mode in ("qn", "transience"):
        p_cz.add_argument(f"--{mode}", action=_Carry, dest="params.mode", const=mode, nargs=0)

    p_st = sub.add_parser("selftest", help="run the acceptance suite")
    _carry(p_st, "experiment", "--threads")
    _add_output(p_st)
    p_st.add_argument("--skip-determinism", action="store_true")
    p_st.add_argument("--criteria", action=_Carry, default=None, help="comma list, e.g. 1,4,5")
    return parser


def _read_subgroups(path) -> str:
    """The --subgroups file as a targets value: one subgroup per line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return " | ".join(line.strip() for line in fh if line.strip())
    except (OSError, UnicodeDecodeError):
        raise ConfigError("subgroups", f"cannot read {path}")


def config_from_args(args) -> ExperimentConfig:
    """The config a command line spells, built without running it.

    `run` reads its file. Every other subcommand puts each flag given under
    its section and key; the mode flag sets mode (--claim N: claimN),
    --subgroups reads its file into targets, and an absent --measure is
    uniform on the rank's letters."""
    if args.command == "run":
        return ExperimentConfig.from_file(args.config)
    sections = {"experiment": {"kind": args.command}, "params": {}}
    for dest, value in vars(args).items():
        section, _, key = dest.partition(".")
        if key:
            sections[section][key] = value
    params = sections["params"]
    if "subgroups" in args:
        if "targets" in params:
            raise ConfigError("params.targets", "given twice, by --targets and by --subgroups")
        params["targets"] = _read_subgroups(args.subgroups)
    if params.get("measure") is _UNIFORM:
        params["measure"] = default_measure(params)
    return ExperimentConfig.from_sections(sections["experiment"], params)


def _timing_header(elapsed, args) -> bytes:
    """The wall-time comment line that --timing prepends to the output."""
    return f"# wall_time_s: {elapsed:.3f}\n".encode() if args.timing else b""


def _write(path, data: bytes, field_name: str, what: str = "") -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(field_name, f"cannot write {path}: {exc.strerror}")
    print(f"wrote {what}{path}", file=sys.stderr)


def _write_output(rows, elapsed, args, config):
    data = emit(rows, args.format)
    if args.format == "csv":
        data = config_header(config) + data
    data = _timing_header(elapsed, args) + data
    if args.out or config.out:
        _write(args.out or config.out, data, "out" if args.out else "experiment.out")
    else:
        sys.stdout.write(data.decode())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


def _cmd_experiment(args) -> int:
    """`run` and the flag forms: one run of the config, its rows written."""
    config = config_from_args(args)
    started = time.perf_counter()
    rows, report = run_with_report(config)
    elapsed = time.perf_counter() - started
    if args.command == "cantor":
        sys.stderr.write(report)
    elif getattr(args, "emit_certificate", None):
        _write(args.emit_certificate, report.encode(), "emit_certificate", "certificate ")
    _write_output(rows, elapsed, args, config)
    if config.kind == "selftest" and any(r.metric == "passed" and r.value != 1.0 for r in rows):
        return 2
    return 0


def _criteria_ids(args):
    """The criterion ids to run: --criteria, else 1-13 or all 14."""
    if args.criteria is None:
        return range(1, 14) if args.skip_determinism else range(1, 15)
    try:
        return _int_list(args.criteria)
    except ValueError:
        raise ConfigError("criteria", f"not an integer list: {args.criteria!r}")


def _cmd_selftest(args) -> int:
    from .selftest import report_rows, selftest

    # The subcommand runs kind = selftest at the default seed, 0.
    config = config_from_args(args)
    started = time.perf_counter()
    results = selftest(_criteria_ids(args), config.threads)
    # The report is written before the PASS lines print, so a report that
    # cannot be written leaves stdout empty.
    if args.out:
        data = emit(report_rows(results, config.seed), args.format)
        _write(args.out, _timing_header(time.perf_counter() - started, args) + data, "out")
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return (_cmd_selftest if args.command == "selftest" else _cmd_experiment)(args)
    except (
        ConfigError,
        WordError,
        MeasureError,
        AutomatonError,
        MixingSetupError,
        TransversalityError,
        ConeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
