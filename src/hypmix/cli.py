"""Command line driver.

    hypmix run --config exp.ini [--out results.csv] [--format csv|json]
    hypmix drift|mix|freeprod|transverse|cantor|selftest ... (flag forms)

Exit codes: 0 success, 1 configuration, validation or usage error (the
message names the field, `[usage]` for a malformed command line), 2
acceptance failure in selftest mode. Data outputs are byte-deterministic;
wall time goes to stderr (or a leading comment block with --timing).

A flag form is a config file written as flags. Each kind flag carries its
raw string into [params] under the key it spells (--n-list: n_list, --H:
h, --criteria: criteria), and --seed and --threads carry theirs into
[experiment]; a flag not given leaves no key. config_from_args hands both
sections to harness.ExperimentConfig.from_sections, the path a config file
takes, so flags and files share every default and every check, and a flag
the kind or cantor mode does not read is refused as an unknown key. The
one default the CLI adds is the walk kinds' measure: uniform on the rank's
letters.

Every subcommand, `selftest` included, makes one run through
harness.run_with_report, whose report text (a transverse certificate, a
cantor claim transcript, the PASS/FAIL lines of the criteria) comes from
the same construction as the rows. The report goes to the
--emit-certificate file when one is given, else to stderr after the rows;
--timing is refused with --format json, which a comment line would break.
The CLI times each run as a whole for --timing and the `elapsed:` line;
each criterion's own time is taken where selftest registers it.
"""

from __future__ import annotations

import argparse
import sys
import time

from .harness import ConfigError, ExperimentConfig, config_header, default_measure, emit, run_with_report

# The --measure default of the walk kinds, filled in once the rank is known.
_UNIFORM = object()

_HELP = {
    "--measure": "e.g. 'uniform: a A b B'; default uniform on the rank's letters",
    "--H": "generators, e.g. 'a'",
    "--n-list": "e.g. 10,20,40,80,160",
    "--targets": "inline: 'a | b' (| separates subgroups)",
    "--u": "cone label for claims 1 and 2",
    "--pairs": "claim 3 pairs 'zx:zy zz:Zx'",
    "--criteria": "comma list, e.g. 1,4,5; default all 14",
    "--threads": "worker processes that run the trials; default 1",
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a `[usage]` error, exit code 1
    like any other input error; exit code 2 stays with a failed acceptance
    run."""

    def error(self, message):
        raise ConfigError("usage", f"{self.prog}: {message}")


class _Carry(argparse.Action):
    """Carries a flag's raw string to its dest: `<section>.<key>` for a kind
    flag, the bare name for --out, --format, --emit-certificate and
    --config. A mode flag (--claim, --qn, --transience, --skip-determinism)
    carries its const instead, with --claim's number appended. A kind flag
    not given sets nothing. A dest given twice is refused, as a config file
    refuses a repeated key: the namespace's `given` set records each dest
    carried."""

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

    p_st = _kind(sub, "selftest", "run the acceptance suite", "--criteria")
    p_st.add_argument(
        "--skip-determinism", action=_Carry, dest="params.criteria", const="1,2,3,4,5,6,7,8,9,10,11,12,13", nargs=0,
        help="criteria 1-13, without the reruns of 14",
    )
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
    if args.timing:
        data = f"# wall_time_s: {elapsed:.3f}\n".encode() + data
    if args.out or config.out:
        _write(args.out or config.out, data, "out" if args.out else "experiment.out")
    else:
        sys.stdout.write(data.decode())


def _cmd_experiment(args) -> int:
    """Every subcommand: one run of its config. A report bound for the
    --emit-certificate file is written before the rows, one bound for stderr
    after them, so a file that cannot be written leaves stdout empty."""
    if args.timing and args.format == "json":
        raise ConfigError("timing", "a comment line would make the JSON invalid; use --format csv")
    config = config_from_args(args)
    started = time.perf_counter()
    rows, report = run_with_report(config)
    elapsed = time.perf_counter() - started
    certificate = getattr(args, "emit_certificate", None)
    if certificate:
        _write(certificate, report.encode(), "emit_certificate", "certificate ")
    _write_output(rows, elapsed, args, config)
    if not certificate:
        sys.stderr.write(report)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if config.kind == "selftest" and any(r.metric == "passed" and r.value != 1.0 for r in rows):
        return 2
    return 0


def main(argv=None) -> int:
    """Exit code 1 for any input error: harness re-raises every library
    refusal a run meets as a ConfigError naming the field."""
    try:
        return _cmd_experiment(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
