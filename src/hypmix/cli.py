"""Command line driver.

    hypmix run --config exp.ini [--out results.csv] [--format csv|json]
    hypmix drift|mix|freeprod|transverse|cantor ... (flag forms)
    hypmix selftest [--criteria 1,2,...] [--out report.csv]

Exit codes: 0 success, 1 configuration/validation error, 2 acceptance
failure in selftest mode. Data outputs are byte-deterministic; wall time
goes to stderr (or a leading comment block with --timing).
"""

from __future__ import annotations

import argparse
import sys
import time

from .freegroup import FreeContext, WordError
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    certificate_text,
    config_header,
    emit,
    parse_subgroup,
    run,
)
from .cantor import ConeError
from .mixing import MixingSetupError
from .stallings import AutomatonError
from .transverse import TransversalityError
from .walks import MeasureError


def _default_measure(rank: int) -> str:
    letters = []
    for i in range(rank):
        letters.append(chr(ord("a") + i))
        letters.append(chr(ord("A") + i))
    return "uniform: " + " ".join(letters)


def _timed_run(config):
    """Run the experiment; returns its rows and its wall time in seconds."""
    started = time.perf_counter()
    rows = run(config)
    return rows, time.perf_counter() - started


def _write_output(rows, elapsed, args, config):
    fmt = getattr(args, "format", "csv")
    data = emit(rows, fmt)
    if fmt == "csv":
        data = config_header(config) + data
    if getattr(args, "timing", False):
        header = f"# wall_time_s: {elapsed:.3f}\n".encode()
        data = header + data
    out = getattr(args, "out", None)
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(data.decode())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


def _config_from_args(args, kind, params):
    params = {k: v for k, v in params.items() if v is not None}
    return ExperimentConfig(
        kind=kind,
        seed=args.seed,
        threads=args.threads,
        params={k: str(v) for k, v in params.items()},
    )


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--timing", action="store_true", help="prepend a wall-time comment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypmix")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--timing", action="store_true")

    p_drift = sub.add_parser("drift", help="estimate the walk escape rate")
    _add_common(p_drift)
    p_drift.add_argument("--rank", type=int, default=2)
    p_drift.add_argument("--measure", default=None, help="e.g. 'uniform: a A b B'")
    p_drift.add_argument("--n", type=int, required=True)
    p_drift.add_argument("--trials", type=int, required=True)

    p_mix = sub.add_parser("mix", help="witness-based mixing curve")
    _add_common(p_mix)
    p_mix.add_argument("--rank", type=int, default=2)
    p_mix.add_argument("--H", dest="h", required=True, help="generators, e.g. 'a'")
    p_mix.add_argument("--K", dest="k", required=True)
    p_mix.add_argument("--window-radius", type=int, default=2)
    p_mix.add_argument("--measure", default=None)
    p_mix.add_argument("--n-list", required=True, help="e.g. 10,20,40,80,160")
    p_mix.add_argument("--trials", type=int, required=True)

    p_fp = sub.add_parser("freeprod", help="free-product absorption experiment")
    _add_common(p_fp)
    p_fp.add_argument("--rank", type=int, default=2)
    p_fp.add_argument("--H", dest="h", required=True)
    p_fp.add_argument("--measure", default=None)
    p_fp.add_argument("--n", type=int, required=True)
    p_fp.add_argument("--trials", type=int, required=True)

    p_tv = sub.add_parser("transverse", help="construct a certified transverse element")
    _add_common(p_tv)
    p_tv.add_argument("--rank", type=int, default=2)
    p_tv.add_argument(
        "--subgroups",
        default=None,
        help="file with one subgroup per line (whitespace-separated generators)",
    )
    p_tv.add_argument("--targets", default=None, help="inline: 'a | b' (| separates subgroups)")
    p_tv.add_argument("--g", required=True)
    p_tv.add_argument("--emit-certificate", default=None)

    p_cz = sub.add_parser("cantor", help="boundary-action experiments")
    _add_common(p_cz)
    p_cz.add_argument("--claim", type=int, choices=(1, 2, 3), default=None)
    p_cz.add_argument("--u", default=None, help="cone label for claims 1 and 2")
    p_cz.add_argument("--pairs", default=None, help="claim 3 pairs 'zx:zy zz:Zx'")
    p_cz.add_argument("--qn", action="store_true")
    p_cz.add_argument("--p-letter", default="1/8")
    p_cz.add_argument("--n-list", default=None)
    p_cz.add_argument("--trials", type=int, default=None)
    p_cz.add_argument("--depth-cap", type=int, default=None)
    p_cz.add_argument("--transience", action="store_true")
    p_cz.add_argument("--horizon", type=int, default=10_000)
    p_cz.add_argument("--radius", type=int, default=8)

    p_st = sub.add_parser("selftest", help="run the acceptance suite")
    p_st.add_argument("--threads", type=int, default=1)
    p_st.add_argument("--out", default=None)
    p_st.add_argument("--format", choices=("csv", "json"), default="csv")
    p_st.add_argument("--timing", action="store_true")
    p_st.add_argument("--skip-determinism", action="store_true")
    p_st.add_argument("--criteria", default=None, help="comma list, e.g. 1,4,5")
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    rows, elapsed = _timed_run(config)
    if config.out and not args.out:
        args.out = config.out
    _write_output(rows, elapsed, args, config)
    if config.kind == "selftest" and any(
        r.metric == "passed" and r.value != 1.0 for r in rows
    ):
        return 2
    return 0


def _cmd_simple(args, kind, param_names) -> int:
    params = {
        name.replace("-", "_"): getattr(args, name.replace("-", "_"))
        for name in param_names
    }
    if "measure" in params and params["measure"] is None:
        params["measure"] = _default_measure(params.get("rank", 2))
    config = _config_from_args(args, kind, params)
    rows, elapsed = _timed_run(config)
    _write_output(rows, elapsed, args, config)
    return 0


def _cmd_transverse(args) -> int:
    ctx = FreeContext(args.rank)
    if args.subgroups:
        with open(args.subgroups) as fh:
            parts = [line.strip() for line in fh if line.strip()]
        targets = " | ".join(parts)
    elif args.targets:
        targets = args.targets
    else:
        raise ConfigError("targets", "pass --subgroups or --targets")
    config = _config_from_args(args, "transverse", {"rank": args.rank, "targets": targets, "g": args.g})
    rows, elapsed = _timed_run(config)
    if args.emit_certificate:
        from . import transverse as tv

        target_autos = [
            parse_subgroup(ctx, part.strip(), "targets") for part in targets.split("|")
        ]
        construction = tv.construct_transverse(target_autos, ctx.parse(args.g))
        with open(args.emit_certificate, "w") as fh:
            fh.write(certificate_text(ctx, construction))
        print(f"wrote certificate {args.emit_certificate}", file=sys.stderr)
    _write_output(rows, elapsed, args, config)
    return 0


def _claim_transcript(args) -> str:
    from . import cantor

    if args.claim in (1, 2):
        u = cantor.parse_label(args.u)
        build = cantor.standardizing_element if args.claim == 1 else cantor.cone_transposition
        element = build(u)
        n = len(u)
        if args.claim == 1:
            checks = [
                f"image of Cone({cantor.format_label(u)}) is Cone(zz)",
                f"image of Cone({'Z' * n}) is Cone(ZZ)",
                f"positional action verified pointwise at depth {n + 2}",
            ]
        else:
            checks = [
                f"swaps Cone({cantor.format_label(u)}) with Cone({'Z' * n})",
                "fixes every other cone of that depth pointwise",
            ]
        lines = [f"group word: {cantor.format_element(element)}"] + checks
        return "\n".join(lines) + "\n"
    pairs = []
    for tok in args.pairs.split():
        s, _, d = tok.partition(":")
        pairs.append((cantor.parse_label(s), cantor.parse_label(d)))
    element = cantor.cone_routing_element(pairs, len(pairs[0][0]))
    lines = [f"group word: {cantor.format_element(element)}"]
    for s, d in pairs:
        lines.append(
            f"maps Cone({cantor.format_label(s)}) onto Cone({cantor.format_label(d)})"
        )
    return "\n".join(lines) + "\n"


def _cmd_cantor(args) -> int:
    if args.claim in (1, 2):
        params = {"mode": f"claim{args.claim}", "u": args.u}
    elif args.claim == 3:
        params = {"mode": "claim3", "pairs": args.pairs}
    elif args.qn:
        params = {
            "mode": "qn",
            "p_letter": args.p_letter,
            "n_list": args.n_list,
            "trials": args.trials,
            "depth_cap": args.depth_cap,
        }
    elif args.transience:
        params = {
            "mode": "transience",
            "trials": args.trials or 100_000,
            "horizon": args.horizon,
            "radius": args.radius,
        }
    else:
        raise ConfigError("mode", "pass --claim, --qn or --transience")
    config = _config_from_args(args, "cantor", params)
    rows, elapsed = _timed_run(config)
    if args.claim:
        sys.stderr.write(_claim_transcript(args))
    _write_output(rows, elapsed, args, config)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import CRITERIA, criterion_14, run_all

    if args.criteria:
        wanted = sorted({int(x) for x in args.criteria.replace(",", " ").split()})
        results = []
        first = {}
        for cid in wanted:
            if cid == 14:
                continue
            if cid not in CRITERIA:
                raise ConfigError("criteria", f"unknown criterion {cid}")
            first[cid] = CRITERIA[cid](threads=args.threads)
            results.append(first[cid])
        if 14 in wanted:
            if not first:
                first = {cid: fn(threads=args.threads) for cid, fn in CRITERIA.items()}
                results = [first[cid] for cid in sorted(first)]
            results.append(criterion_14(first))
    else:
        results = run_all(threads=args.threads, skip_determinism=args.skip_determinism)
    rows = []
    for result in results:
        print(result.line())
        rows.append(
            ResultRow(
                f"criterion_{result.cid}",
                result.name.replace(",", ";"),
                "passed",
                1.0 if result.passed else 0.0,
                None,
                None,
                0,
            )
        )
        rows.extend(result.rows)
    if args.out:
        data = emit(rows, args.format)
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "drift":
            return _cmd_simple(args, "drift", ["rank", "measure", "n", "trials"])
        if args.command == "mix":
            return _cmd_simple(
                args, "mix", ["rank", "h", "k", "window-radius", "measure", "n-list", "trials"]
            )
        if args.command == "freeprod":
            return _cmd_simple(args, "freeprod", ["rank", "h", "measure", "n", "trials"])
        if args.command == "transverse":
            return _cmd_transverse(args)
        if args.command == "cantor":
            return _cmd_cantor(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        parser.error(f"unknown command {args.command}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
