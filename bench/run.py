"""hypmix benchmark: one seeded workload, timed, checked.

    python3 bench/run.py --workload mix --seed 20260808 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ./src. After an
untimed warm-up pass, whose bytes are the reference, and one 2-worker pass
that must emit the same bytes, --trace 0 times 1-worker passes for --seconds
and prints the end-to-end metrics. --trace 1 instead rotates untraced,
traced and 2-worker passes and prints the per-layer metrics. Either way the
last line of standard output is one JSON object (correct, attempted, failed,
metrics); the line before it is the environment record. Failed checks are
described on standard error. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Seconds of timed passes between two repeats of the set-up.
SETUP_EVERY_S = 2.0
# Imports the package in a fresh interpreter and prints how long that took.
IMPORT_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hypmix.harness\n"
    "print(time.perf_counter() - started)\n"
)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)


def import_package():
    """Import hypmix from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import hypmix  # noqa: F401
        import hypmix.harness  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import hypmix from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(hypmix.__file__))) != SRC:
        raise SystemExit(f"bench: imported hypmix from {hypmix.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def stream_draws(seed: int, path: list[int]) -> dict:
    """Raw Philox output and numpy's bounded draws, each from a fresh
    substream: the draws the goldens rest on."""
    import numpy as np
    from hypmix import rng

    def fresh():
        return rng.substream(seed, *path)

    return {
        "random_raw": [int(x) for x in fresh().bit_generator.random_raw(4)],
        "integers_uint64_below_4": [int(x) for x in fresh().integers(0, 4, size=8, dtype=np.uint64)],
        "integers_below_3": [int(x) for x in fresh().integers(0, 3, size=8)],
        "permutation_18": [int(x) for x in fresh().permutation(18)],
    }


def stream_problems(pin: dict) -> list[str]:
    got = stream_draws(pin["seed"], pin["path"])
    return [f"stream changed: {key} {got[key]} != {pin.get(key)}" for key in got if got[key] != pin.get(key)]


def load_expected() -> dict:
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        return json.load(fh)


def git_describe() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", f"--git-dir={ROOT}/.git", f"--work-tree={ROOT}", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def timed(fn, *args):
    gc.collect()
    started = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - started, out


def set_up(setup, seed: int) -> tuple[float, dict]:
    """Time one set-up: a fresh interpreter's import plus building the inputs."""
    elapsed, inputs = timed(setup, seed)
    return import_seconds() + elapsed, inputs


def measure(args, workload, expected: dict, checks: Checks) -> tuple[dict, dict]:
    """Set-ups and timed passes; returns (metrics, environment additions)."""
    setup, run, check = workload
    setup_s, inputs = set_up(setup, args.seed)
    setups = [setup_s]
    # The first pass warms the process up and counts in no rate. Its bytes
    # are the reference that every later pass must emit.
    _, reference = timed(run, inputs, 1)
    for label, ok in check(inputs, reference, expected):
        checks.add(label, ok)
    plain: list[float] = []
    second: list[float] = []
    traced: list[dict] = []
    traced_s: list[float] = []

    def one_worker():
        elapsed, data = timed(run, inputs, 1)
        plain.append(elapsed)
        checks.add("rerun at 1 worker emits identical bytes", data == reference)

    def two_workers():
        elapsed, data = timed(run, inputs, 2)
        second.append(elapsed)
        checks.add("2-worker pass emits the 1-worker bytes", data == reference)

    def traced_one_worker():
        values, elapsed, data = traced_pass(run, inputs, checks)
        traced.append(values)
        traced_s.append(elapsed)
        checks.add("traced pass emits identical bytes", data == reference)

    if args.trace:
        kinds = [one_worker, traced_one_worker, two_workers]
    else:
        # One 2-worker pass checks determinism across worker counts. Two
        # threads that hand the interpreter lock back and forth on a shared
        # host time too unsteadily for a bounded rate, so the timed passes
        # run at 1 worker.
        two_workers()
        kinds = [one_worker]
    deadline = time.perf_counter() + args.seconds
    next_setup = time.perf_counter() + SETUP_EVERY_S
    round_ = 0
    while round_ == 0 or time.perf_counter() < deadline:
        # The order within a round rotates, so no kind always runs first.
        shift = round_ % len(kinds)
        for kind in kinds[shift:] + kinds[:shift]:
            kind()
        if not args.trace and time.perf_counter() >= next_setup:
            # Set-up repeats through the run, so its median spans the whole
            # run rather than the few seconds before it.
            setups.append(set_up(setup, args.seed)[0])
            next_setup = time.perf_counter() + SETUP_EVERY_S
        round_ += 1
    ops = inputs["ops"]
    env = {"ops_per_pass": ops, "pass_s_1w": plain, "pass_s_2w": second, "pass_s_traced": traced_s}
    if args.trace:
        from layers import METRICS

        overhead = sum(traced_s) / sum(plain) - 1.0
        env["trace_overhead_frac"] = overhead
        derived = {
            "trace.overhead_frac": overhead,
            # Mean 1-worker pass time over mean 2-worker pass time.
            "rng.map_trials.speedup_2w": (sum(plain) / len(plain)) / (sum(second) / len(second)),
        }
        metrics = {}
        for name, unit in METRICS:
            value = derived[name] if name in derived else statistics.median(v[name] for v in traced)
            metrics[name] = {"value": value, "unit": unit}
        return metrics, env
    env["setup_s_each"] = setups
    # Work over total pass time, not over the median pass: on a shared host
    # the CPU's speed can flip between two levels every few seconds, and a
    # median of pass times flips with it where a total moves smoothly.
    metrics = {
        "ops_per_s": {"value": ops * len(plain) / sum(plain), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    return metrics, env


def traced_pass(run, inputs, checks: Checks):
    import hypmix
    from layers import OBSERVERS, layer_values
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install(hypmix, OBSERVERS)
        elapsed, data = timed(run, inputs, 1)
    finally:
        missing = tracer.restore()
    checks.add("every traced attribute is restored", not missing)
    return layer_values(tracer), elapsed, data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import numpy as np

    import hypmix
    from tracer import self_check
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    checks = Checks()
    expected = load_expected()
    for label, problems in (
        ("tracer self time matches its definition on synthetic spans", self_check()),
        ("Philox substream draws match the pin", stream_problems(expected["stream"])),
    ):
        for problem in problems:
            print(problem, file=sys.stderr)
        checks.add(label, not problems)

    metrics, env = measure(args, WORKLOADS[args.workload], expected, checks)
    if not args.trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    env.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        numpy=np.__version__,
        hypmix=hypmix.__version__,
        nproc=os.cpu_count(),
        workers=[1, 2],
        git_describe=git_describe(),
        machine=platform.machine(),
    )
    print(json.dumps({"env": env}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
