"""Write bench/expected.json from the code in ./src.

    python3 bench/record_expected.py

Records the Philox stream pin and the sha256 of every workload's emitted bytes at the default seed. Rerun it only
in a change that means to alter results, and say so.
"""

from __future__ import annotations

import json
import os

import run


def main():
    run.import_package()
    from workloads import DEFAULT_SEED, WORKLOADS, digest

    digests = {}
    for name, (setup, pass_, _check) in WORKLOADS.items():
        digests[name] = digest(pass_(setup(DEFAULT_SEED), 1))
    path = [0]
    expected = {
        "stream": {"seed": DEFAULT_SEED, "path": path, **run.stream_draws(DEFAULT_SEED, path)},
        "digests": digests,
    }
    with open(os.path.join(run.BENCH_DIR, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
