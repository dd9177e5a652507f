"""The acceptance gate: every criterion at its stated tolerance.

Criteria 1-13 run once (session fixture); criterion 14 reruns all of them at
a different thread count and compares the emitted bytes, so the whole suite
executes each criterion exactly twice. One PASS/FAIL line prints per
criterion.

goldens.json pins the result bytes: the sha256 of each criterion's report
rows (the first pass's, at no extra run) and of the rows of every committed
config but selftest.ini, with the commit they were recorded at. A changed
output fails naming it and prints its new digest; a behaviour change that
means it re-records the pin by hand in goldens.json.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hypmix.harness import ExperimentConfig, emit, run
from hypmix.selftest import CRITERIA, criterion_14, report_rows

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "tests" / "goldens.json").read_text())
CONFIGS = sorted(p.name for p in (ROOT / "configs").glob("*.ini") if p.name != "selftest.ini")

_cache = {}


@pytest.fixture(scope="session")
def first_pass():
    if not _cache:
        for cid, fn in CRITERIA.items():
            result = fn(threads=1)
            print()
            print(result.line())
            _cache[cid] = result
    return _cache


def _check(result):
    assert result.passed, result.line()


def _check_pinned(output: str, pinned: str | None, data: bytes):
    got = hashlib.sha256(data).hexdigest()
    assert got == pinned, (
        f"{output}: result bytes changed from the pin recorded at {GOLDENS['recorded_at']}; new sha256 {got}"
    )


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(first_pass, cid):
    _check(first_pass[cid])


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion_rows_pinned(first_pass, cid):
    data = emit(report_rows([first_pass[cid]], seed=0))
    _check_pinned(f"criterion {cid}", GOLDENS["criteria"].get(str(cid)), data)


@pytest.mark.parametrize("name", CONFIGS)
def test_config_rows_pinned(name):
    data = emit(run(ExperimentConfig.from_file(str(ROOT / "configs" / name))))
    _check_pinned(f"configs/{name}", GOLDENS["configs"].get(name), data)


def test_criterion_14_determinism(first_pass):
    result = criterion_14(first_pass, threads=2)
    print()
    print(result.line())
    _check(result)
