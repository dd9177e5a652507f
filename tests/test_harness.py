import subprocess
import sys
import tracemalloc

import pytest

from hypmix.harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit,
    parse_measure,
    parse_rows,
    run,
)
from hypmix.freegroup import FreeContext

from conftest import src_env

DRIFT_CONFIG = """
[experiment]
kind = drift
seed = 7

[params]
rank = 2
measure = uniform: a A b B
n = 200
trials = 50
"""

MIX_CONFIG = """
[experiment]
kind = mix
seed = 11
threads = {threads}

[params]
rank = 2
measure = uniform: a A b B
h = a
k = b
window_radius = 2
n_list = 10,20
trials = 40
"""

QN_CONFIG = """
[experiment]
kind = cantor
seed = 13

[params]
mode = qn
p_letter = 1/8
n_list = 10
trials = 50
"""


class TestConfig:
    def test_parse_drift(self):
        cfg = ExperimentConfig.from_text(DRIFT_CONFIG)
        assert cfg.kind == "drift"
        assert cfg.seed == 7
        assert cfg.params["n"] == "200"

    def test_roundtrip(self):
        cfg = ExperimentConfig.from_text(DRIFT_CONFIG)
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="experiment.kind"):
            ExperimentConfig.from_text("[experiment]\nkind = nope\n")

    def test_bad_seed_names_field(self):
        with pytest.raises(ConfigError, match="experiment.seed"):
            ExperimentConfig.from_text("[experiment]\nkind = drift\nseed = x\n")

    def test_malformed_word_names_field(self):
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = drift\nseed = 1\n"
            "[params]\nrank = 2\nmeasure = uniform: a q\nn = 10\ntrials = 5\n"
        )
        with pytest.raises(ConfigError, match="params.measure"):
            run(cfg)

    def test_measure_entries_form(self):
        ctx = FreeContext(2)
        mu = parse_measure({"measure": "entries: a:1/2 A:1/2"}, ctx)
        assert mu.mass((1,)) == mu.mass((-1,))

    def test_lazy_uniform(self):
        ctx = FreeContext(2)
        mu = parse_measure(
            {"measure": "uniform: a A b B", "identity_mass": "1/2"}, ctx
        )
        assert mu.mass(()) and mu.mass((1,))


class TestEmit:
    def test_header_only(self):
        data = emit([])
        assert data == b"experiment,params,metric,value,ci_low,ci_high,seed\n"

    def test_one_row(self):
        row = ResultRow("e", "p", "m", 0.5, 0.4, 0.6, 1)
        data = emit([row])
        assert len(data.splitlines()) == 2

    def test_roundtrip(self):
        rows = [
            ResultRow("e", "p=1;q=2", "m", 0.125, None, None, 9),
            ResultRow("e2", "", "m2", 1.0, 0.5, 1.0, 10),
        ]
        assert parse_rows(emit(rows)) == rows

    def test_json_shape(self):
        row = ResultRow("e", "p", "m", 0.5, None, None, 1)
        data = emit([row], "json")
        assert data.startswith(b"[{")


class TestRun:
    def test_drift_row(self):
        rows = run(ExperimentConfig.from_text(DRIFT_CONFIG))
        assert len(rows) == 1
        assert rows[0].metric == "drift"
        assert 0.3 < rows[0].value < 0.7

    def test_full_run_determinism(self):
        cfg = ExperimentConfig.from_text(DRIFT_CONFIG)
        assert emit(run(cfg)) == emit(run(cfg))

    def test_parallelism_invariance(self):
        one = emit(run(ExperimentConfig.from_text(MIX_CONFIG.format(threads=1))))
        four = emit(run(ExperimentConfig.from_text(MIX_CONFIG.format(threads=4))))
        assert one == four

    def test_qn_rows(self):
        rows = run(ExperimentConfig.from_text(QN_CONFIG))
        metrics = {r.metric for r in rows}
        assert metrics == {"q_hat", "depth_cap_exceeded"}

    def test_walk_kind(self):
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = walk\nseed = 42\n"
            "[params]\nrank = 2\nmeasure = uniform: a A b B\nn = 3\n"
        )
        rows = run(cfg)
        assert rows[0].metric == "endpoint_distance"
        assert rows[0].value == 3.0  # golden endpoint BBa has length 3

    def test_walk_kind_keeps_only_the_endpoint(self):
        # Keeping every position w_0 ... w_n would allocate about 120 MB here.
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = walk\nseed = 42\n"
            "[params]\nrank = 2\nmeasure = uniform: a A b B\nn = 8000\n"
        )
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("drift", "n = 0\ntrials = 5", "params.n"),
            ("drift", "n = -3\ntrials = 5", "params.n"),
            ("drift", "n = 10\ntrials = 0", "params.trials"),
            ("walk", "n = -3", "params.n"),
        ],
    )
    def test_bad_walk_input_names_field(self, kind, params, field):
        cfg = ExperimentConfig.from_text(
            f"[experiment]\nkind = {kind}\nseed = 1\n"
            f"[params]\nrank = 2\nmeasure = uniform: a A b B\n{params}\n"
        )
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.field_name == field

    def test_transverse_kind(self):
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = transverse\nseed = 1\n"
            "[params]\nrank = 2\ntargets = a | b\ng = ab\n"
        )
        rows = run(cfg)
        assert any(r.metric == "certified_transverse" and r.value == 1.0 for r in rows)

    def test_claim_kinds(self):
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = cantor\nseed = 1\n[params]\nmode = claim1\nu = zx\n"
        )
        rows = run(cfg)
        assert rows[0].metric == "verified" and rows[0].value == 1.0
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = cantor\nseed = 1\n"
            "[params]\nmode = claim3\npairs = zx:zy zz:Zx\n"
        )
        rows = run(cfg)
        assert rows[0].value == 1.0


class TestCli:
    def _hypmix(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "hypmix.cli", *argv],
            env=src_env(),
            capture_output=True,
            text=True,
        )

    def test_drift_subcommand(self):
        res = self._hypmix("drift", "--n", "100", "--trials", "20", "--seed", "3")
        assert res.returncode == 0
        # full config echoed as comments, then the data section
        assert res.stdout.startswith("# [experiment]")
        assert "\nexperiment,params,metric" in res.stdout

    def test_validation_error_exit_code(self):
        res = self._hypmix("drift", "--n", "100", "--trials", "20", "--measure", "uniform: a q")
        assert res.returncode == 1
        assert "params.measure" in res.stderr

    def test_run_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(DRIFT_CONFIG)
        out = tmp_path / "rows.csv"
        res = self._hypmix("run", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0
        data = out.read_bytes()
        assert data.startswith(b"# [experiment]")  # embedded config header
        assert b"\nexperiment,params,metric" in data
        from hypmix.harness import parse_rows

        assert parse_rows(data)[0].metric == "drift"

    def test_byte_identical_outputs(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MIX_CONFIG.format(threads=1))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self._hypmix("run", "--config", str(cfg), "--out", str(out1))
        self._hypmix("run", "--config", str(cfg), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_cantor_claim_cli(self):
        res = self._hypmix("cantor", "--claim", "1", "--u", "zx")
        assert res.returncode == 0
        assert "verified" in res.stdout

    def test_transverse_cli_certificate(self, tmp_path):
        cert = tmp_path / "cert.txt"
        res = self._hypmix(
            "transverse", "--targets", "a", "--g", "a", "--emit-certificate", str(cert)
        )
        assert res.returncode == 0
        assert "transverse" in cert.read_text()

    def test_selftest_subset(self):
        res = self._hypmix("selftest", "--criteria", "2")
        assert res.returncode == 0
        assert "criterion  2 [PASS]" in res.stdout

    def test_module_error_exit_code(self):
        # finite-index marker surfaces as a clean validation failure
        res = self._hypmix("mix", "--H", "a b", "--K", "b", "--n-list", "10", "--trials", "5")
        assert res.returncode == 1
        assert "infinite index" in res.stderr
