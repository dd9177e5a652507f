import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmix import cantor, cli, harness, mixing, transverse
from hypmix.harness import (
    ConfigError,
    ExperimentConfig,
    Params,
    ResultRow,
    emit,
    parse_measure,
    parse_rows,
    run,
    run_with_report,
)
from hypmix.freegroup import FreeContext
from hypmix.walks import StepMeasure
from hypmix.selftest import CRITERIA, CriterionResult, report_rows, selftest

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

# Pinned renderings: the cantor claim transcripts (stderr, before the
# elapsed line) and the transverse certificate.
CLAIM_3_PERMS = [
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,zz,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,zz,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,Zx,zz,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,Zx,zz,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,zz,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,zz,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zX,zy,zY,zz,zx,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zz,zx,zX,zy,zY,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zY,zz,zy,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zz,zy,zY,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zX,zy,zY,zz,zx,Zx,ZX,Zy,ZY,ZZ]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]",
    "perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zz,zx,zX,zy,zY,Zx,ZX,Zy,ZY,ZZ]",
]
PINNED_TRANSCRIPTS = {
    ("--claim", "1", "--u", "zx"): (
        "group word: perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zz,zx,zX,zy,zY,Zx,ZX,Zy,ZY,ZZ]\n"
        "image of Cone(zx) is Cone(zz)\n"
        "image of Cone(ZZ) is Cone(ZZ)\n"
        "positional action verified pointwise at depth 4\n"
    ),
    ("--claim", "2", "--u", "zx"): (
        "group word: perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zX,zy,zY,zz,zx,Zx,ZX,Zy,ZY,ZZ]"
        " perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zx,zX,zy,zY,ZZ,Zx,ZX,Zy,ZY,zz]"
        " perm[xz,xZ,Xz,XZ,yz,yZ,Yz,YZ,zz,zx,zX,zy,zY,Zx,ZX,Zy,ZY,ZZ]\n"
        "swaps Cone(zx) with Cone(ZZ)\n"
        "fixes every other cone of that depth pointwise\n"
    ),
    ("--claim", "3", "--pairs", "zx:zy zz:Zx"): (
        "group word: " + " ".join(CLAIM_3_PERMS) + "\n"
        "maps Cone(zx) onto Cone(zy)\n"
        "maps Cone(zz) onto Cone(Zx)\n"
    ),
}
PINNED_CERTIFICATE_A_B = (
    "element aba\n"
    "avoided a\n"
    "exponent 1\n"
    "target 0: transverse (no power up to pigeonhole bound 1 conjugates into the subgroup)\n"
    "target 1: transverse (no power up to pigeonhole bound 1 conjugates into the subgroup)\n"
)


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
        # kind = walk is deleted: only tests ran it. It is refused like any
        # other unknown kind.
        for kind in ("nope", "walk"):
            with pytest.raises(ConfigError, match=r"\[experiment.kind\] unknown kind"):
                ExperimentConfig.from_text(f"[experiment]\nkind = {kind}\n")

    def test_bad_seed_names_field(self):
        with pytest.raises(ConfigError, match="experiment.seed"):
            ExperimentConfig.from_text("[experiment]\nkind = drift\nseed = x\n")

    @pytest.mark.parametrize(
        "text, field",
        [
            (MIX_CONFIG.format(threads=1).replace("window_radius", "window_radus"), "params.window_radus"),
            (DRIFT_CONFIG.replace("seed = 7", "sed = 5"), "experiment.sed"),
            (DRIFT_CONFIG + "[parms]\nn = 5\n", "parms"),
            ("[experiment]\nkind = selftest\n[params]\ntrials = 5\n", "params.trials"),
            (QN_CONFIG + "horizon = 50\n", "params.horizon"),
            (DRIFT_CONFIG.replace("uniform: a A b B", "entries: a:1/2 A:1/2") + "identity_mass = 1/2\n", "params.identity_mass"),
        ],
        ids=["params-typo", "experiment-typo", "unknown-section", "selftest-params", "other-mode-key", "mass-beside-entries"],
    )
    def test_unknown_key_names_it(self, text, field):
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig.from_text(text))
        assert info.value.field_name == field
        assert str(info.value).startswith(f"[{field}] unknown ")

    def test_malformed_word_names_field(self):
        cfg = ExperimentConfig.from_text(
            "[experiment]\nkind = drift\nseed = 1\n"
            "[params]\nrank = 2\nmeasure = uniform: a q\nn = 10\ntrials = 5\n"
        )
        with pytest.raises(ConfigError, match="params.measure"):
            run(cfg)

    def test_measure_entries_form(self):
        ctx = FreeContext(2)
        mu = parse_measure(Params({"measure": "entries: a:1/2 A:1/2"}), ctx)
        assert mu.entries[(1,)] == mu.entries[(-1,)]

    def test_lazy_uniform(self):
        ctx = FreeContext(2)
        mu = parse_measure(
            Params({"measure": "uniform: a A b B", "identity_mass": "1/2"}), ctx
        )
        assert mu.entries[()] and mu.entries[(1,)]


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

    @given(
        st.lists(
            st.builds(
                ResultRow,
                st.text(alphabet='ab=;,"# 1\n\x1c', max_size=10),
                st.text(alphabet='ab=;,"# 1\n\x1c', max_size=20),
                st.text(alphabet='ab=;,"# 1\n\x1c', max_size=10),
                st.floats(allow_nan=False),
                st.none() | st.floats(allow_nan=False),
                st.none() | st.floats(allow_nan=False),
                st.integers(0, 2**32),
            ),
            max_size=4,
        )
    )
    def test_roundtrip_quoted_fields(self, rows):
        assert parse_rows(emit(rows)) == rows

    def test_plain_fields_are_not_quoted(self):
        row = ResultRow("criterion_8", "H=a;K=b;n=10", "p_hat", 0.844, 0.81, 0.87, 20260808)
        assert emit([row]).splitlines()[1] == b"criterion_8,H=a;K=b;n=10,p_hat,0.844,0.81,0.87,20260808"

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

    def test_mix_schedule_validates_the_measure_once(self, monkeypatch):
        # Five walk lengths, one set-up: the measure's support is folded
        # once for the whole schedule, not once per n.
        calls = []
        require = StepMeasure.require_permissible
        monkeypatch.setattr(StepMeasure, "require_permissible", lambda self: calls.append(1) or require(self))
        text = MIX_CONFIG.format(threads=1).replace("n_list = 10,20", "n_list = 10,20,40,80,160")
        rows = run(ExperimentConfig.from_text(text))
        assert [r.params.rsplit(";n=", 1)[1] for r in rows] == ["10", "20", "40", "80", "160"]
        assert calls == [1]

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("drift", "n = 0\ntrials = 5", "params.n"),
            ("drift", "n = -3\ntrials = 5", "params.n"),
            # A bad n is named before the missing trials key is reached.
            ("drift", "n = -3", "params.n"),
            ("drift", "n = 10\ntrials = 0", "params.trials"),
            ("mix", "h = a\nk = b\ntrials = 5\nn_list = ,", "params.n_list"),
            ("mix", "h = a\nk = b\ntrials = 5\nn_list = -4", "params.n_list"),
            ("mix", "h = a\nk = b\ntrials = 5\nn_list = 10\nwindow_radius = -1", "params.window_radius"),
            ("mix", "h = a\nk = b\ntrials = 0\nn_list = 10", "params.trials"),
            ("freeprod", "h = a\nn = -1\ntrials = 5", "params.n"),
            ("freeprod", "h = a\nn = 10\ntrials = 0", "params.trials"),
            ("mix", "h = a b\nk = b\ntrials = 5\nn_list = 10", "params.h"),
            ("mix", "h = a\nk = ab b\ntrials = 5\nn_list = 10", "params.k"),
            ("freeprod", "h = a b\nn = 10\ntrials = 5", "params.h"),
            ("mix", "measure = uniform: a A\nh = a\nk = b\ntrials = 5\nn_list = 10", "params.measure"),
            ("freeprod", "measure = uniform: ab BA\nh = a\nn = 10\ntrials = 5", "params.measure"),
            ("drift", "measure = uniform: a A\nn = 10\ntrials = 5", "params.measure"),
            ("drift", "rank = 1\nn = 10\ntrials = 5", "params.rank"),
            ("mix", "rank = 27\nh = a\nk = b\ntrials = 5\nn_list = 10", "params.rank"),
            ("drift", "identity_mass = 1\nn = 3\ntrials = 5", "params.identity_mass"),
            ("drift", "identity_mass = -1/2\nn = 10\ntrials = 5", "params.identity_mass"),
        ],
    )
    def test_bad_walk_input_names_field(self, kind, params, field):
        # Each case overrides the default rank and measure; a repeated key
        # would itself be a config error.
        lines = {"rank": "2", "measure": "uniform: a A b B"}
        lines.update(line.split(" = ", 1) for line in params.splitlines())
        cfg = ExperimentConfig.from_text(
            f"[experiment]\nkind = {kind}\nseed = 1\n[params]\n"
            + "".join(f"{key} = {value}\n" for key, value in lines.items())
        )
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.field_name == field

    @pytest.mark.parametrize(
        "params, field",
        [
            ("trials = 0", "params.trials"),
            ("trials = -5", "params.trials"),
            ("trials =\nhorizon = 5", "params.trials"),
            ("trials = 5\nhorizon =", "params.horizon"),
            ("trials = 5\nhorizon = 0", "params.horizon"),
            ("trials = 5\nhorizon = -3", "params.horizon"),
            ("trials = 5\nradius = 0", "params.radius"),
            ("trials = 5\nradius = -1", "params.radius"),
        ],
    )
    def test_bad_transience_input_names_field(self, params, field):
        cfg = ExperimentConfig.from_text(
            f"[experiment]\nkind = cantor\nseed = 1\n[params]\nmode = transience\n{params}\n"
        )
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.field_name == field

    @pytest.mark.parametrize(
        "params, field",
        [
            ("trials = 0\nn_list = 10", "params.trials"),
            ("trials = 5\nn_list = 10,-1", "params.n_list"),
            ("trials = 5\nn_list = ,", "params.n_list"),
            ("trials = 5\nn_list = 3\ndepth_cap = 0", "params.depth_cap"),
            ("trials = 5\nn_list = 3\ndepth_cap = -2", "params.depth_cap"),
            ("trials = 5\nn_list = 3\np_letter = 0", "params.p_letter"),
            ("trials = 5\nn_list = 3\np_letter = 1/3", "params.p_letter"),
        ],
    )
    def test_bad_qn_input_names_field(self, params, field):
        cfg = ExperimentConfig.from_text(
            f"[experiment]\nkind = cantor\nseed = 1\n[params]\nmode = qn\n{params}\n"
        )
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.field_name == field

    @pytest.mark.parametrize(
        "params, field",
        [
            ("mode = claim1\nu = q", "params.u"),
            ("mode = claim2\nu = zZ", "params.u"),
            ("mode = claim3\npairs = zx:q", "params.pairs"),
        ],
    )
    def test_bad_claim_input_names_field(self, params, field):
        cfg = ExperimentConfig.from_text(f"[experiment]\nkind = cantor\nseed = 1\n[params]\n{params}\n")
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.field_name == field

    @pytest.mark.parametrize(
        "kind, params, estimator",
        [
            ("drift", "measure = uniform: a A b B\nn = 10\ntrials = 3", (harness, "drift_estimate")),
            ("mix", "measure = uniform: a A b B\nh = a\nk = b\nn_list = 10\ntrials = 3", (mixing, "joint_mixing")),
            ("freeprod", "measure = uniform: a A b B\nh = a\nn = 10\ntrials = 3", (mixing, "free_product_experiment")),
            ("transverse", "targets = a | b\ng = ab", (transverse, "construct_transverse")),
            ("cantor", "mode = qn\nn_list = 10\ntrials = 3", (cantor, "estimate_qn")),
            ("cantor", "mode = transience\ntrials = 3", (cantor, "simulate_hit_probability")),
            ("cantor", "mode = claim1\nu = zx", (cantor, "standardizing_element")),
        ],
        ids=["drift", "mix", "freeprod", "transverse", "qn", "transience", "claim1"],
    )
    def test_unknown_key_refused_before_any_trial(self, monkeypatch, kind, params, estimator):
        def never(*args, **kwargs):
            raise AssertionError("a trial ran before the unknown key was refused")

        monkeypatch.setattr(*estimator, never)
        cfg = ExperimentConfig.from_text(f"[experiment]\nkind = {kind}\n[params]\n{params}\ntrails = 5\n")
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.field_name == "params.trails"

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


# Small values for each params key: (plain, odd). Plain values mostly run;
# odd ones are zero, negative, empty, missing (None) or junk. The counts stay
# small (trials <= 3, n <= 20) so the property runs in seconds. An empty value
# is refused with its field named, so only a missing key falls back to a
# default, and transience's trials (default 100,000) and horizon (default
# 10,000) are never missing.
_FUZZ_VALUES = {
    "rank": ([None, "2", "3"], ["1", "0", "-2", "x"]),
    "measure": (
        ["uniform: a A b B", "uniform: a A b B c C", "uniform: a A", "entries: ab:1/2 BA:1/2"],
        [None, "", "uniform: a q", "uniform:", "entries: a:2", "entries: a:x", "junk"],
    ),
    "identity_mass": ([None, "0", "1/2"], ["1", "-1/2", "x"]),
    "n": (["0", "3", "20"], [None, "", "-1", "x"]),
    "trials": (["1", "3"], ["", "0", "-2", "x"]),
    "n_list": (["0", "3,20", "10"], [None, "", ",", "-4", "3 x"]),
    "h": (["a", "ab", "abA"], [None, "", "a b", "q"]),
    "k": (["b", "ba", "a a"], [None, "", "q"]),
    "window_radius": ([None, "0", "1", "3"], ["-1", "x"]),
    "targets": (["a", "a | b", "a |"], [None, "", "|", "a b", "q"]),
    "g": (["ab", "a"], [None, "", "a b", "q"]),
    "p_letter": ([None, "1/8", "1/16"], ["0", "1/3", "-1", "x"]),
    "depth_cap": ([None, "2", "6"], ["0", "1", "-2", "x"]),
    "horizon": (["1", "20"], ["", "0", "-3", "x"]),
    "radius": ([None, "1", "3"], ["0", "-1", "x"]),
    "u": (["zx", "z", "Z"], [None, "", "zZ", "q", "xyz"]),
    "pairs": (["zx:zy zz:Zx", "zx:zy"], [None, "", "zx:q", ":", "zx:", "zx:zyz", "zx"]),
}
_FUZZ_KINDS = {
    "drift": ["rank", "measure", "identity_mass", "n", "trials"],
    "mix": ["rank", "measure", "h", "k", "window_radius", "n_list", "trials"],
    "freeprod": ["rank", "measure", "h", "n", "trials"],
    "transverse": ["rank", "targets", "g"],
    "cantor qn": ["p_letter", "n_list", "trials", "depth_cap"],
    "cantor transience": ["trials", "horizon", "radius"],
    "cantor claim1": ["u"],
    "cantor claim2": ["u"],
    "cantor claim3": ["pairs"],
    "cantor junk": [],
}
# Strays the fuzz adds: a misspelling of a key the runner reads, or a key no
# [experiment] section takes.
_EXPERIMENT_STRAYS = ["sed", "seeds", "thread", "output", "kinds", "n", "trials"]


def _misspellings(key: str) -> set[str]:
    """The key with one letter dropped, an s appended or its _ dropped."""
    return {key[:i] + key[i + 1:] for i in range(len(key))} | {key + "s", key.replace("_", "")}


@st.composite
def fuzz_configs(draw):
    """A config of any kind but selftest, or any cantor mode, with at most
    two odd params; the params keys its runner reads; and at most one stray
    (section, key) to add to it."""
    name = draw(st.sampled_from(sorted(_FUZZ_KINDS)))
    kind, _, mode = name.partition(" ")
    keys = _FUZZ_KINDS[name]
    odd = draw(st.sets(st.sampled_from(keys), max_size=2)) if keys else set()
    params = {"mode": mode} if mode else {}
    for key in keys:
        value = draw(st.sampled_from(_FUZZ_VALUES[key][key in odd]))
        if value is not None:
            params[key] = value
    config = ExperimentConfig(kind=kind, seed=draw(st.integers(0, 9)), threads=draw(st.integers(1, 2)), params=params)
    reads = set(keys) | {"mode"} if mode else set(keys)
    typos = sorted({t for key in reads for t in _misspellings(key)} - reads - {""})
    strays = [("params", t) for t in typos] + [("experiment", k) for k in _EXPERIMENT_STRAYS]
    return config, set(params) | set(keys), draw(st.none() | st.sampled_from(strays))


class TestConfigFuzz:
    # kind = selftest is left out: it takes no params and runs the suite.

    @settings(max_examples=300)
    @given(fuzz_configs())
    def test_rows_or_named_field(self, case):
        config, keys, stray = case
        refused = None
        try:
            rows = run(config)
        except ConfigError as exc:
            refused = exc.field_name
            assert refused.startswith("params.")
            assert refused[len("params."):] in keys
        else:
            assert rows and all(isinstance(r, ResultRow) for r in rows)
        if stray is None:
            return
        # With the stray added the config is refused, naming the stray; a
        # params fault the runner meets before its reads are done may still
        # be named first.
        section, key = stray
        sections = {
            "experiment": {"kind": config.kind, "seed": str(config.seed), "threads": str(config.threads)},
            "params": dict(config.params),
        }
        sections[section][key] = "5"
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig.from_sections(sections["experiment"], sections["params"]))
        named = f"{section}.{key}"
        assert info.value.field_name == named or (section == "params" and info.value.field_name == refused)


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

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["mix", "--H", "a", "--K", "b", "--n-list", "10", "--trials", "3", "--window-radius", "30"], "params.window_radius"),
            (["mix", "--rank", "3", "--H", "a", "--K", "b", "--n-list", "10", "--trials", "3", "--window-radius", "7"], "params.window_radius"),
            (["cantor", "--transience", "--trials", "1", "--horizon", "1", "--radius", "30"], "params.radius"),
            (["cantor", "--transience", "--trials", "1", "--horizon", "1", "--radius", str(10**30)], "params.radius"),
        ],
    )
    def test_radius_over_the_ball_budget_exits_1(self, monkeypatch, capsys, argv, field):
        # In-process, with FreeContext.ball refusing to run: a radius that
        # got past the guard fails here at once instead of allocating.
        def no_ball(ctx, radius):
            raise AssertionError(f"built the radius-{radius} ball of {ctx}")

        monkeypatch.setattr(FreeContext, "ball", no_ball)
        assert cli.main(argv) == 1
        assert f"[{field}]" in capsys.readouterr().err

    def test_radius_budget_boundary(self):
        # F2's ball(9) holds 39,365 words and ball(10) 118,097; F3's ball(6)
        # holds 23,437 and ball(7) 117,187.
        read = lambda rank, radius: harness._read_radius(Params({"r": str(radius)}), "r", FreeContext(rank), 2, 0)
        assert read(2, 9) == 9 and read(3, 6) == 6
        for rank, radius in ((2, 10), (3, 7)):
            with pytest.raises(ConfigError, match=r"^\[params\.r\]"):
                read(rank, radius)

    def test_validation_error_exit_code(self):
        res = self._hypmix("drift", "--n", "100", "--trials", "20", "--measure", "uniform: a q")
        assert res.returncode == 1
        assert "params.measure" in res.stderr

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[experiment]\nkind = mix\n[params]\nh = a\nh = b\n", "params.h"),
            ("[experiment]\nkind = mix\n[params]\nh = a\n[params]\nk = b\n", "config"),
            ("kind = mix\n", "config"),
            ("[experiment]\nkind = mix\nno value on this line\n", "config"),
            ("[experiment]\nkind = mix\n[params]\nmeasure = uniform: a%% %(b)\n", "params.measure"),
            ("[experiment]\nkind = mix\nthreads = 0\n[params]\nh = a\n", "experiment.threads"),
            (MIX_CONFIG.format(threads=1).replace("window_radius", "window_radus"), "params.window_radus"),
            (DRIFT_CONFIG.replace("seed = 7", "sed = 5"), "experiment.sed"),
            (DRIFT_CONFIG.replace("seed = 7", "seed = 7\nout = /no-such-dir/x.csv"), "experiment.out"),
        ],
        ids=[
            "duplicate-option", "duplicate-section", "no-section-header", "parse-error", "interpolation", "threads-0",
            "params-typo", "experiment-typo", "unwritable-out",
        ],
    )
    def test_malformed_ini_exit_code(self, tmp_path, text, field):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        res = self._hypmix("run", "--config", str(cfg))
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: [{field}] ")
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("drift", "--n", "10", "--trials", "3", "--threads", "0"),
            ("drift", "--n", "10", "--trials", "3", "--threads", "-5"),
            ("mix", "--H", "a", "--K", "b", "--n-list", "10", "--trials", "3", "--threads", "0"),
            ("freeprod", "--H", "a", "--n", "10", "--trials", "3", "--threads", "0"),
            ("transverse", "--targets", "a", "--g", "ab", "--threads", "0"),
            ("cantor", "--qn", "--n-list", "3", "--trials", "3", "--threads", "0"),
            ("selftest", "--criteria", "2", "--threads", "0"),
            ("selftest", "--threads", "-1"),
        ],
        ids=["drift-0", "drift-neg", "mix", "freeprod", "transverse", "cantor", "selftest-0", "selftest-neg"],
    )
    def test_threads_below_one_exit_code(self, argv):
        res = self._hypmix(*argv)
        assert res.returncode == 1
        assert res.stderr.startswith("error: [experiment.threads] ")
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("cantor", "--transience", "--trials", "1000", "--horizon", "50", "--n-list", "10", "--depth-cap", "3"), "params.n_list"),
            (("cantor", "--qn", "--transience", "--trials", "1000", "--n-list", "10"), "params.mode"),
            (("cantor", "--claim", "1", "--u", "zx", "--qn"), "params.mode"),
            (("transverse", "--targets", "a", "--subgroups", "SUBGROUPS", "--g", "ab"), "params.targets"),
            (("drift", "--n", "abc", "--trials", "3"), "params.n"),
            (("drift", "--trials", "3"), "params.n"),
            (("drift", "--n", "10", "--n", "20", "--trials", "3"), "params.n"),
            (("drift", "--n", "10", "--trials", "3", "--seed", "x"), "experiment.seed"),
            (("drift", "--rank", "x", "--n", "10", "--trials", "3"), "params.rank"),
            (("selftest", "--threads", "x"), "experiment.threads"),
            (("transverse", "--subgroups", "MISSING", "--g", "ab"), "subgroups"),
            (("drift", "--n", "10", "--trials", "3", "--out", "UNWRITABLE"), "out"),
            (("selftest", "--criteria", "2", "--out", "UNWRITABLE"), "out"),
            (("transverse", "--targets", "a", "--g", "ab", "--emit-certificate", "UNWRITABLE"), "emit_certificate"),
            (("drift", "--n", "100", "--trials", "5", "--format", "json", "--timing"), "timing"),
            (("drift", "--format", "xml", "--n", "10", "--trials", "3"), "usage"),
            (("cantor", "--claim", "4", "--u", "zx"), "usage"),
            (("drift", "--n", "10", "--trials", "3", "--bogus", "1"), "usage"),
            (("run",), "usage"),
            ((), "usage"),
            # Refused by the library, named by the harness.
            (("drift", "--measure", "uniform: a A", "--n", "10", "--trials", "3"), "params.measure"),
            (("mix", "--H", "a b", "--K", "b", "--n-list", "10", "--trials", "3"), "params.h"),
            (("freeprod", "--H", "a b", "--n", "10", "--trials", "3"), "params.h"),
            (("transverse", "--targets", "a b", "--g", "ab"), "params.targets"),
            (("cantor", "--qn", "--p-letter", "1/2", "--n-list", "10", "--trials", "3"), "params.p_letter"),
            (("cantor", "--claim", "1", "--u", "xx"), "params.u"),
        ],
        ids=[
            "transience-ignores-qn-flags", "two-modes", "claim-and-qn", "targets-and-subgroups",
            "n-not-int", "n-missing", "n-twice", "seed-not-int", "rank-not-int", "selftest-threads",
            "subgroups-unreadable", "drift-out", "selftest-out", "certificate-out", "json-timing",
            "format-xml", "claim-4", "unknown-flag", "run-without-config", "no-command",
            "measure-not-generating", "mix-finite-index", "freeprod-finite-index", "transverse-finite-index",
            "p-letter-too-big", "cone-without-z",
        ],
    )
    def test_bad_command_line_exit_code(self, tmp_path, argv, field):
        # Each fails as a bad config file would: the field named, exit 1, no
        # output and no traceback; a malformed command line is [usage].
        subgroups = tmp_path / "subgroups.txt"
        subgroups.write_text("b\n")
        paths = {
            "SUBGROUPS": subgroups,
            "MISSING": tmp_path / "missing.txt",
            "UNWRITABLE": tmp_path / "no-such-dir" / "x.csv",
        }
        res = self._hypmix(*(str(paths.get(arg, arg)) for arg in argv))
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: [{field}] ")
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("selftest", "--criteria", "99", "--criteria", "2"), "params.criteria"),
            (("selftest", "--skip-determinism", "--criteria", "2"), "params.criteria"),
            (("selftest", "--criteria", "2", "--out", "a.csv", "--out", "b.csv"), "out"),
            (("run", "--config", "x.ini", "--config", "y.ini"), "config"),
            (("run", "--config", "x.ini", "--out", "a.csv", "--out", "b.csv"), "out"),
            (("drift", "--n", "10", "--trials", "3", "--format", "csv", "--format", "json"), "format"),
            (("transverse", "--targets", "a", "--g", "ab", "--emit-certificate", "a", "--emit-certificate", "b"),
             "emit_certificate"),
            (("transverse", "--subgroups", "a.txt", "--subgroups", "b.txt", "--g", "ab"), "subgroups"),
        ],
        ids=[
            "criteria", "skip-determinism-and-criteria", "selftest-out", "config", "run-out", "format",
            "emit-certificate", "subgroups",
        ],
    )
    def test_repeated_flag_refused(self, tmp_path, monkeypatch, capsys, argv, field):
        # A flag that is no config key is refused when repeated, as a kind
        # flag is: the second value would silently win. Nothing runs and
        # nothing is written.
        monkeypatch.chdir(tmp_path)
        assert cli.main(list(argv)) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: [{field}] given twice")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [("--help",), ("cantor", "--help")])
    def test_help_exit_code(self, argv):
        res = self._hypmix(*argv)
        assert res.returncode == 0
        assert res.stdout.startswith("usage: hypmix")

    def test_flag_form_header_echoes_given_flags(self):
        # As in a config file, only the keys given (and the CLI's default
        # measure) are echoed; harness defaults such as rank stay unwritten.
        res = self._hypmix("drift", "--n", "10", "--trials", "3")
        assert res.returncode == 0
        header = [line for line in res.stdout.splitlines() if line.startswith("#")]
        assert header[header.index("# [params]") + 1:] == ["# measure = uniform: a A b B", "# n = 10", "# trials = 3"]

    def test_empty_value_exit_code(self, tmp_path):
        # An empty value is refused, not read as absent: `trials =` must not
        # run transience's default 100,000 trials.
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[experiment]\nkind = cantor\nseed = 1\n[params]\nmode = transience\ntrials =\nhorizon = 5\n")
        res = self._hypmix("run", "--config", str(cfg))
        assert res.returncode == 1
        assert res.stderr.startswith("error: [params.trials] ")
        assert res.stdout == ""

    def test_transience_zero_trials_exit_code(self):
        res = self._hypmix("cantor", "--transience", "--trials", "0")
        assert res.returncode == 1
        assert "params.trials" in res.stderr

    def test_qn_letter_mass_denominator_bound(self):
        # Step integers are drawn below the denominator as int64: 2^63 is
        # the largest denominator that can be drawn.
        argv = ("cantor", "--qn", "--n-list", "3", "--trials", "2", "--p-letter")
        above = self._hypmix(*argv, f"1/{2**63 + 1}")
        assert above.returncode == 1
        assert above.stderr.startswith("error: [params.p_letter] ")
        assert above.stdout == ""
        at = self._hypmix(*argv, f"1/{2**63}")
        assert at.returncode == 0, at.stderr
        assert f"p_letter=1/{2**63};trials=2;n=3" in at.stdout

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

    @pytest.mark.parametrize("claim", ["1", "2"])
    def test_claim_on_a_1500_letter_label(self, capsys, claim):
        # In process, under the default recursion limit: the standardizing
        # element is built in one loop, whatever the length of the label.
        u = "z" + "x" * 1499
        assert cli.main(["cantor", "--claim", claim, "--u", u]) == 0
        captured = capsys.readouterr()
        assert f"\ncantor_claim{claim},u={u};" in captured.out
        assert ",verified,1.0," in captured.out
        assert f"Cone({u})" in captured.err

    @pytest.mark.parametrize("argv", sorted(PINNED_TRANSCRIPTS))
    def test_claim_transcript_pinned(self, argv):
        res = self._hypmix("cantor", *argv)
        assert res.returncode == 0
        transcript = "".join(
            line for line in res.stderr.splitlines(keepends=True) if not line.startswith("elapsed: ")
        )
        assert transcript == PINNED_TRANSCRIPTS[argv]

    def test_transverse_certificate_pinned(self, tmp_path):
        cert = tmp_path / "cert.txt"
        res = self._hypmix("transverse", "--targets", "a | b", "--g", "ab", "--emit-certificate", str(cert))
        assert res.returncode == 0
        assert cert.read_text() == PINNED_CERTIFICATE_A_B

    def test_certificate_lists_the_targets_of_the_rows(self, tmp_path):
        # The empty part after "|" is no target: rows and certificate agree.
        cert, out = tmp_path / "cert.txt", tmp_path / "rows.csv"
        res = self._hypmix(
            "transverse", "--targets", "a |", "--g", "ab", "--emit-certificate", str(cert), "--out", str(out)
        )
        assert res.returncode == 0
        row_targets = [
            r.params.rsplit(";target=", 1)[1]
            for r in parse_rows(out.read_bytes())
            if r.metric == "certified_transverse"
        ]
        cert_targets = [
            line.split(":")[0].split()[1]
            for line in cert.read_text().splitlines()
            if line.startswith("target ")
        ]
        assert row_targets == cert_targets == ["0"]

    def test_transverse_cli_certificate(self, tmp_path):
        cert = tmp_path / "cert.txt"
        res = self._hypmix(
            "transverse", "--targets", "a", "--g", "a", "--emit-certificate", str(cert)
        )
        assert res.returncode == 0
        assert "transverse" in cert.read_text()

    @pytest.mark.parametrize("g", ["1", "aA"])
    def test_transverse_identity_g_names_g(self, g):
        res = self._hypmix("transverse", "--targets", "a", "--g", g)
        assert res.returncode == 1
        assert res.stderr.startswith("error: [params.g] ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("config", ["claim1", "transverse.ini"])
    def test_run_config_prints_the_report(self, tmp_path, config):
        # `run --config` sends the report that run_with_report renders to
        # stderr, as the flag forms do: a claim transcript, a certificate.
        path = Path(__file__).resolve().parents[1] / "configs" / config
        if config == "claim1":
            path = tmp_path / "claim1.ini"
            path.write_text("[experiment]\nkind = cantor\n[params]\nmode = claim1\nu = zx\n")
        res = self._hypmix("run", "--config", str(path))
        assert res.returncode == 0, res.stderr
        _, report = run_with_report(ExperimentConfig.from_file(str(path)))
        assert report
        assert "".join(
            line for line in res.stderr.splitlines(keepends=True) if not line.startswith("elapsed: ")
        ) == report

    def test_selftest_subset(self):
        res = self._hypmix("selftest", "--criteria", "2")
        assert res.returncode == 0
        assert "criterion  2 [PASS]" in res.stderr
        assert "\ncriterion_2,rank-index law on finite covers,passed,1.0,,,0\n" in res.stdout

    def test_selftest_timing(self, tmp_path):
        out = tmp_path / "report.csv"
        res = self._hypmix("selftest", "--criteria", "2", "--timing", "--out", str(out))
        assert res.returncode == 0
        first, rest = out.read_bytes().split(b"\n", 1)
        assert first.startswith(b"# wall_time_s: ")
        float(first.split(b": ")[1])
        config = cli.config_from_args(cli.build_parser().parse_args(["selftest", "--criteria", "2"]))
        echo = harness.config_header(config)
        assert rest.startswith(echo + b"experiment,params,metric")

    def test_selftest_criterion_14_reruns_the_others(self, tmp_path):
        out = tmp_path / "report.csv"
        res = self._hypmix("selftest", "--criteria", "2,14", "--out", str(out))
        assert res.returncode == 0
        rows = parse_rows(out.read_bytes())
        assert [(r.experiment, r.params, r.value) for r in rows if r.experiment == "criterion_14"] == [
            ("criterion_14", "bit-identical reruns at any thread count", 1.0),
            ("criterion_14", "reruns=1;threads=2", 0.0),
        ]

    @pytest.mark.parametrize("threads, reruns_at", [(1, 2), (2, 1), (3, 1)])
    def test_criterion_14_reruns_at_another_worker_count(self, monkeypatch, threads, reruns_at):
        seen = []

        def stub(threads):
            seen.append(threads)
            return CriterionResult(2, "stub", True, "", [], 0.0)

        monkeypatch.setitem(CRITERIA, 2, stub)
        results = selftest([2, 14], threads=threads)
        assert seen == [threads, reruns_at]
        assert results[-1].rows[0].params == f"reruns=1;threads={reruns_at}"

    def test_selftest_unknown_criterion(self):
        res = self._hypmix("selftest", "--criteria", "99")
        assert res.returncode == 1
        assert res.stderr.startswith("error: [params.criteria] unknown criterion 99")

    def test_selftest_rows_under_optimize(self, tmp_path):
        # Criteria 8, 11 and 13 certify their results by explicit checks;
        # under python -O they must write the rows of a normal run. The
        # normal run is the acceptance session's first pass when it ran.
        out = tmp_path / "optimized.csv"
        proc = subprocess.Popen(
            [sys.executable, "-O", "-m", "hypmix.cli", "selftest", "--criteria", "8,11,13", "--out", str(out)],
            env=src_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        first_pass = getattr(sys.modules.get("test_acceptance"), "_cache", {})
        results = [first_pass.get(cid) or CRITERIA[cid](threads=1) for cid in (8, 11, 13)]
        assert proc.wait() == 0
        config = cli.config_from_args(cli.build_parser().parse_args(["selftest", "--criteria", "8,11,13"]))
        echo = harness.config_header(config)
        data = out.read_bytes()
        assert data.startswith(echo)
        assert data[len(echo):] == emit(report_rows(results, seed=0))

    def test_module_error_exit_code(self):
        # finite-index marker surfaces as a clean validation failure
        res = self._hypmix("mix", "--H", "a b", "--K", "b", "--n-list", "10", "--trials", "5")
        assert res.returncode == 1
        assert "infinite index" in res.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    """The `hypmix ...` commands of README's CLI block, continuations joined."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("hypmix ")]


class _ReadsDone(Exception):
    """Raised where a runner has read its params, before its first trial."""


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_builds_a_config_the_runner_reads(monkeypatch, command):
    # Parse and build the config by the CLI's own path, then run it only as
    # far as the runner's reads: a renamed flag or key fails here.
    monkeypatch.chdir(README.parent)
    config = cli.config_from_args(cli.build_parser().parse_args(shlex.split(command, comments=True)[1:]))
    done = Params.done

    def stop_after_reads(params):
        done(params)
        raise _ReadsDone

    monkeypatch.setattr(Params, "done", stop_after_reads)
    with pytest.raises(_ReadsDone):
        run(config)
