import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    DensityState,
    WignerProblem,
    bundle_spec_from_json,
    cesaro_fixed_point,
    finite_group_to_json,
    haar_sample,
    philox_stream,
    quaternion_rep,
    random_density,
    su3_rep,
)
from wignerlab.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def load_report(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"report", "meta"}
    assert "generated_at" in doc["meta"]
    return doc["report"]


def test_wigner_verify_small_batch(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("wigner-verify", "--count", "8", "--seed", "5", "--out", str(out))
    assert code == 0
    report = load_report(out)
    assert report["all_verdicts_true"]
    assert report["summary"]["count"] == 8
    assert len(report["problems"]) == 8
    assert report["config"]["seed"] == 5


def test_wigner_verify_identity_only_batch(tmp_path):
    # zn:1 has only the identity element: every fixed subspace is everything
    out = tmp_path / "report.json"
    code = run_cli(
        "wigner-verify", "--group", "zn:1", "--dim", "3", "--count", "3", "--out", str(out)
    )
    assert code == 0
    report = load_report(out)
    assert all(p["intersection_dim"] == 9 for p in report["problems"])


def test_wigner_verify_single_group(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "wigner-verify", "--group", "zn:2", "--dim", "2", "--count", "4", "--out", str(out)
    )
    assert code == 0
    report = load_report(out)
    assert all(p["verdict"] for p in report["problems"])


def test_wigner_verify_report_bytes_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("wigner-verify", "--count", "4", "--seed", "9", "--out", str(a)) == 0
    assert run_cli("wigner-verify", "--count", "4", "--seed", "9", "--out", str(b)) == 0
    ra = json.dumps(json.loads(a.read_text())["report"], sort_keys=True)
    rb = json.dumps(json.loads(b.read_text())["report"], sort_keys=True)
    assert ra == rb


def test_malformed_cayley_table_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"labels": ["e", "a"], "table": [[0, 0], [1, 1]], "identity": 0}))
    code = run_cli("wigner-verify", "--group", f"file:{bad}", "--count", "2")
    assert code == 1
    assert "wignerlab:" in capsys.readouterr().err


def test_unknown_group_exits_1(capsys):
    assert run_cli("invariant-state", "--group", "bogus") == 1
    assert "unknown group" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert run_cli("no-such-command") == 1


def test_invariant_state_su2(tmp_path):
    out = tmp_path / "state.json"
    code = run_cli("invariant-state", "--group", "su2", "--seed", "1", "--out", str(out))
    assert code == 0
    report = load_report(out)
    state = DensityState.from_json(report["state"])
    assert np.abs(state.rho - np.eye(2) / 2).max() <= 1e-8
    assert report["invariance_residual"] <= 1e-8
    assert report["separating"]["separating"]


def test_invariant_state_su2_dim8_exact(tmp_path):
    out = tmp_path / "state.json"
    code = run_cli("invariant-state", "--group", "su2", "--dim", "8", "--seed", "1", "--out", str(out))
    assert code == 0
    state = DensityState.from_json(load_report(out)["state"])
    assert np.abs(state.rho - np.eye(8) / 8).max() <= 1e-12


def test_invariant_state_trivial_group_echoes_seed(tmp_path):
    seed_state = DensityState(2, np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
    state_file = tmp_path / "seed.json"
    state_file.write_text(json.dumps(seed_state.to_json()))
    out = tmp_path / "state.json"
    code = run_cli(
        "invariant-state", "--group", "zn:1", "--dim", "2",
        "--state", str(state_file), "--out", str(out),
    )
    assert code == 0
    got = DensityState.from_json(load_report(out)["state"])
    assert np.abs(got.rho - seed_state.rho).max() <= 1e-12


@pytest.mark.parametrize("group, method", [("zn:5", "auto"), ("zn:5", "cesaro"), ("q8", "auto")])
def test_invariant_state_records_no_generators_for_a_finite_group(tmp_path, group, method):
    # a finite group averages over its elements or its generating set, never
    # over --generators Haar samples, so the config records that setting as null
    out, replay = tmp_path / "state.json", tmp_path / "replay.json"
    code = run_cli("invariant-state", "--group", group, "--method", method, "--generators", "5",
                   "--out", str(out))
    assert code == 0
    report = load_report(out)
    assert report["config"]["generators"] is None
    config = tmp_path / "config.json"
    config.write_text(json.dumps(report["config"]))
    assert run_cli("invariant-state", "--config", str(config), "--out", str(replay)) == 0
    assert load_report(replay) == report
    lie = tmp_path / "su2.json"
    assert run_cli("invariant-state", "--group", "su2", "--method", "cesaro", "--out", str(lie)) == 0
    assert load_report(lie)["config"]["generators"] == 3


@pytest.mark.parametrize("group, method, count, generators", [
    ("su2", "auto", None, None),  # quadrature
    ("u1", "auto", None, None),  # quadrature
    ("su3", "auto", None, 3),  # Cesaro over 3 Haar samples
    ("su2", "cesaro", None, 3),
    ("su2", "montecarlo", 64, None),
    ("zn:5", "cesaro", None, None),  # over the generating set
])
def test_invariant_state_records_only_the_sample_counts_its_method_read(
        tmp_path, group, method, count, generators):
    out, replay = tmp_path / "state.json", tmp_path / "replay.json"
    assert run_cli("invariant-state", "--group", group, "--method", method, "--count", "64",
                   "--generators", "3", "--tol", "0.1", "--out", str(out)) == 0
    report = load_report(out)
    assert (report["config"]["count"], report["config"]["generators"]) == (count, generators)
    # the nulls replay as the defaults, which the resolved method does not read
    config = tmp_path / "config.json"
    config.write_text(json.dumps(report["config"]))
    assert run_cli("invariant-state", "--config", str(config), "--out", str(replay)) == 0
    assert load_report(replay) == report


def test_invariant_state_records_cesaro_when_it_does_not_converge(tmp_path, monkeypatch):
    from wignerlab import NoConvergence, cli

    def stalls(*args, **kwargs):
        raise NoConvergence("stalled", 1e-3)

    monkeypatch.setattr(cli, "haar_average", stalls)
    out = tmp_path / "state.json"
    assert run_cli("invariant-state", "--group", "su3", "--out", str(out)) == 2
    config = load_report(out)["config"]
    assert (config["method"], config["count"], config["generators"]) == ("cesaro", None, 3)


def test_invariant_state_boolean_state_entries_exit_1(tmp_path, capsys):
    # [[true, false]] would read as the valid d = 1 state 1+0j
    state_file = tmp_path / "seed.json"
    state_file.write_text(json.dumps({"d": 1, "rho": [[[True, False]]]}))
    out = tmp_path / "state.json"
    code = run_cli(
        "invariant-state", "--group", "zn:1", "--dim", "1",
        "--state", str(state_file), "--out", str(out),
    )
    assert code == 1
    assert not out.exists()
    assert "true and false are not numbers" in capsys.readouterr().err


def test_invariant_state_u1_dephases(tmp_path):
    out = tmp_path / "state.json"
    code = run_cli("invariant-state", "--group", "u1", "--dim", "3", "--seed", "2", "--out", str(out))
    assert code == 0
    rho = DensityState.from_json(load_report(out)["state"]).rho
    assert np.abs(rho - np.diag(np.diag(rho))).max() <= 1e-12


def test_invariant_state_su3_cesaro(tmp_path):
    out = tmp_path / "state.json"
    code = run_cli("invariant-state", "--group", "su3", "--seed", "4", "--out", str(out))
    assert code == 0
    report = load_report(out)
    assert report["config"]["method"] == "cesaro"
    assert report["invariance_residual"] <= 1e-7
    # the CLI result is exactly the direct Cesaro fixed point
    rep = su3_rep(3)
    seed_state = random_density(3, philox_stream(4, 17))
    problem = WignerProblem(rep, tuple(haar_sample(rep, 4, 3)))
    direct = cesaro_fixed_point(problem, seed_state, tol=1e-11)
    assert DensityState.from_json(report["state"]).rho.tobytes() == direct.rho.tobytes()


def test_invariant_state_coarse_montecarlo_exits_2(tmp_path):
    # 64 Monte Carlo samples cannot push the residual under 1e-7
    out = tmp_path / "state.json"
    code = run_cli(
        "invariant-state", "--group", "su2", "--method", "montecarlo",
        "--count", "64", "--seed", "8", "--tol", "1e-7", "--out", str(out),
    )
    assert code == 2


def test_crossed_trivial_z2_m2(tmp_path):
    out = tmp_path / "crossed.json"
    code = run_cli(
        "crossed", "--group", "zn:2", "--dim", "2", "--action", "trivial", "--out", str(out)
    )
    assert code == 0
    report = load_report(out)
    assert report["crossed_dimension"] == 8
    assert report["covariance_residual"] <= 1e-12


def test_crossed_q8_with_tensor_check(tmp_path):
    out = tmp_path / "crossed.json"
    code = run_cli(
        "crossed", "--group", "zn:2", "--dim", "1", "--action", "trivial",
        "--tensor-factors", "3", "--out", str(out),
    )
    assert code == 0
    report = load_report(out)
    assert report["crossed_dimension"] == 2
    assert report["tensor_check"]["equal"]
    assert report["tensor_check"]["product_model_dim"] == 8


def test_crossed_from_group_file(tmp_path):
    rep = quaternion_rep()
    doc = finite_group_to_json(rep.group, rep)
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "crossed.json"
    code = run_cli("crossed", "--group", f"file:{path}", "--out", str(out))
    assert code == 0
    assert load_report(out)["crossed_dimension"] == 32


def test_entropy_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("entropy", "--max-n", "8", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,entropy"
    assert len(lines) == 9
    for n, line in enumerate(lines[1:], start=1):
        ncol, hcol = line.split(",")
        assert int(ncol) == n
        assert abs(float(hcol) - math.log(n)) <= 1e-12
    # 17 significant digits on a representative row
    assert lines[2].split(",")[1] == f"{math.log(2):.17g}"


def test_entropy_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli("entropy", "--max-n", "4", "--format", "json", "--out", str(out))
    assert code == 0
    rows = load_report(out)["rows"]
    assert rows[3][0] == 4 and abs(rows[3][1] - math.log(4)) <= 1e-12


def test_bundle_default_single_su2_point(tmp_path):
    out = tmp_path / "field.json"
    code = run_cli("bundle", "--seed", "6", "--out", str(out))
    assert code == 0
    report = load_report(out)
    state = DensityState.from_json(report["field"]["states"]["x0"])
    assert np.abs(state.rho - np.eye(2) / 2).max() <= 1e-8
    assert report["separating"]["x0"]
    assert report["invariance_residuals"]["x0"] <= 1e-7


def test_bundle_from_config(tmp_path):
    config = {
        "schema_version": 1,
        "seed": 3,
        "points": [
            {"label": "a", "rep": {"kind": "u1", "weights": [1, -1]}},
            {"label": "b", "rep": {"kind": "u1", "weights": [0, 1, 2]}},
        ],
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "field.json"
    code = run_cli("bundle", "--config", str(cfg), "--out", str(out))
    assert code == 0
    report = load_report(out)
    assert set(report["field"]["states"]) == {"a", "b"}
    assert all(report["separating"].values())


def test_bundle_reports_the_residuals_its_check_used():
    from wignerlab import invariance_residual
    from wignerlab.cli import cmd_bundle

    seed = 17
    points = [{"label": label, "rep": {"kind": "su2", "dim": dim}}
              for label, dim in (("a", 3), ("b", 2), ("c", 4))]
    code, report = cmd_bundle({"seed": seed, "points": points})
    assert code == 0
    spec = bundle_spec_from_json({"points": points})
    for idx, label in enumerate(spec.points):
        state = DensityState.from_json(report["field"]["states"][label])
        expected = invariance_residual(spec.reps[label], state, probes=50, seed=seed + idx)
        assert report["invariance_residuals"][label].hex() == expected.hex()
    assert report["separating"] == {"a": True, "b": True, "c": True}


def test_readme_bundle_spec_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Bundle specs.*?```json\n(.*?)```", readme, re.DOTALL).group(1)
    doc = json.loads(block)
    assert bundle_spec_from_json(doc).points == ("x0", "x1")
    cfg = tmp_path / "bundle.json"
    cfg.write_text(block)
    out = tmp_path / "field.json"
    assert run_cli("bundle", "--config", str(cfg), "--seed", "17", "--out", str(out)) == 0
    assert all(load_report(out)["separating"].values())


def test_config_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "max_n": 3}))
    out = tmp_path / "sweep.csv"
    # flag wins over config
    code = run_cli("entropy", "--config", str(cfg), "--max-n", "5", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 6
    code = run_cli("entropy", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 4


OPTIONS = {
    "wigner-verify": {"--config", "--out", "--seed", "--tol", "--dim", "--group", "--count"},
    "invariant-state": {"--config", "--out", "--seed", "--tol", "--dim", "--group", "--count",
                        "--method", "--state", "--generators"},
    "crossed": {"--config", "--out", "--group", "--dim", "--action", "--tensor-factors",
                "--ambient-cap"},
    "entropy": {"--config", "--out", "--format", "--max-n"},
    "bundle": {"--config", "--out", "--seed"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert declared == OPTIONS
    assert sum(len(flags) for flags in declared.values()) == 31


@pytest.mark.parametrize("argv", [
    ("wigner-verify", "--count", "1", "--format", "json"),
    ("invariant-state", "--format", "json"),
    ("crossed", "--seed", "9"),
    ("crossed", "--tol", "1e-3"),
    ("crossed", "--format", "csv"),
    ("entropy", "--seed", "4"),
    ("entropy", "--tol", "1e-3"),
    ("entropy", "--dim", "3"),
    ("entropy", "--group", "su2"),
    ("bundle", "--format", "json"),
    ("bundle", "--tol", "1e-3"),
    ("bundle", "--dim", "3"),
    ("bundle", "--group", "su3"),
])
def test_option_the_subcommand_does_not_read_exits_1(argv, capsys):
    assert run_cli(*argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, unknown", [
    ("entropy", {"seeed": 4}, "seeed"),
    ("crossed", {"tol": 1e-3}, "tol"),
    ("bundle", {"group": "su3"}, "group"),
    ("wigner-verify", {"count": 1, "format": "json"}, "format"),
])
def test_config_key_the_subcommand_does_not_read_exits_1(tmp_path, capsys, command, config,
                                                          unknown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert repr(unknown) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, bad", [
    ("invariant-state", {"dim": 2.5}, "dim"),
    ("invariant-state", {"dim": "3"}, "dim"),
    ("invariant-state", {"seed": True}, "seed"),
    ("wigner-verify", {"count": 1, "tol": "1e-3"}, "tol"),
    ("wigner-verify", {"count": 1, "tol": False}, "tol"),
    ("entropy", {"max_n": 3.0}, "max_n"),
])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, command, config, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert repr(bad) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the message names the value the user gave, not a default derived from it
_REJECTED_MESSAGES = {
    ("wigner-verify", "--group", "zn:0"): "group 'zn:0': n must be >= 1, got 0\n",
    ("wigner-verify", "--group", "zn:-2"): "group 'zn:-2': n must be >= 1, got -2\n",
    ("invariant-state", "--group", "zn:abc"): "group 'zn:abc': n must be written in ASCII digits\n",
    # int() reads each of these as a number
    ("wigner-verify", "--group", "zn:1_0"): "group 'zn:1_0': n must be written in ASCII digits\n",
    ("wigner-verify", "--group", "zn: 5"): "group 'zn: 5': n must be written in ASCII digits\n",
    ("wigner-verify", "--group", "zn:+5"): "group 'zn:+5': n must be written in ASCII digits\n",
    ("invariant-state", "--group", "zn:\u0665"):
        "group 'zn:\u0665': n must be written in ASCII digits\n",
}


@pytest.mark.parametrize("argv, config", [
    (("wigner-verify", "--count", "0"), None),
    (("wigner-verify", "--count", "-3"), None),
    (("invariant-state", "--count", "0"), None),
    (("invariant-state", "--count", "-3"), None),
    (("wigner-verify", "--dim", "0"), None),
    (("invariant-state", "--dim", "0"), None),
    (("crossed", "--dim", "0"), None),
    (("wigner-verify", "--tol", "0"), None),
    (("wigner-verify", "--tol", "-1"), None),
    (("wigner-verify", "--tol", "nan"), None),
    (("invariant-state", "--tol", "0"), None),
    (("invariant-state", "--tol", "-1"), None),
    (("invariant-state", "--tol", "nan"), None),
    (("crossed", "--tensor-factors", "0"), None),
    (("crossed", "--tensor-factors", "1"), None),
    (("entropy", "--max-n", "0"), None),
    (("wigner-verify",), {"group": 5}),
    (("invariant-state",), {"group": 5}),
    (("invariant-state",), {"state": 7}),
    (("invariant-state",), {"tol": float("inf")}),
    (("entropy",), {"format": "xml"}),
    (("crossed",), {"action": "x"}),
    (("wigner-verify", "--group", "file:q8.json", "--dim", "4", "--count", "2"), None),
    (("invariant-state", "--group", "file:q8.json", "--dim", "4"), None),
    (("crossed", "--group", "file:q8.json", "--dim", "4"), None),
    (("wigner-verify", "--group", "zn:0"), None),
    (("wigner-verify", "--group", "zn:-2"), None),
    (("invariant-state", "--group", "zn:abc"), None),
    (("wigner-verify", "--group", "zn:1_0"), None),
    (("wigner-verify", "--group", "zn: 5"), None),
    (("wigner-verify", "--group", "zn:+5"), None),
    (("invariant-state", "--group", "zn:\u0665"), None),
])
def test_rejected_input_exits_1_before_writing(tmp_path, capsys, monkeypatch, argv, config):
    rep = quaternion_rep()
    (tmp_path / "q8.json").write_text(json.dumps(finite_group_to_json(rep.group, rep)))
    monkeypatch.chdir(tmp_path)
    extra = ()
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        extra = ("--config", "cfg.json")
    assert run_cli(*argv, *extra, "--out", "out.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("wignerlab: ") and "Traceback" not in err
    assert _REJECTED_MESSAGES.get(argv, "") in err
    assert not (tmp_path / "out.json").exists()


def test_crossed_trivial_action_takes_its_dim_from_dim(tmp_path):
    rep = quaternion_rep()
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(finite_group_to_json(rep.group, rep)))
    out = tmp_path / "crossed.json"
    code = run_cli("crossed", "--group", f"file:{path}", "--dim", "3", "--action", "trivial",
                   "--out", str(out))
    assert code == 0
    report = load_report(out)
    assert report["config"]["dim"] == 3
    assert report["ambient_dim"] == 8 * 3


def test_config_null_counts_as_absent(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "max_n": None, "format": None}))
    out = tmp_path / "sweep.csv"
    assert run_cli("entropy", "--config", str(cfg), "--out", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 9


def test_bad_schema_version_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "sweep.csv"
    # true and 1.0 equal 1 in Python, and "1" is a string: none is the integer 1
    for version, message in [
        (99, "unsupported schema_version 99"),
        (True, "schema_version must be an integer, got bool"),
        (1.0, "schema_version must be an integer, got float"),
        ("1", "schema_version must be an integer, got str"),
    ]:
        cfg.write_text(json.dumps({"schema_version": version}))
        assert run_cli("entropy", "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "wignerlab.cli", "entropy", "--max-n", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("n,entropy")


REFUSE_SCIPY = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from wignerlab.cli import main

codes = [
    main(["entropy", "--max-n", "4", "--out", sys.argv[1]]),
    main(["crossed", "--group", "zn:2", "--dim", "2", "--out", sys.argv[2]]),
]
print(json.dumps({"codes": codes, "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""


def test_runs_without_scipy(tmp_path):
    outs = [str(tmp_path / "sweep.csv"), str(tmp_path / "crossed.json")]
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_SCIPY, *outs], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "scipy": []}


def test_import_leaves_numpy_polynomial_to_su2_quadrature():
    # numpy.polynomial costs milliseconds of every start; only the SU(2) 1-D rules need it
    code = ("import sys; from wignerlab.cli import main; from wignerlab import groups; "
            "loaded = 'numpy.polynomial' in sys.modules; groups.su2_axis_rules(5); "
            "print(loaded, 'numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
