import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resodrift as rd
from resodrift.cli import build_parser, emit_plots, main
from resodrift.errors import UsageError
from resodrift.systems import load_system, system_to_dict


def run_cli(*argv):
    return main(list(argv))


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_catalog_runs():
    # Run the declared console-script target in a fresh interpreter, the way
    # the wrapper generated at install time does, so no install is needed and
    # no other copy of resodrift on PATH can stand in for this tree.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    module, func = scripts["resodrift"].split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(rd.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-c", code, "catalog"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    for name in rd.catalog_names():
        assert name in proc.stdout
    assert "[ok]" in proc.stdout and "FAIL" not in proc.stdout


def test_package_and_cli_run_without_scipy(tmp_path):
    # scipy is a test extra only: a fresh interpreter that refuses every scipy
    # import still imports the package and runs a drift and a connect, whose
    # "target" stop event is root-found on the interpolant.
    code = f"""
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy import refused: " + name)

sys.meta_path.insert(0, RefuseScipy())
import resodrift, resodrift.cli
assert "scipy" not in sys.modules
codes = [
    resodrift.cli.main(["drift", "--system", "moser", "--epsilon", "1e-3",
                        "--out", {str(tmp_path / "drift")!r}]),
    resodrift.cli.main(["connect", "--system", "reduced-moser", "--epsilon", "1e-3",
                        "--from", "1.0", "--to", "1.05", "--out", {str(tmp_path / "connect")!r}]),
]
assert "scipy" not in sys.modules
sys.exit(max(codes))
"""
    src = str(Path(rd.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "connect" / "connect_report.json").read_text())
    assert report["reached"] is True


def test_catalog_report_json(tmp_path):
    out = tmp_path / "cat"
    assert run_cli("catalog", "--out", str(out)) == 0
    data = json.loads((out / "catalog.json").read_text())
    assert sorted(data) == rd.catalog_names()
    assert all(entry["passed"] for entry in data.values())


def test_reduce_artifacts_round_trip(tmp_path):
    out = tmp_path / "red"
    assert run_cli("reduce", "--system", "moser", "--out", str(out)) == 0
    for name in ("config.json", "reduced_system.json", "reduce_report.json"):
        assert (out / name).exists()
    report = json.loads((out / "reduce_report.json").read_text())
    assert report["determinant"] in (-1, 1)
    assert abs(report["segment_axis_residual"]) <= 1e-12
    assert report["min_transverse_frequency"] >= report["reduced_varpi"] - 1e-12
    assert report["channel"]["passed"] is True
    # the emitted definition is itself loadable
    system, f = load_system(json.loads((out / "reduced_system.json").read_text()))
    assert system.is_reduced
    assert not f.is_zero


def test_reduce_already_reduced_is_usage_error(tmp_path):
    rc = run_cli("reduce", "--system", "reduced-moser", "--out", str(tmp_path / "x"))
    assert rc == 2


def test_genericity_artifacts_and_auto_reduction(tmp_path):
    out1 = tmp_path / "g1"
    assert run_cli("genericity", "--system", "reduced-moser", "--out", str(out1)) == 0
    payload = json.loads((out1 / "genericity.json").read_text())
    assert payload["passed"] is True
    assert payload["lambda"] == pytest.approx(0.9, rel=1e-12)
    assert payload["reduced_first"] is False
    out2 = tmp_path / "g2"
    assert run_cli("genericity", "--system", "moser", "--out", str(out2)) == 0
    payload2 = json.loads((out2 / "genericity.json").read_text())
    assert payload2["reduced_first"] is True


def test_genericity_fails_on_flat_average(tmp_path):
    entry = rd.get_entry("reduced-moser")
    flat = rd.FourierPerturbation.from_terms([((0, 1), 0.0, 0.5)])
    spec = system_to_dict(entry.system, flat)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "gflat"
    rc = run_cli("genericity", "--system-file", str(path), "--out", str(out))
    assert rc == 1
    payload = json.loads((out / "genericity.json").read_text())
    assert payload["passed"] is False


def test_normal_form_single_step_payload(tmp_path, one_step_results):
    out = tmp_path / "nf"
    rc = run_cli(
        "normal-form", "--system", "generic3", "--epsilon", "1e-2", "--out", str(out)
    )
    assert rc == 0
    payload = json.loads((out / "normal_form.json").read_text())
    # the CLI's build repeats the session's, so the record is the result's
    assert payload == {**one_step_results[1e-2].as_dict(), "reduced_first": False}
    assert payload["steps"] == 1
    assert payload["K"] >= 2
    assert payload["residual_homological"] <= 1e-9
    assert payload["phi_displacement"] <= payload["displacement_bound"]
    assert payload["min_divisor"] >= 0.5 * rd.get_entry("generic3").system.resonance.varpi
    assert "K2" not in payload and "min_divisor2" not in payload


def test_normal_form_two_step_payload_reports_kept_modes(tmp_path, monkeypatch, two_step_results):
    # the session's two-step build stands in for the CLI's own
    result = two_step_results[1e-3]
    monkeypatch.setattr("resodrift.cli.two_step_normal_form", lambda bundle: result)
    out = tmp_path / "nf2"
    rc = run_cli(
        "normal-form", "--system", "generic3", "--epsilon", "1e-3", "--steps", "2",
        "--out", str(out),
    )
    assert rc == 0
    payload = json.loads((out / "normal_form.json").read_text())
    assert payload == {**result.as_dict(), "reduced_first": False}
    assert payload["steps"] == 2
    assert payload["K2"] == result.averaging_steps[1].chi.cutoff
    assert payload["min_divisor"] == result.averaging_steps[0].chi.min_divisor
    assert payload["min_divisor2"] == result.averaging_steps[1].chi.min_divisor
    assert payload["fit_residual"] == result.meta["fit_residual"]
    assert payload["n_kept_modes"] == result.meta["n_kept_modes"] == 14
    assert payload["kappa_rounds"] == [list(r) for r in result.meta["kappa_rounds"]]
    assert payload["kappa_rounds"][-1][1] == payload["gamma"]


def test_simulate_orbit_and_report(tmp_path):
    out = tmp_path / "sim"
    rc = run_cli(
        "simulate",
        "--system", "reduced-moser",
        "--epsilon", "1e-3",
        "--t-end", "10",
        "--samples", "33",
        "--out", str(out),
    )
    assert rc == 0
    lines = (out / "orbit.csv").read_text().strip().split("\n")
    assert lines[0] == "t,theta1,theta2,I1,I2,energy,absI2,dist_channel"
    assert len(lines) == 1 + 33
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["t_end"] == 10.0
    assert report["energy_drift"] < 1e-9
    assert report["flagged"] is False


def test_simulate_argument_validation(tmp_path, capsys):
    out = tmp_path / "v"
    base = [
        "simulate", "--system", "reduced-moser", "--epsilon", "1e-3", "--t-end", "1",
        "--out", str(out),
    ]
    cases = [
        (base + ["--state", "1,2"], "th1,th2,I1,I2"),
        (base + ["--state", "a,b,c,d"], "th1,th2,I1,I2"),
        (base + ["--tol", "0,1e-8"], "ABS,REL"),
        (base + ["--tol", "nope"], "ABS,REL"),
        (base + ["--samples", "0"], "positive integer"),
        (base + ["--samples", "-3"], "positive integer"),
        (["genericity", "--system", "reduced-moser", "--grid", "1x3", "--out", str(out)], "NxM"),
    ]
    for argv, rule in cases:
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        # argparse names the rule, not the converter ("invalid _f value")
        assert rule in err
        assert not re.search(r"invalid \w+ value", err)
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["0", "nan", "inf"])
def test_simulate_rejects_a_zero_or_infinite_time_span(tmp_path, capsys, t_end):
    rc = run_cli(
        "simulate", "--system", "moser", "--epsilon", "1e-3", "--t-end", t_end,
        "--out", str(tmp_path / "z"),
    )
    assert rc == 2
    assert "--t-end must be finite and nonzero" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_simulate_from_outside_the_domain_is_an_error(tmp_path, capsys):
    # moser has R = 4, so I1 = 5 starts outside B_R
    rc = run_cli(
        "simulate", "--system", "moser", "--epsilon", "1e-3", "--t-end", "10",
        "--state", "0,0,5,0", "--out", str(tmp_path / "d"),
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: initial actions (5, 0) lie outside the domain radius 4")
    assert not (tmp_path / "d").exists()


def test_failed_orbit_exits_with_an_error_line(tmp_path, monkeypatch, capsys):
    # theta1' = theta1**2 from theta1 = 2 blows up at t = 0.5 inside the action domain
    def blow_up(_bundle):
        return lambda _t, y: np.array([y[0] ** 2, 0.0, 0.0, 0.0])

    monkeypatch.setattr(rd.SystemBundle, "rhs", blow_up)
    rc = run_cli(
        "simulate", "--system", "reduced-moser", "--epsilon", "1e-3",
        "--state", "2,0,1,0", "--t-end", "1", "--out", str(tmp_path / "s"),
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: integration failed: Required step size")


def test_drift_cli_with_plots(tmp_path):
    out = tmp_path / "drift"
    rc = run_cli(
        "drift", "--system", "generic3", "--epsilon", "1e-2", "--plots",
        "--out", str(out),
    )
    assert rc == 0
    report = json.loads((out / "drift_report.json").read_text())
    assert report["pass_upper"] == 1 and report["pass_lower"] == 1
    assert report["optimality"]["passed"] is True
    assert report["reduced_first"] is False
    assert report["n_rhs_evals"] > 0 and report["n_steps"] > 0
    assert 0.0 <= report["max_energy_error"] <= 1e-8
    script = (out / "orbit.gp").read_text()
    assert "set datafile separator ','" in script
    # the transverse band is drawn when confinement was measured
    assert report["c_fit"] > 0
    assert "gray" in script


def test_connect_cli_round_trip(tmp_path):
    out = tmp_path / "conn"
    rc = run_cli(
        "connect", "--system", "reduced-moser", "--epsilon", "1e-2",
        "--from", "1.0", "--to", "1.05", "--out", str(out),
    )
    assert rc == 0
    report = json.loads((out / "connect_report.json").read_text())
    assert report["reached"] is True
    assert report["terminal_distance"] <= 1e-6
    assert report["tau"] == pytest.approx(5.0, abs=1e-3)
    assert report["n_rhs_evals"] > 0 and report["n_steps"] > 0
    assert 0.0 <= report["max_energy_error"] <= 1e-8


def test_connect_zero_epsilon_distinct_targets_fails(tmp_path):
    rc = run_cli(
        "connect", "--system", "reduced-moser", "--epsilon", "0",
        "--from", "1.0", "--to", "1.05", "--out", str(tmp_path / "c0"),
    )
    assert rc == 1


def test_sweep_cli_csv_and_fit(tmp_path):
    out = tmp_path / "sw"
    rc = run_cli(
        "sweep", "--system", "reduced-moser",
        "--epsilons", "1e-1,3e-2,1e-2",
        "--target-drift", "0.05",
        "--plots",
        "--out", str(out),
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "epsilon,delta,tau,drift,maxI2,c_fit,pass_upper,pass_lower"
    assert len(lines) == 4
    fit = json.loads((out / "fit.json").read_text())
    assert abs(fit["p"] - 1.0) < 1e-3
    assert fit["all_reached"] is True
    script = (out / "sweep.gp").read_text()
    assert "set logscale xy" in script
    assert "title 'fit'" in script


def test_epsilon_range_checks(tmp_path):
    assert run_cli(
        "drift", "--system", "reduced-moser", "--epsilon", "1.5",
        "--out", str(tmp_path / "a"),
    ) == 2
    assert run_cli(
        "normal-form", "--system", "generic3", "--epsilon", "0",
        "--out", str(tmp_path / "b"),
    ) == 2


def test_experiment_constants_must_be_finite_and_positive(tmp_path):
    drift = ["drift", "--system", "reduced-moser", "--epsilon", "1e-3"]
    sweep = ["sweep", "--system", "reduced-moser", "--epsilons", "1e-2,3e-3,1e-3", "--target-drift"]
    for i, argv in enumerate(
        [drift + ["--c-cfg", v] for v in ("0", "-1", "nan")]
        + [drift + ["--delta", v] for v in ("0", "-1", "nan", "inf")]
        + [sweep + ["-0.1"], sweep + ["0"], sweep + ["inf"]]
    ):
        out = tmp_path / f"run{i}"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert not out.exists()


def test_sweep_with_a_repeated_epsilon_exits_2(tmp_path, capsys):
    for i, epsilons in enumerate(("1e-2,1e-2,1e-3", "1e-2,0.01,3e-3,1e-3")):
        out = tmp_path / f"run{i}"
        argv = ["sweep", "--system", "generic3", "--epsilons", epsilons, "--out", str(out)]
        assert run_cli(*argv) == 2
        assert not out.exists()
        assert "distinct epsilons" in capsys.readouterr().err


def test_source_resolution_errors(tmp_path):
    assert run_cli("drift", "--system", "nope", "--epsilon", "1e-3") == 2
    assert run_cli("drift", "--epsilon", "1e-3") == 2
    assert run_cli("bogus") == 2


def test_identical_invocations_are_byte_identical(tmp_path):
    argv = ["drift", "--system", "reduced-moser", "--epsilon", "1e-2"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(*argv, "--out", str(out1)) == 0
    assert run_cli(*argv, "--out", str(out2)) == 0
    for name in ("config.json", "drift_report.json", "orbit.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_default_run_directory_is_hash_named(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("genericity", "--system", "reduced-moser") == 0
    runs = list((tmp_path / "runs").iterdir())
    assert [r.name for r in runs] == ["0c8c8e3a36b8"]
    # same config hashes to the same directory, so a re-run adds nothing
    assert run_cli("genericity", "--system", "reduced-moser") == 0
    assert len(list((tmp_path / "runs").iterdir())) == 1


def test_run_id_of_a_simulate_invocation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run_cli(
        "simulate", "--system", "moser", "--epsilon", "1e-3", "--t-end", "100",
        "--state", "0,0,1,-1", "--samples", "65", "--tol", "1e-9,1e-9",
    )
    assert rc == 0
    cfg = json.loads((tmp_path / "runs" / "d3004c55498a" / "config.json").read_text())
    assert cfg["state"] == "0,0,1,-1"
    assert cfg["tol"] == [1e-9, 1e-9]
    assert cfg["samples"] == 65


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_parse():
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.strip()]
    assert len(lines) == 8
    parser = build_parser()
    for words in lines:
        assert words[0] == "resodrift"
        args = parser.parse_args(words[1:])
        assert args.command == words[1]


def test_emit_plots_requires_artifacts(tmp_path):
    with pytest.raises(UsageError, match="orbit.csv or sweep.csv"):
        emit_plots(tmp_path)


def test_malformed_system_file_exits_2(tmp_path, capsys):
    # a wave vector that is not a pair is a usage error, not a traceback
    entry = rd.get_entry("moser")
    data = system_to_dict(entry.system, entry.perturbation)
    data["resonance"]["k"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli("reduce", "--system-file", str(path), "--out", str(tmp_path / "red")) == 2
    err = capsys.readouterr().err
    assert "resonance.k" in err and "Traceback" not in err


def test_system_file_breaking_a_constructor_rule_exits_2(tmp_path, capsys):
    # the channel lies outside B_R: the constructor's DomainError is a usage
    # error of the file, not a failed computation (exit 1)
    entry = rd.get_entry("generic3")
    data = system_to_dict(entry.system, entry.perturbation)
    data["R"] = 1
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data))
    assert run_cli("genericity", "--system-file", str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "outside B_R" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["reduce"], ["genericity"], ["drift", "--epsilon", "1e-3"]])
def test_oversized_wave_vector_exits_2(tmp_path, capsys, command):
    # a wave vector beyond int64 is a usage error, not an OverflowError
    entry = rd.get_entry("moser")
    data = system_to_dict(entry.system, entry.perturbation)
    data["modes"][0]["k"] = [1e19, -1e19]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    argv = [command[0], "--system-file", str(path), "--out", str(tmp_path / "out"), *command[1:]]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "modes[0].k" in err and "Traceback" not in err


def test_system_file_source(tmp_path):
    entry = rd.get_entry("moser")
    path = tmp_path / "moser.json"
    path.write_text(json.dumps(system_to_dict(entry.system, entry.perturbation)))
    out = tmp_path / "red"
    assert run_cli("reduce", "--system-file", str(path), "--out", str(out)) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["source"]["file"] == str(path)
