"""End-to-end command line checks: outputs, manifests, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from qrsp.cli import evaluate_oracle_gaps, main, quantities_of
from qrsp.qstate import StateError, load_state_file, save_state_file, state_fidelity
from qrsp.states import rho_b, werner
from qrsp.rsp import SweepResult


def _parse_text(out: str) -> dict:
    rows = {}
    for line in out.strip().splitlines():
        name, value = line.split()
        rows[name] = float(value)
    return rows


def _parse_csv(out: str) -> dict:
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "value"]
    return {name: float(value) for name, value in rows[1:]}


def test_characterize_werner_text(capsys):
    assert main(["characterize", "--state", "werner", "--lambda", str(1 / 3)]) == 0
    rows = _parse_text(capsys.readouterr().out)
    assert abs(rows["fidelity"] - 1.0) < 1e-9
    assert abs(rows["purity"] - 1 / 3) < 1e-9
    assert abs(rows["concurrence"]) < 1e-9
    assert abs(rows["discord"] - 1 / 9) < 1e-9
    assert abs(rows["rsp_fidelity"] - 1 / 9) < 1e-9


def test_characterize_rho_b_csv(capsys):
    assert main(["characterize", "--state", "rho_b", "--k", "0.2", "--t", "0.4",
                 "--format", "csv"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert abs(rows["fidelity"] - 1.0) < 1e-12
    assert abs(rows["purity"] - 0.36) < 1e-12
    assert abs(rows["concurrence"] - 0.2) < 1e-12
    assert abs(rows["discord"] - 0.04) < 1e-12
    assert abs(rows["rsp_fidelity"] - 0.04) < 1e-12


def test_characterize_other_families(capsys):
    assert main(["characterize", "--state", "maximally-mixed"]) == 0
    rows = _parse_text(capsys.readouterr().out)
    assert abs(rows["purity"] - 0.25) < 1e-9
    assert rows["concurrence"] == 0.0 and rows["discord"] == 0.0

    assert main(["characterize", "--state", "bell:psi-"]) == 0
    rows = _parse_text(capsys.readouterr().out)
    for name in ("fidelity", "purity", "concurrence", "discord", "rsp_fidelity"):
        assert abs(rows[name] - 1.0) < 1e-9


def test_characterize_from_file(tmp_path, capsys):
    target = rho_b(0.2, 0.4)
    for form in ("matrix", "bloch"):
        path = tmp_path / f"state_{form}.json"
        save_state_file(target, path, form=form)
        assert main(["characterize", "--state", f"file:{path}"]) == 0
        rows = _parse_text(capsys.readouterr().out)
        assert abs(rows["discord"] - 0.04) < 1e-9


def test_characterize_with_noise_is_deterministic(capsys):
    argv = ["characterize", "--state", "werner", "--lambda", str(1 / 3),
            "--noise", "poisson:1e6", "--seed", "7", "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    rows = _parse_csv(first)
    assert 0.99 < rows["fidelity"] <= 1.0


def test_characterize_noise_with_rotation(capsys):
    assert main(["characterize", "--state", "werner", "--lambda", "0.8",
                 "--noise", "poisson:1e6,rot:z:0.05", "--seed", "3"]) == 0
    rows = _parse_text(capsys.readouterr().out)
    assert 0.8 < rows["fidelity"] < 1.0  # Bob-side rotation shows up as infidelity


@pytest.mark.parametrize("argv", [
    ["characterize", "--state", "ghz"],
    ["characterize", "--state", "werner"],                 # missing --lambda
    ["characterize", "--state", "rho_b", "--k", "0.2"],    # missing --t
    ["characterize", "--state", "bell:zeta"],
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "gauss:3"],
    ["characterize", "--state", "werner", "--lambda", "0.5",
     "--noise", "poisson:1e4,rot:w:0.1"],
    [],
    ["no-such-command"],
    ["characterize", "--state", "werner", "--lambda", "0.5",
     "--noise", "poisson:1e4,rot:x:0.1,rot:y:0.2"],
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "poisson:nan"],
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "poisson:inf"],
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "poisson:0"],
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "poisson:-1e4"],
    ["oracle-check", "--ensemble", "random:0"],
    ["oracle-check", "--ensemble", "random:-3"],
    ["oracle-check", "--ensemble", "zero-discord:0"],
    ["oracle-check", "--ensemble", "random:1:5"],
    ["oracle-check", "--ensemble", "random:1:0"],
    ["oracle-check", "--ensemble", "random:1", "--grid-points", "0"],
    ["oracle-check", "--ensemble", "random:1", "--format", "csv"],
    ["rsp-sweep", "--state", "werner", "--lambda", "0.5", "--state2", "maximally-mixed",
     "--targets", "0"],
    ["rsp-sweep", "--state", "werner", "--lambda", "0.5", "--state2", "maximally-mixed",
     "--shots", "0"],
    ["rsp-sweep", "--state", "werner", "--lambda", "0.5", "--state2", "maximally-mixed",
     "--seed", "-1"],
    ["oracle-check", "--ensemble", "random:1", "--seed", "-1"],
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "poisson:1e4",
     "--seed", "-1"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content,field", [
    (b'{"matrix": [[{"x": 1}]]}', "'matrix'"),
    (b'{"matrix": [[[1' + b"0" * 400 + b', 0]]]}', "'matrix'"),
    (b'{"matrix": "abc"}', "'matrix'"),
    (b'{"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}', "'matrix'"),
    (b'{"bloch": {"a": [0, 0], "b": [0, 0, 0], "E": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}',
     "'bloch.a'"),
    (b'{"matrix": "\xff\xfe"}', "UTF-8"),
], ids=["object-entry", "400-digit-integer", "string", "ragged", "short-bloch-a", "not-utf-8"])
def test_malformed_state_file_is_a_state_error(content, field, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(content)
    with pytest.raises(StateError, match=field):
        load_state_file(path)
    assert main(["characterize", "--state", f"file:{path}"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validation_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["characterize", "--state", f"file:{bad_json}"]) == 2

    unphysical = tmp_path / "unphysical.json"
    unphysical.write_text(json.dumps(
        {"bloch": {"a": [0, 0, 0], "b": [0, 0, 0],
                   "E": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}))
    assert main(["characterize", "--state", f"file:{unphysical}"]) == 2

    assert main(["characterize", "--state", f"file:{tmp_path}/absent.json"]) == 2
    assert main(["characterize", "--state", "werner", "--lambda", "1.5"]) == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_states_exit_2(value, tmp_path, capsys):
    doc = tmp_path / "state.json"
    doc.write_text('{"bloch": {"a": [%s, 0, 0], "b": [0, 0, 0], '
                   '"E": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}' % value)
    text = value.lower().replace("infinity", "inf")
    for argv in (["--state", f"file:{doc}"],
                 ["--state", "werner", f"--lambda={text}"],
                 ["--state", "rho_b", f"--k={text}", "--t", "0"],
                 ["--state", "rho_b", "--k", "0", f"--t={text}"]):
        assert main(["characterize", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Eigenvalues did not converge" not in err


def test_rsp_sweep_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["rsp-sweep", "--state", "werner", "--lambda", str(1 / 3),
            "--state2", "rho_b", "--k", "0.2", "--t", "0.4",
            "--targets", "20", "--shots", "500", "--seed", "5",
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "min delta_p" in err

    first = out.read_bytes()
    rows = list(csv.reader(io.StringIO(first.decode())))
    assert rows[0] == ["target_index", "sx", "sy", "sz",
                       "payoff_analytic_1", "payoff_mc_1", "stderr_1",
                       "payoff_analytic_2", "payoff_mc_2", "stderr_2", "delta_p"]
    assert len(rows) == 21
    for row in rows[1:]:
        assert abs(float(row[10]) - 16.0 / 225.0) < 1e-12

    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["command"] == "rsp-sweep"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == [str(out)]
    assert manifest["parameters"]["targets"] == 20
    assert "artifact_version" in manifest and "duration_seconds" in manifest

    # rerun reproduces the data file byte for byte
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_rsp_sweep_with_noise_keeps_separation(capsys):
    assert main(["rsp-sweep", "--state", "werner", "--lambda", str(1 / 3),
                 "--state2", "rho_b", "--k", "0.2", "--t", "0.4",
                 "--targets", "58", "--shots", "100", "--seed", "0",
                 "--noise", "poisson:10000", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    deltas = [float(r[10]) for r in rows[1:]]
    assert len(deltas) == 58
    # reconstruction noise moves delta_p but stays clear of the 0.043 floor
    assert min(deltas) > 0.043


def test_rsp_sweep_singlet_vs_noise(capsys):
    assert main(["rsp-sweep", "--state", "bell:psi-", "--state2",
                 "maximally-mixed", "--targets", "12", "--shots", "100",
                 "--seed", "0", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows[1:]:
        assert abs(float(row[10]) - 1.0) < 1e-12


def test_oracle_check_passes(tmp_path, capsys):
    assert main(["oracle-check", "--ensemble", "random:5",
                 "--grid-points", "4000", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ensemble random:5  states 5  axes 500  grid 4000  seed 0"
    assert out.strip().endswith("PASS")

    report = tmp_path / "oracle.txt"
    assert main(["oracle-check", "--ensemble", "zero-discord:10",
                 "--seed", "1", "--out", str(report)]) == 0
    assert capsys.readouterr().out.strip() == "PASS"
    assert report.read_text().strip().endswith("PASS")
    manifest = json.loads((tmp_path / "oracle.txt.manifest.json").read_text())
    assert manifest["command"] == "oracle-check"
    assert "restarts" not in manifest["parameters"]


def test_oracle_check_restarts_is_deprecated(tmp_path, capsys):
    report = tmp_path / "oracle.txt"
    assert main(["oracle-check", "--ensemble", "random:2", "--restarts", "50",
                 "--out", str(report)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--restarts is deprecated and ignored" in err
    manifest = json.loads((tmp_path / "oracle.txt.manifest.json").read_text())
    assert manifest["parameters"]["restarts"] == 50


@pytest.mark.parametrize("argv", [
    ["--seed", "2"],
    ["--ensemble", "zero-discord:1", "--seed", "1527482097"],
])
def test_oracle_check_regression_seeds(argv, capsys):
    # both missed the 1e-3 discord tolerance under the earlier 9-parameter search
    assert main(["oracle-check", *argv]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_oracle_check_fails_on_coarse_grid(capsys):
    # 2 grid points cannot track the worst-case axis
    assert main(["oracle-check", "--ensemble", "random:3",
                 "--grid-points", "2", "--seed", "0"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_oracle_check_bad_ensemble(capsys):
    assert main(["oracle-check", "--ensemble", "bogus:5"]) == 1
    assert main(["oracle-check", "--ensemble", "random:x"]) == 1
    capsys.readouterr()


def test_evaluate_oracle_gaps_refuses_empty_ensemble():
    with pytest.raises(ValueError, match="at least one state"):
        evaluate_oracle_gaps(iter(()), grid_points=100)


def test_characterize_out_manifest(tmp_path, capsys):
    out = tmp_path / "quants.csv"
    argv = ["characterize", "--state", "werner", "--lambda", "0.5",
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    first = out.read_bytes()
    rows = _parse_csv(first.decode())
    assert abs(rows["discord"] - 0.25) < 1e-12
    manifest = json.loads((tmp_path / "quants.csv.manifest.json").read_text())
    assert manifest["parameters"]["lam"] == 0.5
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_quantities_of_against_modules():
    state = werner(0.6)
    rows = quantities_of(state)
    assert rows["fidelity"] == 1.0
    noisy = werner(0.59)
    rows = quantities_of(noisy, ideal=state)
    assert rows["fidelity"] == pytest.approx(state_fidelity(noisy, state), abs=1e-15)
