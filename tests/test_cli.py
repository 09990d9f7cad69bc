"""End-to-end command line checks: outputs, manifests, exit codes."""

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsp import __version__, cli, qstate
from qrsp.cli import (
    MAX_ENSEMBLE,
    MAX_GRID_POINTS,
    MAX_TARGETS,
    build_parser,
    evaluate_oracle_gaps,
    main,
    quantities_of,
)
from qrsp.qstate import (
    StateError,
    TwoQubitState,
    load_state_file,
    save_state_file,
    state_fidelity,
    to_bloch,
)
from qrsp.states import random_state, rho_b, werner
from qrsp.rsp import ProtocolConfig, SweepResult, run_round


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
    ["characterize", "--state", "werner", "--lambda", "0.5", "--noise", "poisson:1e20"],
    ["rsp-sweep", "--state", "werner", "--lambda", "0.5", "--state2", "maximally-mixed",
     "--shots", str(2**63)],
    ["characterize", "--state", "werner", "--lambda", "0.5",
     "--noise", "poisson:1e4,rot:z:inf"],
    ["characterize", "--state", "werner", "--lambda", "0.5",
     "--noise", "poisson:1e4,rot:z:nan"],
    ["rsp-sweep", "--state", "werner", "--lambda", "0.5", "--state2", "maximally-mixed",
     "--targets", str(MAX_TARGETS + 1)],
    ["oracle-check", "--ensemble", "random:1", "--grid-points", str(MAX_GRID_POINTS + 1)],
    ["oracle-check", "--ensemble", f"random:{MAX_ENSEMBLE + 1}"],
    ["oracle-check", "--ensemble", "random:1", "--restarts", "5"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_non_finite_rot_angle_names_the_angle(angle, capsys):
    argv = ["characterize", "--state", "werner", "--lambda", "0.5",
            "--noise", f"poisson:1e4,rot:y:{angle}"]
    assert main(argv) == 1
    assert f"angle '{angle}'" in capsys.readouterr().err


def test_failed_out_write_leaves_no_temporary_file(tmp_path, capsys):
    existing = tmp_path / "existing-directory"
    existing.mkdir()
    argv = ["characterize", "--state", "werner", "--lambda", "0.5", "--out", str(existing)]
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [existing]


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


def test_state_at_the_psd_tolerance_is_characterized(tmp_path, capsys):
    # its eigenvalue -9e-10 is within PSD_TOL, so |a| = 1 + 1.8e-9 is a valid
    # state's Bloch vector; no second bound may refuse it after validation
    rho = TwoQubitState(np.diag([1.0 + 9e-10, 0.0, 0.0, -9e-10]))
    assert to_bloch(rho).a[2] > 1.0 + 1e-9
    path = tmp_path / "edge.json"
    save_state_file(rho, path)
    assert main(["characterize", "--state", f"file:{path}", "--format", "csv"]) == 0
    assert set(_parse_csv(capsys.readouterr().out)) == set(quantities_of(rho))


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


def test_evaluate_oracle_gaps_does_not_depend_on_chunking(monkeypatch):
    ensemble = [random_state(seed, rank=1 + seed % 4) for seed in range(7)]
    whole = evaluate_oracle_gaps(ensemble, grid_points=500)
    monkeypatch.setattr(cli, "_ORACLE_CHUNK", 3)
    assert evaluate_oracle_gaps(iter(ensemble), grid_points=500) == whole
    assert whole["states"] == 7


def test_cached_parser_keeps_no_flags_between_calls(capsys):
    argv = ["characterize", "--state", "werner", "--lambda", "0.5", "--format", "csv"]
    build_parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main([*argv, "--noise", "poisson:1e4", "--seed", "3"]) == 0
    assert capsys.readouterr().out != fresh
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh
    assert build_parser() is build_parser()


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


_MANIFESTS = {
    "characterize": (
        ["characterize", "--state", "werner", "--lambda", "0.5",
         "--noise", "poisson:1e4,rot:x:0.2", "--seed", "4"],
        {"command": "characterize", "format": "text", "lam": 0.5,
         "noise": "poisson:1e4,rot:x:0.2", "seed": 4, "state": "werner"}, ""),
    "rsp-sweep": (
        ["rsp-sweep", "--state", "bell:psi-", "--state2", "maximally-mixed",
         "--targets", "6", "--shots", "100", "--format", "csv"],
        {"command": "rsp-sweep", "format": "csv", "seed": 0, "shots": 100,
         "state": "bell:psi-", "state2": "maximally-mixed", "targets": 6}, ""),
    "oracle-check": (
        ["oracle-check", "--ensemble", "zero-discord:2", "--grid-points", "500",
         "--seed", "1"],
        {"command": "oracle-check", "ensemble": "zero-discord:2", "grid_points": 500,
         "seed": 1}, "PASS\n"),
}


@pytest.mark.parametrize("command", _MANIFESTS)
def test_manifest_schema(command, tmp_path, capsys):
    argv, params, stdout = _MANIFESTS[command]
    out = tmp_path / "result.out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    manifest = json.loads((tmp_path / "result.out.manifest.json").read_text())
    assert set(manifest) == {"artifact_version", "command", "duration_seconds",
                             "outputs", "parameters", "seed"}
    assert manifest["command"] == command
    assert manifest["parameters"] == {**params, "out": str(out)}
    assert manifest["seed"] == params["seed"]
    assert manifest["outputs"] == [str(out)]
    assert manifest["artifact_version"] == __version__
    assert manifest["duration_seconds"] >= 0


def test_quantities_of_against_modules():
    state = werner(0.6)
    rows = quantities_of(state)
    assert rows["fidelity"] == 1.0
    noisy = werner(0.59)
    rows = quantities_of(noisy, ideal=state)
    assert rows["fidelity"] == pytest.approx(state_fidelity(noisy, state), abs=1e-15)


_W3 = "0.3333333333333333"


@pytest.mark.parametrize("run,built", [
    (lambda: run_round(rho_b(0.2, 0.4), ProtocolConfig(beta=[0, 0, 1], target=[1, 0, 0]),
                       np.random.default_rng(0)), 1),
    (lambda: main(["rsp-sweep", "--state", "rho_b", "--k", "0.2", "--t", "0.4",
                   "--state2", "werner", "--lambda", _W3, "--seed", "1"]), 2),
    (lambda: main(["characterize", "--state", "werner", "--lambda", "0.5",
                   "--noise", "poisson:1e5", "--seed", "7"]), 2),
], ids=["run_round", "rsp-sweep", "noisy-characterize"])
def test_each_state_builds_its_bloch_triple_once(run, built, monkeypatch, capsys):
    reps = []

    class CountingBlochRep(qstate.BlochRep):
        def __post_init__(self):
            reps.append(self)
            super().__post_init__()

    monkeypatch.setattr(qstate, "BlochRep", CountingBlochRep)
    run()
    capsys.readouterr()
    assert len(reps) == built


# SHA-256 of main()'s (stdout, stderr) for seeded runs, so every seeded output stays
# byte-identical across refactors.  Re-pin a hash only in a change that says why,
# for example a numpy upgrade that changes its generator streams.
_RHO_B = ["--state", "rho_b", "--k", "0.2", "--t", "0.4"]
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_GOLDEN = {
    "characterize": (
        ["characterize", *_RHO_B, "--format", "csv"],
        "ca2eb020c963a7b556bd6d7871fb72e03553fb5c7951f1db62fb1d87766a0c1a", _EMPTY),
    "characterize-noise-rot": (
        ["characterize", *_RHO_B, "--format", "csv", "--noise", "poisson:1e5,rot:z:0.1",
         "--seed", "7"],
        "86f91efefa72dcd1249f446e3ad07e4eae62d4b041ac768f053c5df45ac557ce", _EMPTY),
    "characterize-werner-noise": (
        ["characterize", "--state", "werner", "--lambda", "0.8", "--format", "csv",
         "--noise", "poisson:1e3", "--seed", "5"],
        "9b815d6530d44817e8ce501e3eca7f910f315efa1a1b687d62c31771593b0679", _EMPTY),
    "rsp-sweep": (
        ["rsp-sweep", *_RHO_B, "--state2", "werner", "--lambda", _W3, "--seed", "1",
         "--format", "csv"],
        "2b23b119fab14a73abcea2dbc7b992673f9f7c92bc0c35bea9164d6c82a6faf4",
        "fdd4bd9a40e1b9c458c4873bf7397caef71b7a0b496589a8a9c06cc64a8b0525"),
    "rsp-sweep-noise": (
        ["rsp-sweep", *_RHO_B, "--state2", "werner", "--lambda", _W3, "--seed", "1",
         "--format", "csv", "--noise", "poisson:1e4"],
        "1c4ad5713a94b6f657b51177e52e1d4f4eccc69a2846cb49e43a446c6fc5bc88",
        "32ad1eb75aee6e9def91d7591a7d0e9ceec971891018e7bfb1c66a4d1cd264e6"),
    "oracle-check-random": (
        ["oracle-check", "--ensemble", "random:50", "--seed", "3"],
        "04453ac9ecd3e021503515520832ad255fa75dd1d293eea7647a7a4201b73f37", _EMPTY),
    "oracle-check-zero-discord": (
        ["oracle-check", "--ensemble", "zero-discord:20", "--seed", "3"],
        "00b511a159360b3e5765031dd5cfea9a2e23dc8f2010384b4bea4e806ccd13f6", _EMPTY),
    "characterize-text": (
        ["characterize", *_RHO_B],
        "774097b607a397a4ae5e351be7e26c7e98accde4bf54df86fd17e3ddbf63899d", _EMPTY),
    "rsp-sweep-text": (
        ["rsp-sweep", *_RHO_B, "--state2", "werner", "--lambda", _W3, "--seed", "1"],
        "03af9ec54d1465eb0b9b640ed3306b16de14724dd98a8c170fabebe26dad7e9f",
        "fdd4bd9a40e1b9c458c4873bf7397caef71b7a0b496589a8a9c06cc64a8b0525"),
    "characterize-noise-rot-x": (
        ["characterize", *_RHO_B, "--format", "csv", "--noise", "poisson:1e4,rot:x:0.2",
         "--seed", "7"],
        "d9953a3bb75b98f747151c7fc9f69c9d7136823fd232eb81377bb987292d44bc", _EMPTY),
    "characterize-noise-rot-y": (
        ["characterize", *_RHO_B, "--format", "csv", "--noise", "poisson:1e4,rot:y:-0.3",
         "--seed", "7"],
        "88a60c869ca809f3cc7db18ccf1d04a6b64b00654cf6fdf5a037dd77e7a75798", _EMPTY),
}


@pytest.mark.parametrize("name", _GOLDEN)
def test_seeded_outputs_are_byte_identical(name, capsys):
    argv, out_sha, err_sha = _GOLDEN[name]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha


# Command lines drawn from the CLI grammar: each subcommand's own flags, each
# present or not, in any order, with values mostly well-formed and in range; some
# runs also get one more flag or token from anywhere.  Sizes stay small
# (--targets <= 64, ensembles <= 3 states, --grid-points <= 2000); oracle-check
# always gets a small --ensemble and --grid-points, since its defaults (100 states,
# 10,000 points) take a second.  Free text has no decimal digits, so it cannot ask
# for a large size either, and no NUL, which no OS argv holds.
_JUNK = st.text(st.characters(exclude_categories=("Cs", "Nd"), exclude_characters="\x00"),
                max_size=6)


def _mostly(valid, other=_JUNK):
    """Mostly `valid`, sometimes `other`."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else other)


def _float(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), st.floats().map(repr) | _JUNK)


def _int(lo, hi):
    return _mostly(st.integers(lo, hi).map(str))


_STATE = _mostly(st.sampled_from(["werner", "rho_b", "maximally-mixed", "bell:psi-",
                                  "bell:phi+", "file:state.json"]),
                 st.sampled_from(["bell:zeta", "file:junk.json", "file:absent.json",
                                  "file:."]) | _JUNK)
_ROT = st.builds("rot:{}:{}".format, _mostly(st.sampled_from(["x", "y", "z"])),
                 _float(-4.0, 4.0))
_NOISE = _mostly(st.builds(lambda mean, rots: ",".join([f"poisson:{mean}", *rots]),
                           _mostly(st.floats(1.0, 1e6).map(repr),
                                   st.sampled_from(["1e18", "1e20", "0", "nan"]) | _JUNK),
                           st.lists(_ROT, max_size=2)))
_ENSEMBLE = _mostly(st.builds("{}:{}".format, st.sampled_from(["random", "zero-discord"]),
                              st.integers(1, 3)),
                    st.builds("random:{}:{}".format, st.integers(-1, 3), st.integers(-1, 5))
                    | _JUNK)
_SEED = _int(-1, 2**70)
_OUT = st.sampled_from(["out.txt", "missing/out.txt", "."])
_COMMON = {"--state": _STATE, "--lambda": _float(0.0, 1.0), "--k": _float(-0.4, 1.0),
           "--t": _float(-0.5, 0.5), "--noise": _NOISE, "--seed": _SEED, "--out": _OUT,
           "--format": _mostly(st.sampled_from(["csv", "text"]))}
_FLAGS = {
    "characterize": _COMMON,
    "rsp-sweep": {**_COMMON, "--state2": _STATE, "--targets": _int(1, 64),
                  "--shots": _mostly(st.integers(1, 2**63 - 1).map(str),
                                     st.sampled_from(["0", "-1", str(2**63)]) | _JUNK)},
    "oracle-check": {"--ensemble": _ENSEMBLE, "--grid-points": _int(1, 2000),
                     "--seed": _SEED, "--out": _OUT},
}
_ANY_FLAG = sorted({flag for flags in _FLAGS.values() for flag in flags})
_YES, _NO = st.just(True), st.just(False)


@st.composite
def _argvs(draw):
    command = draw(_mostly(st.sampled_from(sorted(_FLAGS))))
    flags = _FLAGS.get(command, {})
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if (command == "oracle-check" and flag in ("--ensemble", "--grid-points")
                or draw(_mostly(_YES, _NO))):
            argv += [flag, draw(flags[flag])]
    if draw(_mostly(_NO, _YES)):
        argv += draw(st.sampled_from(_ANY_FLAG).map(lambda f: [f]) | _JUNK.map(lambda t: [t]))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argvs())
def test_cli_grammar_fuzz_never_raises(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative --out and file: paths stay inside tmp
        try:
            save_state_file(rho_b(0.2, 0.4), "state.json")
            with open("junk.json", "w", encoding="utf-8") as fh:
                fh.write('{"matrix": [[[1, 0]]]}')
            try:
                code = main(argv)
            except SystemExit as exc:  # -h/--help: argparse prints help and exits 0
                code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
