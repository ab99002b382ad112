import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wildcat
from wildcat.cli import Report, run_command

JORDAN = {
    "field": 1,
    "mode": "tuple",
    "tuple": {"n": 2, "loops": [{"matrix": [["1", "1"], ["0", "1"]]}]},
}

TWO_CIRCLE = {
    "field": 1,
    "mode": "stokes",
    "stokes": {"genus": 0, "n": 2, "punctures": [{"circles": [
        {"ram": 1, "coeffs": [[1, "1"]], "multiplicity": 1},
        {"ram": 1, "coeffs": [[1, "-1"]], "multiplicity": 1}]}]},
}

IDENTITY_CANDIDATE = {
    "h1": [["1", "0"], ["0", "1"]],
    "S1.0": [["1", "0"], ["0", "1"]],
    "S1.1": [["1", "0"], ["0", "1"]],
}


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p.as_posix()


def test_analyze_jordan(tmp_path, capsys):
    path = write(tmp_path, "jordan.json", JORDAN)
    code = run_command(["analyze", "--instance", path, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["polystable"] is False
    assert payload["report"]["radical_witness"] == [["0", "1"], ["0", "0"]]


def test_analyze_text_shows_witness(tmp_path, capsys):
    path = write(tmp_path, "jordan.json", JORDAN)
    code = run_command(["analyze", "--instance", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "polystable: False" in out
    assert "radical witness" in out


def test_determinism_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "jordan.json", JORDAN)
    runs = []
    for _ in range(2):
        assert run_command(["analyze", "--instance", path, "--format", "machine"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_directions_two_circle(tmp_path, capsys):
    path = write(tmp_path, "tc.json", TWO_CIRCLE)
    code = run_command(["directions", "--instance", path, "--format", "machine"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    thetas = [d["theta"] for d in out["punctures"][0]["directions"]]
    assert len(thetas) == 2
    assert abs(thetas[0] - 0.0) < 1e-9 and abs(thetas[1] - 3.14159265358979) < 1e-6


def test_scaffold_output(tmp_path, capsys):
    path = write(tmp_path, "tc.json", TWO_CIRCLE)
    code = run_command(["scaffold", "--instance", path, "--format", "machine"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [g["name"] for g in out["generators"]] == ["h1", "S1.0", "S1.1"]
    assert out["relation"] == [["h1", 1], ["S1.1", 1], ["S1.0", 1]]


def test_verify_accepts_and_rejects(tmp_path, capsys):
    good = dict(TWO_CIRCLE)
    good["candidate"] = IDENTITY_CANDIDATE
    path = write(tmp_path, "good.json", good)
    assert run_command(["verify", "--instance", path]) == 0
    capsys.readouterr()
    bad = dict(TWO_CIRCLE)
    bad["candidate"] = dict(IDENTITY_CANDIDATE, **{"S1.0": [["1", "2"], ["0", "1"]]})
    path = write(tmp_path, "bad.json", bad)
    assert run_command(["verify", "--instance", path]) == 1
    out = capsys.readouterr().out
    assert "S1.0" in out


def test_analyze_stokes_with_candidate(tmp_path, capsys):
    data = dict(TWO_CIRCLE)
    data["candidate"] = IDENTITY_CANDIDATE
    path = write(tmp_path, "tc.json", data)
    code = run_command(["analyze", "--instance", path, "--format", "machine"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["report"]["polystable"] is True
    assert out["report"]["stable"] is False


def test_analyze_stokes_requires_candidate(tmp_path, capsys):
    path = write(tmp_path, "tc.json", TWO_CIRCLE)
    assert run_command(["analyze", "--instance", path]) == 2


def test_analyze_stokes_invalid_candidate(tmp_path, capsys):
    bad = dict(IDENTITY_CANDIDATE, **{"S1.0": [["1", "2"], ["0", "1"]]})
    data = dict(TWO_CIRCLE, candidate=bad)
    path = write(tmp_path, "bad.json", data)
    assert run_command(["analyze", "--instance", path, "--format", "machine"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid candidate: S1.0: entry (0, 1) leaves the "
                            "direction's block pattern\n")


@pytest.mark.parametrize("command", ["directions", "scaffold", "verify", "sample"])
def test_surface_commands_reject_tuple_instances(tmp_path, capsys, command):
    path = write(tmp_path, "jordan.json", JORDAN)
    assert run_command([command, "--instance", path]) == 2
    assert capsys.readouterr().err == f"{command} requires a stokes instance\n"


def test_reduce(tmp_path, capsys):
    diag = {"field": 1, "mode": "tuple",
            "tuple": {"n": 2, "loops": [{"matrix": [["2", "0"], ["0", "3"]]}]}}
    path = write(tmp_path, "diag.json", diag)
    code = run_command(["reduce", "--instance", path, "--format", "machine"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["blocks"]) == 2


def test_reduce_not_polystable(tmp_path, capsys):
    path = write(tmp_path, "jordan.json", JORDAN)
    assert run_command(["reduce", "--instance", path]) == 1


def test_sample_and_reuse(tmp_path, capsys):
    path = write(tmp_path, "tc.json", TWO_CIRCLE)
    code = run_command(["sample", "--instance", path, "--seed", "3", "--format", "machine"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    data = dict(TWO_CIRCLE)
    data["candidate"] = out["candidate"]
    path2 = write(tmp_path, "tc2.json", data)
    assert run_command(["verify", "--instance", path2]) == 0


def test_sample_determinism(tmp_path, capsys):
    path = write(tmp_path, "tc.json", TWO_CIRCLE)
    outs = []
    for _ in range(2):
        assert run_command(["sample", "--instance", path, "--seed", "9",
                            "--format", "machine"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_bad_instance_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_command(["analyze", "--instance", p.as_posix()]) == 2
    assert run_command(["analyze", "--instance", "/does/not/exist.json"]) == 2


def test_unknown_subcommand():
    assert run_command(["frobnicate", "--instance", "x"]) == 2


def test_report_round_trip(tmp_path, capsys):
    path = write(tmp_path, "jordan.json", JORDAN)
    run_command(["analyze", "--instance", path, "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    report = Report.from_json(payload)
    assert report.to_json() == payload
    assert Report.from_json(report.to_json()) == report


def test_console_script(tmp_path):
    path = write(tmp_path, "jordan.json", JORDAN)
    # the child finds the package where this process found it, installed or not
    src = str(Path(wildcat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "wildcat.cli", "analyze",
                           "--instance", path, "--format", "machine"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["polystable"] is False
