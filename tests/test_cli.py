import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wildcat
from wildcat import cli, stokes
from wildcat.cli import Report, machine_text, run_command
from wildcat.scalars import Scalar

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


JSON_LEAVES = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),   # controls and surrogates too
    st.booleans(), st.none(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, 0.0]))


@settings(max_examples=200)
@given(st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=30))
def test_machine_text_is_the_indented_sorted_json_dump(payload):
    # machine output skips the pure-Python encoder that an indent selects,
    # for the same bytes: empty containers, tuples as lists, nan and -0.0
    assert machine_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


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


def test_reduce_twisted_is_an_input_error(tmp_path, capsys):
    twisted = {"field": 1, "mode": "tuple",
               "tuple": {"n": 2, "loops": [{"matrix": [["0", "1"], ["1", "0"]],
                                            "outer": "sigma"}]}}
    path = write(tmp_path, "twisted.json", twisted)
    assert run_command(["reduce", "--instance", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "Levi extraction requires untwisted loops\n" and captured.out == ""


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


@pytest.mark.parametrize("entry", ["1e5", "1_0"])
def test_scalar_outside_the_grammar_exit_code(tmp_path, capsys, entry):
    data = json.loads(json.dumps(JORDAN))
    data["tuple"]["loops"][0]["matrix"][0][1] = entry
    path = write(tmp_path, "exponent.json", data)
    assert run_command(["analyze", "--instance", path, "--format", "machine"]) == 2
    assert "bad scalar" in capsys.readouterr().err


def test_zero_denominator_exit_code(tmp_path, capsys):
    data = json.loads(json.dumps(JORDAN))
    data["tuple"]["loops"][0]["matrix"][0][1] = "3/0"
    path = write(tmp_path, "zero.json", data)
    assert run_command(["analyze", "--instance", path, "--format", "machine"]) == 2
    err = capsys.readouterr().err
    assert "tuple.loops[0].matrix[0][1]: bad scalar" in err and "3/0" in err


# left multiplication by i and j on the rational quaternions (1, i, j, k): the
# module is irreducible over Q with End a division algebra of dimension 4,
# which the MeatAxe can neither split nor certify
QUATERNION_PAIR = {
    "field": 1,
    "mode": "tuple",
    "tuple": {"n": 4, "loops": [
        {"matrix": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                    ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
        {"matrix": [["0", "0", "-1", "0"], ["0", "0", "0", "1"],
                    ["1", "0", "0", "0"], ["0", "-1", "0", "0"]]}]},
}


INCONCLUSIVE = ("MeatAxe inconclusive: the endomorphism ring (dimension 4, centre dimension 1) "
                "is not a field, and no element tried splits the module")


@pytest.mark.parametrize("command", ["analyze", "reduce"])
def test_inconclusive_meataxe_exit_code(tmp_path, capsys, command):
    path = write(tmp_path, "quaternion.json", QUATERNION_PAIR)
    assert run_command([command, "--instance", path, "--format", "machine"]) == \
        cli.EXIT_INCONCLUSIVE == 3
    out, err = capsys.readouterr()
    assert out == "" and err == INCONCLUSIVE + "\n"


@pytest.mark.parametrize("circles", [
    [{"ram": 1, "coeffs": [[1, "1"]]}, {"ram": 1, "coeffs": [[1, "1"]]}],  # repeated
    [{"ram": 1, "coeffs": []}, {"ram": 1, "coeffs": []}],  # two tame circles
    [{"ram": 2, "coeffs": [[1, "1"]]}, {"ram": 2, "coeffs": [[1, "-1"]]}],  # swapped sheets
])
def test_shared_sheet_is_an_input_error(tmp_path, capsys, circles):
    data = {"field": 1, "mode": "stokes",
            "stokes": {"n": sum(c["ram"] for c in circles),
                       "punctures": [{"circles": circles}]}}
    path = write(tmp_path, "shared.json", data)
    for command in ("analyze", "reduce", "directions", "scaffold", "verify", "sample"):
        assert run_command([command, "--instance", path]) == 2
        err = capsys.readouterr().err
        assert err == "stokes.punctures[0]: two sheets share one exponential factor\n"


TWISTED = {"field": 1, "mode": "tuple",
           "tuple": {"n": 2, "loops": [{"matrix": [["0", "1"], ["1", "0"]], "outer": "sigma"}]}}
# one circle of ramification 3 with exponent 1: the variety is empty
RAM3_SLOPE1 = {"field": 1, "mode": "stokes", "stokes": {"genus": 0, "n": 3, "punctures": [
    {"circles": [{"ram": 3, "coeffs": [[1, "1"]]}]}]}}
BAD_CANDIDATE = dict(TWO_CIRCLE, candidate=dict(IDENTITY_CANDIDATE,
                                                **{"S1.0": [["1", "2"], ["0", "1"]]}))
INVALID = "invalid candidate: S1.0: entry (0, 1) leaves the direction's block pattern"
NO_CANDIDATE = "stokes instance needs a candidate (use sample to create one)"

# (row of cli._FAILURES, its exit code, command, document, stderr line)
FAILURE_CASES = [
    ("InvalidCandidate", 1, "analyze", BAD_CANDIDATE, INVALID),
    ("InvalidCandidate", 1, "reduce", BAD_CANDIDATE, INVALID),
    ("NotPolystable", 1, "reduce", JORDAN, "point is not polystable: no Levi reduction"),
    ("UnsolvableRelation", 1, "sample", RAM3_SLOPE1,
     "no verified candidate after 40 seeded attempts (seed 0): "
     "40 x local factorization missed the twisted graded support"),
    ("TwistedInput", 2, "reduce", TWISTED, "Levi extraction requires untwisted loops"),
    ("MeatAxeInconclusive", 3, "analyze", QUATERNION_PAIR, INCONCLUSIVE),
    ("MeatAxeInconclusive", 3, "reduce", QUATERNION_PAIR, INCONCLUSIVE),
    *(("_Refused", 2, command, JORDAN, f"{command} requires a stokes instance")
      for command in ("directions", "scaffold", "verify", "sample")),
    ("_Refused", 2, "analyze", TWO_CIRCLE, NO_CANDIDATE),
    ("_Refused", 2, "reduce", TWO_CIRCLE, NO_CANDIDATE),
    ("_Refused", 2, "verify", TWO_CIRCLE, "verify requires a candidate"),
]


@pytest.mark.parametrize("failure, code, command, doc, err", FAILURE_CASES,
                         ids=[f"{case[0]}-{case[2]}-{i}" for i, case in enumerate(FAILURE_CASES)])
def test_failure_table(tmp_path, capsys, failure, code, command, doc, err):
    path = write(tmp_path, "doc.json", doc)
    assert cli._FAILURES[getattr(cli, failure)] == code
    assert run_command([command, "--instance", path, "--format", "machine"]) == code
    assert capsys.readouterr() == ("", err + "\n")


def test_every_failure_row_has_a_case():
    assert {kind.__name__ for kind in cli._FAILURES} == {case[0] for case in FAILURE_CASES}


def one_circle(*coeffs):
    """TWO_CIRCLE with its first circle's coefficients replaced."""
    circles = [{"ram": 1, "coeffs": list(coeffs), "multiplicity": 1},
               TWO_CIRCLE["stokes"]["punctures"][0]["circles"][1]]
    return dict(TWO_CIRCLE, stokes=dict(TWO_CIRCLE["stokes"], punctures=[{"circles": circles}]))


def graded(*gradings):
    """A loopless n = 2 tuple document with these gradings, each a list of
    (weight, basis) pieces, and no connector."""
    return {"field": 1, "mode": "tuple", "tuple": {"n": 2, "gradings": [
        [{"weight": weight, "basis": basis} for weight, basis in pieces] for pieces in gradings]}}


UNIT_PIECES = [([0], [["1", "0"]]), ([1], [["0", "1"]])]
CIRCLE_PATH = "stokes.punctures[0].circles[0]"

# error paths that no other test, no bench self-test and no workload round
# reaches, each one edit away from a valid document: (command, document,
# exit code, its message on stderr, or its violations in the machine output)
NEAR_MISSES = [
    ("verify", one_circle([0, "1"]), 2, f"{CIRCLE_PATH}: exponents must be >= 1"),
    ("verify", one_circle([1, "1"], [1, "2"]), 2, f"{CIRCLE_PATH}: repeated exponent in circle"),
    ("verify", one_circle([1, "0"]), 2, f"{CIRCLE_PATH}: zero coefficient in circle"),
    ("verify", dict(TWO_CIRCLE, stokes=dict(TWO_CIRCLE["stokes"], n=3)), 2,
     "stokes: irregular class of rank 2 at a rank-3 puncture"),
    ("analyze", graded(UNIT_PIECES, UNIT_PIECES), 2, "tuple: need exactly m-1 connectors"),
    ("analyze", graded([([0], [["1", "0"]]), ([0, 1], [["0", "1"]])]), 2,
     "tuple.gradings[0]: grading weights have mixed lengths"),
    ("analyze", graded(UNIT_PIECES[:1]), 2,
     "tuple.gradings[0]: grading pieces do not have total dimension n"),
    ("verify", dict(TWO_CIRCLE, candidate=dict(IDENTITY_CANDIDATE, h1=[["1"] * 3] * 3)), 1,
     ["h1: expected a 2x2 matrix"]),
    ("verify", dict(TWO_CIRCLE, candidate=dict(IDENTITY_CANDIDATE, h1=[["0"] * 2] * 2)), 1,
     ["h1: matrix is not invertible"]),
]


@pytest.mark.parametrize("command, doc, code, expected", NEAR_MISSES,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(NEAR_MISSES)])
def test_near_miss_documents_end_in_their_message(tmp_path, capsys, command, doc, code, expected):
    path = write(tmp_path, "doc.json", doc)
    assert run_command([command, "--instance", path, "--format", "machine"]) == code
    out, err = capsys.readouterr()
    if isinstance(expected, list):
        assert err == "" and json.loads(out)["violations"] == expected
    else:
        assert (out, err) == ("", expected + "\n")


def test_a_fault_building_a_verified_point_escapes(tmp_path, monkeypatch):
    # only a candidate that fails verification exits 1; a ValueError raised
    # while the verified candidate is assembled is a fault, not a verdict
    def broken(*args):
        raise ValueError("broken point")
    monkeypatch.setattr(stokes, "FramedPoint", broken)
    path = write(tmp_path, "tc.json", dict(TWO_CIRCLE, candidate=IDENTITY_CANDIDATE))
    with pytest.raises(ValueError, match="broken point"):
        run_command(["analyze", "--instance", path, "--format", "machine"])


ENTRIES = st.sampled_from(["-2", "-1", "-1/2", "0", "1/2", "1", "2"])


@st.composite
def tuple_documents(draw):
    """Schema-valid tuple documents; a singular loop or inner part is allowed."""
    n = draw(st.integers(1, 3))
    matrices = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    loops = []
    for _ in range(draw(st.integers(1, 2))):
        loop = {"matrix": draw(matrices), "outer": draw(st.sampled_from(["identity", "sigma"]))}
        if draw(st.booleans()):
            loop["inner"] = draw(matrices)
        loops.append(loop)
    return {"field": draw(st.sampled_from([1, 4])), "mode": "tuple",
            "tuple": {"n": n, "loops": loops}}


@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(doc=tuple_documents())
def test_every_command_ends_in_a_defined_exit_code(tmp_path_factory, doc):
    path = write(tmp_path_factory.mktemp("doc"), "doc.json", doc)
    for command in cli._COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_command([command, "--instance", path, "--format", "machine"])
        assert code in (0, 1, 2, 3), (command, code)
        if command == "analyze" and code == 0:
            payload = json.loads(out.getvalue())
            assert Report.from_json(payload).to_json() == payload


GRADED = {"field": 1, "mode": "tuple", "tuple": {
    "n": 2, "gradings": [[{"weight": [1], "basis": [["1", "0"]]},
                          {"weight": [0], "basis": [["0", "1"]]}]],
    "loops": [{"matrix": [["1", "1"], ["0", "1"]]}]}}
CIRCLE0 = ("stokes", "punctures", 0, "circles", 0)


@pytest.mark.parametrize("doc, where, value, key", [
    (JORDAN, ("field",), True, "field"),
    (JORDAN, ("tuple", "n"), True, "tuple.n"),
    (GRADED, ("tuple", "gradings", 0, 0, "weight"), [True], "tuple.gradings[0][0].weight"),
    (JORDAN, ("tuple", "loops"), 5, "tuple.loops"),
    (JORDAN, ("tuple", "connectors"), 5, "tuple.connectors"),
    (TWO_CIRCLE, ("stokes", "genus"), True, "stokes.genus"),
    (TWO_CIRCLE, ("stokes", "n"), True, "stokes.n"),
    (TWO_CIRCLE, CIRCLE0 + ("ram",), True, "stokes.punctures[0].circles[0].ram"),
    (TWO_CIRCLE, CIRCLE0 + ("multiplicity",), True,
     "stokes.punctures[0].circles[0].multiplicity"),
    (TWO_CIRCLE, CIRCLE0 + ("coeffs", 0), [True, "1"], "stokes.punctures[0].circles[0].coeffs[0]"),
    (TWO_CIRCLE, CIRCLE0 + ("coeffs",), 5, "stokes.punctures[0].circles[0].coeffs"),
])
def test_bool_and_non_list_values_are_input_errors(tmp_path, capsys, doc, where, value, key):
    # JSON true passes an int check, and a number in place of a list is not iterable
    data = json.loads(json.dumps(doc))
    target = data
    for step in where[:-1]:
        target = target[step]
    target[where[-1]] = value
    path = write(tmp_path, "schema.json", data)
    for command in ("analyze", "reduce", "directions", "scaffold", "verify", "sample"):
        assert run_command([command, "--instance", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(key + ": "), (command, err)


def test_sheets_are_expanded_once_per_class(tmp_path, capsys, monkeypatch):
    counts = {"expand_sheets": 0, "singular_directions": 0}
    for name in counts:
        original = getattr(stokes, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        for module in (stokes, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    tame = {"circles": [{"ram": 1, "coeffs": [], "multiplicity": 2}]}
    data = {"field": 1, "mode": "stokes", "stokes": {
        "genus": 0, "n": 2, "punctures": [TWO_CIRCLE["stokes"]["punctures"][0], tame]}}
    path = write(tmp_path, "two_punctures.json", data)
    for command in ("scaffold", "sample", "directions"):
        counts.update(dict.fromkeys(counts, 0))
        assert run_command([command, "--instance", path, "--format", "machine"]) == 0
        capsys.readouterr()
        # one expansion per class, when the instance is parsed, and one
        # set of incidences per puncture
        assert counts == {"expand_sheets": 2, "singular_directions": 2}, command


def test_parser_reused_across_commands(tmp_path, capsys):
    path = write(tmp_path, "jordan.json", JORDAN)
    outs = []
    for argv in (["analyze", "--instance", path, "--format", "machine"],
                 ["frobnicate"],
                 ["analyze", "--instance", path, "--format", "machine"]):
        outs.append((run_command(argv), capsys.readouterr().out))
    assert outs[0] == outs[2] and outs[0][0] == 0 and outs[1][0] == 2


def test_unknown_subcommand():
    assert run_command(["frobnicate", "--instance", "x"]) == 2


@pytest.mark.parametrize("doc", [
    pytest.param(JORDAN, id="jordan"),
    # no loop and no torus: the blocks are read over Q(zeta5), not Q
    pytest.param({"field": 5, "mode": "tuple", "tuple": {"n": 2}}, id="loopless_zeta5"),
])
def test_report_round_trip(tmp_path, capsys, monkeypatch, doc):
    path = write(tmp_path, "point.json", doc)
    run_command(["analyze", "--instance", path, "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    # certificates are read back and written with no Scalar per entry
    made = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    report = Report.from_json(payload)
    assert report.to_json() == payload
    assert made == []
    monkeypatch.undo()
    assert Report.from_json(report.to_json()) == report
    # reduce prints the blocks analyze reports, if any
    code = run_command(["reduce", "--instance", path, "--format", "machine"])
    blocks = json.loads(capsys.readouterr().out)["blocks"] if code == 0 else None
    assert blocks == payload["report"]["levi_decomposition"]


def child_env():
    """The environment of a child process that finds the package where this
    process found it, installed or not."""
    src = str(Path(wildcat.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_script(tmp_path):
    path = write(tmp_path, "jordan.json", JORDAN)
    proc = subprocess.run([sys.executable, "-m", "wildcat.cli", "analyze",
                           "--instance", path, "--format", "machine"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["polystable"] is False


def factorings_and_sympy_modules(path):
    """(exit code, factor_over_field calls, loaded sympy modules) of
    ``analyze`` on the document at path, in a fresh process, and its stderr."""
    script = "\n".join([
        "import contextlib, io, sys",
        "import wildcat",
        "from wildcat import algebra, cli",
        "calls = []",
        "factor = algebra.factor_over_field",
        "algebra.factor_over_field = lambda coeffs, m: calls.append(m) or factor(coeffs, m)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = cli.run_command(['analyze', '--instance', {path!r}, '--format', 'machine'])",
        "sympy = sorted(name for name in sys.modules if name.split('.')[0] == 'sympy')",
        "print(code, len(calls), sympy)",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split(), proc.stderr


def test_a_run_that_factors_nothing_imports_no_sympy(tmp_path):
    # the Jordan block is decided by its radical, with no polynomial factored
    out, _ = factorings_and_sympy_modules(write(tmp_path, "jordan.json", JORDAN))
    assert out == ["0", "0", "[]"]


def test_a_run_that_factors_imports_no_sympy(tmp_path):
    # the quaternion pair's hunt factors minimal polynomials over Z in the
    # package's own factoriser before it gives up, with sympy left unloaded
    out, err = factorings_and_sympy_modules(write(tmp_path, "quaternion.json", QUATERNION_PAIR))
    code, calls, modules = out
    assert (code, modules) == ("3", "[]") and int(calls) > 0
    assert err == INCONCLUSIVE + "\n"


GENUS_ONE = {
    "field": 1,
    "mode": "stokes",
    "stokes": dict(TWO_CIRCLE["stokes"], genus=1),
}

# ``wildcat sample --seed 2`` on GENUS_ONE, and ``wildcat analyze`` on its candidate
GENUS_ONE_SAMPLE_TEXT = [
    "verified candidate for seed 2:",
    "  S1.0:", "    [1  0]", "    [-2  1]",
    "  S1.1:", "    [1  1]", "    [0  1]",
    "  a1:", "    [-1/2  1/2]", "    [0  1/2]",
    "  b1:", "    [-1  1/2]", "    [-1  2]",
    "  h1:", "    [-1  0]", "    [0  -1]",
]
GENUS_ONE_ANALYZE_TEXT = [
    "polystable: True",
    "stable: True",
    "stabilizer Lie dimension: 1",
    "action kernel Lie dimension: 1",
    "Levi blocks (1):",
    "    dim 2: (1, 0); (0, 1)",
]


def text_lines(capsys):
    """The text lines printed, less the closing wall-clock line."""
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("elapsed: ")
    return lines[:-1]


def test_sample_and_analyze_text(tmp_path, capsys):
    path = write(tmp_path, "g1.json", GENUS_ONE)
    assert run_command(["sample", "--instance", path, "--seed", "2"]) == 0
    assert text_lines(capsys) == GENUS_ONE_SAMPLE_TEXT
    assert run_command(["sample", "--instance", path, "--seed", "2", "--format", "machine"]) == 0
    candidate = json.loads(capsys.readouterr().out)["candidate"]
    path = write(tmp_path, "g1c.json", dict(GENUS_ONE, candidate=candidate))
    assert run_command(["analyze", "--instance", path]) == 0
    assert text_lines(capsys) == GENUS_ONE_ANALYZE_TEXT


# ``wildcat directions`` and ``wildcat scaffold`` on TWO_CIRCLE, and
# ``wildcat scaffold`` on GENUS_ONE, whose relation has inverted letters
TWO_CIRCLE_DIRECTIONS_TEXT = [
    "puncture 1: 2 singular directions",
    "    theta = 0: pattern blocks [(1, 0)]",
    "    theta = 3.14159265359: pattern blocks [(0, 1)]",
]
TWO_CIRCLE_SCAFFOLD_TEXT = [
    "3 generators:",
    "    h1: formal  (twisted graded support)",
    "    S1.0: stokes  theta=0  pattern=[(1, 0)]",
    "    S1.1: stokes  theta=3.14159265359  pattern=[(0, 1)]",
    "relation: h1 S1.1 S1.0 = 1",
]
GENUS_ONE_SCAFFOLD_TEXT = [
    "5 generators:",
    "    a1: handle_a",
    "    b1: handle_b",
] + TWO_CIRCLE_SCAFFOLD_TEXT[1:4] + [
    "relation: a1 b1 a1^-1 b1^-1 h1 S1.1 S1.0 = 1",
]


def test_directions_and_scaffold_text(tmp_path, capsys):
    path = write(tmp_path, "tc.json", TWO_CIRCLE)
    assert run_command(["directions", "--instance", path]) == 0
    assert text_lines(capsys) == TWO_CIRCLE_DIRECTIONS_TEXT
    assert run_command(["scaffold", "--instance", path]) == 0
    assert text_lines(capsys) == TWO_CIRCLE_SCAFFOLD_TEXT
    assert run_command(["scaffold", "--instance", write(tmp_path, "g1.json", GENUS_ONE)]) == 0
    assert text_lines(capsys) == GENUS_ONE_SCAFFOLD_TEXT


# Q(zeta5) points with fractional entries: P diag(1/2, C) P^-1, C the companion
# matrix of x^2 - 2, and a Jordan block behind Q = [[1, 0], [1/3 + z5, 1]]
LEVI_ZETA5 = {"field": 5, "mode": "tuple", "tuple": {"n": 3, "loops": [{"matrix": [
    [["5973096/38282071", "1465341/38282071", "-17897154/38282071", "6737412/38282071"],
     ["74516029/114846213", "-3100530/38282071", "9101356/38282071", "-18949172/38282071"],
     ["-1991032/38282071", "37793624/38282071", "5965718/38282071", "-2245804/38282071"]],
    [["16398132/38282071", "-18770904/38282071", "27664776/38282071", "12638736/38282071"],
     ["-32927673/76564142", "-12665532/38282071", "-62309472/38282071", "-21938352/38282071"],
     ["71098098/38282071", "6256968/38282071", "-9221592/38282071", "-4212912/38282071"]],
    [["-62944443/76564142", "-33600573/38282071", "-10927452/38282071", "-45602820/38282071"],
     ["73078403/38282071", "70341279/38282071", "24522070/38282071", "47868516/38282071"],
     ["29631776/38282071", "11200191/38282071", "80206626/38282071", "15200940/38282071"]],
]}]}}
JORDAN_ZETA5 = {"field": 5, "mode": "tuple", "tuple": {"n": 2, "loops": [{"matrix": [
    [["1/6", "-1", "0", "0"], ["1", "0", "0", "0"]],
    [["-1/9", "-2/3", "-1", "0"], ["5/6", "1", "0", "0"]],
]}]}}
JORDAN_ZETA5_ANALYZE_TEXT = [
    "polystable: False",
    "stable: False",
    "stabilizer Lie dimension: 2",
    "action kernel Lie dimension: 1",
    "radical witness (nilpotent certificate):",
    "    [1  60/61 + 63/61*z5 + 54/61*z5^2 + 81/61*z5^3]",
    "    [1/3 + z5  -1]",
    "invariant subspace witness (echelon basis):",
    "    (1, 1/3 + z5)",
]
LEVI_ZETA5_ANALYZE_TEXT = [
    "polystable: True",
    "stable: False",
    "stabilizer Lie dimension: 3",
    "action kernel Lie dimension: 1",
    "invariant subspace witness (echelon basis):",
    "    (1, 1/2, 1/3*z5)",
    "Levi blocks (2):",
    "    dim 1: (1, 1/2, 1/3*z5)",
    "    dim 2: (1, 0, 3); (0, 1, 1/4 + -3/2*z5 + z5^2)",
]
LEVI_ZETA5_REDUCE_TEXT = [
    "Levi blocks (2):",
    "    dim 1: (1, 1/2, 1/3*z5)",
    "    dim 2: (1, 0, 3); (0, 1, 1/4 + -3/2*z5 + z5^2)",
]


def test_text_format_over_q_zeta5(tmp_path, capsys):
    # --format text prints every entry through the Scalar views: fractions,
    # powers of z5 and negative coefficients, in a radical witness, an
    # invariant subspace witness and Levi blocks
    jordan = write(tmp_path, "jordan5.json", JORDAN_ZETA5)
    levi = write(tmp_path, "levi5.json", LEVI_ZETA5)
    assert run_command(["analyze", "--instance", jordan]) == 0
    assert text_lines(capsys) == JORDAN_ZETA5_ANALYZE_TEXT
    assert run_command(["analyze", "--instance", levi]) == 0
    assert text_lines(capsys) == LEVI_ZETA5_ANALYZE_TEXT
    assert run_command(["reduce", "--instance", levi, "--format", "text"]) == 0
    assert text_lines(capsys) == LEVI_ZETA5_REDUCE_TEXT


def test_machine_format_renders_no_text(tmp_path, capsys, monkeypatch):
    # every command succeeds in machine format with the text renderers broken
    def broken(*args):
        raise AssertionError("text rendered for machine output")
    for name in ("_matrix_text", "_report_text", "_levi_text"):
        monkeypatch.setattr(cli, name, broken)
    diag = {"field": 1, "mode": "tuple",
            "tuple": {"n": 2, "loops": [{"matrix": [["2", "0"], ["0", "3"]]}]}}
    tuple_path = write(tmp_path, "diag.json", diag)
    stokes_path = write(tmp_path, "tc.json", dict(TWO_CIRCLE, candidate=IDENTITY_CANDIDATE))
    jordan_path = write(tmp_path, "jordan.json", JORDAN)
    runs = [("analyze", jordan_path), ("analyze", stokes_path)] + \
        [(command, tuple_path if command == "reduce" else stokes_path)
         for command in cli._COMMANDS]
    for command, path in runs:
        assert run_command([command, "--instance", path, "--format", "machine"]) == 0, command
        assert json.loads(capsys.readouterr().out)["command"] == command
    with pytest.raises(AssertionError, match="text rendered"):
        run_command(["sample", "--instance", stokes_path])
