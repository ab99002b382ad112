"""Self-tests of the benchmark: generator, output checks and layer wrappers.

    python3 -m pytest -q bench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from cyclo import Field  # noqa: E402
from wildcat import algebra, cli, engine, linalg, scalars  # noqa: E402
from wildcat.instances import parse_instance, render_instance  # noqa: E402

F1 = Field(1)
JORDAN = corpus.Instance(
    "jordan", {"field": 1, "mode": "tuple",
               "tuple": {"n": 2, "loops": [{"matrix": [["1", "1"], ["0", "1"]]}]}},
    ["analyze"],
    {"polystable": False, "stable": False, "kernel_dim": 1, "levi_dims": None},
    [[[F1.one, F1.one], [F1.zero, F1.one]]])


def _write(tmp_path, inst):
    return corpus.write_corpus([inst], tmp_path)[0]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = corpus.write_corpus(corpus.generate(workload, 7), tmp_path / "a")
    b = corpus.write_corpus(corpus.generate(workload, 7), tmp_path / "b")
    c = corpus.generate(workload, 8)
    assert [Path(i.path).read_bytes() for i in a] == [Path(i.path).read_bytes() for i in b]
    assert [i.data for i in a] != [i.data for i in c]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generated_files_round_trip(tmp_path, workload):
    insts = corpus.generate(workload, 3) + corpus.defect_instances(workload, 3)
    for inst in corpus.write_corpus(insts, tmp_path):
        assert render_instance(parse_instance(inst.path)) == inst.data, inst.name


def test_spans_fire_on_jordan_block(tmp_path):
    inst = _write(tmp_path, JORDAN)
    original = algebra.spin_algebra
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert engine.spin_algebra is not original
        assert algebra.spin_algebra is engine.spin_algebra
        result = run.run_op(cli, inst, "analyze", inst.path)
    assert algebra.spin_algebra is original and engine.spin_algebra is original
    assert result.code == 0
    # is_polystable spins once; the invariant-subspace witness search spins
    # again and finds the radical; a non-polystable point gets no Levi step
    expected = {"instances.parse_instance": 1, "engine.is_polystable": 1,
                "engine.normalize_point": 1, "engine.galois_generators": 1,
                "engine.stabilizer_lie_dim": 1, "algebra.spin_algebra": 2,
                "algebra.radical_trace": 2, "algebra.invariant_subspace": 1,
                "engine.levi_reduction": 0, "algebra.commutant": 0}
    assert {name: tracer.calls[name] for name in expected} == expected
    metrics = tracer.metrics()
    # the algebra is span{I, N} and its radical span{N}, both seen twice
    assert metrics["algebra.spin_algebra.dim_sum"][0] == 4
    assert metrics["algebra.radical_trace.radical_dim_sum"][0] == 2
    assert all(v >= 0 for name, (v, _) in metrics.items() if name.endswith(".self_s"))


def test_every_binding_is_patched_and_restored():
    kernel = linalg.kernel
    mul = scalars.Scalar.__mul__
    counter = layers.CallCounter()
    with layers.installed(counter), layers.installed(layers.Tracer()):
        # stokes._solve_commutator imports linalg.kernel at call time
        assert linalg.kernel is not kernel
        assert scalars.Scalar.__rmul__ is scalars.Scalar.__mul__ is not mul
        _ = 2 * scalars.Scalar.one()
        _ = scalars.Scalar.one() * 3
    assert counter.counts["scalars.Scalar.mul.calls"] == 2
    assert linalg.kernel is kernel
    assert scalars.Scalar.__mul__ is mul and scalars.Scalar.__rmul__ is mul


def test_checked_output_passes_and_tampered_output_fails(tmp_path):
    inst = _write(tmp_path, JORDAN)
    good = run.run_op(cli, inst, "analyze", inst.path)
    assert checks.check_op(cli, good) == []

    payload = json.loads(good.out)
    payload["report"]["polystable"] = True
    good.out = json.dumps(payload)
    assert checks.check_op(cli, good)

    payload["report"]["polystable"] = False
    payload["report"]["radical_witness"] = [["0", "1"], ["1", "0"]]  # not nilpotent
    good.out = json.dumps(payload)
    assert checks.check_op(cli, good)

    good.code = 1
    assert checks.check_op(cli, good)


def test_a_raised_exception_counts_as_failed(tmp_path):
    inst = _write(tmp_path, JORDAN)
    result = run.run_op(cli, inst, "analyze", str(tmp_path / "missing.json"))
    assert result.code == 2 and checks.check_op(cli, result)
    result.error = "Traceback (most recent call last):\nMeatAxeInconclusive: x\n"
    assert checks.check_op(cli, result) == ["raised: MeatAxeInconclusive: x"]


def test_expected_directions_of_two_circles():
    doc = corpus.surface_document(1, 0, [[(1, [(1, "1")], 1), (1, [(1, "-1")], 1)]])
    (dirs,) = checks.expected_directions(doc)
    assert [p for _, p in dirs] == [[[1, 0]], [[0, 1]]]
    assert dirs[0][0] == 0.0 and abs(dirs[1][0] - 3.141592653589793) < 1e-15
