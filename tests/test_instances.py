import json

import pytest

from wildcat.engine import is_stable
from wildcat.instances import (
    InstanceError,
    parse_instance,
    parse_instance_data,
    render_instance,
)
from wildcat.linalg import Matrix
from wildcat.stokes import build_scaffold, random_candidate

MINIMAL_TUPLE = {
    "field": 1,
    "mode": "tuple",
    "tuple": {
        "n": 2,
        "loops": [{"matrix": [["1", "1"], ["0", "1"]], "outer": "identity"}],
    },
}

STOKES_KATZ = {
    "field": 1,
    "mode": "stokes",
    "stokes": {
        "genus": 0,
        "n": 2,
        "punctures": [{"circles": [{"ram": 2, "coeffs": [[3, "1"]], "multiplicity": 1}]}],
    },
}


def test_minimal_tuple():
    inst = parse_instance_data(MINIMAL_TUPLE)
    assert inst.mode == "tuple"
    assert inst.point.n == 2 and len(inst.point.loops) == 1
    assert inst.point.gradings[0].is_trivial()


def test_stokes_instance_lifts_conductor():
    inst = parse_instance_data(STOKES_KATZ)
    assert inst.mode == "stokes"
    assert inst.surface.n == 2
    # the degree-2 cover needs the second root of unity in the working field
    assert inst.conductor == 2


def test_tame_surface_keeps_declared_field():
    # no circle carries a coefficient, so only the declared field names Q(zeta_5)
    doc = {"field": 5, "mode": "stokes", "stokes": {"genus": 0, "n": 2, "punctures": [
        {"circles": [{"ram": 1, "coeffs": [], "multiplicity": 2}]}]}}
    inst = parse_instance_data(doc)
    sc = build_scaffold(inst.surface)
    assert inst.conductor == sc.conductor == 5
    cand = random_candidate(sc, 0)
    assert all(x.m == 5 for mat in cand.values() for x in mat.entries)


def test_schema_error_names_key():
    bad = {"mode": "tuple", "tuple": {"n": 2, "loops": [
        {"matrix": [["1", "0", "0"], ["0", "1", "0"]]}]}}
    with pytest.raises(InstanceError) as err:
        parse_instance_data(bad)
    assert any("tuple.loops[0].matrix" in e for e in err.value.errors)


def test_floats_rejected():
    bad = {"mode": "tuple", "tuple": {"n": 1, "loops": [{"matrix": [[0.5]]}]}}
    with pytest.raises(InstanceError) as err:
        parse_instance_data(bad)
    assert any("float" in e for e in err.value.errors)


def test_singular_declared_invertible():
    bad = {"mode": "tuple", "tuple": {"n": 2, "loops": [
        {"matrix": [["1", "1"], ["1", "1"]]}]}}
    with pytest.raises(InstanceError) as err:
        parse_instance_data(bad)
    assert any("singular" in e for e in err.value.errors)


def test_parse_ranks_each_matrix_once_and_names_a_singular_one(monkeypatch):
    ident = [["1", "0"], ["0", "1"]]
    grading = [{"weight": [], "basis": ident}]

    def doc(connector, inner):
        return {"mode": "tuple", "tuple": {
            "n": 2, "gradings": [grading, grading], "connectors": [connector],
            "loops": [{"matrix": [["1", "1"], ["0", "1"]]},
                      {"matrix": [["0", "1"], ["1", "0"]], "inner": inner, "outer": "sigma"}]}}

    good, singular = [["2", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]
    ranked = []
    real = Matrix.is_invertible
    monkeypatch.setattr(Matrix, "is_invertible", lambda self: ranked.append(self) or real(self))
    parse_instance_data(doc(good, good))
    assert len(ranked) == 4  # the connector, two loops, one inner part; the identity is not ranked
    for bad, where in ((doc(singular, good), "tuple.connectors[0]"),
                       (doc(good, singular), "tuple.loops[1].inner")):
        with pytest.raises(InstanceError) as err:
            parse_instance_data(bad)
        assert err.value.errors == [f"{where}: matrix declared invertible is singular"]


def test_each_inner_part_is_ranked_once_from_parse_to_verdict(monkeypatch):
    # parse ranks the inner part; normalizing the loop for the verdict does not again
    doc = {"mode": "tuple", "tuple": {"n": 2, "loops": [
        {"matrix": [["1", "1"], ["0", "1"]], "inner": [["2", "1"], ["1", "1"]],
         "outer": "sigma"}]}}
    inner = Matrix.build([[2, 1], [1, 1]])
    ranked = []
    real = Matrix.is_invertible
    monkeypatch.setattr(Matrix, "is_invertible", lambda self: ranked.append(self) or real(self))
    is_stable(parse_instance_data(doc).point)
    assert sum(x == inner for x in ranked) == 1


def test_unknown_mode():
    with pytest.raises(InstanceError):
        parse_instance_data({"mode": "other"})


def test_syntax_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"mode": "tuple",,}')
    with pytest.raises(InstanceError) as err:
        parse_instance(p.as_posix())
    assert any("line 1" in e for e in err.value.errors)


def test_missing_file():
    with pytest.raises(InstanceError):
        parse_instance("/nonexistent/instance.json")


def test_round_trip_tuple():
    full = {
        "field": 4,
        "mode": "tuple",
        "tuple": {
            "n": 2,
            "gradings": [
                [{"weight": [1], "basis": [["1", "0"]]},
                 {"weight": [-1], "basis": [["0", "1"]]}],
                [{"weight": [], "basis": [["1", "0"], ["0", "1"]]}],
            ],
            "connectors": [[["1", "1"], ["0", "1"]]],
            "loops": [
                {"matrix": [["0", "-1"], ["1", "0"]],
                 "inner": [["1", "0"], ["0", "1"]], "outer": "sigma"},
                {"matrix": [[["0", "1"], "0"], ["0", ["0", "-1"]]],
                 "inner": [["1", "2"], ["0", "1"]], "outer": "identity"},
            ],
        },
    }
    inst = parse_instance_data(full)
    rendered = render_instance(inst)
    again = parse_instance_data(rendered)
    assert render_instance(again) == rendered
    assert again.point.loops[1].g == inst.point.loops[1].g
    assert [g.pieces for g in again.point.gradings] == [g.pieces for g in inst.point.gradings]


def test_round_trip_stokes(tmp_path):
    inst = parse_instance_data(STOKES_KATZ)
    rendered = render_instance(inst)
    p = tmp_path / "katz.json"
    p.write_text(json.dumps(rendered))
    again = parse_instance(p.as_posix())
    assert render_instance(again) == rendered
    assert again.surface.punctures[0].circles[0].ram == 2


def test_candidate_parsing():
    data = dict(STOKES_KATZ)
    data["candidate"] = {"h1": [["1", "0"], ["0", "1"]]}
    inst = parse_instance_data(data)
    assert set(inst.candidate) == {"h1"}
    rendered = render_instance(inst)
    assert "candidate" in rendered
