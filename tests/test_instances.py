import contextlib
import io
import json

import pytest

from wildcat import algebra, scalars
from wildcat.cli import run_command
from wildcat.engine import is_stable
from wildcat.instances import (
    InstanceError,
    parse_instance,
    parse_instance_data,
    render_instance,
)
from wildcat.linalg import Grading, Matrix
from wildcat.scalars import Scalar
from wildcat.stokes import build_scaffold, exponential_torus_grading, random_candidate

from oracles import (
    build,
    entries,
    from_pieces,
    instance_matrices,
    instance_matrices_reference,
    pieces_of,
    zeta,
)

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
    assert all(x.m == 5 for mat in cand.values() for x in entries(mat))


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
    # one elimination per matrix: a rank, or an inverse that the matrix
    # keeps (the connector and the sigma-twisted loop, which are inverted
    # again later); a kept inverse is no elimination
    eliminated = []
    real_rank, real_inverse = Matrix.rank, Matrix.inverse

    def inverse(self):
        if self._inverse is None:
            eliminated.append(self)
        return real_inverse(self)

    monkeypatch.setattr(Matrix, "rank", lambda self: eliminated.append(self) or real_rank(self))
    monkeypatch.setattr(Matrix, "inverse", inverse)
    point = parse_instance_data(doc(good, good)).point
    # the connector, two loops, one inner part, each once; the identity is
    # neither ranked nor inverted, nor are the two gradings, whose rows are
    # the identity
    assert len(eliminated) == 4 and len({id(x) for x in eliminated}) == 4
    assert point.connectors[0]._inverse is not None and point.loops[1].g._inverse is not None
    for bad, where in ((doc(singular, good), "tuple.connectors[0]"),
                       (doc(good, singular), "tuple.loops[1].inner")):
        with pytest.raises(InstanceError) as err:
            parse_instance_data(bad)
        assert err.value.errors == [f"{where}: matrix declared invertible is singular"]
    # a bad scalar is reported at each of its paths, in document order
    with pytest.raises(InstanceError) as err:
        parse_instance_data(doc([["x", "1"], ["1", "x"]], [["2", "0.5"], ["1/0", "1/0"]]))
    bad_x = "bad scalar: not an integer, fraction or plain decimal: 'x'"
    assert err.value.errors == [
        f"tuple.connectors[0][0][0]: {bad_x}",
        f"tuple.connectors[0][1][1]: {bad_x}",
        "tuple.loops[1].inner[1][0]: bad scalar: zero denominator: '1/0'",
        "tuple.loops[1].inner[1][1]: bad scalar: zero denominator: '1/0'"]


def test_bad_scalars_are_reported_at_every_path():
    # repeats of one bad encoding, in a basis, matrices and coefficient
    # vectors, each keep their own error, in document order
    doc = {"field": 5, "mode": "tuple", "tuple": {
        "n": 1, "gradings": [[{"weight": [], "basis": [[0.5]]}]],
        "loops": [{"matrix": [[0.5]]}, {"matrix": [[["1", "x"]]]}, {"matrix": [[["1", "x"]]]}]}}
    with pytest.raises(InstanceError) as err:
        parse_instance_data(doc)
    floats = "floats are not allowed; write exact rationals as strings"
    bad_x = "bad scalar: not an integer, fraction or plain decimal: 'x'"
    assert err.value.errors == [f"tuple.gradings[0][0].basis[0][0]: {floats}",
                                f"tuple.loops[0].matrix[0][0]: {floats}",
                                f"tuple.loops[1].matrix[0][0]: {bad_x}",
                                f"tuple.loops[2].matrix[0][0]: {bad_x}"]
    stokes = {"mode": "stokes", "stokes": {"n": 2, "punctures": [{"circles": [
        {"ram": 2, "coeffs": [[3, "x"], [1, "x"]]}]}]}}
    with pytest.raises(InstanceError) as err:
        parse_instance_data(stokes)
    assert err.value.errors == [f"stokes.punctures[0].circles[0].coeffs[0][1]: {bad_x}",
                                f"stokes.punctures[0].circles[0].coeffs[1][1]: {bad_x}"]


def test_a_parsed_one_does_not_admit_true():
    # true == 1 in Python, but only 1 parses: the memo tells the types apart
    for field, one, true in ((1, 1, True), (5, [1], [True]), (5, ["1", 1], ["1", True])):
        doc = {"field": field, "mode": "tuple", "tuple": {
            "n": 1, "loops": [{"matrix": [[one]]}, {"matrix": [[true]]}]}}
        with pytest.raises(InstanceError) as err:
            parse_instance_data(doc)
        assert err.value.errors == ["tuple.loops[1].matrix[0][0]: bad scalar: "
                                    "not an integer, fraction or plain decimal: 'True'"]


def test_texts_land_in_the_field_they_are_parsed_under():
    # within a document: the circle coefficient "1" is read over the declared
    # Q, the candidate's "1" over the conductor the surface lifts it to
    data = dict(STOKES_KATZ, candidate={"h1": [["1", "0"], ["0", "1"]]})
    inst = parse_instance_data(data)
    assert inst.conductor == 2
    assert {x.m for x in entries(inst.candidate["h1"])} == {2}
    # across documents: the same texts under another field, in a new reader
    parse_instance_data(MINIMAL_TUPLE)
    inst = parse_instance_data(dict(MINIMAL_TUPLE, field=5))
    assert {x.m for x in entries(inst.point.loops[0].g)} == {5}
    assert inst.point.loops[0].g == build([[1, 1], [0, 1]], 5)


def test_each_distinct_text_is_parsed_once(monkeypatch):
    texts = []
    real = scalars._parse_rational
    monkeypatch.setattr(scalars, "_parse_rational", lambda data: texts.append(data) or real(data))
    doc = {"mode": "tuple", "tuple": {
        "n": 3, "connectors": [[["1", "2", "0"], ["0", "1", "0"], ["0", "2", "1"]]],
        "gradings": [[{"weight": [k], "basis": [row]} for k, row in
                      enumerate([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])],
                     [{"weight": [], "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}]],
        "loops": [{"matrix": [["1", "1", "0"], ["0", "1", "-1/2"], ["0", "0", "1"]]}]}}
    parse_instance_data(doc)
    assert sorted(texts) == ["-1/2", "0", "1", "2"]


def test_gradings_of_identity_rows_are_not_ranked(monkeypatch):
    ranks = []
    real = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: ranks.append(self) or real(self))
    e = Matrix.identity(3)
    assert Grading.trivial(3).is_trivial()
    from_pieces(3, [((k,), [e.row(k)]) for k in range(3)])            # a coordinate torus
    sc = build_scaffold(parse_instance_data(STOKES_KATZ).surface)
    for pd in sc.punctures:                                           # the sheet gradings
        exponential_torus_grading(pd.sheets, sc.n, sc.conductor)
    assert ranks == []
    from_pieces(3, [((k,), [e.row(i)]) for k, i in enumerate((1, 0, 2))])  # permuted: ranked
    assert len(ranks) == 1
    with pytest.raises(ValueError, match="not jointly independent"):
        from_pieces(2, [((0,), [(1, 1)]), ((1,), [(2, 2)])])
    assert len(ranks) == 2
    assert e.inverse() is e


def test_each_inner_part_is_ranked_once_from_parse_to_verdict(monkeypatch):
    # parse ranks the inner part; normalizing the loop for the verdict does not again
    doc = {"mode": "tuple", "tuple": {"n": 2, "loops": [
        {"matrix": [["1", "1"], ["0", "1"]], "inner": [["2", "1"], ["1", "1"]],
         "outer": "sigma"}]}}
    inner = build([[2, 1], [1, 1]])
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


FULL_TUPLE = {
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


def test_round_trip_tuple():
    inst = parse_instance_data(FULL_TUPLE)
    rendered = render_instance(inst)
    again = parse_instance_data(rendered)
    assert render_instance(again) == rendered
    assert again.point.loops[1].g == inst.point.loops[1].g
    assert [pieces_of(g) for g in again.point.gradings] == \
        [pieces_of(g) for g in inst.point.gradings]


def repeated_class_over_q_zeta5() -> dict:
    """A tuple over Q(zeta5) whose module is V + V, V absolutely
    irreducible of dimension 2, conjugated so that the MeatAxe factors a
    minimal polynomial over the field (``factor_over_field``)."""
    z = zeta(5)
    p = build([[-1, 0, 0, 0], [1 + z, 1, 0, 0], [0, -1, 1, 1 + z], [-1, 0, 0, 1]])
    loops = [[[0, 3, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]],
             [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]]
    return {"field": 5, "mode": "tuple", "tuple": {"n": 4, "loops": [
        {"matrix": (p @ build(g, 5) @ p.inverse()).to_json()} for g in loops]}}


# a ramified Stokes class over Q(i): a circle of ramification 2 with
# coefficient i and an unramified one with coefficient 1 + i
RAMIFIED_OVER_Q_I = {"field": 4, "mode": "stokes", "stokes": {"genus": 0, "n": 3, "punctures": [
    {"circles": [{"ram": 2, "coeffs": [[3, ["0", "1"]]]},
                 {"ram": 1, "coeffs": [[1, ["1", "1"]]]}]}]}}


def test_matrices_are_read_and_written_with_no_scalar(monkeypatch, tmp_path):
    # every field element goes from text to numerators and back with no
    # Scalar: no document, and no whole command in machine format, makes
    # one, the MeatAxe's factoring over Q(zeta5) and the Stokes sheets and
    # directions over Q(i) included
    made = []
    init = Scalar.__init__

    def scalars_made(action, *args):
        made.clear()
        action(*args)
        return len(made)

    def command(name, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_command([name, "--instance", str(path), "--format", "machine"]) == 0
        return out.getvalue()

    factorings = []
    factor = algebra.factor_over_field
    monkeypatch.setattr(algebra, "factor_over_field",
                        lambda *args: factorings.append(args) or factor(*args))
    tuple_doc = repeated_class_over_q_zeta5()
    sample = json.loads(command("sample", RAMIFIED_OVER_Q_I))
    with_candidate = dict(RAMIFIED_OVER_Q_I, candidate=sample["candidate"])
    monkeypatch.setattr(Scalar, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    for doc in (FULL_TUPLE, STOKES_KATZ, with_candidate, tuple_doc):
        assert scalars_made(parse_instance_data, doc) == 0
        assert scalars_made(render_instance, parse_instance_data(doc)) == 0
    for name, doc in (("analyze", tuple_doc), ("reduce", tuple_doc),
                      ("directions", RAMIFIED_OVER_Q_I), ("sample", RAMIFIED_OVER_Q_I),
                      ("analyze", with_candidate)):
        assert scalars_made(command, name, doc) == 0, name
    assert len(factorings) == 2  # analyze and reduce each factor once


def test_instance_matrices_match_the_scalar_route():
    for doc in (FULL_TUPLE, MINIMAL_TUPLE, dict(STOKES_KATZ, candidate={
            "h1": [["1", "0"], ["0", "1"]], "S1.0": [["1", ["-3/4"]], ["0", "1"]]})):
        inst = parse_instance_data(doc)
        assert instance_matrices(inst) == instance_matrices_reference(doc, inst.conductor)


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
