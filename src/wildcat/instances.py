"""Instance file format: JSON documents describing tuples or wild surfaces.

Exact scalars are strings like "-3/7" (or coefficient vectors of strings for
cyclotomic entries); floats are rejected, so exactness survives
serialization.  ``parse_instance`` validates the whole document and reports
every schema problem with the JSON path of the offending key.

A document repeats its scalars, so its reader, one per document, parses
each distinct encoding once to (numerators, den): the memo key is the
conductor and the JSON value with each element's type (``true == 1`` in
Python, but only ``1`` parses).  Only successes are stored, so every bad
entry is reported at its own path, in document order; entries may share a
numerator tuple, which no code mutates.  Matrices, grading bases and a
Stokes circle's coefficients (1 x 1 matrices) are laid over one denominator
by ``linalg.over_lcm`` and written by ``Matrix.to_json``, so no Scalar is
made.  A JSON path is formatted only for an error.

A tuple's loop is read to one ``Loop`` (an absent inner part is the
identity) and written back from it with all three keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .engine import FramedPoint, Loop, SingularMatrixError
from .linalg import Grading, Matrix, over_lcm
from .scalars import euler_phi, parse_numerators
from .stokes import Circle, IrregularClass, WildSurface, promote


class InstanceError(Exception):
    """Schema or syntax failure; ``errors`` lists every recorded problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class InstanceFile:
    conductor: int
    mode: str                         # "tuple" | "stokes"
    point: Optional[FramedPoint]
    surface: Optional[WildSurface]
    candidate: Optional[dict]         # generator name -> Matrix


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Reader:
    """The errors recorded while reading one document, and its scalar memo."""

    def __init__(self):
        self.errors = []
        self.parsed = {}   # (conductor, typed JSON value) -> (numerators, den), successes only

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def listed(self, data: dict, key: str, path: str) -> list:
        """data[key], a list ([] when absent); [] and an error when it is not one."""
        raw = data.get(key, [])
        if isinstance(raw, list):
            return raw
        self.fail(f"{path}.{key}", "expected a list")
        return []

    def entry(self, data, m, path, *index):
        """Canonical (numerators, den) of data in Q(zeta_m); zero, and an error
        at path followed by the ``[i]`` of each index, when data is not one."""
        # the value with its type, element by element in a coefficient vector
        key = (m, list, tuple([(type(x), x) for x in data])) if type(data) is list \
            else (m, type(data), data)
        try:
            return self.parsed[key]
        except (KeyError, TypeError):  # TypeError: a list or object inside, never a scalar
            pass
        if isinstance(data, float):
            message = "floats are not allowed; write exact rationals as strings"
        else:
            try:
                x = parse_numerators(data, m)
            except (ValueError, ZeroDivisionError) as exc:
                message = f"bad scalar: {exc}"
            else:
                self.parsed[key] = x
                return x
        self.fail(path + "".join(f"[{i}]" for i in index), message)
        return (0,) * euler_phi(m), 1

    def matrix(self, data, m, path, square=None):
        if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
            self.fail(path, "expected a matrix as a list of rows")
            return Matrix.identity(square or 1, m)
        width = len(data[0])
        if any(len(r) != width for r in data):
            self.fail(path, "ragged matrix rows")
            return Matrix.identity(square or 1, m)
        if square is not None and (len(data) != square or width != square):
            self.fail(path, f"expected a square {square}x{square} matrix")
            return Matrix.identity(square, m)
        return over_lcm(len(data), width, m, [self.entry(x, m, path, i, j)
                                              for i, row in enumerate(data)
                                              for j, x in enumerate(row)])


def _parse_tuple(reader: _Reader, data, m) -> Optional[FramedPoint]:
    path = "tuple"
    if not isinstance(data, dict):
        reader.fail(path, "expected an object")
        return None
    n = data.get("n")
    if not _is_int(n) or n < 1:
        reader.fail(f"{path}.n", "expected a positive integer")
        return None
    gradings = []
    raw_gradings = data.get("gradings")
    if raw_gradings is None:
        gradings = [Grading.trivial(n, m)]
    elif not isinstance(raw_gradings, list) or not raw_gradings:
        reader.fail(f"{path}.gradings", "expected a nonempty list of gradings")
        return None
    else:
        for gi, raw in enumerate(raw_gradings):
            gpath = f"{path}.gradings[{gi}]"
            if not isinstance(raw, list) or not raw:
                reader.fail(gpath, "expected a nonempty list of pieces")
                continue
            weights, sizes, entries = [], [], []
            for pi, piece in enumerate(raw):
                ppath = f"{gpath}[{pi}]"
                if not isinstance(piece, dict):
                    reader.fail(ppath, "expected an object with weight and basis")
                    continue
                weight = piece.get("weight", [])
                if not isinstance(weight, list) or not all(map(_is_int, weight)):
                    reader.fail(f"{ppath}.weight", "expected a list of integers")
                    weight = []
                basis_raw = piece.get("basis")
                if not isinstance(basis_raw, list) or not basis_raw:
                    reader.fail(f"{ppath}.basis", "expected a nonempty list of vectors")
                    continue
                bpath = f"{ppath}.basis"
                for vi, vec in enumerate(basis_raw):
                    if not isinstance(vec, list) or len(vec) != n:
                        reader.fail(f"{bpath}[{vi}]", f"expected a length-{n} vector")
                        continue
                    entries += [reader.entry(x, m, bpath, vi, k) for k, x in enumerate(vec)]
                weights.append(weight)
                sizes.append(len(basis_raw))
            if reader.errors:
                continue
            try:
                gradings.append(Grading(weights, sizes, over_lcm(sum(sizes), n, m, entries)))
            except ValueError as exc:
                reader.fail(gpath, str(exc))
    connectors = []
    for ci, raw in enumerate(reader.listed(data, "connectors", path)):
        connectors.append(reader.matrix(raw, m, f"{path}.connectors[{ci}]", square=n))
    loops = []
    for li, raw in enumerate(reader.listed(data, "loops", path)):
        lpath = f"{path}.loops[{li}]"
        if not isinstance(raw, dict) or "matrix" not in raw:
            reader.fail(lpath, "expected an object with a matrix")
            continue
        g = reader.matrix(raw["matrix"], m, f"{lpath}.matrix", square=n)
        inner_raw = raw.get("inner")
        inner = Matrix.identity(n, m) if inner_raw is None else \
            reader.matrix(inner_raw, m, f"{lpath}.inner", square=n)
        outer_raw = raw.get("outer", "identity")
        if outer_raw not in ("identity", "sigma"):
            reader.fail(f"{lpath}.outer", 'expected "identity" or "sigma"')
            outer_raw = "identity"
        loops.append(Loop(g, inner, outer_raw == "sigma"))
    if reader.errors:
        return None
    try:
        return FramedPoint(n, gradings, connectors, loops)  # ranks each matrix once
    except SingularMatrixError as exc:
        reader.fail(f"{path}.{exc.where}", "matrix declared invertible is singular")
    except ValueError as exc:
        reader.fail(path, str(exc))
    return None


def _parse_stokes(reader: _Reader, data, m) -> Optional[WildSurface]:
    path = "stokes"
    if not isinstance(data, dict):
        reader.fail(path, "expected an object")
        return None
    genus = data.get("genus", 0)
    if not _is_int(genus) or genus < 0:
        reader.fail(f"{path}.genus", "expected a nonnegative integer")
        genus = 0
    n = data.get("n")
    if not _is_int(n) or n < 1:
        reader.fail(f"{path}.n", "expected a positive integer")
        return None
    raw_punctures = data.get("punctures")
    if not isinstance(raw_punctures, list) or not raw_punctures:
        reader.fail(f"{path}.punctures", "expected a nonempty list")
        return None
    punctures = []
    for pi, raw in enumerate(raw_punctures):
        ppath = f"{path}.punctures[{pi}]"
        if not isinstance(raw, dict) or not isinstance(raw.get("circles"), list):
            reader.fail(ppath, "expected an object with a circles list")
            continue
        circles = []
        for ci, rc in enumerate(raw["circles"]):
            cpath = f"{ppath}.circles[{ci}]"
            if not isinstance(rc, dict):
                reader.fail(cpath, "expected an object")
                continue
            ram = rc.get("ram", 1)
            mult = rc.get("multiplicity", 1)
            if not _is_int(ram) or ram < 1:
                reader.fail(f"{cpath}.ram", "expected a positive integer")
                ram = 1
            if not _is_int(mult) or mult < 1:
                reader.fail(f"{cpath}.multiplicity", "expected a positive integer")
                mult = 1
            coeffs = []
            for ki, pair in enumerate(reader.listed(rc, "coeffs", cpath)):
                kpath = f"{cpath}.coeffs[{ki}]"
                if not isinstance(pair, list) or len(pair) != 2 or not _is_int(pair[0]):
                    reader.fail(kpath, "expected [exponent, coefficient]")
                    continue
                coeffs.append((pair[0], over_lcm(1, 1, m, [reader.entry(pair[1], m, kpath, 1)])))
            if reader.errors:
                continue
            try:
                circles.append(Circle(ram, coeffs, mult))
            except ValueError as exc:
                reader.fail(cpath, str(exc))
        if reader.errors:
            continue
        try:
            punctures.append(IrregularClass(circles))
        except ValueError as exc:
            reader.fail(ppath, str(exc))
    if reader.errors:
        return None
    try:
        return WildSurface(genus, punctures, n, m)
    except ValueError as exc:
        reader.fail(path, str(exc))
        return None


def parse_instance_data(data) -> InstanceFile:
    reader = _Reader()
    if not isinstance(data, dict):
        raise InstanceError(["top-level: expected a JSON object"])
    m = data.get("field", 1)
    if not _is_int(m) or m < 1:
        reader.fail("field", "expected a positive integer conductor")
        m = 1
    mode = data.get("mode")
    if mode not in ("tuple", "stokes"):
        reader.fail("mode", 'expected "tuple" or "stokes"')
        raise InstanceError(reader.errors)
    point = surface = None
    if mode == "tuple":
        if "tuple" not in data:
            reader.fail("tuple", "missing for mode tuple")
        else:
            point = _parse_tuple(reader, data["tuple"], m)
    else:
        if "stokes" not in data:
            reader.fail("stokes", "missing for mode stokes")
        else:
            surface = _parse_stokes(reader, data["stokes"], m)
            if surface is not None:
                m = surface.conductor()
    candidate = None
    if "candidate" in data:
        raw = data["candidate"]
        if not isinstance(raw, dict):
            reader.fail("candidate", "expected an object mapping generator names to matrices")
        else:
            candidate = {}
            for name, mat_raw in sorted(raw.items()):
                candidate[name] = reader.matrix(mat_raw, m, f"candidate.{name}")
    if reader.errors:
        raise InstanceError(reader.errors)
    return InstanceFile(m, mode, point, surface, candidate)


def parse_instance(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceError([f"{path}: {exc.strerror or exc}"])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError([f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    return parse_instance_data(data)


# ---------------------------------------------------------------------------
# rendering (canonical; parse -> render -> parse is the identity)


def _grading_json(g: Grading) -> list:
    """The pieces of g, each its weight and its rows of g's basis."""
    rows, ends = g.basis.to_json(), list(accumulate(g.sizes))
    return [{"weight": list(w), "basis": rows[end - size:end]}
            for w, size, end in zip(g.weights, g.sizes, ends)]


def render_instance(inst: InstanceFile) -> dict:
    m = inst.conductor
    out = {"field": m, "mode": inst.mode}
    if inst.mode == "tuple" and inst.point is not None:
        p = inst.point
        out["tuple"] = {
            "n": p.n,
            "gradings": [_grading_json(g) for g in p.gradings],
            "connectors": [c.to_json() for c in p.connectors],
            "loops": [{"matrix": x.g.to_json(),
                       "inner": x.inner.to_json(),
                       "outer": "sigma" if x.sigma else "identity"}
                      for x in p.loops],
        }
    if inst.mode == "stokes" and inst.surface is not None:
        ws = inst.surface
        out["stokes"] = {
            "genus": ws.genus,
            "n": ws.n,
            "punctures": [{"circles": [{"ram": c.ram,
                                        "coeffs": [[j, promote(a, m).to_json()[0][0]]
                                                   for j, a in c.coeffs],
                                        "multiplicity": c.multiplicity}
                                       for c in cls.circles]}
                          for cls in ws.punctures],
        }
    if inst.candidate is not None:
        out["candidate"] = {name: mat.to_json() for name, mat in sorted(inst.candidate.items())}
    return out
