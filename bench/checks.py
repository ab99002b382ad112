"""Per-op output checks.

Each check returns a list of problems; an op with any problem counts as
failed.  Verdicts are compared with what the generator knows by
construction, certificates are re-verified in ``cyclo`` arithmetic, and
Stokes directions are recomputed independently at 60 significant digits.
Only ``Report.from_json`` is taken from the program, because the round trip
through it is itself the property checked.
"""

from __future__ import annotations

import json
import re
from math import lcm

import mpmath

from cyclo import Field, in_span, inverse, is_zero_matrix, mat_vec, matmul

EXPECTED_EXIT = {"analyze": 0, "directions": 0, "scaffold": 0, "verify": 0}


def _matrix(F: Field, rows):
    return [[F.from_json(x) for x in row] for row in rows]


def _is_nilpotent(F: Field, mat) -> bool:
    power = mat
    for _ in range(len(mat) - 1):
        power = matmul(F, power, mat)
    return is_zero_matrix(power)


def _invariance_problems(F: Field, what: str, basis, loops):
    if not basis:
        return [f"{what}: empty basis"]
    for g in loops:
        for v in basis:
            if not in_span(F, basis, mat_vec(F, g, v)):
                return [f"{what}: not invariant under the loops"]
    return []


def _report_problems(cli, payload, expect, loops, n):
    """Checks of one analyze report against the construction."""
    problems = []
    try:
        if cli.Report.from_json(payload).to_json() != payload:
            problems.append("report does not round-trip through Report.from_json")
    except Exception as exc:  # any failure to read the report back is a finding
        problems.append(f"Report.from_json raised {type(exc).__name__}: {exc}")
    F = Field(payload["field"])
    rep = payload["report"]
    for key in ("polystable", "stable", "stabilizer_dim", "kernel_dim"):
        if key in expect and rep[key] != expect[key]:
            problems.append(f"{key} is {rep[key]!r}, expected {expect[key]!r}")
    if rep["stable"] and not rep["polystable"]:
        problems.append("stable but not polystable")
    witness = rep["radical_witness"]
    if (witness is None) != bool(rep["polystable"]):
        problems.append("radical witness disagrees with the polystable verdict")
    if witness is not None:
        w = _matrix(F, witness)
        if is_zero_matrix(w) or not _is_nilpotent(F, w):
            problems.append("radical witness is zero or not nilpotent")
    sub = rep["invariant_subspace_witness"]
    if sub is not None:
        basis = _matrix(F, sub["basis"])
        if not 0 < len(basis) < n:
            problems.append("invariant subspace witness is not proper")
        problems += _invariance_problems(F, "invariant subspace witness", basis, loops)
    levi = rep["levi_decomposition"]
    if "levi_dims" in expect:
        got = None if levi is None else sorted(len(b["basis"]) for b in levi)
        if got != expect["levi_dims"]:
            problems.append(f"Levi block dims {got}, expected {expect['levi_dims']}")
    problems += _levi_problems(F, levi, loops, n)
    return problems


def _levi_problems(F: Field, blocks, loops, n):
    if blocks is None:
        return []
    problems = []
    if sum(len(b["basis"]) for b in blocks) != n:
        problems.append("Levi block dims do not sum to n")
    for k, b in enumerate(blocks):
        problems += _invariance_problems(F, f"Levi block {k}", _matrix(F, b["basis"]), loops)
    return problems


def candidate_loops(surface: dict, candidate: dict):
    """Loop matrices of the framed point a candidate defines, as in to_framed_point."""
    F = Field(surface["field"])
    a = {name: _matrix(F, rows) for name, rows in candidate.items()}
    genus = surface["stokes"]["genus"]
    loops = []
    for k in range(1, genus + 1):
        loops += [a[f"a{k}"], a[f"b{k}"]]
    for i in range(len(surface["stokes"]["punctures"])):
        label = i + 1
        local = [a[f"h{label}"]] + [a[name] for name in sorted(a)
                                    if name.startswith(f"S{label}.")]
        if i > 0:
            c = a[f"C{label}"]
            c_inv = inverse(F, c)
            local = [matmul(F, matmul(F, c_inv, g), c) for g in local]
        loops += local
    return loops


# ---------------------------------------------------------------------------
# Stokes directions, recomputed


def expected_directions(surface: dict):
    """Per puncture, the distinct singular directions with their sheet pairs.

    Sheets and angles follow the conventions of the stokes module docstring;
    coincidence is decided at 60 digits, far below any float tolerance.
    """
    with mpmath.workdps(60):
        return [_puncture_directions(p["circles"], surface["field"])
                for p in surface["stokes"]["punctures"]]


def _puncture_directions(circles, m: int):
    tol = mpmath.mpf(10) ** -40
    two_pi = 2 * mpmath.pi
    F = Field(m)
    cover = 1
    for c in circles:
        cover = lcm(cover, c["ram"])
    sheets = []
    for c in circles:
        r = c["ram"]
        for leaf in range(r):
            sheets.append({j * (cover // r): F.mul(F.from_json(a), F.zeta((m // r) * (j * leaf % r)))
                           for j, a in c["coeffs"]})
    incidences = []
    for i, qa in enumerate(sheets):
        for j, qb in enumerate(sheets):
            if i == j:
                continue
            diffs = ((e, F.sub(qa.get(e, F.zero), qb.get(e, F.zero)))
                     for e in sorted(set(qa) | set(qb), reverse=True))
            level, coeff = next((e, d) for e, d in diffs if any(d))
            z = sum(mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(mpmath.mpf(2 * k) / m)
                    for k, c in enumerate(coeff))
            for k in range(level):
                theta = (mpmath.arg(z) + mpmath.pi + two_pi * k) / level
                if two_pi - theta < tol:
                    theta = mpmath.mpf(0)
                incidences.append((theta, (i, j)))
    incidences.sort()
    groups = []
    for theta, pair in incidences:
        if groups and theta - groups[-1][0] < tol:
            groups[-1][1].append(list(pair))
        else:
            groups.append([theta, [list(pair)]])
    return [(float(t), sorted(p)) for t, p in groups]


def _directions_problems(payload, surface):
    problems = []
    expected = expected_directions(surface)
    got = payload["punctures"]
    if len(got) != len(expected):
        return ["wrong number of punctures"]
    for k, (g, e) in enumerate(zip(got, expected)):
        dirs = g["directions"]
        if len(dirs) != len(e):
            problems.append(f"puncture {k + 1}: {len(dirs)} directions, expected {len(e)}")
            continue
        for d, (theta, pairs) in zip(dirs, e):
            if abs(d["theta"] - theta) > 1e-9 or d["pattern"] != pairs:
                problems.append(f"puncture {k + 1}: direction {d['theta']} differs from "
                                f"{theta} {pairs}")
    return problems


def _scaffold_problems(payload, surface):
    counts = [len(p) for p in expected_directions(surface)]
    genus = surface["stokes"]["genus"]
    names, relation = [], []
    for k in range(1, genus + 1):
        names += [f"a{k}", f"b{k}"]
        relation += [[f"a{k}", 1], [f"b{k}", 1], [f"a{k}", -1], [f"b{k}", -1]]
    for i, count in enumerate(counts):
        label = i + 1
        stokes = [f"S{label}.{d}" for d in range(count)]
        names += ([f"C{label}"] if i else []) + [f"h{label}"] + stokes
        relation += ([[f"C{label}", -1]] if i else []) + [[f"h{label}", 1]] + \
            [[s, 1] for s in reversed(stokes)] + ([[f"C{label}", 1]] if i else [])
    problems = []
    if [g["name"] for g in payload["generators"]] != names:
        problems.append("scaffold generators differ from the expected list")
    if payload["relation"] != relation:
        problems.append("scaffold relation differs from the expected word")
    return problems


# ---------------------------------------------------------------------------


def check_op(cli, op) -> list:
    """Problems with one finished op (see run.OpResult)."""
    if op.error is not None:
        return [f"raised: {op.error.strip().splitlines()[-1]}"]
    inst, expect = op.instance, op.instance.expect
    want = expect.get(f"{op.command}_exit", EXPECTED_EXIT.get(op.command, 0))
    problems = []
    if op.code != want:
        problems.append(f"exit code {op.code}, expected {want}")
    if op.command == "sample" and "expected_dimension" in expect:
        found = re.search(r"expected dimension\D{0,16}(-?\d+)", op.err)
        if not found or int(found.group(1)) != expect["expected_dimension"]:
            problems.append("failure message does not report the expected dimension "
                            f"{expect['expected_dimension']}")
    if op.code != 0 or problems:
        return problems
    try:
        payload = json.loads(op.out)
    except json.JSONDecodeError as exc:
        return [f"machine output is not JSON: {exc}"]
    if op.command == "analyze":
        if op.candidate is not None:
            loops = candidate_loops(inst.data, op.candidate)
            return _report_problems(cli, payload, {}, loops, inst.data["stokes"]["n"])
        return _report_problems(cli, payload, expect, inst.loops, inst.data["tuple"]["n"])
    if op.command == "reduce":
        F = Field(payload["field"])
        dims = sorted(len(b["basis"]) for b in payload["blocks"])
        if dims != expect["levi_dims"]:
            problems.append(f"Levi block dims {dims}, expected {expect['levi_dims']}")
        return problems + _levi_problems(F, payload["blocks"], inst.loops,
                                         inst.data["tuple"]["n"])
    if op.command == "directions":
        return _directions_problems(payload, inst.data)
    if op.command == "scaffold":
        return _scaffold_problems(payload, inst.data)
    if op.command == "verify":
        return [f"violations: {payload['violations']}"] if payload["violations"] else []
    if op.command == "sample":
        return [] if isinstance(payload.get("candidate"), dict) else ["no candidate"]
    return [f"no check for command {op.command}"]
