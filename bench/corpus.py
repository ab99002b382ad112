"""Seeded instance generator for the benchmark workloads.

Every instance is written in the canonical form ``render_instance`` produces,
so a generated file round-trips through parse -> render unchanged, and the same
seed gives byte-identical files.  Each instance carries what is known about it
by construction (verdicts, block sizes, loop matrices), which the output
checks compare against; the program itself only ever sees the JSON file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

from cyclo import Field, identity, inverse, matmul, rank

WORKLOADS = ("tuple_generic", "tuple_structured", "stokes_sample")

# (n, field conductor, sigma-twisted, how many) per generic shape.  Most ops
# are sigma-twisted n = 3 over Q, so the median and the tail op fall inside
# one group of like ops and stay steady from seed to seed; larger sizes are
# few because one op of them costs seconds.
GENERIC_SHAPES = [
    (3, 1, False, 2), (3, 1, True, 8), (3, 5, False, 1), (4, 1, True, 1),
]

# (kind, field conductor, block layout, how many) per structured shape.  In a
# layout a letter names an isomorphism class of irreducible block and the
# digit its size; "nss" is a non-split extension of the first block by the
# rest.  The reduce ops of the reducible points are the median group and the
# analyze ops over Q(i) the tail group.
STRUCTURED_SHAPES = [
    ("reducible", 1, "a2 a2", 3), ("reducible", 1, "a1 a1 b2", 3),
    ("reducible", 4, "a1 b2", 4), ("reducible", 5, "a1 b1", 1),
    ("nss", 1, "a2 b2", 2), ("nss", 4, "a2 b1", 2), ("nss", 5, "a1 b2", 1),
]

# Stokes surfaces: (name, genus, punctures), each puncture a list of circles
# (ramification, [(exponent, coefficient)], multiplicity).  Coefficients given
# as None are drawn from the seed.
SURFACES = [
    ("two_circles", 0, [[(1, [(1, None)], 1), (1, [(1, None)], 1)]]),
    ("airy", 0, [[(2, [(3, None)], 1)]]),
    ("ram3_slope2", 0, [[(3, [(2, None)], 1)]]),
    ("two_punctures", 0, [[(1, [(1, None)], 1), (1, [(1, None)], 1)],
                          [(1, [(1, None)], 1), (1, [(1, None)], 1)]]),
    # the tame second puncture is free, so the relation is solved there
    # exactly; solving the handles instead needs det = 1 by luck (ROADMAP
    # item 5), which the genus_one_rank3 probe shows
    ("genus_one", 1, [[(1, [(1, None)], 1), (1, [(1, None)], 1)], [(1, [], 2)]]),
    ("multi_circle_n3", 0, [[(1, [(1, None)], 1), (1, [(1, None)], 1),
                             (1, [(1, None)], 1)]]),
    ("multi_circle_n4", 0, [[(1, [(1, None)], 1), (1, [(1, None)], 1),
                             (1, [(2, None)], 2)]]),
]
SAMPLE_SEEDS = 5

# Seconds one round of a workload's shapes takes at this commit on a 2-core
# x86-64 container with CPython 3.11.  A run generates seconds // round
# rounds, so every commit is measured on the same ops.
NOMINAL_ROUND_S = {"tuple_generic": 8.0, "tuple_structured": 8.5, "stokes_sample": 2.6}


@dataclass
class Instance:
    name: str
    data: dict                      # canonical instance document
    commands: list                  # CLI commands run on the instance
    expect: dict = field(default_factory=dict)
    loops: Optional[list] = None    # loop matrices (cyclo) of tuple points
    path: Optional[str] = None      # set by write_corpus


# ---------------------------------------------------------------------------
# random exact data


def _random_element(rng, F: Field):
    """A nonzero element: +-1 or +-2, plus +-z^k for one k when F is not Q.

    No zero entries and one shape of entry keep the cost of an op from
    swinging with the seed, so fewer ops give steady timings.
    """
    coeffs = [Fraction(0)] * F.d
    coeffs[0] = Fraction(rng.choice((-2, -1, 1, 2)))
    if F.d > 1:
        coeffs[rng.randrange(1, F.d)] = Fraction(rng.choice((-1, 1)))
    return tuple(coeffs)


def _random_matrix(rng, F: Field, rows: int, cols: int):
    return [[_random_element(rng, F) for _ in range(cols)] for _ in range(rows)]


def _random_invertible(rng, F: Field, n: int):
    while True:
        mat = _random_matrix(rng, F, n, n)
        if rank(F, mat) == n:
            return mat


def _conjugate(F: Field, p, a, p_inv):
    return matmul(F, matmul(F, p, a), p_inv)


def _block_diag(F: Field, blocks):
    n = sum(len(b) for b in blocks)
    out = [[F.zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _matrix_json(F: Field, mat):
    return [[F.to_json(x) for x in row] for row in mat]


def _tuple_document(F: Field, n: int, loops, outer, gradings=None, connectors=()):
    ident = identity(F, n)
    if gradings is None:
        gradings = [[{"weight": [], "basis": _matrix_json(F, ident)}]]
    return {
        "field": F.m,
        "mode": "tuple",
        "tuple": {
            "n": n,
            "gradings": gradings,
            "connectors": [_matrix_json(F, c) for c in connectors],
            "loops": [{"matrix": _matrix_json(F, g), "inner": _matrix_json(F, ident),
                       "outer": o} for g, o in zip(loops, outer)],
        },
    }


# ---------------------------------------------------------------------------
# tuple_generic: the ROADMAP baseline point, two loops, trivial plus
# coordinate torus, one connector


def generic_point(rng, name: str, n: int, m: int, twisted: bool) -> Instance:
    F = Field(m)
    loops = [_random_invertible(rng, F, n) for _ in range(2)]
    connector = _random_invertible(rng, F, n)
    ident = _matrix_json(F, identity(F, n))
    gradings = [[{"weight": [], "basis": ident}],
                [{"weight": [i], "basis": [ident[i]]} for i in range(n)]]
    outer = ["sigma" if twisted else "identity"] * 2
    data = _tuple_document(F, n, loops, outer, gradings, [connector])
    # A random point generates the full matrix algebra (of the doubled module
    # when twisted), so it is stable with the smallest possible stabilizer.
    kdim = 0 if twisted else 1
    expect = {"polystable": True, "stable": True, "stabilizer_dim": kdim,
              "kernel_dim": kdim, "levi_dims": None if twisted else [n]}
    return Instance(name, data, ["analyze"], expect, loops)


# ---------------------------------------------------------------------------
# tuple_structured: reducible and non-semisimple points with known answers


def _irreducible_block(rng, F: Field, d: int, tag: int):
    """A pair (A, B) acting absolutely irreducibly on F^d.

    A is the companion matrix of an Eisenstein polynomial at 3 (3 stays prime
    in Z[i] and Z[zeta5]), so it has no invariant subspace over F; B = I + N
    is regular unipotent, whose invariant subspaces are all defined over F.
    A common invariant subspace over any extension would be B-invariant,
    hence defined over F, hence A-invariant: there is none.  For d = 1 the
    class is the scalar ``tag``.
    """
    if d == 1:
        return [[F.rational(tag)]], [[F.one]]
    coeffs = [Fraction(-3)] + [Fraction(3 * rng.randint(-1, 1)) for _ in range(d - 1)]
    coeffs[1] += 9 * tag  # distinct tags give distinct polynomials
    a = [[F.zero] * d for _ in range(d)]
    for i in range(1, d):
        a[i][i - 1] = F.one
    for i in range(d):
        a[i][d - 1] = F.rational(-coeffs[i])
    b = identity(F, d)
    for i in range(d):
        for j in range(i + 1, d):
            b[i][j] = F.one if j == i + 1 else _random_element(rng, F)
    return a, b


def structured_point(rng, name: str, kind: str, m: int, layout: str) -> Instance:
    F = Field(m)
    blocks = [(tok[0], int(tok[1:])) for tok in layout.split()]
    classes = {}
    for label, d in blocks:
        if label not in classes:
            classes[label] = _irreducible_block(rng, F, d, len(classes) + 2)
    a_parts, b_parts = [], []
    for label, d in blocks:
        a, b = classes[label]
        r = _random_invertible(rng, F, d)
        r_inv = inverse(F, r)
        a_parts.append(_conjugate(F, r, a, r_inv))
        b_parts.append(_conjugate(F, r, b, r_inv))
    n = sum(d for _, d in blocks)
    l1, l2 = _block_diag(F, a_parts), _block_diag(F, b_parts)
    if kind == "nss":
        # Y in loop 2 only: the first blocks are not isomorphic, so loop 1
        # forces any splitting map to vanish and Y != 0 cannot be split off.
        d0 = blocks[0][1]
        while True:
            y = _random_matrix(rng, F, d0, n - d0)
            if any(any(x) for row in y for x in row):
                break
        for i in range(d0):
            l2[i][d0:] = y[i]
    p = _random_invertible(rng, F, n)
    p_inv = inverse(F, p)
    loops = [_conjugate(F, p, l1, p_inv), _conjugate(F, p, l2, p_inv)]
    data = _tuple_document(F, n, loops, ["identity", "identity"])
    if kind == "reducible":
        mult = {}
        for label, _ in blocks:
            mult[label] = mult.get(label, 0) + 1
        expect = {"polystable": True, "stable": len(blocks) == 1,
                  "stabilizer_dim": sum(k * k for k in mult.values()), "kernel_dim": 1,
                  "levi_dims": sorted(d for _, d in blocks), "reduce_exit": 0}
    else:
        expect = {"polystable": False, "stable": False, "kernel_dim": 1,
                  "levi_dims": None, "reduce_exit": 1}
    return Instance(name, data, ["analyze", "reduce"], expect, loops)


# ---------------------------------------------------------------------------
# stokes_sample


def _distinct_coefficients(rng, count: int):
    pool = [Fraction(k, d) for k in range(-4, 5) if k for d in (1, 2)]
    out = []
    while len(out) < count:
        c = rng.choice(pool)
        if c not in out:
            out.append(c)
    return out


def surface_document(m: int, genus: int, punctures) -> dict:
    """Canonical stokes instance; the field absorbs every ramification."""
    for circles in punctures:
        for ram, _, _ in circles:
            m = lcm(m, ram)
    F = Field(m)
    n = sum(ram * mult for ram, _, mult in punctures[0])
    return {"field": m, "mode": "stokes", "stokes": {
        "genus": genus, "n": n,
        "punctures": [{"circles": [{"ram": ram,
                                    "coeffs": [[j, F.to_json(F.from_json(a))] for j, a in coeffs],
                                    "multiplicity": mult}
                                   for ram, coeffs, mult in circles]}
                      for circles in punctures]}}


def surface(rng, name: str, genus: int, punctures) -> Instance:
    drawn = iter(_distinct_coefficients(rng, sum(len(p) for p in punctures)))
    filled = [[(ram, [(j, str(next(drawn)) if a is None else a) for j, a in coeffs], mult)
               for ram, coeffs, mult in circles] for circles in punctures]
    data = surface_document(1, genus, filled)
    seeds = [rng.randrange(10 ** 6) for _ in range(SAMPLE_SEEDS)]
    return Instance(name, data, ["directions", "scaffold"],
                    {"sample_seeds": seeds, "sample_exit": 0})


# ---------------------------------------------------------------------------
# reproduced defects (ROADMAP items 4 and 5), each with the right outcome


def defect_instances(workload: str, seed: int):
    out = []
    if workload == "tuple_structured":
        F = Field(1)
        q = lambda rows: [[F.rational(x) for x in row] for row in rows]  # noqa: E731
        # left multiplication by i and j on the rational quaternions (1, i, j, k)
        li = q([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        lj = q([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
        data = _tuple_document(F, 4, [li, lj], ["identity", "identity"])
        # irreducible over Q, commutant = right multiplications (dimension 4)
        out.append(Instance("defect_quaternion_pair", data, ["analyze"],
                            {"polystable": True, "stable": False, "stabilizer_dim": 4,
                             "kernel_dim": 1, "levi_dims": [4]}, [li, lj]))
        rot = q([[0, -1], [1, 0]])
        data = _tuple_document(F, 2, [rot], ["identity"])
        # Levi blocks must restrict to stable points: two lines over Q(i)
        out.append(Instance("defect_rotation_field1", data, ["reduce"],
                            {"reduce_exit": 0, "levi_dims": [1, 1]}, [rot]))
    if workload == "stokes_sample":
        near = surface_document(4, 0, [[(1, [(1, "1")], 1), (1, [(1, "-1")], 1),
                                        (1, [(1, ["-1", "1/100000000000"])], 1)]])
        out.append(Instance("defect_near_coincident_circles", near, ["directions"], {}))
        g1r3 = surface_document(1, 1, [[(1, [(1, "1")], 1), (1, [(1, "-1")], 1),
                                        (1, [(1, "2")], 1)]])
        # nonempty (commuting handles with trivial local data lie on it)
        out.append(Instance("defect_genus_one_rank3", g1r3, [],
                            {"sample_seeds": [seed], "sample_exit": 0}))
        ram3 = surface_document(1, 0, [[(3, [(1, "1")], 1)]])
        # expected dimension: 3 (formal monodromy) + 6 (Stokes entries) - 9
        # (relation) - 2 (framing torus modulo scalars) = -2.  Every point
        # would be stable (one circle of ramification n), hence smooth of that
        # dimension: the variety is empty, and the failure must say so.
        out.append(Instance("defect_ram3_slope1", ram3, [],
                            {"sample_seeds": [seed], "sample_exit": 1,
                             "expected_dimension": -2}))
    return out


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, rounds: int = 1):
    """Instances of one workload: ``rounds`` independent draws of every shape.

    The same (workload, seed, rounds) gives the same list.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for k in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{k}")
        if workload == "tuple_generic":
            for n, m, twisted, count in GENERIC_SHAPES:
                for c in range(count):
                    tag = f"r{k}_{'sigma' if twisted else 'plain'}_n{n}_f{m}_{c}"
                    out.append(generic_point(rng, tag, n, m, twisted))
        elif workload == "tuple_structured":
            for kind, m, layout, count in STRUCTURED_SHAPES:
                for c in range(count):
                    tag = f"r{k}_{kind}_f{m}_{layout.replace(' ', '_')}_{c}"
                    out.append(structured_point(rng, tag, kind, m, layout))
        else:
            for name, genus, punctures in SURFACES:
                out.append(surface(rng, f"r{k}_{name}", genus, punctures))
    return out


def write_corpus(instances, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        path = directory / f"{inst.name}.json"
        path.write_text(json.dumps(inst.data, sort_keys=True, indent=1) + "\n")
        inst.path = str(path)
    return instances
