"""Wild surface data for GL_n: irregular classes, singular directions, scaffolds.

Conventions (fixed here once and used consistently everywhere):

* Every puncture's circles are expanded into their Galois sheets over one
  cyclic cover z = w^R, R = lcm of the ramifications, so all exponents of the
  local exponential factors become integral in w.  Sheet l of a circle
  q = sum a_j z^(-j/r) is q_l = sum a_j zeta_r^(jl) w^(-jR/r).
* Directions are measured on the cover circle.  A pair of sheets with
  difference leading term a w^(-s) supports maximal decay of e^(q_i - q_j)
  where cos(Arg(a) - s theta) = -1, i.e. at the s directions
  theta = (Arg(a) + pi + 2 pi k)/s in [0, 2 pi).  Direction angles are floats
  (two angles within ANGLE_TOL = 1e-9 are one direction); counts, levels and
  block patterns are exact.
* The scaffold relation, with punctures and directions ordered
  counterclockwise starting just after direction 0 and C_1 = 1:

      prod_k [a_k, b_k] . prod_i C_i^-1 (h_i S_{i,last} ... S_{i,first}) C_i = 1

  where S factors are indexed by ascending direction angle.
* The formal monodromy h_i is twisted-graded: it permutes the sheet blocks of
  each circle cyclically (leaf l -> l+1 mod r), so its support is one block
  per sheet; for unramified classes it is plain block diagonal.
* Sheet weights are the coordinates of the sheet exponential factors in a
  Z-basis of the lattice they generate; the grading of the fibre by those
  weights presents the exponential torus, whose centralizer is the framing
  group at the puncture.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .engine import FramedPoint
from .linalg import Grading, Matrix, kernel, linear_solve, sandwich_rows
from .scalars import Scalar, euler_phi
from .twists import TwistedElement

ANGLE_TOL = 1e-9


class UnsolvableRelation(Exception):
    pass


@dataclass
class Circle:
    """One Stokes circle: q = sum a_j z^(-j/r), with multiplicity."""

    ram: int
    coeffs: list                  # list of (exponent j >= 1, Scalar a_j), a_j != 0
    multiplicity: int = 1

    def __post_init__(self):
        if self.ram < 1 or self.multiplicity < 1:
            raise ValueError("ramification and multiplicity must be >= 1")
        seen = set()
        cleaned = []
        for j, a in self.coeffs:
            j = int(j)
            if j < 1:
                raise ValueError("exponents must be >= 1")
            if j in seen:
                raise ValueError("repeated exponent in circle")
            seen.add(j)
            a = a if isinstance(a, Scalar) else Scalar.rational(Fraction(a))
            if a.is_zero():
                raise ValueError("zero coefficient in circle")
            cleaned.append((j, a))
        cleaned.sort()
        g = self.ram
        for j, _ in cleaned:
            g = gcd(g, j)
        if g != 1:
            raise ValueError("circle is not minimally ramified (gcd condition fails)")
        self.coeffs = cleaned

    @property
    def slope(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return Fraction(max(j for j, _ in self.coeffs), self.ram)


def circle_invariants(c: Circle):
    """(ramification, slope) of a circle; slope 0 for a tame circle."""
    return c.ram, c.slope


@dataclass
class IrregularClass:
    circles: list

    def __post_init__(self):
        if not all(isinstance(c, Circle) for c in self.circles):
            raise ValueError("irregular class must consist of circles")

    @property
    def rank(self) -> int:
        return sum(c.ram * c.multiplicity for c in self.circles)

    def cover_degree(self) -> int:
        out = 1
        for c in self.circles:
            out = lcm(out, c.ram)
        return out

    def conductor(self) -> int:
        out = 1
        for c in self.circles:
            out = lcm(out, c.ram)
            for _, a in c.coeffs:
                out = lcm(out, a.m)
        return out


@dataclass
class WildSurface:
    genus: int
    punctures: list               # list of IrregularClass
    n: int
    field: int = 1                # declared conductor; ramification may enlarge it

    def __post_init__(self):
        if not self.punctures:
            raise ValueError("a wild surface needs at least one puncture")
        for cls in self.punctures:
            if cls.rank != self.n:
                raise ValueError(f"irregular class of rank {cls.rank} at a rank-{self.n} puncture")

    def conductor(self) -> int:
        """The working field: the declared one plus every class's roots of unity."""
        out = self.field
        for cls in self.punctures:
            out = lcm(out, cls.conductor())
        return out


@dataclass
class Sheet:
    circle_index: int
    leaf: int
    q: dict                       # cover exponent -> Scalar coefficient
    start: int                    # first fibre coordinate of the sheet block
    size: int                     # block size = circle multiplicity


def expand_sheets(cls: IrregularClass, conductor: Optional[int] = None):
    """Galois sheets of all circles over the common cyclic cover."""
    m = conductor if conductor is not None else cls.conductor()
    big_r = cls.cover_degree()
    sheets = []
    start = 0
    for ci, c in enumerate(cls.circles):
        step = big_r // c.ram
        for leaf in range(c.ram):
            q = {}
            for j, a in c.coeffs:
                zeta_pow = Scalar.zeta(m, (m // c.ram) * ((j * leaf) % c.ram))
                q[j * step] = a.promote(m) * zeta_pow
            sheets.append(Sheet(ci, leaf, q, start, c.multiplicity))
            start += c.multiplicity
    # sanity: pairwise distinct exponential factors
    for i in range(len(sheets)):
        for j in range(i + 1, len(sheets)):
            if _q_difference(sheets[i], sheets[j], m) is None:
                raise ValueError("two sheets share one exponential factor")
    return sheets


def _q_difference(sa: Sheet, sb: Sheet, m: int):
    """Leading term of q_a - q_b as (level, coefficient), or None if equal."""
    exps = sorted(set(sa.q) | set(sb.q), reverse=True)
    for e in exps:
        delta = sa.q.get(e, Scalar.zero(m)) - sb.q.get(e, Scalar.zero(m))
        if not delta.is_zero():
            return e, delta
    return None


@dataclass
class DirectionInfo:
    theta: float
    pair: tuple                   # (sheet index i, sheet index j), ordered
    level: Fraction


def singular_directions(cls: IrregularClass):
    """All singular direction incidences on the cover circle.

    Each ordered pair of distinct sheets with difference leading term
    a w^(-s) contributes exactly s directions; e^(q_i - q_j) decays maximally
    there.  Sorted by (theta, pair).
    """
    m = cls.conductor()
    sheets = expand_sheets(cls, m)
    out = []
    for i, sa in enumerate(sheets):
        for j, sb in enumerate(sheets):
            if i == j:
                continue
            level, coeff = _q_difference(sa, sb, m)
            arg = cmath.phase(coeff.to_complex())
            for k in range(level):
                theta = (arg + math.pi + 2 * math.pi * k) / level
                theta %= 2 * math.pi
                if theta > 2 * math.pi - ANGLE_TOL:
                    theta = 0.0
                out.append(DirectionInfo(theta, (i, j), Fraction(level)))
    out.sort(key=lambda d: (d.theta, d.pair))
    return out


def grouped_directions(cls: IrregularClass):
    """Distinct singular angles with their supported pairs, ascending angle."""
    infos = singular_directions(cls)
    groups = []
    for info in infos:
        if groups and abs(groups[-1][0] - info.theta) <= ANGLE_TOL:
            groups[-1][1].append(info.pair)
        else:
            groups.append([info.theta, [info.pair]])
    return [(theta, sorted(pairs)) for theta, pairs in groups]


def stokes_pattern(cls: IrregularClass, theta: float):
    """Sheet pairs whose difference decays maximally at the given direction."""
    dtheta = theta % (2 * math.pi)
    for gtheta, pairs in grouped_directions(cls):
        if abs(gtheta - dtheta) <= ANGLE_TOL or abs(abs(gtheta - dtheta) - 2 * math.pi) <= ANGLE_TOL:
            return pairs
    raise ValueError(f"direction {theta} is not singular for this class")


def exponential_torus_grading(cls: IrregularClass, conductor: Optional[int] = None) -> Grading:
    """Grading of the fibre by sheet weights.

    Weights are coordinates of the sheet exponential factors in a Z-basis of
    the lattice they span; distinct sheets get distinct weights, so the
    centralizer of the grading is the block group of the sheet decomposition.
    """
    m = conductor if conductor is not None else cls.conductor()
    sheets = expand_sheets(cls, m)
    n = cls.rank
    weights = _sheet_weights(sheets, m)
    pieces = []
    ident = Matrix.identity(n, m)
    for s, w in zip(sheets, weights):
        basis = [ident.row(s.start + t) for t in range(s.size)]
        pieces.append((w, basis))
    return Grading(n, pieces)


def _sheet_weights(sheets, m: int):
    exps = sorted({e for s in sheets for e in s.q})
    if not exps:
        return [() for _ in sheets]
    phi = euler_phi(m)
    rows = []
    for s in sheets:
        row = []
        for e in exps:
            row.extend(s.q.get(e, Scalar.zero(m)).coeffs)
        rows.append(row)
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    int_rows = [[int(x * den) for x in row] for row in rows]
    basis = _hermite_row_basis(int_rows)
    k = len(basis)
    weights = []
    for row in int_rows:
        rem = list(row)
        w = []
        for b in basis:
            p = next(i for i, x in enumerate(b) if x)
            if rem[p] % b[p] != 0:
                raise AssertionError("sheet vector escapes its own lattice")
            c = rem[p] // b[p]
            w.append(c)
            rem = [x - c * y for x, y in zip(rem, b)]
        if any(rem):
            raise AssertionError("sheet vector escapes its own lattice")
        weights.append(tuple(w))
    return weights


def _hermite_row_basis(int_rows):
    """Z-basis of the row span of an integer matrix, in Hermite form."""
    rows = [list(r) for r in int_rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        nz = [i for i in range(r, len(rows)) if rows[i][c]]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(rows[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
        i0 = nz[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r] if any(row)]


def katz_guarantee(cls: IrregularClass) -> bool:
    """True when the class forces irreducibility: a single multiplicity-one
    circle whose ramification equals the rank."""
    if len(cls.circles) != 1:
        return False
    c = cls.circles[0]
    return c.multiplicity == 1 and c.ram == cls.rank


# ---------------------------------------------------------------------------
# scaffolds


@dataclass
class GeneratorSpec:
    name: str
    kind: str                     # handle_a | handle_b | connector | formal | stokes
    puncture: Optional[int] = None
    theta: Optional[float] = None
    pattern: Optional[list] = None  # stokes: list of (sheet i, sheet j)


@dataclass
class PunctureData:
    cls: IrregularClass
    sheets: list
    grading: Grading
    directions: list              # [(theta, pattern pairs)] ascending theta
    formal_blocks: list           # [(target sheet, source sheet)] allowed support


@dataclass
class Scaffold:
    n: int
    genus: int
    conductor: int
    punctures: list               # PunctureData per puncture
    generators: list              # GeneratorSpec, fixed order
    relation: list                # [(generator name, +1 | -1)]

    def generator(self, name: str) -> GeneratorSpec:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)


def _formal_blocks(sheets):
    """Allowed support of the formal monodromy: leaf l -> leaf l+1 per circle."""
    by_circle = {}
    for idx, s in enumerate(sheets):
        by_circle.setdefault(s.circle_index, []).append(idx)
    blocks = []
    for _, idxs in sorted(by_circle.items()):
        r = len(idxs)
        for pos, src in enumerate(idxs):
            tgt = idxs[(pos + 1) % r]
            blocks.append((tgt, src))
    return sorted(blocks)


def build_scaffold(ws: WildSurface) -> Scaffold:
    conductor = ws.conductor()
    punctures = []
    generators = []
    relation = []
    for k in range(1, ws.genus + 1):
        generators.append(GeneratorSpec(f"a{k}", "handle_a"))
        generators.append(GeneratorSpec(f"b{k}", "handle_b"))
        relation += [(f"a{k}", 1), (f"b{k}", 1), (f"a{k}", -1), (f"b{k}", -1)]
    for i, cls in enumerate(ws.punctures):
        sheets = expand_sheets(cls, conductor)
        grading = exponential_torus_grading(cls, conductor)
        directions = grouped_directions(cls)
        pd = PunctureData(cls, sheets, grading, directions, _formal_blocks(sheets))
        punctures.append(pd)
        label = i + 1
        if i > 0:
            generators.append(GeneratorSpec(f"C{label}", "connector", puncture=i))
        generators.append(GeneratorSpec(f"h{label}", "formal", puncture=i))
        for di, (theta, pattern) in enumerate(directions):
            generators.append(GeneratorSpec(f"S{label}.{di}", "stokes", puncture=i,
                                            theta=theta, pattern=pattern))
        word = []
        if i > 0:
            word.append((f"C{label}", -1))
        word.append((f"h{label}", 1))
        for di in range(len(directions) - 1, -1, -1):
            word.append((f"S{label}.{di}", 1))
        if i > 0:
            word.append((f"C{label}", 1))
        relation += word
    return Scaffold(ws.n, ws.genus, conductor, punctures, generators, relation)


@dataclass
class RepCandidate:
    assignment: dict              # generator name -> Matrix

    def to_json(self):
        return {name: mat.to_json() for name, mat in sorted(self.assignment.items())}


def _block_support_violation(mat: Matrix, sheets, allowed_blocks, shift_identity: bool):
    """Check that (mat - I if shift_identity else mat) is supported in the blocks."""
    n = mat.rows
    probe = mat - Matrix.identity(n, mat._conductor()) if shift_identity else mat
    block_of = {}
    for idx, s in enumerate(sheets):
        for t in range(s.size):
            block_of[s.start + t] = idx
    allowed = set(allowed_blocks)
    for r in range(n):
        for c in range(n):
            if probe[r, c] and (block_of[r], block_of[c]) not in allowed:
                return (r, c)
    return None


def _word_product(sc: Scaffold, assignment: dict, items) -> Matrix:
    out = Matrix.identity(sc.n, sc.conductor)
    for name, exp in items:
        mat = assignment[name]
        out = out @ (mat if exp == 1 else mat.inverse())
    return out


def verify_candidate(sc: Scaffold, cand: RepCandidate):
    """Empty list iff the candidate is a genuine point of the scaffold's variety."""
    violations = []
    assignment = {}
    for gen in sc.generators:
        if gen.name not in cand.assignment:
            violations.append(f"{gen.name}: missing assignment")
            continue
        mat = cand.assignment[gen.name]
        if mat.rows != sc.n or mat.cols != sc.n:
            violations.append(f"{gen.name}: expected a {sc.n}x{sc.n} matrix")
            continue
        assignment[gen.name] = mat
    for name in cand.assignment:
        try:
            sc.generator(name)
        except KeyError:
            violations.append(f"{name}: not a scaffold generator")
    if violations:
        return violations
    for gen in sc.generators:
        mat = assignment[gen.name]
        if gen.kind in ("handle_a", "handle_b", "connector", "formal"):
            if not mat.is_invertible():
                violations.append(f"{gen.name}: matrix is not invertible")
        if gen.kind == "stokes":
            pd = sc.punctures[gen.puncture]
            bad = _block_support_violation(mat, pd.sheets, gen.pattern, True)
            if bad is not None:
                violations.append(
                    f"{gen.name}: entry {bad} leaves the direction's block pattern")
        elif gen.kind == "formal":
            pd = sc.punctures[gen.puncture]
            bad = _block_support_violation(mat, pd.sheets, pd.formal_blocks, False)
            if bad is not None:
                violations.append(
                    f"{gen.name}: entry {bad} leaves the twisted graded support")
    if violations:
        return violations
    if not (_word_product(sc, assignment, sc.relation) == Matrix.identity(sc.n, sc.conductor)):
        violations.append("relation: the surface relation does not evaluate to the identity")
    return violations


def to_framed_point(sc: Scaffold, cand: RepCandidate) -> FramedPoint:
    """Assemble the framed point: loops based at the first puncture's basepoint.

    The candidate is verified first; ValueError("invalid candidate: ...")
    names its violations.
    """
    violations = verify_candidate(sc, cand)
    if violations:
        raise ValueError("invalid candidate: " + "; ".join(violations))
    a = cand.assignment
    loops = []
    for k in range(1, sc.genus + 1):
        loops.append(TwistedElement.plain(a[f"a{k}"]))
        loops.append(TwistedElement.plain(a[f"b{k}"]))
    connectors = []
    gradings = []
    for i, pd in enumerate(sc.punctures):
        label = i + 1
        if i == 0:
            conj = None
        else:
            c = a[f"C{label}"]
            connectors.append(c)
            conj = (c.inverse(), c)
        local = [a[f"h{label}"]]
        local += [a[f"S{label}.{di}"] for di in range(len(pd.directions))]
        for mat in local:
            if conj is not None:
                mat = conj[0] @ mat @ conj[1]
            loops.append(TwistedElement.plain(mat))
        gradings.append(pd.grading)
    return FramedPoint(sc.n, gradings, connectors, loops)


# ---------------------------------------------------------------------------
# sampling


def _random_rational(rng, zero_ok=True):
    num = rng.randint(-2, 2)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-2, 2)
    den = rng.choice([1, 1, 1, 2])
    return Fraction(num, den)


def _random_block(rng, rows: int, cols: int, m: int, invertible: bool) -> Matrix:
    while True:
        mat = Matrix.build([[_random_rational(rng) for _ in range(cols)] for _ in range(rows)], m)
        if not invertible or mat.is_invertible():
            return mat


def _random_formal(rng, pd: PunctureData, n: int, m: int) -> Matrix:
    out = Matrix.zero(n, n, m)
    for tgt, src in pd.formal_blocks:
        st, ss = pd.sheets[tgt], pd.sheets[src]
        out = out.place(st.start, ss.start,
                        _random_block(rng, st.size, ss.size, m, invertible=True))
    return out


def _random_stokes(rng, pd: PunctureData, pattern, n: int, m: int) -> Matrix:
    out = Matrix.identity(n, m)
    for i, j in pattern:
        si, sj = pd.sheets[i], pd.sheets[j]
        out = out.place(si.start, sj.start,
                        _random_block(rng, si.size, sj.size, m, invertible=False))
    return out


class _RetryError(Exception):
    pass


def _free_punctures(sc: Scaffold):
    return [i for i, pd in enumerate(sc.punctures)
            if pd.grading.is_trivial() and not pd.directions]


def _solve_commutator(rng, v: Matrix, n: int, m: int):
    """Find invertible a, b with a b a^-1 b^-1 = v, or raise _RetryError."""
    for _ in range(10):
        a = _random_block(rng, n, n, m, invertible=True)
        # a b - v b a = 0, linear in b
        ker = kernel(Matrix.build(sandwich_rows([(a, None, False), (-v, a, False)], n, n, m), m))
        if ker.dim == 0:
            continue
        basis = Matrix.from_rows(ker.basis)
        for _ in range(12):
            coeffs = Matrix.build([[_random_rational(rng) for _ in ker.basis]], m)
            b = Matrix(n, n, (coeffs @ basis).entries)
            if b.is_invertible():
                if a @ b @ a.inverse() @ b.inverse() == v:
                    return a, b
        # fall through: new a
    raise _RetryError("commutator equation resisted the linear solve")


def _greedy_local_factor(rng, sc: Scaffold, pd: PunctureData, v: Matrix, randomized: bool):
    """Factor v = h . S_last ... S_first within the puncture's patterns.

    Works right to left on a = v . S_1^-1 ... S_K^-1 by block column
    operations; the residue a must land in the twisted graded support.
    Returns (h, [S_1..S_K]) or raises _RetryError.
    """
    n = sc.n
    m = sc.conductor
    sheets = pd.sheets
    allowed = set(pd.formal_blocks)
    nsheets = len(sheets)
    a = v
    inverses = []
    for theta, pattern in pd.directions:
        t = Matrix.identity(n, m)
        for (i, j) in sorted(pattern):
            si, sj = sheets[i], sheets[j]
            # forbidden row blocks of column block j
            target = None
            solvable_y = None
            for rb in range(nsheets - 1, -1, -1):
                if (rb, j) in allowed:
                    continue
                sr = sheets[rb]
                chunk = Matrix.build([[a[sr.start + rr, sj.start + cc]
                                       for cc in range(sj.size)]
                                      for rr in range(sr.size)], m)
                if chunk.is_zero():
                    continue
                pivot = Matrix.build([[a[sr.start + rr, si.start + cc]
                                       for cc in range(si.size)]
                                      for rr in range(sr.size)], m)
                sol, _ = linear_solve(pivot, -chunk)
                if sol is not None:
                    target, solvable_y = rb, sol
                    break
                target = rb
            if solvable_y is not None:
                y = solvable_y
            elif target is not None and randomized:
                y = _random_block(rng, si.size, sj.size, m, invertible=False)
            else:
                continue
            elem = Matrix.identity(n, m).place(si.start, sj.start, y)
            a = a @ elem
            t = t @ elem
        inverses.append(t)
    bad = _block_support_violation(a, sheets, pd.formal_blocks, False)
    if bad is not None or not a.is_invertible():
        raise _RetryError("local factorization missed the twisted graded support")
    factors = [t.inverse() for t in inverses]
    return a, factors


def _apply_framing_spread(rng, sc: Scaffold, assignment: dict):
    """Twist a verified candidate by a random framing-group element."""
    m = sc.conductor
    hs = []
    for pd in sc.punctures:
        h = Matrix.zero(sc.n, sc.n, m)
        for s in pd.sheets:
            h = h.place(s.start, s.start, _random_block(rng, s.size, s.size, m, invertible=True))
        hs.append(h)
    h1 = hs[0]
    h1inv = h1.inverse()
    out = {}
    for gen in sc.generators:
        mat = assignment[gen.name]
        if gen.kind in ("handle_a", "handle_b"):
            out[gen.name] = h1 @ mat @ h1inv
        elif gen.kind == "connector":
            out[gen.name] = hs[gen.puncture] @ mat @ h1inv
        else:
            h = hs[gen.puncture]
            out[gen.name] = h @ mat @ h.inverse()
    return out


def random_candidate(sc: Scaffold, seed: int) -> RepCandidate:
    """A seeded random verified candidate.

    Assigns random pattern-respecting matrices everywhere except one solve
    target, then solves the surface relation for that target: the formal
    monodromy of a free (tame, ungraded) puncture when one exists, else one
    genus handle through the linearized commutator equation, else the first
    puncture's whole local word through greedy block factorization.  Raises
    UnsolvableRelation when every seeded attempt fails.
    """
    rng = random.Random(seed)
    n, m = sc.n, sc.conductor
    free = _free_punctures(sc)
    last_error = "no attempt ran"
    for attempt in range(40):
        randomized = attempt > 0
        assignment = {}
        try:
            for gen in sc.generators:
                if gen.kind in ("handle_a", "handle_b", "connector"):
                    assignment[gen.name] = _random_block(rng, n, n, m, invertible=True)
                elif gen.kind == "formal":
                    assignment[gen.name] = _random_formal(rng, sc.punctures[gen.puncture], n, m)
                else:
                    assignment[gen.name] = _random_stokes(
                        rng, sc.punctures[gen.puncture], gen.pattern, n, m)
            if free:
                target = f"h{free[0] + 1}"
                pos = next(k for k, (name, _) in enumerate(sc.relation) if name == target)
                pre = _word_product(sc, assignment, sc.relation[:pos])
                post = _word_product(sc, assignment, sc.relation[pos + 1:])
                assignment[target] = pre.inverse() @ post.inverse()
            elif sc.genus >= 1:
                # solve the last handle pair: [a_g, b_g] = V
                g = sc.genus
                idx = sc.relation.index((f"a{g}", 1))
                pre = _word_product(sc, assignment, sc.relation[:idx])
                post = _word_product(sc, assignment, sc.relation[idx + 4:])
                v = pre.inverse() @ post.inverse()
                a, b = _solve_commutator(rng, v, n, m)
                assignment[f"a{g}"], assignment[f"b{g}"] = a, b
            else:
                # factor the first puncture's local word
                pd = sc.punctures[0]
                start = next(k for k, (name, _) in enumerate(sc.relation) if name == "h1")
                stop = start + 1 + len(pd.directions)
                pre = _word_product(sc, assignment, sc.relation[:start])
                post = _word_product(sc, assignment, sc.relation[stop:])
                v = pre.inverse() @ post.inverse()
                h, factors = _greedy_local_factor(rng, sc, pd, v, randomized)
                assignment["h1"] = h
                for di, s in enumerate(factors):
                    assignment[f"S1.{di}"] = s
        except _RetryError as exc:
            last_error = str(exc)
            continue
        assignment = _apply_framing_spread(rng, sc, assignment)
        cand = RepCandidate(assignment)
        violations = verify_candidate(sc, cand)
        if not violations:
            return cand
        last_error = "; ".join(violations)
    raise UnsolvableRelation(
        f"no verified candidate after seeded attempts (seed {seed}): {last_error}")
