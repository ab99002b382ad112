"""Wild surface data for GL_n: irregular classes, singular directions, scaffolds.

Conventions (fixed here once and used consistently everywhere):

* Every puncture's circles are expanded into their Galois sheets over one
  cyclic cover z = w^R, R = lcm of the ramifications, so all exponents of the
  local exponential factors become integral in w.  Sheet l of a circle
  q = sum a_j z^(-j/r) is q_l = sum a_j zeta_r^(jl) w^(-jR/r).  The sheets
  are expanded once per class, over the class's own field, when the class
  is built (``IrregularClass.sheets``); every later step reads them there.
  A coefficient a_j, and a sheet's, is a 1 x 1 Matrix in its own field:
  integer numerators over one denominator, as every field element is, and
  no Scalar is made.  ``promote`` is its one change of field, one map of
  its numerators that also multiplies by a root of unity.
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
* Sheet k has weight (k,): the grading of the fibre into sheet blocks
  presents the exponential torus, whose centralizer (the block group) is
  the framing group at the puncture.  Sheet indices suffice because Stokes
  points are untwisted (each ``Loop`` has no inner part and no sigma), so
  only the pieces reach a verdict; a sigma-twisted Stokes side would pair
  the weights u and -u, and would need the coordinates of the exponential
  factors in a Z-basis of their lattice.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .engine import FramedPoint, Loop
from .linalg import Grading, Matrix, _matrix, kernel, linear_solve, sandwich_rows
from .scalars import euler_phi, power_numerators

ANGLE_TOL = 1e-9


class InvalidCandidate(ValueError):
    """A candidate that is not a point of the scaffold's variety; the
    message names its violations."""


class UnsolvableRelation(Exception):
    """No seeded attempt gave a verified candidate; ``reasons`` counts the
    attempts each distinct failure reason ended, in first-seen order."""

    def __init__(self, seed: int, reasons: Counter):
        self.reasons = reasons
        tally = "; ".join(f"{count} x {reason}" for reason, count in reasons.items())
        super().__init__(f"no verified candidate after {sum(reasons.values())} seeded "
                         f"attempts (seed {seed}): {tally}")


@dataclass
class Circle:
    """One Stokes circle: q = sum a_j z^(-j/r), with multiplicity."""

    ram: int
    coeffs: list                  # list of (exponent j >= 1, a_j a nonzero 1 x 1 Matrix)
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


@dataclass
class IrregularClass:
    circles: list
    sheets: list = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(isinstance(c, Circle) for c in self.circles):
            raise ValueError("irregular class must consist of circles")
        self.sheets = expand_sheets(self)
        qs = [s.q for s in self.sheets]
        if any(qs[i] == qs[j] for i in range(len(qs)) for j in range(i)):
            raise ValueError("two sheets share one exponential factor")

    @property
    def rank(self) -> int:
        return sum(c.ram * c.multiplicity for c in self.circles)

    def cover_degree(self) -> int:
        return lcm(*(c.ram for c in self.circles))

    def conductor(self) -> int:
        return lcm(self.cover_degree(), *(a.m for c in self.circles for _, a in c.coeffs))


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
        return lcm(self.field, *(cls.conductor() for cls in self.punctures))


@dataclass
class Sheet:
    circle_index: int
    q: dict                       # cover exponent -> coefficient, 1 x 1, in the class's field
    start: int                    # first fibre coordinate of the sheet block
    size: int                     # block size = circle multiplicity


def promote(a: Matrix, m: int, power: int = 0) -> Matrix:
    """The 1 x 1 matrix a over Q(zeta_m), m a multiple of a's conductor,
    times zeta_m^power: one map of a's numerators (``power_numerators``),
    which keeps their content, so the form stays canonical."""
    return Matrix(1, 1, m, list(power_numerators(m, a.nums, m // a.m, power)), a.den)


def expand_sheets(cls: IrregularClass):
    """Galois sheets of all circles over the common cyclic cover, over the
    class's own field; ``IrregularClass`` expands them once, keeps them as
    ``sheets`` and checks that their exponential factors are distinct."""
    m = cls.conductor()
    big_r = cls.cover_degree()
    sheets = []
    start = 0
    for ci, c in enumerate(cls.circles):
        step = big_r // c.ram
        for leaf in range(c.ram):
            q = {}
            for j, a in c.coeffs:
                q[j * step] = promote(a, m, (m // c.ram) * ((j * leaf) % c.ram))
            sheets.append(Sheet(ci, q, start, c.multiplicity))
            start += c.multiplicity
    return sheets


def _q_difference(sa: Sheet, sb: Sheet, m: int):
    """Leading term of q_a - q_b as (level, coefficient), or None if equal."""
    exps = sorted(set(sa.q) | set(sb.q), reverse=True)
    zero = Matrix.zero(1, 1, m)
    for e in exps:
        delta = sa.q.get(e, zero) - sb.q.get(e, zero)
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
    z = cmath.exp(2j * cmath.pi / m)
    out = []
    for i, sa in enumerate(cls.sheets):
        for j, sb in enumerate(cls.sheets):
            if i == j:
                continue
            level, coeff = _q_difference(sa, sb, m)
            # the angle of coeff's float image (int / int is correctly rounded)
            arg = cmath.phase(sum(complex(x / coeff.den) * z**t for t, x in enumerate(coeff.nums)))
            for k in range(level):
                theta = (arg + math.pi + 2 * math.pi * k) / level
                theta %= 2 * math.pi
                if theta > 2 * math.pi - ANGLE_TOL:
                    theta = 0.0
                out.append(DirectionInfo(theta, (i, j), Fraction(level)))
    out.sort(key=lambda d: (d.theta, d.pair))
    return out


def grouped_directions(infos):
    """Distinct singular angles with their supported pairs, ascending angle,
    from the incidences ``singular_directions`` gives."""
    groups = []
    for info in infos:
        if groups and abs(groups[-1][0] - info.theta) <= ANGLE_TOL:
            groups[-1][1].append(info.pair)
        else:
            groups.append([info.theta, [info.pair]])
    return [(theta, sorted(pairs)) for theta, pairs in groups]


def exponential_torus_grading(sheets, n: int, conductor: int) -> Grading:
    """Grading of the rank-n fibre by sheet: sheet k's block has weight (k,).

    The centralizer of the grading is the block group of the sheet
    decomposition (module docstring).
    """
    return Grading([(k,) for k in range(len(sheets))], [s.size for s in sheets],
                   Matrix.identity(n, conductor))


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
    sheets: list
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


def _formal_blocks(sheets):
    """Allowed support of the formal monodromy: leaf l -> leaf l+1 per circle."""
    by_circle = {}
    for idx, s in enumerate(sheets):
        by_circle.setdefault(s.circle_index, []).append(idx)
    return sorted((idxs[(pos + 1) % len(idxs)], src)
                  for idxs in by_circle.values() for pos, src in enumerate(idxs))


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
        directions = grouped_directions(singular_directions(cls))
        pd = PunctureData(cls.sheets, directions, _formal_blocks(cls.sheets))
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


def _block_support_violation(mat: Matrix, sheets, allowed_blocks, shift_identity: bool):
    """The first entry (r, c), in row-major order, where mat - I (if
    shift_identity) or mat is nonzero outside the allowed (row sheet,
    column sheet) blocks, or None.  mat - I is read entry by entry off
    mat's numerators: a diagonal entry counts when it is not 1 (numerators
    (den, 0, ...)), any other when it is nonzero."""
    n, nums, phi = mat.rows, mat.nums, euler_phi(mat.m)
    one = [mat.den] + [0] * (phi - 1)
    block_of = {}
    for idx, s in enumerate(sheets):
        for t in range(s.size):
            block_of[s.start + t] = idx
    allowed = set(allowed_blocks)
    for r in range(n):
        for c in range(n):
            if (block_of[r], block_of[c]) in allowed:
                continue
            t = (r * n + c) * phi
            x = nums[t:t + phi]
            if x != one if shift_identity and r == c else any(x):
                return (r, c)
    return None


def _word_product(assignment: dict, word) -> Matrix:
    """The product of a nonempty word in the generators, from its first factor on."""
    out = None
    for name, exp in word:
        mat = assignment[name] if exp == 1 else assignment[name].inverse()
        out = mat if out is None else out @ mat
    return out


def _residual(sc: Scaffold, assignment: dict, start: int, stop: int) -> Matrix:
    """What the relation's factors start..stop-1 must multiply to for the
    relation to hold: pre^-1 . post^-1 = (post . pre)^-1, pre and post the
    relation's words before ``start`` and from ``stop`` on."""
    rest = sc.relation[stop:] + sc.relation[:start]
    if not rest:
        return Matrix.identity(sc.n, sc.conductor)
    return _word_product(assignment, rest).inverse()


def verify_candidate(sc: Scaffold, cand: dict):
    """Empty list iff the candidate, a dict from generator name to Matrix, is
    a genuine point of the scaffold's variety."""
    violations = []
    assignment = {}
    for gen in sc.generators:
        if gen.name not in cand:
            violations.append(f"{gen.name}: missing assignment")
            continue
        mat = cand[gen.name]
        if mat.rows != sc.n or mat.cols != sc.n:
            violations.append(f"{gen.name}: expected a {sc.n}x{sc.n} matrix")
            continue
        assignment[gen.name] = mat
    names = {gen.name for gen in sc.generators}
    violations += [f"{name}: not a scaffold generator"
                   for name in cand if name not in names]
    if violations:
        return violations
    for gen in sc.generators:
        mat = assignment[gen.name]
        if gen.kind in ("handle_a", "handle_b", "connector"):
            try:   # the relation inverts these (``_word_product``): the inverse is kept
                mat.inverse()
            except ValueError:
                violations.append(f"{gen.name}: matrix is not invertible")
        elif gen.kind == "formal" and not mat.is_invertible():
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
    if not _word_product(assignment, sc.relation).is_identity():
        violations.append("relation: the surface relation does not evaluate to the identity")
    return violations


def to_framed_point(sc: Scaffold, cand: dict) -> FramedPoint:
    """Assemble the framed point: loops based at the first puncture's basepoint.

    The loops follow the scaffold's generator order: the handles as they
    are, then per puncture h_i and S_i.* conjugated by that puncture's
    connector C_i (as C_i^-1 x C_i; the first puncture has none).  The
    candidate, a dict from generator name to Matrix, is verified first;
    InvalidCandidate("invalid candidate: ...") names its violations.
    """
    violations = verify_candidate(sc, cand)
    if violations:
        raise InvalidCandidate("invalid candidate: " + "; ".join(violations))
    loops, connectors, conj = [], [], None
    for gen in sc.generators:
        mat = cand[gen.name]
        if gen.kind == "connector":
            connectors.append(mat)
            conj = (mat.inverse(), mat)
            continue
        if conj is not None:
            mat = conj[0] @ mat @ conj[1]
        loops.append(Loop(mat, Matrix.identity(sc.n, sc.conductor)))
    gradings = [exponential_torus_grading(pd.sheets, sc.n, sc.conductor) for pd in sc.punctures]
    return FramedPoint(sc.n, gradings, connectors, loops)


# ---------------------------------------------------------------------------
# sampling


def _random_block(rng, rows: int, cols: int, m: int, invertible: bool) -> Matrix:
    """A rows x cols block of random entries num / den, num in -2..2 and den
    1 or (one time in four) 2, drawn row by row, num first: numerators over
    the lcm of the drawn denominators, less their common factor, with no
    Fraction made."""
    phi = euler_phi(m)
    while True:
        draws = [(rng.randint(-2, 2), rng.choice([1, 1, 1, 2])) for _ in range(rows * cols)]
        den = lcm(*[d for _, d in draws])
        nums = [0] * (rows * cols * phi)
        nums[::phi] = [num * (den // d) for num, d in draws]
        mat = _matrix(rows, cols, m, nums, den)
        if not invertible or mat.is_invertible():
            return mat


def _random_blocks(rng, pd: PunctureData, base: Matrix, pairs, invertible: bool) -> Matrix:
    """``base`` with a random block written at each (target sheet, source
    sheet) pair, drawn in the pairs' order: a formal monodromy is zero plus
    invertible blocks on its twisted graded support, a Stokes matrix the
    identity plus blocks on its direction's pattern, a framing element zero
    plus invertible diagonal blocks."""
    m = base.m
    for i, j in pairs:
        si, sj = pd.sheets[i], pd.sheets[j]
        base = base.place(si.start, sj.start, _random_block(rng, si.size, sj.size, m, invertible))
    return base


class _RetryError(Exception):
    pass


def _solve_commutator(rng, v: Matrix, n: int, m: int):
    """Find invertible a, b with a b a^-1 b^-1 = v, or raise _RetryError."""
    for _ in range(10):
        a = _random_block(rng, n, n, m, invertible=True)
        # a b = v b a, linear in b: the intertwiners (v^-1 a) b - b a = 0
        ker = kernel(sandwich_rows([(v.inverse() @ a, None, False), (None, -a, False)]))
        if ker.dim == 0:
            continue
        basis = ker.matrix
        for _ in range(12):
            coeffs = _random_block(rng, 1, ker.dim, m, invertible=False)
            b = (coeffs @ basis).reshape(n, n)
            if b.is_invertible():
                if a @ b @ a.inverse() @ b.inverse() == v:
                    return a, b
        # fall through: new a
    raise _RetryError("commutator equation resisted the linear solve")


def _greedy_local_factor(rng, sc: Scaffold, pd: PunctureData, v: Matrix, randomized: bool):
    """Factor v = h . S_last ... S_first within the puncture's patterns.

    Works right to left on a = v . S_1^-1 ... S_K^-1 by block column
    operations; the residue a must land in the twisted graded support.
    Returns [h, S_1, ..., S_K], the puncture's generators in scaffold order,
    or raises _RetryError.
    """
    n, m = sc.n, sc.conductor
    sheets = pd.sheets
    allowed = set(pd.formal_blocks)
    a = v
    inverses = []

    def block(rb: int, col: Sheet) -> Matrix:
        # the current a's block at sheet rb's rows and the columns of sheet col
        sr = sheets[rb]
        return a.submatrix(range(sr.start, sr.start + sr.size), col.start, col.start + col.size)
    for _, pattern in pd.directions:
        t = Matrix.identity(n, m)
        for (i, j) in sorted(pattern):
            si, sj = sheets[i], sheets[j]
            # clear the forbidden row blocks of column block j, last first
            y, blocked = None, False
            for rb in reversed(range(len(sheets))):
                if (rb, j) in allowed:
                    continue
                chunk = block(rb, sj)
                if chunk.is_zero():
                    continue
                y = linear_solve(block(rb, si), -chunk)
                if y is not None:
                    break
                blocked = True
            if y is None and blocked and randomized:
                y = _random_block(rng, si.size, sj.size, m, invertible=False)
            if y is None:
                continue
            elem = Matrix.identity(n, m).place(si.start, sj.start, y)
            a = a @ elem
            t = t @ elem
        inverses.append(t)
    bad = _block_support_violation(a, sheets, pd.formal_blocks, False)
    if bad is not None or not a.is_invertible():
        raise _RetryError("local factorization missed the twisted graded support")
    return [a] + [t.inverse() for t in inverses]


def _apply_framing_spread(rng, sc: Scaffold, assignment: dict):
    """Twist a verified candidate by a random framing-group element."""
    hs = [_random_blocks(rng, pd, Matrix.zero(sc.n, sc.n, sc.conductor),
                         [(k, k) for k in range(len(pd.sheets))], True) for pd in sc.punctures]
    invs = [h.inverse() for h in hs]
    out = {}
    for gen in sc.generators:
        mat = assignment[gen.name]
        if gen.kind in ("handle_a", "handle_b"):
            out[gen.name] = hs[0] @ mat @ invs[0]
        elif gen.kind == "connector":
            out[gen.name] = hs[gen.puncture] @ mat @ invs[0]
        else:
            out[gen.name] = hs[gen.puncture] @ mat @ invs[gen.puncture]
    return out


def random_candidate(sc: Scaffold, seed: int) -> dict:
    """A seeded random verified candidate, a dict from generator name to Matrix.

    Assigns random pattern-respecting matrices to every generator, then
    solves the surface relation for one target, whose value must be the
    residual of the rest of the relation (``_residual``, one solve for all
    three routes): the formal monodromy of a free (tame, ungraded) puncture
    is the residual itself when one exists, else the last genus handle pair
    meets it through the linearized commutator equation, else the first
    puncture's whole local word h_1 S_1,last ... S_1,first factors it
    greedily by blocks.  Raises UnsolvableRelation when every seeded attempt
    fails.
    """
    rng = random.Random(seed)
    n, m = sc.n, sc.conductor
    free = [gen.name for gen in sc.generators if gen.kind == "formal"
            and len(sc.punctures[gen.puncture].sheets) == 1
            and not sc.punctures[gen.puncture].directions]
    if free:
        targets = free[:1]
    elif sc.genus:
        targets = [gen.name for gen in sc.generators[2 * sc.genus - 2:2 * sc.genus]]
    else:
        targets = [gen.name for gen in sc.generators if gen.puncture == 0]
    # the targets' letters are consecutive in the relation, the first one first
    start = sc.relation.index((targets[0], 1))
    stop = start + sum(name in targets for name, _ in sc.relation)
    reasons = Counter()
    for attempt in range(40):
        randomized = attempt > 0
        assignment = {}
        try:
            for gen in sc.generators:
                if gen.kind in ("handle_a", "handle_b", "connector"):
                    assignment[gen.name] = _random_block(rng, n, n, m, invertible=True)
                elif gen.kind == "formal":
                    pd = sc.punctures[gen.puncture]
                    assignment[gen.name] = _random_blocks(
                        rng, pd, Matrix.zero(n, n, m), pd.formal_blocks, True)
                else:
                    assignment[gen.name] = _random_blocks(
                        rng, sc.punctures[gen.puncture], Matrix.identity(n, m), gen.pattern, False)
            v = _residual(sc, assignment, start, stop)
            if free:
                values = [v]
            elif sc.genus:
                values = _solve_commutator(rng, v, n, m)
            else:
                values = _greedy_local_factor(rng, sc, sc.punctures[0], v, randomized)
            assignment.update(zip(targets, values))
        except _RetryError as exc:
            reasons[str(exc)] += 1
            continue
        assignment = _apply_framing_spread(rng, sc, assignment)
        violations = verify_candidate(sc, assignment)
        if not violations:
            return assignment
        reasons[", ".join(violations)] += 1
    raise UnsolvableRelation(seed, reasons)
