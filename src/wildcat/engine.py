"""Stability and polystability of framed points under the framing-group action.

A framed point consists of torus gradings T_1..T_m (via weight decompositions),
connectors C_2..C_m, and twisted loops M_1..M_N.  The group H = prod C_G(T_i)
acts by h . (C, M) = (h_i C_i h_1^-1, h_1 M_j phi_j(h_1)^-1).

A loop is one ``Loop`` (g, A, s): the element (g, Inn(A) o s) of
GL_n x| {1, sigma}, sigma the transpose-inverse.  A verdict reads only its
adjoint action Inn(g A) o s = Inn(g) o Inn(A) o s, so the bitorsor move
(g, Inn(A) o s) -> (g A, s) of ``normalize_point`` changes none.
``_doubled`` realises a normalized loop on K^n + (K^n)^*, (g, 1) as
diag(g, g^-T) and (g, sigma) as [[0, g], [g^-T, 0]]; this is faithful, as
the top-left block is zero exactly under sigma and the other blocks give g.

Verdicts reduce to exact linear algebra:

* polystable  <=>  the unital algebra spanned by the loop matrices and one
  transported weight operator per torus (whose algebra is spanned by the
  torus's weight projectors) has zero radical (semisimple natural module).
  With a sigma twist present the loops and the torus are realised
  faithfully on the doubled module K^n + (K^n)^* first.
* stable      <=>  polystable and the stabilizer Lie algebra is no bigger
  than the kernel of the action (scalars fixed by every twist).

The stabilizer rows are the commutant rows of the Galois generators, in
X = xi untwisted and X = diag(xi, -xi^T) under sigma.  A doubled generator
is block diagonal or antidiagonal, and the last n rows of its condition
restate the first n, so the top blocks alone give the rows: xi A = A xi
and xi B + B xi^T = 0, each term with one factor (``sandwich_rows``).  An
algebra proven to be M_N(K) leaves only the kernel.

A polystable untwisted point's stabilizer is the group of units of the
commutant E = End(K^n) of its generators (Richardson's tame case), so its
dimension is dim E, and E is the one system in n^2 unknowns solved for the
whole module (``_first_split``).  The MeatAxe searches with it, and the
first split's complement is solved in its coordinates.  ``is_stable`` and
``levi_reduction`` share one route to the blocks, ``decompose_irreducibles``
from that split and E; it restricts the generators once to each summand of
dimension > 1, and each summand Norton's test does not certify solves its
own commutant once.

A non-polystable or sigma-twisted point is left: the kernel of the
stabilizer rows modulo a word-size prime (``modular.kernel_dim_mod_p``)
bounds the dimension from above (the rows are integer, so no denominator
stops it), and when it meets the kernel dimension that is the answer; else
the same rows are solved by ``linalg.kernel``, modulo primes and lifted,
with the lifted basis checked exactly against the rows.  Every null space
the engine needs, E included, is solved that way.
``is_polystable`` normalizes the point and builds its generators once (never
none); the later steps read its report.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    MatrixAlgebra,
    commutant,
    decompose_irreducibles,
    intertwiner_rows,
    invariant_subspace,
    radical_trace,
    spin_algebra,
)
from .linalg import Matrix, Subspace, kernel, sandwich_rows, stack
from .modular import kernel_dim_mod_p


class NotPolystable(Exception):
    pass


class TwistedInput(Exception):
    pass


class SingularMatrixError(ValueError):
    """A matrix a point needs invertible is singular; ``where`` names it by
    its key in the instance format, e.g. ``loops[0].matrix``."""

    def __init__(self, where: str):
        super().__init__(f"{where} is singular")
        self.where = where


def _invert(g: Matrix, where: str):
    """Check that g is invertible by inverting it: the inverse is kept on g
    (``Matrix.inverse``), so the later inversions of g that a connector and
    a sigma-twisted loop need (``galois_generators``, ``_doubled``)
    cost no elimination.  SingularMatrixError(where) otherwise."""
    try:
        g.inverse()
    except ValueError:
        raise SingularMatrixError(where) from None


@dataclass
class Loop:
    """A twisted loop (g, Inn(inner) o s), s = sigma when ``sigma`` is set,
    else the identity (module docstring)."""
    g: Matrix
    inner: Matrix                  # invertible conjugating element
    sigma: bool = False


@dataclass
class FramedPoint:
    """The point's one coefficient field, Q(zeta_m) for m = ``conductor()``,
    is fixed when it is made: every grading and matrix must be over it."""
    n: int
    gradings: list                 # m Gradings of K^n
    connectors: list               # m-1 invertible Matrices C_2..C_m
    loops: list                    # Loops M_1..M_N

    def __post_init__(self):
        if len(self.gradings) < 1:
            raise ValueError("need at least one grading (basepoint)")
        if len(self.connectors) != len(self.gradings) - 1:
            raise ValueError("need exactly m-1 connectors")
        for g in self.gradings:
            if g.ambient_dim != self.n:
                raise ValueError("grading dimension mismatch")
        for i, c in enumerate(self.connectors):
            if c.rows != self.n or c.cols != self.n:
                raise ValueError("connector size mismatch")
            _invert(c, f"connectors[{i}]")
        for i, x in enumerate(self.loops):
            if not x.g.rows == x.g.cols == x.inner.rows == x.inner.cols == self.n:
                raise ValueError("loop size mismatch")
            if x.sigma:
                _invert(x.g, f"loops[{i}].matrix")
            elif not x.g.is_invertible():
                raise SingularMatrixError(f"loops[{i}].matrix")
            if not (x.inner.is_identity() or x.inner.is_invertible()):
                raise SingularMatrixError(f"loops[{i}].inner")
        fields = {g.basis.m for g in self.gradings} | {c.m for c in self.connectors}
        for x in self.loops:
            fields |= {x.g.m, x.inner.m}
        if len(fields) > 1:
            raise ValueError(f"point mixes fields of conductors {sorted(fields)}")
        self._conductor = fields.pop()

    @property
    def m(self) -> int:
        return len(self.gradings)

    def is_untwisted(self) -> bool:
        """No sigma flag on any loop (inner parts are allowed)."""
        return not any(x.sigma for x in self.loops)

    def conductor(self) -> int:
        """Conductor of the one coefficient field of every grading and matrix."""
        return self._conductor


@dataclass
class GaloisAlgebra:
    """What a polystability verdict was computed from."""
    point: FramedPoint            # the normalized point
    generators: list              # galois_generators(point)
    algebra: MatrixAlgebra        # their unital algebra


@dataclass
class StabilityReport:
    polystable: bool
    stable: Optional[bool] = None
    radical_witness: Optional[Matrix] = None
    invariant_subspace_witness: Optional[Subspace] = None
    stabilizer_dim: Optional[int] = None
    kernel_dim: Optional[int] = None
    levi_decomposition: Optional[list] = None
    # kept for the steps after the verdict; never serialized
    galois: Optional[GaloisAlgebra] = field(default=None, repr=False, compare=False)

    def to_json(self):
        return {
            "polystable": self.polystable,
            "stable": self.stable,
            "radical_witness": None if self.radical_witness is None
            else self.radical_witness.to_json(),
            "invariant_subspace_witness": None if self.invariant_subspace_witness is None
            else self.invariant_subspace_witness.to_json(),
            "stabilizer_dim": self.stabilizer_dim,
            "kernel_dim": self.kernel_dim,
            "levi_decomposition": None if self.levi_decomposition is None
            else [s.to_json() for s in self.levi_decomposition],
        }


def normalize_point(p: FramedPoint) -> FramedPoint:
    """Push every inner twist into the group part, (g, Inn(A) o s) ->
    (g A, s), which leaves every verdict as it is (module docstring).

    A normalized point comes back as it is; else only the loops with an
    inner part change, to g A of invertible g and A, so the copy needs no
    validation again."""
    if all(x.inner.is_identity() for x in p.loops):
        return p
    pn = copy.copy(p)
    one = Matrix.identity(p.n, p.conductor())
    pn.loops = [x if x.inner.is_identity() else Loop(x.g @ x.inner, one, x.sigma)
                for x in p.loops]
    return pn


def _doubled(g: Matrix, sigma: bool) -> Matrix:
    """The 2n x 2n realisation of the normalized loop (g, s) (module
    docstring): diag(g, g^-T), or [[0, g], [g^-T, 0]] under sigma."""
    n = g.rows
    shift = n if sigma else 0  # sigma puts both blocks off the diagonal
    out = Matrix.zero(2 * n, 2 * n, g.m).place(0, shift, g)
    return out.place(n, n - shift, g.inverse().transpose())


def galois_generators(p: FramedPoint):
    """Matrix generators whose unital algebra decides linear reductivity.

    Loops must be normalized.  A non-trivial torus enters as its weight
    operator X (``Grading.weight_operator``) moved to the basepoint,
    C_i^-1 X C_i; a one-piece torus adds only scalars.  A sigma twist forces
    the doubled realisation, where a torus element t acts as
    diag(t, (t^T)^-1) and X as its derivative diag(X, -X^T).

    Entering every weight projector P_u instead changes nothing the engine
    reads.  The eigenvalues <lambda, u> of X are distinct, so its unital
    algebra is the span of its spectral projectors, the P_u; those of
    diag(X, -X^T) are distinct too (<lambda, .> is linear and injective on
    the weights and their negatives), and its spectral projectors are the
    joint ones of the characters u, diag(Q_u, Q_{-u}^T) with Q_u = P_u or 0.
    So the spun algebra, its radical, the commutant and the stabilizer rows
    keep their solution sets and echelon bases, and so does every
    ``invariant_complement`` system, built on the commutant's echelon basis;
    modulo a prime an eigenvalue collision can only make
    ``_spans_full_mod_p`` say False or ``kernel_dim_mod_p`` over-bound, and
    the exact routes settle both (the spin, and a kernel whose lifted basis
    is checked exactly).  Only the MeatAxe's kernel candidates,
    read off the generators, can differ: they may change which first split
    is found, not the Levi blocks where these are unique.

    Scalar generators (an identity loop, say) and repeats of an earlier one
    are dropped, first occurrences kept in order; if every generator is
    scalar, the first stays, and with none the identity does, so the list
    is never empty.  No verdict or certificate changes: a dropped generator,
    or that identity, adds nothing to the unital algebra (also modulo a
    prime), the commutant (so nothing to an ``invariant_complement``
    system, solved in its coordinates) or a spun submodule, and its kernel
    is trivial or one an earlier generator already offered the MeatAxe.
    """
    if not all(x.inner.is_identity() for x in p.loops):
        raise ValueError("loops must be normalized first")
    tori = []
    for grading, c in zip(p.gradings, [None] + p.connectors):
        if not grading.is_trivial():
            x = grading.weight_operator()
            tori.append(x if c is None else c.inverse() @ x @ c)
    n, cond = p.n, p.conductor()
    if p.is_untwisted():
        gens = [x.g for x in p.loops] + tori
    else:
        gens = [_doubled(x.g, x.sigma) for x in p.loops] + [
            Matrix.zero(2 * n, 2 * n, cond).place(0, 0, x).place(n, n, -x.transpose())
            for x in tori]
    return _distinct_nonscalar(gens) or [Matrix.identity(n, cond)]


def _distinct_nonscalar(gens: list) -> list:
    """gens less scalars and repeats, in order; the first if all are scalar
    (a weight operator, with two or more eigenvalues, is never scalar)."""
    kept = []
    for g in gens:
        if not (g.is_scalar() or g in kept):
            kept.append(g)
    return kept or gens[:1]


def is_polystable(p: FramedPoint) -> StabilityReport:
    """Polystable iff the algebra of the Galois generators is semisimple."""
    pn = normalize_point(p)
    gens = galois_generators(pn)
    alg = spin_algebra(gens)
    rad = radical_trace(alg)
    witness = rad.matrices(alg.ambient_n, alg.ambient_n)[0] if rad.dim else None
    return StabilityReport(polystable=rad.dim == 0, radical_witness=witness,
                           galois=GaloisAlgebra(pn, gens, alg))


def kernel_lie_dim(p: FramedPoint) -> int:
    """Lie dimension of the action kernel: scalars fixed by every loop twist."""
    return 0 if any(x.sigma for x in p.loops) else 1  # sigma negates scalars


def _stabilizer_rows(p: FramedPoint, gens: list) -> Matrix:
    """The coefficient rows (``sandwich_rows``) of the linearized
    stabilizer: X G = G X for every Galois generator G of the normalized
    point p (module docstring).

    Untwisted, X = xi and these are the commutant rows.  Under sigma,
    X = diag(xi, -xi^T) and G is block diagonal, diag(A, D), or block
    antidiagonal, top-right block B; the last n rows of X G = G X restate
    the first n (D is A^-T for a loop and -A^T for a weight operator), so
    A gives xi A = A xi and B gives xi B + B xi^T = 0.  All-zero rows are
    dropped.
    """
    n, m = p.n, p.conductor()
    if p.is_untwisted():
        rows = intertwiner_rows(gens, gens)
    else:
        systems = []
        for g in gens:
            b = g.submatrix(range(n), n, 2 * n)
            if b.is_zero():
                a = g.submatrix(range(n), 0, n)
                systems.append(intertwiner_rows([a], [a]))
            else:
                systems.append(sandwich_rows([(None, b, False), (b, None, True)]))
        rows = stack(systems)
    kept = [row for row in rows.int_rows() if any(row)]
    return Matrix(len(kept), n * n, m, [x for row in kept for x in row], rows.den if kept else 1)


def stabilizer_lie_dim(p: FramedPoint, rows: Optional[Matrix] = None) -> int:
    """Dimension of the linearized stabilizer: that of the kernel of its
    rows (``linalg.kernel``, lifted from primes and checked exactly), built
    from ``galois_generators`` unless the caller built them already."""
    if rows is None:
        pn = normalize_point(p)
        rows = _stabilizer_rows(pn, galois_generators(pn))
    return kernel(rows).dim


def _certified_stabilizer_dim(report: StabilityReport, comm: Optional[list]) -> int:
    """The stabilizer dimension off the certificates (module docstring), else solved.

    ``comm`` is the commutant E that ``_first_split`` solved for a
    polystable untwisted point.  Its stabilizer is the group of units of E,
    whose Lie algebra is E (the untwisted stabilizer rows are E's), so the
    dimension is dim E and no other system is solved.  Without E, the rows
    are bounded mod p and, where the bound does not meet the kernel, solved."""
    pn, alg = report.galois.point, report.galois.algebra
    if alg.dim == alg.ambient_n ** 2:
        return report.kernel_dim  # the commutant is the scalars
    if comm is not None:
        return len(comm)
    rows = _stabilizer_rows(pn, report.galois.generators)
    if kernel_dim_mod_p(rows.int_rows(), pn.n ** 2, pn.conductor()) == report.kernel_dim:
        return report.kernel_dim
    return stabilizer_lie_dim(pn, rows)


def _first_split(report: StabilityReport):
    """(the generators' first split, their commutant E or None).

    On a proven M_N(K) there is neither, and no search.  A polystable
    point's E is solved once here: the MeatAxe searches with it, the first
    complement is solved in its coordinates, and its dimension is the
    untwisted stabilizer.  A point that is not polystable is searched from
    the radical on, and no E is kept."""
    alg, gens = report.galois.algebra, report.galois.generators
    if alg.dim == alg.ambient_n ** 2:
        return None, None
    if not report.polystable:
        return invariant_subspace(gens), None
    comm = commutant(gens)
    return invariant_subspace(gens, comm=comm), comm


def is_stable(p: FramedPoint) -> StabilityReport:
    """Stable iff polystable and the stabilizer is as small as the kernel.

    In the untwisted, trivial-tori, single-basepoint specialisation the
    classical cross-check runs too: a proper invariant subspace of the loop
    matrices is recorded as a witness (its presence refutes stability; its
    absence plus the dimension match confirms it).  A polystable untwisted
    point also gets its Levi blocks, by ``levi_reduction``'s route; the
    witness, when searched, is their first split, and the stabilizer is
    dim E, E the commutant that split was searched with.  An algebra proven
    to be M_N(K) is not searched: no witness, and the whole space is one
    block.
    """
    report = is_polystable(p)
    pn = report.galois.point
    # a witness is searched where the generators are the normalized loops
    # g A (the adjoint matrices) less scalars and repeats
    searched = pn.is_untwisted() and pn.m == 1 and pn.gradings[0].is_trivial() and pn.loops
    has_levi = report.polystable and pn.is_untwisted()
    split, comm = _first_split(report) if searched or has_levi else (None, None)
    report.invariant_subspace_witness = split if searched else None
    if has_levi:
        report.levi_decomposition = decompose_irreducibles(report.galois.generators, split, comm)
    report.kernel_dim = kernel_lie_dim(pn)
    report.stabilizer_dim = _certified_stabilizer_dim(report, comm)
    report.stable = bool(report.polystable and report.stabilizer_dim == report.kernel_dim)
    return report


def levi_reduction(p: FramedPoint):
    """Decomposition of the natural module into irreducible summands: the
    blocks ``is_stable`` reports.

    The block group is a Levi subgroup invariant under the whole Galois
    group, with no proper invariant parabolic blockwise.  The blocks are
    irreducible over the coefficient field K, but a block need not restrict
    to a stable point: its endomorphism ring may be a field bigger than K.
    The loop [[0, -1], [1, 0]] over Q gives one block whose endomorphism
    ring is Q(i), and its restriction has stabilizer 2.
    """
    if not p.is_untwisted():
        raise TwistedInput("Levi extraction requires untwisted loops")
    report = is_polystable(p)
    if not report.polystable:
        raise NotPolystable("point is not polystable: no Levi reduction")
    return decompose_irreducibles(report.galois.generators, *_first_split(report))
