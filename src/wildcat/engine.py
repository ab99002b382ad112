"""Stability and polystability of framed points under the framing-group action.

A framed point consists of torus gradings T_1..T_m (via weight decompositions),
connectors C_2..C_m, and twisted loops M_1..M_N.  The group H = prod C_G(T_i)
acts by h . (C, M) = (h_i C_i h_1^-1, h_1 M_j phi_j(h_1)^-1).

Verdicts reduce to exact linear algebra:

* polystable  <=>  the unital algebra spanned by the loop matrices and the
  transported torus weight projectors has zero radical (semisimple natural
  module).  With a sigma twist present the loops and the torus are realised
  faithfully on the doubled module K^n + (K^n)^* first.
* stable      <=>  polystable and the stabilizer Lie algebra is no bigger
  than the kernel of the action (scalars fixed by every twist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    decompose_irreducibles,
    invariant_subspace,
    radical_trace,
    restrict_matrix,
    spin_algebra,
)
from .linalg import (
    Grading,
    Matrix,
    Subspace,
    kernel,
    linear_solve,
    sandwich_rows,
    weight_projectors,
)
from .twists import TwistedElement, embed_doubled, normalize


class NotPolystable(Exception):
    pass


class TwistedInput(Exception):
    pass


@dataclass
class FramedPoint:
    n: int
    gradings: list                 # m Gradings of K^n
    connectors: list               # m-1 invertible Matrices C_2..C_m
    loops: list                    # TwistedElements M_1..M_N

    def __post_init__(self):
        if len(self.gradings) < 1:
            raise ValueError("need at least one grading (basepoint)")
        if len(self.connectors) != len(self.gradings) - 1:
            raise ValueError("need exactly m-1 connectors")
        for g in self.gradings:
            if g.ambient_dim != self.n:
                raise ValueError("grading dimension mismatch")
        for c in self.connectors:
            if c.rows != self.n or c.cols != self.n:
                raise ValueError("connector size mismatch")
            if not c.is_invertible():
                raise ValueError("connector is not invertible")
        for x in self.loops:
            if x.n != self.n:
                raise ValueError("loop size mismatch")
            if not x.g.is_invertible():
                raise ValueError("loop matrix is not invertible")
            if not x.phi.inner.is_invertible():
                raise ValueError("loop twist inner part is not invertible")
        self.conductor()  # one field for every grading and matrix, or ValueError

    @property
    def m(self) -> int:
        return len(self.gradings)

    def is_untwisted(self) -> bool:
        """No sigma flag on any loop (inner parts are allowed)."""
        return all(not x.phi.outer for x in self.loops)

    def conductor(self) -> int:
        """Conductor of the one coefficient field of every grading and matrix."""
        fields = {v[0].m for g in self.gradings for _, basis in g.pieces for v in basis if v}
        fields.update(c._conductor() for c in self.connectors)
        for x in self.loops:
            fields.update((x.g._conductor(), x.phi.inner._conductor()))
        if len(fields) > 1:
            raise ValueError(f"point mixes fields of conductors {sorted(fields)}")
        return fields.pop() if fields else 1


@dataclass
class StabilityReport:
    polystable: bool
    stable: Optional[bool] = None
    radical_witness: Optional[Matrix] = None
    invariant_subspace_witness: Optional[Subspace] = None
    stabilizer_dim: Optional[int] = None
    kernel_dim: Optional[int] = None
    levi_decomposition: Optional[list] = None

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
    """Normalize all loop twists into the outer group {id, sigma}."""
    return FramedPoint(p.n, p.gradings, p.connectors, normalize(p.loops))


def transported_projectors(p: FramedPoint):
    """Weight projectors of every torus, conjugated back to the basepoint.

    Returns a list of (weight, projector) per grading; identity projectors of
    trivial gradings are dropped (a one-piece torus only adds scalars, which
    change no verdict).
    """
    out = []
    for i, grading in enumerate(p.gradings):
        if grading.is_trivial():
            out.append([])
            continue
        projs = weight_projectors(grading)
        if i == 0:
            out.append([(w, proj) for (w, _), proj in zip(grading.pieces, projs)])
        else:
            c = p.connectors[i - 1]
            cinv = c.inverse()
            out.append([(w, cinv @ proj @ c) for (w, _), proj in zip(grading.pieces, projs)])
    return out


def galois_generators(p: FramedPoint):
    """Matrix generators whose unital algebra decides linear reductivity.

    Loops must be normalized.  Untwisted points stay in size n; a sigma twist
    forces the doubled realisation, where a torus element t acts as
    diag(t, (t^T)^-1): the joint eigenspace of a character u is the u weight
    space on the first block plus the dual of the -u weight space on the
    second, so each doubled projector is diag(Q_u, Q_{-u}^T).
    """
    for x in p.loops:
        if not x.is_normalized():
            raise ValueError("loops must be normalized first")
    cond = p.conductor()
    projs = transported_projectors(p)
    if p.is_untwisted():
        gens = [x.g for x in p.loops]
        for per_grading in projs:
            gens.extend(q for _, q in per_grading)
        return gens
    n = p.n
    gens = [embed_doubled(x) for x in p.loops]
    for per_grading in projs:
        by_weight = {w: q for w, q in per_grading}
        weights = sorted(set(by_weight) | {tuple(-c for c in w) for w in by_weight})
        for u in weights:
            q = Matrix.zero(2 * n, 2 * n, cond)
            if u in by_weight:
                q = q.place(0, 0, by_weight[u])
            minus = tuple(-c for c in u)
            if minus in by_weight:
                q = q.place(n, n, by_weight[minus].transpose())
            gens.append(q)
    return gens


def is_polystable(p: FramedPoint) -> StabilityReport:
    """Polystable iff the algebra of the Galois generators is semisimple."""
    pn = normalize_point(p)
    gens = galois_generators(pn)
    ambient = pn.n if pn.is_untwisted() else 2 * pn.n
    alg = spin_algebra(gens, ambient_n=ambient)
    rad = radical_trace(alg)
    return StabilityReport(polystable=rad.dim == 0, radical_witness=rad.witness)


def kernel_lie_dim(p: FramedPoint) -> int:
    """Lie dimension of the action kernel: scalars fixed by every loop twist."""
    for x in p.loops:
        if x.phi.outer:
            return 0  # sigma negates scalars
    return 1


def stabilizer_lie_dim(p: FramedPoint) -> int:
    """Dimension of the linearized stabilizer, measured in xi_1.

    xi_i := C_i xi_1 C_i^-1 must lie in Lie H_i for every i, and xi_1 must
    satisfy the twisted commutation xi_1 M_j = M_j dphi_j(xi_1) per loop.
    """
    n = p.n
    m = p.conductor()
    ident = Matrix.identity(n, m)
    rows = []
    for i, grading in enumerate(p.gradings):
        # C_i xi C_i^-1 preserves every piece: (I - P) . C_i xi C_i^-1 . P = 0
        conj = p.connectors[i - 1] if i else None
        cinv = conj.inverse() if i else None
        for proj in weight_projectors(grading):
            if conj is None:
                left, right = ident - proj, proj
            else:
                left, right = (ident - proj) @ conj, cinv @ proj
            rows += sandwich_rows([(left, right, False)], n, n, m)
    # xi g = g A s(xi) A^-1 is xi G = G s(xi) for the normalized loop G = g A,
    # with s(xi) = xi, or -xi^T under sigma
    for x in normalize(p.loops):
        twist = (x.g, None, True) if x.phi.outer else (-x.g, None, False)
        rows += sandwich_rows([(None, x.g, False), twist], n, n, m)
    return kernel(Matrix.build(rows, m)).dim


def is_stable(p: FramedPoint) -> StabilityReport:
    """Stable iff polystable and the stabilizer is as small as the kernel.

    In the untwisted, trivial-tori, single-basepoint specialisation the
    classical cross-check runs too: a proper invariant subspace of the loop
    matrices is recorded as a witness (its presence refutes stability; its
    absence plus the dimension match confirms it).  A polystable untwisted
    point also gets its Levi blocks (as ``levi_reduction`` gives them), read
    off this verdict without deciding polystability again.
    """
    report = is_polystable(p)
    sdim = stabilizer_lie_dim(p)
    kdim = kernel_lie_dim(p)
    report.stabilizer_dim = sdim
    report.kernel_dim = kdim
    report.stable = bool(report.polystable and sdim == kdim)
    if p.is_untwisted() and p.m == 1 and p.gradings[0].is_trivial() and p.loops:
        mats = [x.g @ x.phi.inner for x in p.loops]  # adjoint matrices
        witness = invariant_subspace(mats)
        report.invariant_subspace_witness = witness
    if report.polystable and p.is_untwisted():
        report.levi_decomposition = decompose_irreducibles(
            galois_generators(normalize_point(p)), n=p.n)
    return report


def levi_reduction(p: FramedPoint):
    """Decomposition of the natural module into irreducible summands.

    The block group of the decomposition is a Levi subgroup invariant under
    the whole Galois group, with no proper invariant parabolic blockwise:
    restricting the point to each summand yields a stable point.
    """
    if not p.is_untwisted():
        raise TwistedInput("Levi extraction requires untwisted loops")
    report = is_polystable(p)
    if not report.polystable:
        raise NotPolystable("point is not polystable")
    pn = normalize_point(p)
    gens = galois_generators(pn)
    return decompose_irreducibles(gens, n=p.n)


def restrict_point(p: FramedPoint, block: Subspace) -> FramedPoint:
    """Restrict an untwisted framed point to an invariant summand.

    The summand is invariant under loops and transported tori; grading i is
    restricted on the transported image C_i . block.
    """
    if not p.is_untwisted():
        raise TwistedInput("restriction requires untwisted loops")
    pn = normalize_point(p)
    nb = block.dim
    loops = [TwistedElement.plain(restrict_matrix(x.g, block)) for x in pn.loops]
    gradings = []
    connectors = []
    for i, grading in enumerate(pn.gradings):
        if i == 0:
            image = block
        else:
            c = pn.connectors[i - 1]
            image = Subspace.from_vectors(
                pn.n, [c.mul_vector(v) for v in block.basis])
            cols = Matrix.from_cols(block.basis)
            img_cols = Matrix.from_cols(image.basis)
            coord, _ = linear_solve(img_cols, c @ cols)
            connectors.append(coord)
        pieces = []
        for (w, basis) in grading.pieces:
            piece = Subspace.from_vectors(pn.n, basis)
            inter = piece.intersection(image)
            if inter.dim:
                coords = [image.coordinates(v) for v in inter.basis]
                pieces.append((w, [tuple(c) for c in coords]))
        gradings.append(Grading(nb, pieces))
    return FramedPoint(nb, gradings, connectors, loops)


def act(h, p: FramedPoint) -> FramedPoint:
    """The framing-group action; every verdict is invariant under it.

    Each h_i is promoted into the point's field, which must contain it.
    """
    if len(h) != p.m:
        raise ValueError("need one group element per grading")
    m = p.conductor()
    hs = [Matrix(elt.rows, elt.cols, tuple(x.promote(m) for x in elt.entries)) for elt in h]
    for i, (elt, grading) in enumerate(zip(hs, p.gradings)):
        if not elt.is_invertible():
            raise ValueError(f"group element {i + 1} is not invertible")
        for piece in grading.piece_subspaces():
            for v in piece.basis:
                if not piece.contains(elt.mul_vector(v)):
                    raise ValueError(f"group element {i + 1} does not centralize torus {i + 1}")
    h1 = hs[0]
    h1inv = h1.inverse()
    connectors = [hs[i + 1] @ c @ h1inv for i, c in enumerate(p.connectors)]
    loops = [TwistedElement(h1 @ x.g @ x.phi.apply(h1).inverse(), x.phi) for x in p.loops]
    return FramedPoint(p.n, p.gradings, connectors, loops)
