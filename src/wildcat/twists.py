"""Factored automorphisms of GL_n and twisted group elements.

An automorphism is stored as an inner conjugating matrix together with an
outer flag: identity, or the transpose-inverse involution sigma.  A twisted
element is a pair (g, phi); these multiply inside the semidirect product
G x| {id, sigma} by (g, phi)(h, psi) = (g phi(h), phi psi).

``normalize`` moves every twist into the two-element outer group by the
bitorsor isomorphism (g, Inn(A) o outer) -> (g A, outer); all stability
verdicts downstream are invariant under this move because the adjoint action
Inn(g A) o outer = Inn(g) o Inn(A) o outer is literally unchanged.

``embed_doubled`` is a faithful 2n-dimensional matrix realisation of the
semidirect product: block diagonal on the identity component, off-diagonal
blocks on the sigma component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix


def transpose_inverse(g: Matrix) -> Matrix:
    """(g^-1)^T: the transpose of g's one inverse (``Matrix.inverse`` keeps it)."""
    return g.inverse().transpose()


@dataclass
class Automorphism:
    inner: Matrix            # invertible conjugating element
    outer: bool = False      # False: identity flag, True: sigma flag

    @staticmethod
    def identity(n: int, m: int = 1) -> "Automorphism":
        return Automorphism(Matrix.identity(n, m), False)

    @property
    def n(self) -> int:
        return self.inner.rows

    def is_inner_trivial(self) -> bool:
        return self.inner.is_identity()


@dataclass
class TwistedElement:
    g: Matrix
    phi: Automorphism

    @staticmethod
    def plain(g: Matrix) -> "TwistedElement":
        return TwistedElement(g, Automorphism.identity(g.rows, g.m))

    @property
    def n(self) -> int:
        return self.g.rows

    def is_normalized(self) -> bool:
        return self.phi.is_inner_trivial()



def normalize(tuple_elements) -> list:
    """Push every inner twist into the group part: (g, Inn(A) o s) -> (g A, s).

    The adjoint action of each element, hence every stability verdict, is
    unchanged.  Output elements carry a trivial inner part.  Each inner part
    A must be invertible and is not ranked again here: the one library
    caller, ``engine.normalize_point``, passes loops of a ``FramedPoint``,
    which ranked them when it was made, and ``wildcat`` does not export
    this function.
    """
    out = []
    for x in tuple_elements:
        if x.phi.is_inner_trivial():
            out.append(x)
            continue
        pure = Automorphism(Matrix.identity(x.n, x.g.m), x.phi.outer)
        out.append(TwistedElement(x.g @ x.phi.inner, pure))
    return out


def embed_doubled(x: TwistedElement) -> Matrix:
    """Faithful 2n x 2n realisation of a normalized twisted element.

    (g, id)    -> [[g, 0], [0, (g^T)^-1]]
    (g, sigma) -> [[0, g], [(g^T)^-1, 0]]
    """
    if not x.is_normalized():
        raise ValueError("element must be normalized (trivial inner part)")
    n = x.n
    shift = n if x.phi.outer else 0  # sigma puts both blocks off the diagonal
    out = Matrix.zero(2 * n, 2 * n, x.g.m).place(0, shift, x.g)
    return out.place(n, n - shift, transpose_inverse(x.g))
