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
    return g.transpose().inverse()


@dataclass
class Automorphism:
    inner: Matrix            # invertible conjugating element
    outer: bool = False      # False: identity flag, True: sigma flag

    @staticmethod
    def identity(n: int, m: int = 1) -> "Automorphism":
        return Automorphism(Matrix.identity(n, m), False)

    @staticmethod
    def sigma(n: int, m: int = 1) -> "Automorphism":
        return Automorphism(Matrix.identity(n, m), True)

    @property
    def n(self) -> int:
        return self.inner.rows

    def is_inner_trivial(self) -> bool:
        return self.inner == Matrix.identity(self.n, self.inner._conductor())

    def is_identity(self) -> bool:
        return not self.outer and self.is_inner_trivial()

    def apply(self, g: Matrix) -> Matrix:
        core = transpose_inverse(g) if self.outer else g
        if self.is_inner_trivial():
            return core
        return self.inner @ core @ self.inner.inverse()

    def compose(self, other: "Automorphism") -> "Automorphism":
        # self o other: Inn(A) s_a Inn(B) s_b = Inn(A s_a(B)) s_a s_b
        b = transpose_inverse(other.inner) if self.outer else other.inner
        return Automorphism(self.inner @ b, self.outer != other.outer)

    def inverse(self) -> "Automorphism":
        # (Inn(A) s)^{-1} = Inn(s^{-1}(A^{-1})) s
        ainv = self.inner.inverse()
        return Automorphism(transpose_inverse(ainv) if self.outer else ainv, self.outer)

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    __hash__ = None


def differential_action(phi: Automorphism, xi: Matrix) -> Matrix:
    """Derivative of the automorphism at the identity: inner . (+-xi^T) . inner^-1."""
    core = -xi.transpose() if phi.outer else xi
    if phi.is_inner_trivial():
        return core
    return phi.inner @ core @ phi.inner.inverse()


@dataclass
class TwistedElement:
    g: Matrix
    phi: Automorphism

    @staticmethod
    def plain(g: Matrix) -> "TwistedElement":
        return TwistedElement(g, Automorphism.identity(g.rows, g._conductor()))

    @property
    def n(self) -> int:
        return self.g.rows

    def multiply(self, other: "TwistedElement") -> "TwistedElement":
        return TwistedElement(self.g @ self.phi.apply(other.g), self.phi.compose(other.phi))

    def is_normalized(self) -> bool:
        return self.phi.is_inner_trivial()

    def adjoint(self) -> Automorphism:
        """The induced automorphism Inn(g) o phi; invariant under normalize."""
        return Automorphism(self.g, False).compose(self.phi)

    def __eq__(self, other):
        if not isinstance(other, TwistedElement):
            return NotImplemented
        return self.g == other.g and self.phi == other.phi

    __hash__ = None


def normalize(tuple_elements) -> list:
    """Push every inner twist into the group part: (g, Inn(A) o s) -> (g A, s).

    The adjoint action of each element, hence every stability verdict, is
    unchanged.  Output elements carry a trivial inner part.
    """
    out = []
    for x in tuple_elements:
        if not x.phi.inner.is_invertible():
            raise ValueError("automorphism inner part is not invertible")
        if x.phi.is_inner_trivial():
            out.append(x)
            continue
        m = x.g._conductor()
        pure = Automorphism(Matrix.identity(x.n, m), x.phi.outer)
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
    out = Matrix.zero(2 * n, 2 * n, x.g._conductor()).place(0, shift, x.g)
    return out.place(n, n - shift, transpose_inverse(x.g))
