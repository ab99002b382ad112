"""Independent reference routes the tests compare the library against.

Each oracle computes a quantity the library also computes, by a different
method and with no shortcut, so a disagreement on any input is a bug in one
of the two:

* ``is_closed``: a spun algebra holds the identity and every product of two
  of its basis elements;
* ``radical_oracle``: the radical as the null space of the trace form of the
  left regular module, from structure constants (``radical_trace`` uses the
  natural module and skips the Gram matrix for M_N(K));
* ``stabilizer_lie_dim_commutant``: the stabilizer dimension from the
  conjugation picture, with hand-written constraint rows (``stabilizer_lie_dim``
  writes its rows with ``sandwich_rows``).
"""

from wildcat.algebra import MatrixAlgebra, RadicalCertificate, _certificate_from_rows
from wildcat.engine import FramedPoint, transported_projectors
from wildcat.linalg import Matrix, _EchelonSet, kernel
from wildcat.scalars import Scalar


def _echelon(alg: MatrixAlgebra) -> _EchelonSet:
    return _EchelonSet(alg.ambient_n ** 2, [b.flatten() for b in alg.basis])


def is_closed(alg: MatrixAlgebra) -> bool:
    ech = _echelon(alg)
    for a in alg.basis:
        for b in alg.basis:
            if not ech.contains(list((a @ b).flatten())):
                return False
    return ech.contains(list(Matrix.identity(alg.ambient_n, alg.conductor).flatten()))


def radical_oracle(alg: MatrixAlgebra) -> RadicalCertificate:
    """Radical via the trace form of the left regular module.

    Structure constants are computed first; the Gram matrix lives on the
    regular module A acting on itself, so this route never looks at natural-
    module traces.  Every element of the result is certified nilpotent.
    """
    d = alg.dim
    n = alg.ambient_n
    ech = _echelon(alg)
    struct = []
    for i in range(d):
        row = []
        for j in range(d):
            res, coords = ech.reduce((alg.basis[i] @ alg.basis[j]).flatten())
            if any(res):
                raise AssertionError("algebra is not multiplicatively closed")
            row.append(coords)
        struct.append(row)
    # tau[l] = trace of left multiplication by basis element l
    tau = []
    for l in range(d):
        s = Scalar.zero(alg.conductor)
        for k in range(d):
            s = s + struct[l][k][k]
        tau.append(s)
    gram = []
    for i in range(d):
        row = []
        for j in range(d):
            s = Scalar.zero(alg.conductor)
            for l in range(d):
                c = struct[i][j][l]
                if c:
                    s = s + c * tau[l]
            row.append(s)
        gram.append(row)
    ker = kernel(Matrix.build(gram, alg.conductor))
    rows = []
    for coeffs in ker.basis:
        elem = Matrix.zero(n, n, alg.conductor)
        for c, b in zip(coeffs, alg.basis):
            if c:
                elem = elem + b.scale(c)
        rows.append(list(elem.flatten()))
    cert = _certificate_from_rows(n, rows)
    for row in cert.radical.basis:
        mat = Matrix(n, n, tuple(row))
        if not (mat ** n).is_zero():
            raise AssertionError("radical element is not nilpotent")
    return cert


def stabilizer_lie_dim_commutant(p: FramedPoint) -> int:
    """Independent stabilizer dimension via the conjugation picture.

    The stabilizer corresponds to matrices commuting with every transported
    weight projector and twisted-commuting with every loop.
    """
    n = p.n
    m = p.conductor()
    rows = []
    for per_grading in transported_projectors(p):
        for _, q in per_grading:
            for r in range(n):
                for c in range(n):
                    row = [Scalar.zero(m)] * (n * n)
                    for k in range(n):
                        row[r * n + k] = row[r * n + k] + q[k, c]
                        row[k * n + c] = row[k * n + c] - q[r, k]
                    rows.append(row)
    for x in p.loops:
        g = x.g
        ga = g @ x.phi.inner
        inner_inv = x.phi.inner.inverse()
        for r in range(n):
            for c in range(n):
                row = [Scalar.zero(m)] * (n * n)
                for k in range(n):
                    row[r * n + k] = row[r * n + k] + g[k, c]
                for a in range(n):
                    if not ga[r, a]:
                        continue
                    for b in range(n):
                        f = inner_inv[b, c]
                        if f:
                            if x.phi.outer:
                                row[b * n + a] = row[b * n + a] + ga[r, a] * f
                            else:
                                row[a * n + b] = row[a * n + b] - ga[r, a] * f
                rows.append(row)
    if not rows:
        return n * n
    return kernel(Matrix.build(rows, m)).dim
