"""Dense exact linear algebra over Q(zeta_m).

Everything is canonical: reduced row-echelon forms are unique, so equality of
subspaces is equality of representations.  Vectors are tuples of Scalar and
matrices act on column vectors.

There is one elimination kernel, the incremental echelon ``_EchelonSet``:
``rref``, ``kernel``, ``linear_solve``, ``Matrix.inverse``, ``Subspace`` and
the algebra spinning all run on it.  Linear conditions of the form
X -> sum L.X.R are turned into coefficient rows by ``sandwich_rows`` alone.
Block matrices (the doubled realisation, block-supported samples) are
written with ``Matrix.place``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .scalars import Scalar


def _coerce_scalar(x, m: int = 1) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar.rational(Fraction(x), m)


def _field_rows(rows, m: Optional[int] = None):
    """Rows of Scalars in one field: that of the Scalar entries, or ``m``.

    Ints and Fractions lift into that field; Scalars of two conductors, or a
    conductor other than an explicit ``m``, raise ValueError.  Returns
    (rows, conductor).
    """
    rows = [list(row) for row in rows]
    fields = {x.m for row in rows for x in row if isinstance(x, Scalar)}
    if m is not None:
        fields.add(m)
    if len(fields) > 1:
        raise ValueError(f"entries from fields of conductors {sorted(fields)}")
    m = fields.pop() if fields else 1
    return [[_coerce_scalar(x, m) for x in row] for row in rows], m


class _EchelonSet:
    """Incremental reduced row echelon basis with exact membership.

    Rows stay sorted by pivot and fully reduced, so after any sequence of
    insertions they are the unique reduced row echelon form of their span.
    """

    def __init__(self, width: int, rows=()):
        self.width = width
        self.rows = []          # echelon rows, pivot order
        self.pivots = []        # pivot column per row
        for row in rows:
            self.add(row)

    def reduce(self, vec):
        """(residue of vec modulo the span, coordinates along the echelon rows)."""
        vec = list(vec)
        coords = []
        for row, piv in zip(self.rows, self.pivots):
            f = vec[piv]
            coords.append(f)
            if f:
                for j in range(piv, self.width):
                    if row[j]:
                        vec[j] = vec[j] - f * row[j]
        return vec, coords

    def add(self, vec) -> bool:
        """Insert vec into the span; True if it was independent."""
        res, _ = self.reduce(vec)
        piv = next((j for j, x in enumerate(res) if x), None)
        if piv is None:
            return False
        inv = res[piv].inverse()
        res = [x * inv if x else x for x in res]
        for row in self.rows:
            f = row[piv]
            if f:
                for j in range(self.width):
                    if res[j]:
                        row[j] = row[j] - f * res[j]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.rows))
        self.rows.insert(at, res)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec) -> bool:
        return all(not x for x in self.reduce(vec)[0])

    @property
    def dim(self) -> int:
        return len(self.rows)


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        self.rows = rows
        self.cols = cols
        self.entries = entries  # row-major tuple of Scalar

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(rows, m: Optional[int] = None) -> "Matrix":
        """Matrix of nested rows in one field: that of its Scalar entries, or ``m``.

        Ints and Fractions lift into the field; entries of two fields, or of a
        field other than an explicit ``m``, raise ValueError.
        """
        data, _ = _field_rows(rows, m)
        nr = len(data)
        nc = len(data[0]) if nr else 0
        if any(len(row) != nc for row in data):
            raise ValueError("ragged matrix rows")
        return Matrix(nr, nc, tuple(x for row in data for x in row))

    @staticmethod
    def identity(n: int, m: int = 1) -> "Matrix":
        one, zero = Scalar.one(m), Scalar.zero(m)
        return Matrix(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int, m: int = 1) -> "Matrix":
        z = Scalar.zero(m)
        return Matrix(rows, cols, (z,) * (rows * cols))

    @staticmethod
    def from_rows(vectors) -> "Matrix":
        return Matrix(len(vectors), len(vectors[0]) if vectors else 0,
                      tuple(x for v in vectors for x in v))

    @staticmethod
    def from_cols(vectors) -> "Matrix":
        return Matrix.from_rows(vectors).transpose()

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols: (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def flatten(self) -> tuple:
        return self.entries

    def place(self, row: int, col: int, block: "Matrix") -> "Matrix":
        """A copy with ``block`` written over the entries from (row, col) on."""
        if row < 0 or col < 0 or row + block.rows > self.rows or col + block.cols > self.cols:
            raise ValueError("block does not fit inside the matrix")
        if block.entries and self.entries and block._conductor() != self._conductor():
            raise ValueError("block and matrix live in different fields")
        out = list(self.entries)
        for i in range(block.rows):
            start = (row + i) * self.cols + col
            out[start:start + block.cols] = block.row(i)
        return Matrix(self.rows, self.cols, tuple(out))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in addition")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in subtraction")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(a * c for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        n, k, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k: (i + 1) * k]
            for j in range(p):
                s = None
                for t in range(k):
                    x = arow[t]
                    if x:
                        term = x * b[t * p + j]
                        s = term if s is None else s + term
                out.append(s if s is not None else Scalar.zero(self._conductor()))
            # row done
        return Matrix(n, p, tuple(out))

    def mul_vector(self, v: tuple) -> tuple:
        return tuple(self.__matmul__(Matrix(len(v), 1, tuple(v))).entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        s = Scalar.zero(self._conductor())
        for i in range(self.rows):
            s = s + self[i, i]
        return s

    def __pow__(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        out = Matrix.identity(self.rows, self._conductor())
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def _conductor(self) -> int:
        for e in self.entries:
            return e.m
        return 1

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    def rank(self) -> int:
        return _EchelonSet(self.cols, self.row_list()).dim

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        ident = Matrix.identity(n, self._conductor())
        ech = _EchelonSet(2 * n, [self.row(i) + ident.row(i) for i in range(n)])
        if ech.pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(n, n, tuple(x for row in ech.rows[:n] for x in row[n:]))

    def char_poly(self) -> list:
        """Characteristic polynomial coefficients, low -> high, monic."""
        # Faddeev-LeVerrier: exact, divisions by integers only
        n = self.rows
        m = self._conductor()
        coeffs = [Scalar.zero(m)] * (n + 1)
        coeffs[n] = Scalar.one(m)
        M = Matrix.zero(n, n, m)
        ident = Matrix.identity(n, m)
        for k in range(1, n + 1):
            M = self @ M + ident.scale(coeffs[n - k + 1])
            c = (self @ M).trace() * Fraction(-1, k)
            coeffs[n - k] = c
        return coeffs

    def __repr__(self):
        return "Matrix(" + "; ".join(
            "[" + ", ".join(repr(x) for x in self.row(i)) + "]" for i in range(self.rows)) + ")"

    def to_json(self):
        return [[x.to_json() for x in self.row(i)] for i in range(self.rows)]

    @staticmethod
    def from_json(data, m: int) -> "Matrix":
        return Matrix.build([[Scalar.from_json(x, m) for x in row] for row in data], m)


def rref(a: Matrix):
    """Reduced row-echelon form.  Returns (R, pivots, rank), deterministic."""
    ech = _EchelonSet(a.cols, a.row_list())
    zero = Scalar.zero(a._conductor())
    entries = tuple(x for row in ech.rows for x in row)
    entries += (zero,) * (a.rows * a.cols - len(entries))
    return Matrix(a.rows, a.cols, entries), tuple(ech.pivots), ech.dim


def sandwich_rows(terms, rows: int, cols: int, m: int) -> list:
    """Coefficient rows of the linear map X -> sum over terms of L.X.R.

    X is a rows x cols matrix of unknowns, flattened row-major.  A term is
    (L, R, transposed); a transposed term contributes L.X^T.R.  L or R may be
    None for the identity.  Returns one row per entry of the result, in
    row-major order of the result.  Zero entries of L and R are skipped.
    """
    zero, one = Scalar.zero(m), Scalar.one(m)
    out = None
    for left, right, transposed in terms:
        # the sandwiched matrix is X or X^T; its entry (a, b) is unknown k(a, b)
        inner_rows, inner_cols = (cols, rows) if transposed else (rows, cols)
        height = inner_rows if left is None else left.rows
        width = inner_cols if right is None else right.cols
        if out is None:
            out = [[zero] * (rows * cols) for _ in range(height * width)]
        elif len(out) != height * width:
            raise ValueError("sandwich terms have results of different shapes")
        # an identity factor is the sentinel ``one``, which needs no product
        lefts = [[(r, one)] if left is None else
                 [(a, x) for a, x in enumerate(left.row(r)) if x] for r in range(height)]
        rights = [[(c, one)] if right is None else
                  [(b, y) for b, y in enumerate(right.col(c)) if y] for c in range(width)]
        for r in range(height):
            for c in range(width):
                row = out[r * width + c]
                for a, x in lefts[r]:
                    for b, y in rights[c]:
                        k = b * cols + a if transposed else a * cols + b
                        row[k] = row[k] + (y if x is one else x if y is one else x * y)
    return out


class Subspace:
    """A subspace of K^n in canonical reduced row-echelon form."""

    __slots__ = ("ambient_dim", "basis", "_echelon")

    def __init__(self, echelon: _EchelonSet):
        self.ambient_dim = echelon.width
        self.basis = tuple(tuple(row) for row in echelon.rows)  # canonical echelon rows
        self._echelon = echelon

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vecs, _ = _field_rows(vectors)
        return Subspace(_EchelonSet(ambient_dim, vecs))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(_EchelonSet(ambient_dim))

    @staticmethod
    def full(ambient_dim: int, m: int = 1) -> "Subspace":
        return Subspace.from_vectors(ambient_dim,
                                     [Matrix.identity(ambient_dim, m).row(i)
                                      for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, vector) -> bool:
        return self._echelon.contains(vector)

    def coordinates(self, vector):
        """Coordinates of vector in the echelon basis, or None."""
        m = self.basis[0][0].m if self.basis else 1
        res, coords = self._echelon.reduce([_coerce_scalar(x, m) for x in vector])
        if any(res):
            return None
        return tuple(coords)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: row reduce [A|A; B|0], read the right half of the zero-left rows
        n = self.ambient_dim
        if not (self.basis and other.basis):
            return Subspace.zero(n)
        zero = Scalar.zero(self.basis[0][0].m)
        ech = _EchelonSet(2 * n, [r + r for r in self.basis] +
                          [r + (zero,) * n for r in other.basis])
        return Subspace.from_vectors(
            n, [row[n:] for row, piv in zip(ech.rows, ech.pivots) if piv >= n])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and \
            len(self.basis) == len(other.basis) and \
            all(all(a == b for a, b in zip(r1, r2)) for r1, r2 in zip(self.basis, other.basis))

    __hash__ = None

    def sort_key(self):
        """Deterministic order on subspaces of one ambient space."""
        key = [self.dim]
        for row in self.basis:
            for x in row:
                key.append(tuple(c for c in x.coeffs))
        return tuple(key)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def to_json(self):
        return {"ambient_dim": self.ambient_dim,
                "basis": [[x.to_json() for x in row] for row in self.basis]}

    @staticmethod
    def from_json(data, m: int) -> "Subspace":
        return Subspace.from_vectors(
            data["ambient_dim"],
            [[Scalar.from_json(x, m) for x in row] for row in data["basis"]])


def _null_space(ech: _EchelonSet, n: int, m: int) -> Subspace:
    """Null space of the first n columns of an echelon form, in K^n."""
    pivots = [p for p in ech.pivots if p < n]  # these rows come first
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Scalar.zero(m)] * n
        v[f] = Scalar.one(m)
        for row, p in zip(ech.rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return Subspace.from_vectors(n, basis)


def kernel(a: Matrix) -> Subspace:
    """Null space {x : a @ x = 0} as a canonical Subspace of K^cols."""
    return _null_space(_EchelonSet(a.cols, a.row_list()), a.cols, a._conductor())


def linear_solve(a: Matrix, b: Matrix):
    """One solution X of a @ X = b (or None) together with the kernel of a.

    The kernel describes the solution ambiguity per column of b.
    """
    if a.rows != b.rows:
        raise ValueError("dimension mismatch: a and b must have equal row count")
    n, m = a.cols, a._conductor()
    ech = _EchelonSet(n + b.cols, [a.row(i) + b.row(i) for i in range(a.rows)])
    ker = _null_space(ech, n, m)
    if any(p >= n for p in ech.pivots):
        return None, ker  # inconsistent system
    xs = [[Scalar.zero(m)] * b.cols for _ in range(n)]
    for row, p in zip(ech.rows, ech.pivots):
        xs[p] = row[n:]
    return Matrix.build(xs, m), ker


class Grading:
    """A weight decomposition of K^n: distinct integer weights in Z^k with
    jointly independent spanning bases.  This is how a torus is presented:
    the torus is recovered from its weight spaces."""

    __slots__ = ("ambient_dim", "k", "pieces")

    def __init__(self, ambient_dim: int, pieces):
        self.ambient_dim = ambient_dim
        pieces = [(tuple(int(w) for w in weight), list(basis)) for weight, basis in pieces]
        vectors = iter(_field_rows([v for _, basis in pieces for v in basis])[0])
        pieces = [(weight, [tuple(next(vectors)) for _ in basis]) for weight, basis in pieces]
        ks = {len(w) for w, _ in pieces}
        if len(ks) > 1:
            raise ValueError("grading weights have mixed lengths")
        self.k = ks.pop() if ks else 0
        weights = [w for w, _ in pieces]
        if len(set(weights)) != len(weights):
            raise ValueError("grading weights are not pairwise distinct")
        total = [v for _, basis in pieces for v in basis]
        if len(total) != ambient_dim:
            raise ValueError("grading pieces do not have total dimension n")
        if Matrix.from_rows(total).rank() != ambient_dim:
            raise ValueError("grading pieces are not jointly independent")
        self.pieces = pieces

    @staticmethod
    def trivial(n: int, m: int = 1) -> "Grading":
        ident = Matrix.identity(n, m)
        return Grading(n, [((), [ident.row(i) for i in range(n)])])

    def is_trivial(self) -> bool:
        return len(self.pieces) == 1

    def piece_subspaces(self):
        return [Subspace.from_vectors(self.ambient_dim, basis) for _, basis in self.pieces]

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        if (self.ambient_dim, self.k) != (other.ambient_dim, other.k):
            return False
        if len(self.pieces) != len(other.pieces):
            return False
        for (w1, b1), (w2, b2) in zip(self.pieces, other.pieces):
            if w1 != w2 or Subspace.from_vectors(self.ambient_dim, b1) != \
                    Subspace.from_vectors(self.ambient_dim, b2):
                return False
        return True

    __hash__ = None


def weight_projectors(g: Grading) -> list:
    """Projectors onto each piece along the sum of the others.

    Idempotent, pairwise orthogonal, summing to the identity; exact.
    """
    n = g.ambient_dim
    cols = [v for _, basis in g.pieces for v in basis]
    b = Matrix.from_cols(cols)
    if not b.is_invertible():
        raise ValueError("degenerate grading: pieces do not span")
    binv = b.inverse()
    m = b._conductor()
    out = []
    start = 0
    for _, basis in g.pieces:
        d = len(basis)
        sel = Matrix.build([[1 if (i == j and start <= i < start + d) else 0
                             for j in range(n)] for i in range(n)], m)
        out.append(b @ sel @ binv)
        start += d
    return out
