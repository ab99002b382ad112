"""Dense exact linear algebra over Q(zeta_m).

A Matrix has one storage: its field, Q(zeta_m) for a conductor m fixed when
it is made, and the power-basis numerators of its entries, phi(m) per entry,
row-major, over one positive denominator with no common factor.  The form
is canonical, so equal matrices store equal numbers, and equality, zero and
the identity are read off the numerators in place.  Every operation is
integer work on them ending in at most one gcd.  Matrices act on column
vectors.  Matrix text is read to numerators (``scalars.parse_numerators``)
laid over one denominator (``over_lcm``) and written by ``Matrix.to_json``;
the display views ``row``, ``[i, j]``, ``Subspace.basis`` and ``repr``
print each entry's numerators by ``scalars.entry_text``.  No Scalar is made
here: a field element outside a matrix is a Matrix too, a polynomial a row
and a Stokes coefficient a 1 x 1.  A ``Subspace`` keeps the integer rows of
its echelon.

There is one integer product, ``_product``: it reads the left factor's
numerators as stored, and the right factor b as the columns of zeta^s b,
s < phi(m), from ``scalars._shifts``, kept on b as its inverse is
(``right_factor``).  ``@``, the spins (w g, and v^T g^T for a submodule),
the MeatAxe and ``kernel``'s check run on it, with no multiplication table
and no Matrix per word.  Every linear condition is a sum of one-sided
terms in a square unknown X, L X, L X^T or X R (an intertwiner b h - h a,
or sigma's X b + b X^T), so each coefficient is one entry of a factor:
``sandwich_rows`` alone writes them as one Matrix of coefficient rows by
placing numerators, with no product.  Blocks are written with
``Matrix.place`` and read with ``Matrix.submatrix``.

There is one exact elimination, the incremental echelon ``_EchelonSet``,
behind the spins, inverses, ranks, ``Subspace`` and ``linear_solve``; its
rows are integer numerators over one denominator per row.  A step whose
multiplier f is not rational forms f row as sum f_j (zeta^j row), from
shifts of the row kept until it changes (``_shifts``).  A row's content is
removed by one rule (``_eliminate``, after Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 1968):
a step with multiplier d = dr / gcd(dr, f) = 1 takes no gcd, a step with
d > 1 divides the content out at once, and a finished row takes one more.
Deferring the d > 1 gcds too made ``is_stable`` on the reducible a3 b3 c3
point of the benchmark corpus (seed 0, over Q) twice as slow, 1.5 -> 3.1 s
(x86-64, CPython 3.11).  The reduced echelon form is unique, so where the
content goes does not change what is read.

``kernel`` does not eliminate exactly: every null space is solved modulo
primes, its reduced echelon basis lifted by the Chinese remainder theorem
and rational reconstruction (``modular.lift_kernel``), and accepted only
when the integer rows kill each vector exactly.  The rank mod p is at most
the exact rank, so such a basis is the kernel's unique reduced echelon
basis, the bytes of an exact elimination (``tests/oracles.py`` keeps it as
the reference); a Hadamard bound (``_hadamard_bits``) caps the primes.
``linear_solve`` stays exact: its one caller, the Stokes sampler's greedy
factor, solves sheet blocks of at most 3 x 3.

Stokes data carry the identity everywhere, so a product with a square
identity factor returns the other factor, after the shape and field checks.
That is safe because no code mutates a Matrix (``place`` copies), which is
also why ``Matrix.identity`` is one shared object per (n, m), the identity
is its own inverse, and a ``Grading`` whose basis is the identity (the
trivial grading, a coordinate torus in order, a Stokes sheet grading) is
not ranked.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import Optional

from .modular import lift_kernel
from .scalars import (
    _rational_text,
    _shifts,
    entry_text,
    euler_phi,
    inverse_numerators,
    multiplication_matrix,
    parse_numerators,
)


def _times(table: list, v: list, s: int, phi: int) -> list:
    """The entries of v from numerator s on, each multiplied by the element
    whose multiplication matrix is ``table``, flattened."""
    return [sum(map(mul, tc, v[t:t + phi])) for t in range(s, len(v), phi) for tc in table]


def _eliminate(v: list, dv: int, row: list, dr: int, s: int, phi: int, m: int, shifts=None):
    """v/dv - f row/dr, where row/dr has pivot entry 1 at numerator s and f
    is the entry of v/dv there: d v - f row on ints, with multiplier d = dr
    over the gcd of dr and f's numerators.  A step with d = 1 returns v's
    prefix (the numerators before s) and dv as they are and takes no gcd;
    one with d > 1 scales them by d and divides the content out at once, so
    the row's growth stays that of one step.  Whoever holds the row last
    takes its one remaining gcd (``_normalized``, ``_reduce_rows``).  A
    rational f (always, over Q) scales row's numerators by one int; any
    other f is sum f_j (zeta^j row), from ``shifts`` (``_shifts`` of row,
    made here when the caller keeps none)."""
    if not any(v[s + 1:s + phi]):
        g = gcd(dr, v[s])
        d, b = dr // g, v[s] // g
        if d == 1:
            return v[:s] + [x - b * y for x, y in zip(v[s:], row[s:])], dv
        tail = [d * x - b * y for x, y in zip(v[s:], row[s:])]
    else:
        f = v[s:s + phi]
        g = gcd(dr, *f)
        d = dr // g
        fy = None
        for fj, shifted in zip(f, shifts or _shifts(row, m, phi)):
            if fj:
                fj //= g
                fy = [fj * y for y in shifted[s:]] if fy is None else \
                    [z + fj * y for z, y in zip(fy, shifted[s:])]
        if d == 1:
            return v[:s] + [x - y for x, y in zip(v[s:], fy)], dv
        tail = [d * x - y for x, y in zip(v[s:], fy)]
    v = [d * x for x in v[:s]] + tail
    dv *= d
    g = gcd(dv, *v)
    return [x // g for x in v], dv // g


def _normalized(v: list, s: int, phi: int, m: int):
    """v divided by its entry at numerator s, canonical: one field inverse,
    or one sign and one gcd when that entry is rational."""
    if not any(v[s + 1:s + phi]):
        p = v[s]
        if p < 0:
            v, p = [-x for x in v], -p
        g = gcd(*v)  # divides p, which is one of the entries
        return [x // g for x in v], p // g
    y, d = inverse_numerators(m, v[s:s + phi])
    v = [0] * s + _times(multiplication_matrix(m, y), v, s, phi)
    g = gcd(d, *v)
    return [x // g for x in v], d // g


class _EchelonSet:
    """Incremental reduced row echelon basis over Q(zeta_m), of vectors
    given by their integer numerators (phi(m) per entry, any nonzero
    multiple of the vector will do).

    Rows stay sorted by pivot with pivot entry 1, and are reduced at the
    later pivots when they are read (``reduced_rows``, ``matrix``), so what
    is read after any sequence of insertions is the unique reduced row
    echelon form of the span.  A row is kept as its numerators over one
    positive denominator with no common factor, so its pivot entry has
    numerators (den, 0, ..., 0).  Eliminating a row is integer work with
    one gcd (``_eliminate``), and a new pivot is normalized with one field
    inverse.
    """

    def __init__(self, width: int, m: int):
        self.width = width
        self.m, self.phi = m, euler_phi(m)
        self.pivots = []            # pivot column per row
        self._nums = []             # integer echelon rows, pivot order
        self._dens = []
        self._shifted = []          # per row, its ``_shifts`` once a step needs them, or None
        self._reduced = True        # zero at every other row's pivot

    @staticmethod
    def reduced(width: int, m: int, rows) -> "_EchelonSet":
        """The echelon of canonical reduced rows, (pivot, numerators,
        denominator) by pivot, as ``insert`` would keep them."""
        ech = _EchelonSet(width, m)
        if rows:
            ech.pivots, ech._nums, ech._dens = (list(column) for column in zip(*rows))
            ech._shifted = [None] * len(rows)
        return ech

    def _residue(self, v: list, dv: int):
        """v/dv less its components along the echelon rows, with whatever
        content the unscaled steps left: ``insert`` hands it to
        ``_normalized``, whose gcd is the row's one."""
        m, phi = self.m, self.phi
        for i, (row, dr, piv) in enumerate(zip(self._nums, self._dens, self.pivots)):
            s = piv * phi
            if v[s] if phi == 1 else any(v[s:s + phi]):
                v, dv = _eliminate(v, dv, row, dr, s, phi, m,
                                   self._shifts_of(i, v, s) if phi > 1 else None)
        return v, dv

    def _shifts_of(self, i: int, v: list, s: int) -> Optional[list]:
        """Row i's ``_shifts`` when v's entry at numerator s is not rational,
        made on the first such step and kept until the row changes; else None."""
        if not any(v[s + 1:s + self.phi]):
            return None
        if self._shifted[i] is None:
            self._shifted[i] = _shifts(self._nums[i], self.m, self.phi)
        return self._shifted[i]

    def insert(self, nums: list) -> Optional[list]:
        """Insert the vector with these integer numerators: the numerators of
        its echelon row, or None if it was dependent."""
        phi = self.phi
        v, _ = self._residue(nums, 1)
        for j, x in enumerate(v):
            if x:
                break
        else:
            return None
        piv = j // phi
        row, den = _normalized(v, piv * phi, phi, self.m)
        at = bisect(self.pivots, piv)
        self._nums.insert(at, row)
        self._dens.insert(at, den)
        self._shifted.insert(at, None)
        self.pivots.insert(at, piv)
        self._reduced = self.dim == 1
        return row

    def _reduce_rows(self):
        """Clear every row at the later pivots, bottom row first, so each row
        eliminated from another is already reduced; one gcd per changed row
        at the end keeps it canonical."""
        if self._reduced:
            return
        nums, dens, phi = self._nums, self._dens, self.phi
        for i in range(len(nums) - 2, -1, -1):
            r, d = nums[i], dens[i]
            for j in range(i + 1, len(nums)):
                s = self.pivots[j] * phi
                if r[s] if phi == 1 else any(r[s:s + phi]):
                    r, d = _eliminate(r, d, nums[j], dens[j], s, phi, self.m,
                                      self._shifts_of(j, r, s) if phi > 1 else None)
            if r is not nums[i]:
                g = gcd(d, *r)
                r, d = [x // g for x in r], d // g
                self._shifted[i] = None
            nums[i], dens[i] = r, d
        self._reduced = True

    def residue(self, nums: list) -> list:
        """A nonzero multiple of the vector with these integer numerators
        less its components along the echelon rows: zero at every pivot, so
        the one such vector of its coset, up to that multiple."""
        return self._residue(nums, 1)[0]

    def reduced_rows(self) -> list:
        """The reduced echelon rows as (numerators, denominator), canonical."""
        self._reduce_rows()
        return list(zip(self._nums, self._dens))

    def matrix(self, start: int, stop: int) -> "Matrix":
        """Columns start .. stop of the reduced echelon rows, as one Matrix."""
        rows = self.reduced_rows()
        phi = self.phi
        den = lcm(*self._dens)
        nums = []
        for row, d in rows:
            part = row[start * phi:stop * phi]
            nums += part if d == den else [x * (den // d) for x in part]
        return _matrix(len(rows), stop - start, self.m, nums, den)

    @property
    def dim(self) -> int:
        return len(self.pivots)


@lru_cache(maxsize=256)   # bounded: the shapes follow the systems solved
def _gathers(rows: int, cols: int, phi: int) -> list:
    """Per column (j, c) of ``_right_factor``, the getter of its numerators
    from the ``_shifts`` of a rows x cols matrix laid end to end."""
    size, step = rows * cols * phi, cols * phi
    return [itemgetter(*[s * size + k * step + t for k in range(rows) for s in range(phi)])
            for t in range(step)]


def _right_factor(nums: list, cols: int, m: int) -> list:
    """b, with these numerators and ``cols`` columns, as the right factor of
    ``_product``: per column j and numerator c, coefficient c of zeta^s b_kj
    for s < phi(m) (from b's ``_shifts``), k major, as a row of a is kept."""
    phi = euler_phi(m)
    if phi == 1:
        return [nums[j::cols] for j in range(cols)]
    if not nums:
        return [()] * (cols * phi)
    shifted = list(chain.from_iterable(_shifts(nums, m, phi)))
    return [get(shifted) for get in _gathers(len(nums) // (cols * phi), cols, phi)]


def _product(nums: list, rows: int, columns: list) -> list:
    """The numerators of a b over the product of the denominators, a the
    ``rows`` rows with these numerators and b given by ``_right_factor``:
    one ``sum(map(mul, ...))`` of a row and a column per numerator."""
    w = len(nums) // rows if rows else 0
    out = []
    for i in range(rows):   # by count: a 1 x 0 factor has one empty row
        row = nums[i * w:(i + 1) * w]
        out += [sum(map(mul, row, col)) for col in columns]
    return out


def over_lcm(rows: int, cols: int, m: int, entries) -> "Matrix":
    """The Matrix of canonical (numerators, den) entries, row-major, over the
    lcm of their denominators, which leaves no common factor."""
    den = lcm(*[d for _, d in entries])
    return Matrix(rows, cols, m, [c * (den // d) for num, d in entries for c in num], den)


def _matrix(rows: int, cols: int, m: int, nums: list, den: int) -> "Matrix":
    """The Matrix nums/den (den > 0), dividing out the common gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return Matrix(rows, cols, m, [x // g for x in nums], den // g)
    return Matrix(rows, cols, m, nums, den)


class Matrix:
    """A matrix over Q(zeta_m): row-major power-basis numerators, phi(m) per
    entry, over one positive denominator with no common factor (module
    docstring).  The constructor takes a canonical form as given;
    ``_matrix`` and ``over_lcm`` make one."""

    __slots__ = ("rows", "cols", "m", "nums", "den", "_inverse", "_right")

    def __init__(self, rows: int, cols: int, m: int, nums: list, den: int = 1):
        self.rows = rows
        self.cols = cols
        self.m = m
        self.nums = nums
        self.den = den
        self._inverse = None    # set by ``inverse``
        self._right = None      # set by ``right_factor``

    # -- constructors ------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int, m: int = 1) -> "Matrix":
        """The n x n identity over Q(zeta_m), one shared object per (n, m):
        no code mutates a Matrix (``place`` copies), so callers may share it."""
        phi = euler_phi(m)
        nums = [0] * (n * n * phi)
        nums[::(n + 1) * phi] = [1] * n
        return Matrix(n, n, m, nums)

    @staticmethod
    def zero(rows: int, cols: int, m: int = 1) -> "Matrix":
        return Matrix(rows, cols, m, [0] * (rows * cols * euler_phi(m)))

    # -- text views ----------------------------------------------------------

    def row(self, i: int) -> tuple:
        """The display texts of row i's entries (``scalars.entry_text``)."""
        phi = euler_phi(self.m)
        w = self.cols * phi
        return tuple([entry_text(self.m, self.nums[t:t + phi], self.den)
                      for t in range(i * w, (i + 1) * w, phi)])

    def __getitem__(self, ij):
        i, j = ij
        return self.row(i)[j]

    # -- integer views and reshaping -------------------------------------------

    def int_rows(self) -> list:
        """The numerators of each row (phi(m) per entry), over ``den``."""
        w = self.cols * euler_phi(self.m)
        return [self.nums[i * w:(i + 1) * w] for i in range(self.rows)]

    def right_factor(self) -> list:
        """``_right_factor`` of self, made once and kept."""
        if self._right is None:
            self._right = _right_factor(self.nums, self.cols, self.m)
        return self._right

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, row-major, in a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("reshape changes the number of entries")
        return Matrix(rows, cols, self.m, self.nums, self.den)

    def submatrix(self, rows, start: int, stop: int) -> "Matrix":
        """The rows with the given indices, columns start .. stop."""
        phi = euler_phi(self.m)
        w, a, b = self.cols * phi, start * phi, stop * phi
        nums = [x for i in rows for x in self.nums[i * w + a:i * w + b]]
        return _matrix(len(rows), stop - start, self.m, nums, self.den)

    def place(self, row: int, col: int, block: "Matrix") -> "Matrix":
        """A copy with ``block`` written over the entries from (row, col) on."""
        if row < 0 or col < 0 or row + block.rows > self.rows or col + block.cols > self.cols:
            raise ValueError("block does not fit inside the matrix")
        self._same_field(block, "a block placed in a matrix")
        den = lcm(self.den, block.den)
        s, t = den // self.den, den // block.den
        out = [x * s for x in self.nums] if s != 1 else list(self.nums)
        phi = euler_phi(self.m)
        w, bw = self.cols * phi, block.cols * phi
        for i in range(block.rows):
            start = (row + i) * w + col * phi
            part = block.nums[i * bw:(i + 1) * bw]
            out[start:start + bw] = part if t == 1 else [x * t for x in part]
        return _matrix(self.rows, self.cols, self.m, out, den)

    def transpose(self) -> "Matrix":
        r, c, nums = self.rows, self.cols, self.nums
        phi = euler_phi(self.m)
        if phi == 1:
            out = [x for j in range(c) for x in nums[j::c]]
        else:
            out = [x for j in range(c) for i in range(r)
                   for x in nums[(i * c + j) * phi:(i * c + j + 1) * phi]]
        return Matrix(c, r, self.m, out, self.den)

    # -- arithmetic ----------------------------------------------------------

    def _same_field(self, other: "Matrix", what: str):
        if other.m != self.m:
            raise ValueError(f"{what} over conductors {sorted({self.m, other.m})}")

    def _combine(self, other: "Matrix", op, what: str) -> "Matrix":
        """self op other (op add or sub) over the lcm of the denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"matrix shape mismatch in {what}")
        self._same_field(other, f"a {what} of matrices")
        da, db = self.den, other.den
        if da == db:
            return _matrix(self.rows, self.cols, self.m, list(map(op, self.nums, other.nums)), da)
        g = gcd(da, db)
        s, t = da // g, db // g
        return _matrix(self.rows, self.cols, self.m,
                       [op(x * t, y * s) for x, y in zip(self.nums, other.nums)], s * db)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add, "sum")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub, "difference")

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, self.m, [-x for x in self.nums], self.den)

    def scale(self, c) -> "Matrix":
        """c times self, c an int or a Fraction."""
        c = Fraction(c)
        return _matrix(self.rows, self.cols, self.m, [x * c.numerator for x in self.nums],
                       self.den * c.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, exact and canonical: one integer ``_product`` of the
        numerators over the product of the denominators, made canonical by
        one gcd.  Entries of two fields raise ValueError.  A square identity
        factor returns the other one as it is (module docstring)."""
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        self._same_field(other, "a product of matrices")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        nums = _product(self.nums, self.rows, other.right_factor())
        return _matrix(self.rows, other.cols, self.m, nums, self.den * other.den)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_scalar(self) -> bool:
        """Whether self is square with every diagonal entry its first one and
        every other entry zero, read off the numerators."""
        n, phi = self.rows, euler_phi(self.m)
        pattern = [0] * len(self.nums)
        for t in range(0, len(pattern), (n + 1) * phi):
            pattern[t:t + phi] = self.nums[:phi]
        return self.cols == n and pattern == self.nums

    def is_identity(self) -> bool:
        """Whether self is a square identity: denominator 1 and the shared
        identity's numerators, with no Matrix built."""
        return self.den == 1 and self.rows == self.cols and \
            self.nums == Matrix.identity(self.rows, self.m).nums

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.m, self.den, self.nums) == \
            (other.rows, other.cols, other.m, other.den, other.nums)

    __hash__ = None

    def rank(self) -> int:
        return _echelon(self).dim

    def is_invertible(self) -> bool:
        """True at once when self keeps an inverse; else from the rank."""
        return self._inverse is not None or self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        """The inverse; the identity is its own (module docstring).  It is
        kept on the matrix, and points back to it, so each matrix is
        eliminated once however often it is inverted."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        if self._inverse is not None:
            return self._inverse
        if self.is_identity():
            return self
        inv = linear_solve(self, Matrix.identity(self.rows, self.m))
        if inv is None:
            raise ValueError("matrix is singular")
        self._inverse, inv._inverse = inv, self
        return inv

    # -- rendering -------------------------------------------------------------

    def __repr__(self):
        return "Matrix(" + "; ".join(
            "[" + ", ".join(self.row(i)) + "]" for i in range(self.rows)) + ")"

    def sort_key(self) -> tuple:
        """Deterministic order on matrices of one shape: each entry's
        coefficients as Fractions, row-major."""
        phi = euler_phi(self.m)
        return tuple([tuple([Fraction(x, self.den) for x in self.nums[t:t + phi]])
                      for t in range(0, len(self.nums), phi)])

    def to_json(self):
        """The one matrix writer: each entry's coefficients as text, "p" or
        "p/q" in lowest terms (p / den reduced by one gcd), one text per
        entry over Q and a list of phi(m) texts per entry otherwise."""
        phi, den = euler_phi(self.m), self.den
        texts = [_rational_text(x, den) for x in self.nums]
        if self.m != 1:  # a list of phi(m) texts per entry, as for Q(zeta_2) = Q
            texts = [texts[t:t + phi] for t in range(0, len(texts), phi)]
        return [texts[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)]

    @staticmethod
    def from_json(data, m: int) -> "Matrix":
        """Rows of scalar texts in Q(zeta_m), read to numerators; [] is 0 x 0."""
        width = len(data[0]) if data else 0
        if any(len(row) != width for row in data):
            raise ValueError("ragged matrix rows")
        return over_lcm(len(data), width, m, [parse_numerators(x, m) for row in data for x in row])


def stack(mats) -> Matrix:
    """The rows of one or more matrices of one width and field, in order,
    over the lcm of their denominators (which leaves no common factor)."""
    first = mats[0]
    if any((a.cols, a.m) != (first.cols, first.m) for a in mats):
        raise ValueError("stacked matrices differ in width or field")
    den = lcm(*[a.den for a in mats])
    nums = []
    for a in mats:
        nums += a.nums if a.den == den else [x * (den // a.den) for x in a.nums]
    return Matrix(sum(a.rows for a in mats), first.cols, first.m, nums, den)


def _echelon(a: Matrix) -> _EchelonSet:
    """The echelon of a's rows."""
    ech = _EchelonSet(a.cols, a.m)
    for row in a.int_rows():
        ech.insert(row)
    return ech


def sandwich_rows(terms) -> Matrix:
    """The coefficient rows of the linear map X -> sum over terms of L X,
    L X^T or X R, X an n x n matrix of unknowns flattened row-major.

    A term is (L, R, transposed) with exactly one factor, the other None,
    and only a left factor transposed; every factor is n x n over one
    field, and n and m are read off them.  Each coefficient is one entry of
    the factor: row (i, c) of L X holds L_ij at unknown (j, c), at (c, j)
    under the transpose, and row (c, j) of X R holds R_ij at unknown
    (c, i).  So the factors' numerators are placed, over the lcm of their
    denominators, and no product is formed.  Returns a Matrix with one row
    per entry of the result, in row-major order, and one column per
    unknown.
    """
    if not terms or any((left is None) == (right is None) or left is None and transposed
                        for left, right, transposed in terms):
        raise ValueError("a constraint term is L X, L X^T or X R, with exactly one factor")
    factors = [right if left is None else left for left, right, _ in terms]
    n, m = factors[0].rows, factors[0].m
    if any((f.rows, f.cols, f.m) != (n, n, m) for f in factors):
        raise ValueError("constraint factors differ in shape or field")
    phi = euler_phi(m)
    den = lcm(*[f.den for f in factors])
    width = n * n * phi  # numerators per row, and per factor
    out = [0] * (n * n * width)
    for (left, _, transposed), f in zip(terms, factors):
        scale = den // f.den
        for t in range(0, width, phi):
            x = f.nums[t:t + phi]
            if not any(x):
                continue
            if scale != 1:
                x = [scale * z for z in x]
            i, j = divmod(t // phi, n)
            for c in range(n):
                if left is not None:
                    k = (i * n + c) * width + (c * n + j if transposed else j * n + c) * phi
                else:
                    k = (c * n + j) * width + (c * n + i) * phi
                out[k:k + phi] = map(add, out[k:k + phi], x)
    return _matrix(n * n, n * n, m, out, den)


class Subspace:
    """A subspace of K^n in canonical reduced row-echelon form, kept as the
    integer rows of its echelon."""

    __slots__ = ("ambient_dim", "_echelon")

    def __init__(self, echelon: _EchelonSet):
        self.ambient_dim = echelon.width
        self._echelon = echelon

    @staticmethod
    def span(a: Matrix) -> "Subspace":
        """The row space of a."""
        return Subspace(_echelon(a))

    @staticmethod
    def zero(ambient_dim: int, m: int = 1) -> "Subspace":
        return Subspace(_EchelonSet(ambient_dim, m))

    @staticmethod
    def full(ambient_dim: int, m: int = 1) -> "Subspace":
        return Subspace.span(Matrix.identity(ambient_dim, m))

    @property
    def dim(self) -> int:
        return self._echelon.dim

    @property
    def pivots(self) -> tuple:
        """The pivot column of each basis row: the row has 1 there and every
        other row 0, so a vector of the span has its coordinates there."""
        return tuple(self._echelon.pivots)

    @property
    def basis(self) -> tuple:
        """The display texts of the canonical echelon rows (``Matrix.row``)."""
        rows = self.matrix
        return tuple(rows.row(i) for i in range(rows.rows))

    @property
    def matrix(self) -> Matrix:
        """The echelon basis as the rows of one Matrix."""
        return self._echelon.matrix(0, self.ambient_dim)

    def matrices(self, rows: int, cols: int) -> list:
        """Each echelon basis vector as a rows x cols Matrix, row-major."""
        m = self._echelon.m
        return [Matrix(rows, cols, m, nums, den) for nums, den in self._echelon.reduced_rows()]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        a, b = self._echelon, other._echelon
        return self.ambient_dim == other.ambient_dim and a.pivots == b.pivots and \
            (not a.pivots or a.m == b.m) and a.reduced_rows() == b.reduced_rows()

    __hash__ = None

    def sort_key(self):
        """Deterministic order on subspaces of one ambient space."""
        return (self.dim,) + self.matrix.sort_key()

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def to_json(self):
        return {"ambient_dim": self.ambient_dim, "basis": self.matrix.to_json()}

    @staticmethod
    def from_json(data, m: int) -> "Subspace":
        """The span of the basis rows, which must be independent vectors of
        length ``ambient_dim`` over Q(zeta_m) in reduced echelon form, as
        ``to_json`` writes them, so they write back as read; else ValueError."""
        n, rows = data["ambient_dim"], data["basis"]
        a = Matrix.from_json(rows, m) if rows else Matrix.zero(0, n, m)
        sub = Subspace.span(a)
        if a.cols != n or sub.matrix != a:
            raise ValueError(f"basis is not {a.rows} independent echelon rows of length {n}")
        return sub


def _hadamard_bits(rows: list, width: int, m: int) -> int:
    """An integer b >= log2 H, H a bound on every numerator and denominator
    of the reduced echelon basis of the null space of these integer rows
    (``lift_kernel`` walks primes until their product passes 2 H^2).

    Over Q each row a is phi = phi(m) integer rows, row c holding the
    coefficients c of zeta^s a_k for every entry k and s < phi.  By
    Cramer's rule a basis vector's coordinates are minors of size phi r (r
    the rank over the field) on the rows of r independent rows a, over the
    one D on the pivot columns; its least denominator divides D, so it and
    each numerator is at most such a minor, which Hadamard's inequality
    bounds by the product of those rows' lengths.  A coefficient of
    zeta^s x is at most |x|_1 L, L the largest coefficient of a power
    zeta^u, u <= 2 phi - 2, so by Cauchy-Schwarz each of a's phi rows is at
    most sqrt((phi L)^2 sum a_t^2) long, a_t its numerators; H is the
    product over the ``width`` longest rows a of that to the power phi."""
    phi = euler_phi(m)
    spread = max(map(abs, chain.from_iterable(_shifts([0] * (phi - 1) + [1], m, phi))))
    scale = (phi * spread) ** 2
    sizes = sorted(((scale * sum(map(mul, r, r))).bit_length() for r in rows), reverse=True)
    return (phi * sum(sizes[:width]) + 1) // 2


def kernel(a: Matrix) -> Subspace:
    """Null space {x : a @ x = 0} as a canonical Subspace of K^cols: its
    reduced echelon basis, solved modulo primes and lifted
    (``modular.lift_kernel``, over at most the primes that
    ``_hadamard_bits`` asks for), and accepted only when a's integer rows
    kill every lifted vector exactly, by one ``_product`` with the vectors
    as columns.  Only the span of a's rows is read, so a system may give
    each row as any nonzero multiple of itself."""
    m = a.m
    rows = [r for r in a.int_rows() if any(r)]
    flat = [x for r in rows for x in r]

    def kills(basis) -> bool:
        vectors = Matrix(len(basis), a.cols, m, [x for _, nums, _ in basis for x in nums])
        return not any(_product(flat, len(rows), vectors.transpose().right_factor()))

    return Subspace(_EchelonSet.reduced(a.cols, m, lift_kernel(
        rows, a.den, a.cols, m, kills, _hadamard_bits(rows, a.cols, m))))


def linear_solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution X of a @ X = b, or None when there is none.

    X is read off the reduced echelon form of [a | b]: zero at a's free
    columns, so it depends only on the row space of [a | b].  The solution
    ambiguity is ``kernel(a)``.
    """
    if a.rows != b.rows:
        raise ValueError("dimension mismatch: a and b must have equal row count")
    a._same_field(b, "a system and a right-hand side")
    n, k, phi = a.cols, b.cols, euler_phi(a.m)
    g = gcd(a.den, b.den)  # a/da | b/db over lcm(da, db)
    s, t = b.den // g, a.den // g
    ech = _EchelonSet(n + k, a.m)
    for r, rhs in zip(a.int_rows(), b.int_rows()):
        ech.insert([x * s for x in r] + [x * t for x in rhs])
    if any(p >= n for p in ech.pivots):
        return None  # inconsistent system
    sol, w = ech.matrix(n, n + k), k * phi
    nums = [0] * (n * w)
    for i, p in enumerate(ech.pivots):
        nums[p * w:(p + 1) * w] = sol.nums[i * w:(i + 1) * w]
    return Matrix(n, k, a.m, nums, sol.den)


class Grading:
    """A weight decomposition of K^n: distinct integer weights in Z^k with
    jointly independent spanning bases.  This is how a torus is presented:
    the torus is recovered from its weight spaces.  The bases are the rows
    of one Matrix, piece by piece, ``sizes`` rows each."""

    __slots__ = ("weights", "sizes", "basis")

    def __init__(self, weights, sizes, basis: Matrix):
        self.weights = [tuple(int(w) for w in weight) for weight in weights]
        self.sizes = list(sizes)
        self.basis = basis
        if len(self.sizes) != len(self.weights) or min(self.sizes, default=0) < 1:
            raise ValueError("grading needs one nonempty piece per weight")
        if basis.rows != basis.cols or sum(self.sizes) != basis.rows:
            raise ValueError("grading pieces do not have total dimension n")
        if len({len(w) for w in self.weights}) > 1:
            raise ValueError("grading weights have mixed lengths")
        if len(set(self.weights)) != len(self.weights):
            raise ValueError("grading weights are not pairwise distinct")
        if not basis.is_identity() and basis.rank() != basis.rows:
            raise ValueError("grading pieces are not jointly independent")

    @staticmethod
    def trivial(n: int, m: int = 1) -> "Grading":
        return Grading([()], [n], Matrix.identity(n, m))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    def is_trivial(self) -> bool:
        return len(self.weights) == 1

    def weight_operator(self) -> Matrix:
        """X = B diag(<lambda, u>) B^-1, B every piece's basis as columns:
        piece u is the eigenspace of X for <lambda, u>.  lambda = (1, s, s^2,
        ...) with s = 2 max|u_i| + 1 reads u as balanced base-s digits, so
        <lambda, .> is linear and injective on the weights and their
        negatives, and the unital algebra of X is the span of the weight
        projectors (Lagrange interpolation)."""
        s = 2 * max((abs(c) for w in self.weights for c in w), default=0) + 1
        b, w = self.basis, self.basis.cols * euler_phi(self.basis.m)
        scaled, start = [], 0
        for weight, size in zip(self.weights, self.sizes):
            eigenvalue = sum(c * s ** i for i, c in enumerate(weight))
            scaled += [x * eigenvalue for x in b.nums[start * w:(start + size) * w]]
            start += size
        return _matrix(b.rows, b.cols, b.m, scaled, b.den).transpose() @ b.transpose().inverse()
