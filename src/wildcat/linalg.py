"""Dense exact linear algebra over Q(zeta_m).

Everything is canonical: reduced row-echelon forms are unique, so equality of
subspaces is equality of representations.  Vectors are tuples of Scalar and
matrices act on column vectors.

There is one exact elimination, the incremental echelon ``_EchelonSet``:
the algebra spinning, ``Matrix.inverse`` and ranks, ``Subspace`` and
``linear_solve`` run on it.  It keeps each row as integers, the
power-basis numerators of its entries over one denominator per row, so
eliminating a row is integer arithmetic, not one Scalar operation per
entry; Scalars are made only for the rows or blocks a caller reads.  Over
Q(zeta_m) a step whose multiplier f is not rational forms f row as
sum f_j (zeta^j row), from shifts of the row made on its first such step
and kept until the row changes (``_shifts``), in flat list passes, with no
multiplication table per step.

``kernel`` does not eliminate exactly.  Every null space the package needs
(the commutant, the complement, the radical, the minimal polynomial, the
split, the stabilizer and the Stokes solve) is solved modulo primes, its
reduced echelon basis lifted by the Chinese remainder theorem and rational
reconstruction (``modular.lift_kernel``), and the lifted basis is accepted
only when the integer rows kill each vector exactly.  The rank mod p is at
most the exact rank, so such a basis is the unique reduced echelon basis
of the kernel: the bytes are those of an exact elimination, which
``tests/oracles.py`` keeps as the reference.  ``linear_solve`` stays exact:
its one caller, the Stokes sampler's greedy factor, solves sheet blocks of
at most 3 x 3.

The echelon removes a row's content by one rule on every field
(``_eliminate``, after Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): a step whose
multiplier d = dr / gcd(dr, f) is 1 leaves the row as it is and takes no
gcd, a step with d > 1 divides the content out at once, and each row takes
one more gcd when it is finished.  Deferring the d > 1 gcds as well lets the
coefficients grow: it made ``is_stable`` on the reducible a3 b3 c3 point of
the benchmark corpus (seed 0, over Q) twice as slow, 1.5 -> 3.1 s (x86-64,
CPython 3.11).  The reduced echelon form is unique, so where the content is
removed does not change what is read.

Products run on the same integer rows: ``Matrix.__matmul__`` puts each row
of the left factor over its row lcm and each column of the right factor
over its column lcm, so an entry is one integer dot product (phi(m) of
them) and one gcd.  Linear conditions of the form X -> sum L.X.R are
turned into integer coefficient rows over one denominator by
``sandwich_rows`` alone, and ``kernel`` and ``linear_solve`` take them as
they are (``IntRows``).  Block matrices (the doubled realisation,
block-supported samples) are written with ``Matrix.place``.

Stokes data carry the identity everywhere: a Stokes matrix is I plus
blocks, and a loop's twist is I unless it is inner.  So the identity is a
property read in place (``Matrix.is_identity``, on the canonical entries:
numerators (1, 0, ...) over 1 on the diagonal, zero elsewhere), and a
product with a square identity factor returns the other factor, after the
same shape and field checks.  Returning the operand itself is safe because
no code mutates a Matrix: its entries are a tuple of immutable Scalars, no
code assigns its fields after construction, and ``place`` returns a copy.
For the same reason ``Matrix.identity`` hands out one shared object per
(n, m), ``Matrix.inverse`` of an identity returns that matrix, and a
``Grading`` whose basis rows, in order, form the identity (the trivial
grading, a coordinate torus in order, a Stokes sheet grading) is not ranked:
its rows are independent by construction.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional

from .modular import lift_kernel
from .scalars import (
    Scalar,
    _canonical,
    _reduction_terms,
    euler_phi,
    inverse_numerators,
    multiplication_matrix,
)


def _coerce_scalar(x, m: int = 1) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar.rational(x, m)


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


def _int_row(vec, m: int, phi: int):
    """(numerators, denominator) of a vector over Q(zeta_m): the phi = phi(m)
    power-basis numerators of each entry, flattened, over the entries' least
    common denominator, which leaves no common factor.  Ints and Fractions
    lift into the field; Scalars of another field raise ValueError."""
    try:
        fields = {x.m for x in vec}
    except AttributeError:  # ints and Fractions lift into the field
        vec = [_coerce_scalar(x, m) for x in vec]
        fields = {x.m for x in vec}
    if fields and fields != {m}:
        raise ValueError(f"a vector over conductor {m} has entries of conductors {sorted(fields)}")
    return _lcm_nums(vec)


def _lcm_nums(vec):
    """``_int_row`` of Scalars known to be in its field."""
    den = lcm(*[x.den for x in vec])
    return [c * (den // x.den) for x in vec for c in x.num], den


def _scalar_row(nums, den: int, m: int, phi: int, start: int, stop: int) -> list:
    """Entries start .. stop of the row with these numerators over den, as Scalars."""
    return [_canonical(m, tuple(nums[t:t + phi]), den) for t in range(start * phi, stop * phi, phi)]


def _times(table: list, v: list, s: int, phi: int) -> list:
    """The entries of v from numerator s on, each multiplied by the element
    whose multiplication matrix is ``table``, flattened."""
    return [sum(map(mul, tc, v[t:t + phi])) for t in range(s, len(v), phi) for tc in table]


def _shifts(row: list, m: int, phi: int) -> list:
    """zeta^j row for j < phi = phi(m), each flattened as row is: zeta times
    an entry moves its numerators up one place and folds the top one back
    by Phi_m, in flat list passes."""
    out, terms = [row], _reduction_terms(m)
    for _ in range(phi - 1):
        prev = out[-1]
        tops = prev[phi - 1::phi]
        nxt = [0] * len(prev)
        for c in range(1, phi):
            nxt[c::phi] = prev[c - 1::phi]
        for j, cj in terms:
            nxt[j::phi] = [x - cj * t for x, t in zip(nxt[j::phi], tops)]
        out.append(nxt)
    return out


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
    """Incremental reduced row echelon basis with exact membership.

    Rows stay sorted by pivot with pivot entry 1, and are reduced at the
    later pivots when they are read (``rows``, ``block``), so what is read
    after any sequence of insertions is the unique reduced row echelon form
    of the span.  A row is kept as integers (``_int_row``): the power-basis
    numerators of its entries, flattened, over one positive denominator with
    no common factor, so its pivot entry has numerators (den, 0, ..., 0).
    Eliminating a row is integer work with one gcd (``_eliminate``), a new
    pivot is normalized with one field inverse, and Scalars are made on
    read.  The field is that of the first vector inserted.
    """

    def __init__(self, width: int, rows=()):
        self.width = width
        self.m = self.phi = None    # the field, fixed by the first insertion
        self.pivots = []            # pivot column per row
        self._nums = []             # integer echelon rows, pivot order
        self._dens = []
        self._shifted = []          # per row, its ``_shifts`` once a step needs them, or None
        self._reduced = True        # zero at every other row's pivot
        self._rows = None           # Scalar rows, made on read
        for row in rows:
            self.add(row)

    @staticmethod
    def reduced(width: int, m: int, rows) -> "_EchelonSet":
        """The echelon of canonical reduced rows, (pivot, numerators,
        denominator) by pivot, as ``insert`` would keep them."""
        ech = _EchelonSet(width)
        if rows:
            ech.m, ech.phi = m, euler_phi(m)
            ech.pivots, ech._nums, ech._dens = (list(column) for column in zip(*rows))
            ech._shifted = [None] * len(rows)
        return ech

    def _field(self, vec):
        """(m, phi(m)) of the echelon, else of the vector's Scalars, else of Q."""
        if self.m is not None:
            return self.m, self.phi
        m = next((x.m for x in vec if isinstance(x, Scalar)), 1)
        return m, euler_phi(m)

    def _residue(self, v: list, dv: int, m: int, phi: int):
        """v/dv less its components along the echelon rows, with whatever
        content the unscaled steps left: ``insert`` hands it to
        ``_normalized``, whose gcd is the row's one, and ``contains`` only
        asks whether it is zero."""
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

    def insert(self, nums: list, m: int) -> Optional[list]:
        """Insert the vector with these integer numerators (any nonzero
        multiple of it will do) over Q(zeta_m): the numerators of its echelon
        row, or None if it was dependent."""
        if self.m is None:
            self.m, self.phi = m, euler_phi(m)
        elif m != self.m:
            raise ValueError(f"a vector over conductor {m} meets an echelon over {self.m}")
        phi = self.phi
        v, _ = self._residue(nums, 1, m, phi)
        for j, x in enumerate(v):
            if x:
                break
        else:
            return None
        piv = j // phi
        row, den = _normalized(v, piv * phi, phi, m)
        at = bisect(self.pivots, piv)
        self._nums.insert(at, row)
        self._dens.insert(at, den)
        self._shifted.insert(at, None)
        self.pivots.insert(at, piv)
        self._reduced = self.dim == 1
        self._rows = None
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
        return self._residue(nums, 1, self.m, self.phi)[0]

    def add(self, vec) -> bool:
        """Insert vec into the span; True if it was independent."""
        m, phi = self._field(vec)
        return self.insert(_int_row(vec, m, phi)[0], m) is not None

    def contains(self, vec) -> bool:
        m, phi = self._field(vec)
        return not any(self._residue(*_int_row(vec, m, phi), m, phi)[0])

    @property
    def rows(self) -> list:
        """The echelon rows as lists of Scalars."""
        if self._rows is None:
            self._rows = [self.block(i, 0, self.width) for i in range(self.dim)]
        return self._rows

    def block(self, i: int, start: int, stop: int) -> list:
        """Entries start .. stop of echelon row i as Scalars."""
        self._reduce_rows()
        return _scalar_row(self._nums[i], self._dens[i], self.m, self.phi, start, stop)

    @property
    def dim(self) -> int:
        return len(self.pivots)


def _row_action(nums: list, m: int, phi: int) -> list:
    """The phi = phi(m) integer rows c of x -> a . x on power-basis
    numerators, a the row with numerators ``nums``: coefficient c of a . x
    is ``sum(map(mul, rows[c], x))``, from the multiplication matrices of
    a's entries.  Zero entries get zero blocks, with no table built."""
    if phi == 1:
        return [nums]
    zero = [0] * phi
    tables = [multiplication_matrix(m, nums[t:t + phi]) if any(nums[t:t + phi]) else None
              for t in range(0, len(nums), phi)]
    return [[x for table in tables for x in (zero if table is None else table[c])]
            for c in range(phi)]


def _left_action(g: Matrix, m: int) -> list:
    """g as an integer matrix on the power-basis numerators of K^cols, up
    to the common denominator of its entries: per row i of g, the rows
    (i, c) for c < phi(m), each over the numerators (k, b) of a column."""
    phi = euler_phi(m)
    nums, _ = _int_row(g.entries, m, phi)
    w = g.cols * phi
    return [_row_action(nums[i * w:(i + 1) * w], m, phi) for i in range(g.rows)]


def _left_product(action: list, e: list, cols: int, phi: int) -> list:
    """Numerators of g w, w the n x cols matrix with numerators e (row-major,
    phi per entry) and ``action`` that of g: one ``sum(map(mul, ...))`` per
    numerator of the product."""
    if phi == 1:
        columns = [e[j::cols] for j in range(cols)]
    else:
        columns = [[x for t in range(j * phi, len(e), cols * phi) for x in e[t:t + phi]]
                   for j in range(cols)]
    return [sum(map(mul, tc, col)) for rows in action for col in columns for tc in rows]


class Matrix:
    __slots__ = ("rows", "cols", "entries", "_inverse")

    def __init__(self, rows: int, cols: int, entries: tuple):
        self.rows = rows
        self.cols = cols
        self.entries = entries  # row-major tuple of Scalar
        self._inverse = None    # set by ``inverse``

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
    @lru_cache(maxsize=None)
    def identity(n: int, m: int = 1) -> "Matrix":
        """The n x n identity over Q(zeta_m), one shared object per (n, m):
        no code mutates a Matrix (``place`` copies), so callers may share it."""
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
        """The product, exact and canonical, on integers: each row of self
        over its row lcm and each column of other over its column lcm, so an
        entry is one ``sum(map(mul, ...))`` over the product of the two lcms,
        made canonical by one gcd.  When phi(m) > 1 an entry takes phi(m)
        of them, through the multiplication matrices of the row's entries
        (``_row_action``).  Zero rows of self give zeros with no product;
        entries of two fields raise ValueError.  A square identity factor
        returns the other one as it is (module docstring)."""
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        n, k, p = self.rows, self.cols, other.cols
        m = self._conductor()
        zero = Scalar.zero(m)
        if not (n and k and p):
            return Matrix(n, p, (zero,) * (n * p))
        a, b = self.entries, other.entries
        fields = {x.m for x in a} | {x.m for x in b}
        if fields != {m}:
            raise ValueError(f"a product of matrices over conductors {sorted(fields)}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        phi = euler_phi(m)
        cols = [_lcm_nums(b[j::p]) for j in range(p)]
        out = []
        for i in range(n):
            row, da = _lcm_nums(a[i * k:(i + 1) * k])
            if not any(row):
                out += [zero] * p
            elif phi == 1:
                for col, db in cols:
                    s = sum(map(mul, row, col))
                    if not s:
                        out.append(zero)
                        continue
                    d = da * db
                    g = gcd(s, d)
                    out.append(Scalar(m, (s // g,), d // g))
            else:
                action = _row_action(row, m, phi)
                for col, db in cols:
                    s = tuple([sum(map(mul, tc, col)) for tc in action])
                    out.append(_canonical(m, s, da * db) if any(s) else zero)
        return Matrix(n, p, tuple(out))

    def mul_vector(self, v: tuple) -> tuple:
        return tuple(self.__matmul__(Matrix(len(v), 1, tuple(v))).entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

    def _conductor(self) -> int:
        for e in self.entries:
            return e.m
        return 1

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def _is_scalar_of(self, num: tuple, den: int) -> bool:
        """Whether self is square with every diagonal entry the canonical
        num / den and every other entry zero: the one entry walk of
        ``is_identity`` and ``algebra._is_scalar_matrix``.  Builds no Scalar."""
        n = self.rows
        if self.cols != n:
            return False
        step = n + 1
        for k, x in enumerate(self.entries):
            if (x.den != den or x.num != num) if k % step == 0 else any(x.num):
                return False
        return True

    def is_identity(self) -> bool:
        """Whether self is a square identity, read off the canonical entries
        (numerators (1, 0, ...) over 1 on the diagonal), with no Matrix built."""
        return self._is_scalar_of((1,) + (0,) * (euler_phi(self._conductor()) - 1), 1)

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
        """The inverse; the identity is its own (module docstring).  It is
        kept on the matrix, and points back to it, so each matrix is
        eliminated once however often it is inverted."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        if self._inverse is not None:
            return self._inverse
        if self.is_identity():
            return self
        n, m = self.rows, self._conductor()
        phi = euler_phi(m)
        ech = _EchelonSet(2 * n)
        for i in range(n):  # the row [a_i | e_i] over the denominator of a_i
            nums, den = _int_row(self.row(i), m, phi)
            unit = [0] * (n * phi)
            unit[i * phi] = den
            ech.insert(nums + unit, m)
        if ech.pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        inv = Matrix(n, n, tuple(x for i in range(n) for x in ech.block(i, n, 2 * n)))
        self._inverse, inv._inverse = inv, self
        return inv

    def __repr__(self):
        return "Matrix(" + "; ".join(
            "[" + ", ".join(repr(x) for x in self.row(i)) + "]" for i in range(self.rows)) + ")"

    def to_json(self):
        return [[x.to_json() for x in self.row(i)] for i in range(self.rows)]

    @staticmethod
    def from_json(data, m: int) -> "Matrix":
        return Matrix.build([[Scalar.from_json(x, m) for x in row] for row in data], m)


class IntRows(NamedTuple):
    """A linear system over Q(zeta_m) as integer rows in the ``_int_row``
    layout (phi(m) numerators per unknown, ``width`` unknowns).  Each row
    stands for any nonzero multiple of itself, so only the span is read:
    ``kernel`` and ``linear_solve`` take it in place of a Matrix and use
    the rows as they are."""
    nums: list
    width: int
    m: int


def _nonzero(nums: list, start: int, step: int, count: int, phi: int) -> list:
    """(i, numerators) of the nonzero entries start + i step, i < count, of
    the entries with these numerators, phi per entry."""
    spans = [(i, (start + i * step) * phi) for i in range(count)]
    return [(i, nums[t:t + phi]) for i, t in spans if any(nums[t:t + phi])]


def sandwich_rows(terms, rows: int, cols: int, m: int):
    """Integer coefficient rows of the linear map X -> sum over terms of L.X.R.

    X is a rows x cols matrix of unknowns, flattened row-major.  A term is
    (L, R, transposed); a transposed term contributes L.X^T.R.  L or R may be
    None for the identity.  Returns (nums, den): one row per entry of the
    result, in row-major order of the result, in the ``_int_row`` layout,
    such that nums / den are the coefficient rows.  Each factor is taken
    over the lcm of its entries' denominators and den is the lcm of the
    terms' products of these, so a coefficient is a sum of integer products
    of numerators and no Scalar is made.  Zero entries of L and R are
    skipped.  ``kernel`` reads the rows as they are (``IntRows``); a
    right-hand side for them is scaled by den.
    """
    phi = euler_phi(m)
    ints = [(([], 1) if left is None else _int_row(left.entries, m, phi),
             ([], 1) if right is None else _int_row(right.entries, m, phi))
            for left, right, _ in terms]
    den = lcm(*[dl * dr for (_, dl), (_, dr) in ints])
    out = None
    for (left, right, transposed), ((ln, dl), (rn, dr)) in zip(terms, ints):
        # the sandwiched matrix is X or X^T; its entry (a, b) is unknown k(a, b)
        inner_rows, inner_cols = (cols, rows) if transposed else (rows, cols)
        height = inner_rows if left is None else left.rows
        width = inner_cols if right is None else right.cols
        if out is None:
            out = [[0] * (rows * cols * phi) for _ in range(height * width)]
        elif len(out) != height * width:
            raise ValueError("sandwich terms have results of different shapes")
        scale = den // (dl * dr)  # folded into the left factor
        # per row r of L, its nonzero entries (a, x, the multiplication table
        # of x, or None when x is rational); per column c of R, its nonzero
        # entries (b, y), or (c, None) for the identity
        lefts = [[(r, [scale] + [0] * (phi - 1))] if left is None else
                 [(a, [scale * c for c in x])
                  for a, x in _nonzero(ln, r * left.cols, 1, left.cols, phi)]
                 for r in range(height)]
        lefts = [[(a, x, multiplication_matrix(m, x) if any(x[1:]) else None) for a, x in line]
                 for line in lefts]
        rights = [[(c, None)] if right is None else _nonzero(rn, c, width, right.rows, phi)
                  for c in range(width)]
        for r in range(height):
            for c in range(width):
                row = out[r * width + c]
                for a, x, table in lefts[r]:
                    for b, y in rights[c]:
                        k = (b * cols + a if transposed else a * cols + b) * phi
                        prod = x if y is None else [x[0] * z for z in y] if table is None \
                            else [sum(map(mul, tc, y)) for tc in table]
                        for t, z in enumerate(prod, k):
                            row[t] += z
    return out, den


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

    @property
    def pivots(self) -> tuple:
        """The pivot column of each basis row: the row has 1 there and every
        other row 0, so a vector of the span has its coordinates there."""
        return tuple(self._echelon.pivots)

    def contains(self, vector) -> bool:
        return self._echelon.contains(vector)

    def coordinates(self, vector):
        """Coordinates of vector in the echelon basis (its pivot entries), or None."""
        if not self.contains(vector):
            return None
        m = self.basis[0][0].m if self.basis else 1
        return tuple(_coerce_scalar(vector[p], m) for p in self.pivots)

    def intersection(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: row reduce [A|A; B|0], read the right half of the zero-left rows
        n = self.ambient_dim
        if not (self.basis and other.basis):
            return Subspace.zero(n)
        zero = Scalar.zero(self.basis[0][0].m)
        ech = _EchelonSet(2 * n, [r + r for r in self.basis] +
                          [r + (zero,) * n for r in other.basis])
        return Subspace.from_vectors(
            n, [ech.block(i, n, 2 * n) for i, piv in enumerate(ech.pivots) if piv >= n])

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


def _system(a):
    """(width, m, rows) of a Matrix or ``IntRows``: its rows in the
    ``_int_row`` layout with their denominators (1 for ``IntRows``)."""
    if isinstance(a, IntRows):
        return a.width, a.m, [(r, 1) for r in a.nums]
    m = a._conductor()
    phi = euler_phi(m)
    return a.cols, m, [_int_row(a.row(i), m, phi) for i in range(a.rows)]


def kernel(a) -> Subspace:
    """Null space {x : a @ x = 0} of a Matrix or ``IntRows`` as a canonical
    Subspace of K^width: its reduced echelon basis, solved modulo primes and
    lifted (``modular.lift_kernel``), and accepted only when a's integer
    rows kill every lifted vector exactly, through the integer matrix of
    multiplication by it (``_row_action``)."""
    n, m, rows = _system(a)
    phi = euler_phi(m)
    rows = [(r, d) for r, d in rows if any(r)]

    def kills(basis) -> bool:
        for _, nums, _ in basis:
            action = _row_action(nums, m, phi)
            for r, _ in rows:
                for tc in action:
                    if sum(map(mul, tc, r)):
                        return False
        return True

    return Subspace(_EchelonSet.reduced(n, m, lift_kernel(rows, n, m, kills)))


def linear_solve(a, b: Matrix) -> Optional[Matrix]:
    """One solution X of a @ X = b, a a Matrix or ``IntRows``, or None when
    there is none.

    X is read off the reduced echelon form of [a | b]: zero at a's free
    columns, so it depends only on the row space of [a | b].  The solution
    ambiguity is ``kernel(a)``.  Rows of ``IntRows`` are taken as they
    are, so b must be given for those rows, not for rows up to a multiple.
    """
    n, m, rows = _system(a)
    if len(rows) != b.rows:
        raise ValueError("dimension mismatch: a and b must have equal row count")
    phi = euler_phi(m)
    ech = _EchelonSet(n + b.cols)
    for i, (r, d) in enumerate(rows):
        rhs, e = _int_row(b.row(i), m, phi)
        g = gcd(d, e)  # r/d | rhs/e over lcm(d, e)
        ech.insert([x * (e // g) for x in r] + [x * (d // g) for x in rhs], m)
    if any(p >= n for p in ech.pivots):
        return None  # inconsistent system
    xs = [Scalar.zero(m)] * (n * b.cols)
    for i, p in enumerate(ech.pivots):
        xs[p * b.cols:(p + 1) * b.cols] = ech.block(i, n, n + b.cols)
    return Matrix(n, b.cols, tuple(xs))


class Grading:
    """A weight decomposition of K^n: distinct integer weights in Z^k with
    jointly independent spanning bases.  This is how a torus is presented:
    the torus is recovered from its weight spaces."""

    __slots__ = ("ambient_dim", "pieces")

    def __init__(self, ambient_dim: int, pieces):
        self.ambient_dim = ambient_dim
        pieces = [(tuple(int(w) for w in weight), list(basis)) for weight, basis in pieces]
        vectors = iter(_field_rows([v for _, basis in pieces for v in basis])[0])
        pieces = [(weight, [tuple(next(vectors)) for _ in basis]) for weight, basis in pieces]
        if len({len(w) for w, _ in pieces}) > 1:
            raise ValueError("grading weights have mixed lengths")
        weights = [w for w, _ in pieces]
        if len(set(weights)) != len(weights):
            raise ValueError("grading weights are not pairwise distinct")
        total = [v for _, basis in pieces for v in basis]
        if len(total) != ambient_dim:
            raise ValueError("grading pieces do not have total dimension n")
        rows = Matrix.from_rows(total)
        if not rows.is_identity() and rows.rank() != ambient_dim:
            raise ValueError("grading pieces are not jointly independent")
        self.pieces = pieces

    @staticmethod
    def trivial(n: int, m: int = 1) -> "Grading":
        ident = Matrix.identity(n, m)
        return Grading(n, [((), [ident.row(i) for i in range(n)])])

    def is_trivial(self) -> bool:
        return len(self.pieces) == 1

    def weight_operator(self) -> Matrix:
        """X = B diag(<lambda, u>) B^-1, B every piece's basis as columns:
        piece u is the eigenspace of X for <lambda, u>.  lambda = (1, s, s^2,
        ...) with s = 2 max|u_i| + 1 reads u as balanced base-s digits, so
        <lambda, .> is linear and injective on the weights and their
        negatives, and the unital algebra of X is the span of the weight
        projectors (Lagrange interpolation)."""
        s = 2 * max((abs(c) for w, _ in self.pieces for c in w), default=0) + 1
        vectors, scaled = [], []
        for w, basis in self.pieces:
            eigenvalue = sum(c * s ** i for i, c in enumerate(w))
            vectors += basis
            scaled += [[x * eigenvalue for x in v] for v in basis]
        return Matrix.from_cols(scaled) @ Matrix.from_cols(vectors).inverse()

    def piece_subspaces(self):
        return [Subspace.from_vectors(self.ambient_dim, basis) for _, basis in self.pieces]
