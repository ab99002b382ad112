"""Exact arithmetic in Q(zeta_m) for the benchmark's generator and output checks.

Kept apart from the library on purpose: the checks must not trust the code
they check, and they must keep working while the library's scalar and matrix
types are redesigned.  An element is a tuple of phi(m) Fractions, the
coefficients of 1, z, ..., z^(phi-1) for z = exp(2 pi i / m); the JSON form is
the one instance files use ("p/q" for m = 1, a list of such strings otherwise).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple:
    """Integer coefficients of the m-th cyclotomic polynomial, low -> high."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic(d)
            quot = [0] * (len(num) - len(den) + 1)
            for k in range(len(quot) - 1, -1, -1):
                c = num[k + len(den) - 1]
                quot[k] = c
                for j, dj in enumerate(den):
                    num[k + j] -= c * dj
            num = quot
    return tuple(num)


class Field:
    """Q(zeta_m) with elements as coefficient tuples."""

    def __init__(self, m: int):
        self.m = m
        self.d = euler_phi(m)
        self.zero = (Fraction(0),) * self.d
        self.one = self.rational(1)

    def rational(self, q) -> tuple:
        return (Fraction(q),) + (Fraction(0),) * (self.d - 1)

    def reduce(self, coeffs) -> tuple:
        c = list(coeffs) + [Fraction(0)] * max(0, self.d - len(coeffs))
        mod = cyclotomic(self.m)
        for k in range(len(c) - 1, self.d - 1, -1):
            f = c[k]
            if f:
                for j in range(self.d + 1):
                    c[k - self.d + j] -= f * mod[j]
        return tuple(c[:self.d])

    def zeta(self, power: int) -> tuple:
        c = [Fraction(0)] * (power % self.m + 1)
        c[-1] = Fraction(1)
        return self.reduce(c)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        if self.d == 1:
            return (a[0] * b[0],)
        prod = [Fraction(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self.reduce(prod)

    def inv(self, a):
        """Inverse by solving (multiplication by a) x = 1 over Q."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        if self.d == 1:
            return (1 / a[0],)
        basis = [self.zeta(k) for k in range(self.d)]
        cols = [self.mul(a, b) for b in basis]
        rows = [[cols[j][i] for j in range(self.d)] + [self.one[i]] for i in range(self.d)]
        sol = _solve_rational(rows, self.d)
        return tuple(sol)

    def to_json(self, a):
        if self.m == 1:
            return str(a[0])
        return [str(x) for x in a]

    def from_json(self, data) -> tuple:
        if isinstance(data, list):
            return self.reduce([Fraction(str(x)) for x in data])
        return self.rational(Fraction(str(data)))


def _solve_rational(rows, n):
    """Solve a square nonsingular rational system given as augmented rows."""
    rows = [list(r) for r in rows]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# matrices: lists of rows of field elements


def identity(F: Field, n: int):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def matmul(F: Field, a, b):
    inner, cols = len(b), len(b[0])
    out = []
    for row in a:
        new = []
        for j in range(cols):
            s = F.zero
            for k in range(inner):
                if any(row[k]) and any(b[k][j]):
                    s = F.add(s, F.mul(row[k], b[k][j]))
            new.append(s)
        out.append(new)
    return out


def mat_vec(F: Field, a, v):
    return [row[0] for row in matmul(F, a, [[x] for x in v])]


def is_zero_matrix(a) -> bool:
    return not any(any(x) for row in a for x in row)


def echelon(F: Field, vectors):
    """Reduced row echelon basis of the span of the vectors."""
    rows = [list(v) for v in vectors]
    out, pivots = [], []
    for v in rows:
        for r, p in zip(out, pivots):
            if any(v[p]):
                f = v[p]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, r)]
        piv = next((j for j, x in enumerate(v) if any(x)), None)
        if piv is None:
            continue
        inv = F.inv(v[piv])
        v = [F.mul(inv, x) for x in v]
        for i, r in enumerate(out):
            if any(r[piv]):
                f = r[piv]
                out[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(r, v)]
        out.append(v)
        pivots.append(piv)
    return out


def rank(F: Field, vectors) -> int:
    return len(echelon(F, vectors))


def in_span(F: Field, basis, v) -> bool:
    return rank(F, list(basis) + [v]) == rank(F, basis)


def _pivot(row) -> int:
    return next(j for j, x in enumerate(row) if any(x))


def inverse(F: Field, a):
    n = len(a)
    red = echelon(F, [list(row) + e for row, e in zip(a, identity(F, n))])
    red.sort(key=_pivot)
    if [_pivot(r) for r in red] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [r[n:] for r in red]
