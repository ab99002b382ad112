"""Exact scalars: elements of cyclotomic fields as integer numerators.

An element of Q(zeta_m), for a conductor m >= 1, is written in the power
basis 1, zeta_m, ..., zeta_m^(phi(m)-1) as integer numerators (phi(m) of
them) over one common denominator.  m = 1 is plain Q.  This is the one form
a field element takes in computation: a ``linalg.Matrix`` stores its entries
so, over one denominator, and a polynomial over the field
(``algebra.factor_over_field``) and a Stokes coefficient (``stokes.Circle``)
are Matrices, a row and a 1 x 1.  The integer tools here work on those
numerators: ``multiplication_matrix`` and ``inverse_numerators`` multiply and
invert, ``power_numerators`` maps zeta to a power of a root of unity (a
conjugation, an embedding into a larger field, and a product with a root of
unity alike), ``parse_numerators`` is the one scalar-text parser, and
``entry_text`` the one writer of an element's display text.

``Scalar`` is that form as an object with its own conductor and arithmetic:
products are integer convolutions reduced by the monic integer cyclotomic
polynomial and normalised by one gcd, and sums and differences are taken
over the lcm of the denominators.  No library computation makes one: it is
the reference route that the tests compare the numerator tools against
(``tests/oracles.py``), and its product is what the benchmark counts.  Its
``repr`` is ``entry_text``.  There is no floating point anywhere in the
arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, sub

from .modular import _exact_quotient


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of the m-th cyclotomic polynomial, low -> high, monic."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _exact_quotient(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_terms(m: int) -> tuple:
    """The nonzero low coefficients (j, c_j) of the monic cyclotomic polynomial."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(m)[:-1]) if c)


def _reduce(num: list, m: int) -> tuple:
    """Integer coefficients of any length reduced modulo Phi_m, as a phi(m)-tuple."""
    phi = euler_phi(m)
    if len(num) < phi:
        return tuple(num) + (0,) * (phi - len(num))
    terms = _reduction_terms(m)
    for d in range(len(num) - 1, phi - 1, -1):
        c = num[d]
        if c:
            base = d - phi
            for j, cj in terms:
                num[base + j] -= c * cj
    return tuple(num[:phi])


def _shifts(row: list, m: int, phi: int) -> list:
    """zeta^j row for j < phi = phi(m), each flattened as row is: zeta times
    an entry moves its numerators up one place and folds the top one back
    by Phi_m, in flat list passes."""
    out, terms = [row], _reduction_terms(m)
    for _ in range(phi - 1):
        prev = out[-1]
        tops = prev[phi - 1::phi]
        nxt = prev[-1:] + prev[:-1]     # up one place; each entry's first is set below
        nxt[::phi] = [0] * len(tops)
        for j, cj in terms:
            nxt[j::phi] = list(map(sub, nxt[j::phi], tops if cj == 1 else [cj * t for t in tops]))
        out.append(nxt)
    return out


def multiplication_matrix(m: int, num) -> list:
    """Rows c of the integer matrix of x -> num * x on power-basis numerators:
    coefficient c of num * x is ``sum(map(mul, rows[c], x))``.  Column b is
    num * zeta^b, the ``_shifts`` of num."""
    return list(zip(*_shifts(list(num), m, len(num))))


def inverse_numerators(m: int, num) -> tuple:
    """(y, d), d > 0, with y / d the inverse of the nonzero element with
    integer numerators num.  x y = 1 is M y = e_0, M the matrix of
    multiplication by x (``multiplication_matrix``); fraction-free (Bareiss)
    elimination makes its last pivot d = det M, and d y is integral by
    Cramer's rule, so back substitution divides exactly."""
    phi = len(num)
    a = [[*row, int(c == 0)] for c, row in enumerate(multiplication_matrix(m, num))]
    prev = 1
    for k in range(phi):
        if not a[k][k]:  # M is invertible, so some later row has a nonzero here
            r = next(r for r in range(k + 1, phi) if a[r][k])
            a[k], a[r] = a[r], a[k]
        ak, p = a[k], a[k][k]
        for ai in a[k + 1:]:
            f = ai[k]
            for j in range(k + 1, phi + 1):
                ai[j] = (p * ai[j] - f * ak[j]) // prev
        prev = p
    y = [0] * phi
    for i in range(phi - 1, -1, -1):
        ai = a[i]
        y[i] = (prev * ai[phi] - sum(map(mul, ai[i + 1:phi], y[i + 1:]))) // ai[i]
    return (y, prev) if prev > 0 else ([-c for c in y], -prev)


def power_numerators(m: int, num, k: int, shift: int = 0) -> tuple:
    """The numerators in Q(zeta_m) of sum_j num_j zeta_m^(j k + shift): for
    k prime to m and shift 0, the conjugate of the element with numerators
    num under zeta_m -> zeta_m^k; for k = m / m0, the element of Q(zeta_m0)
    with numerators num in the larger field, times zeta_m^shift.  Each is a
    unimodular map or an embedding of the integers, so the image's
    numerators have num's content."""
    out = [0] * m
    for j, x in enumerate(num):
        out[(j * k + shift) % m] += x
    return _reduce(out, m)


def _canonical(m: int, num: tuple, den: int) -> "Scalar":
    """The Scalar num/den, dividing out the common gcd (den > 0)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return Scalar(m, tuple([x // g for x in num]), den // g)
    return Scalar(m, num, den)


def _rational_text(p: int, q: int) -> str:
    """p / q (q > 0) in lowest terms, as ``str`` of its Fraction prints it."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def entry_text(m: int, num, den: int) -> str:
    """The display text of the element with numerators num over den (den >
    0) in Q(zeta_m): a rational as "p" or "p/q" in lowest terms, else its
    nonzero terms "c*zm^j" joined by " + ", with "zm" for zeta_m^1 and
    "zm" or "(-zm)" for a coefficient 1 or -1.  Each coefficient is reduced
    by one gcd, so num / den need not be canonical."""
    if not any(num[1:]):
        return _rational_text(num[0], den)
    parts = [] if not num[0] else [_rational_text(num[0], den)]
    for j, x in enumerate(num[1:], 1):
        if x:
            c, zp = _rational_text(x, den), f"z{m}" if j == 1 else f"z{m}^{j}"
            parts.append(zp if c == "1" else f"(-{zp})" if c == "-1" else f"{c}*{zp}")
    return " + ".join(parts)


# the scalar grammar of instance files: integers, fractions and plain decimals
_RATIONAL_TEXT = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def _parse_rational(data) -> tuple:
    """(numerator, denominator) in lowest terms, denominator > 0, of an
    instance scalar: integers and fractions by ``int`` and one gcd, plain
    decimals through Fraction."""
    text = str(data)
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not an integer, fraction or plain decimal: {text[:40]!r}")
    if "." in text:
        q = Fraction(text)
        return q.numerator, q.denominator
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    if not q:
        raise ZeroDivisionError(f"zero denominator: {text[:40]!r}")
    g = gcd(p, q)
    return (p // g, q // g) if g != 1 else (p, q)


def parse_numerators(data, m: int) -> tuple:
    """Canonical (numerators, den) of a rational text or a list of at most
    phi(m) coefficient texts: each in lowest terms, so over their lcm the
    numerators have no common factor."""
    if isinstance(data, (str, int)):
        p, q = _parse_rational(data)
        return (p,) + (0,) * (euler_phi(m) - 1), q
    if isinstance(data, list):
        if len(data) > euler_phi(m):
            raise ValueError(f"coefficient vector longer than phi({m})")
        pairs = [_parse_rational(c) for c in data]
        den = lcm(*[q for _, q in pairs])
        return _reduce([p * (den // q) for p, q in pairs], m), den
    raise ValueError(f"bad scalar encoding: {data!r}")


class Scalar:
    """An element of Q(zeta_m) with its own arithmetic (module docstring):
    integer numerators over one denominator.  The constructor takes a
    canonical form as given; ``_canonical`` makes one."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: tuple, den: int = 1):
        self.m = m
        self.num = num
        self.den = den

    @staticmethod
    def rational(value, m: int = 1) -> "Scalar":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return Scalar(m, (q.numerator,) + (0,) * (euler_phi(m) - 1), q.denominator)

    @staticmethod
    def one(m: int = 1) -> "Scalar":
        return Scalar.rational(1, m)

    def _pair(self, other) -> "Scalar":
        """The other operand in this field: ints and Fractions lift, other
        fields raise ValueError, and anything else TypeError."""
        if isinstance(other, Scalar):
            if other.m != self.m:
                raise ValueError(f"scalars of conductors {self.m} and {other.m} meet")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.rational(other, self.m)
        raise TypeError(f"a scalar meets a {type(other).__name__}")

    # -- arithmetic ----------------------------------------------------------

    def _sum(self, other, op) -> "Scalar":
        """self op other (op add or sub) over the lcm of the denominators."""
        b = self._pair(other)
        den = lcm(self.den, b.den)
        s, t = den // self.den, den // b.den
        return _canonical(self.m, tuple([op(x * s, y * t) for x, y in zip(self.num, b.num)]), den)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.m, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self._sum(other, sub)

    def __mul__(self, other):
        b = self._pair(other)
        prod = [0] * (2 * len(self.num) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b.num, i):
                    prod[j] += x * y
        return _canonical(self.m, _reduce(prod, self.m), self.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        y, d = inverse_numerators(self.m, self.num)
        return _canonical(self.m, tuple([self.den * c for c in y]), d)

    def __truediv__(self, other):
        return self * self._pair(other).inverse()

    # -- predicates and text ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        try:
            b = self._pair(other)
        except (ValueError, TypeError):
            return NotImplemented  # not equal: another field, or not a number here
        return self.den == b.den and self.num == b.num

    __hash__ = None  # equality lifts ints and Fractions, which hash differently

    def __repr__(self):
        return entry_text(self.m, self.num, self.den)
