"""Exact scalars: rationals and cyclotomic field elements.

A Scalar is an element of Q(zeta_m) for a conductor m >= 1, stored as a
polynomial in zeta_m of degree < phi(m) with Fraction coefficients, reduced
modulo the m-th cyclotomic polynomial.  m = 1 is plain Q.

One conductor is fixed per problem instance, and every scalar of the instance
lives in that field.  Arithmetic lifts ints and Fractions into the field of
the Scalar they meet; two Scalars of different conductors raise ValueError.
``promote`` is the one explicit way to move an element into a larger field
Q(zeta_M), M a multiple of m.

There is no floating point anywhere in the arithmetic.  ``to_complex`` gives
a float image for display and for direction angles only.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            count += 1
    return count


def _int_poly_div(num: tuple, den: tuple) -> tuple:
    # exact division of integer polynomials, coefficients low -> high
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for d in range(len(num) - 1, len(den) - 2, -1):
        c = num[d]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[d - len(den) + 1] = q
        for j, dj in enumerate(den):
            num[d - len(den) + 1 + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of the m-th cyclotomic polynomial, low -> high, monic."""
    if m == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _int_poly_div(num, cyclotomic_polynomial(d))
    return num


def _reduce_mod_cyclotomic(coeffs: list, m: int) -> tuple:
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    coeffs = list(coeffs) + [Fraction(0)] * max(0, phi + 1 - len(coeffs))
    for d in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[d]
        if c:
            for j in range(phi + 1):
                coeffs[d - phi + j] -= c * mod[j]
        coeffs.pop()
    while len(coeffs) < phi:
        coeffs.append(Fraction(0))
    return tuple(coeffs[:phi])


class Scalar:
    """An element of Q(zeta_m), canonical and exact."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple):
        self.m = m
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value, m: int = 1) -> "Scalar":
        q = Fraction(value)
        phi = euler_phi(m)
        return Scalar(m, (q,) + (Fraction(0),) * (phi - 1))

    @staticmethod
    def zero(m: int = 1) -> "Scalar":
        return Scalar.rational(0, m)

    @staticmethod
    def one(m: int = 1) -> "Scalar":
        return Scalar.rational(1, m)

    @staticmethod
    def zeta(m: int, power: int = 1) -> "Scalar":
        """zeta_m ** power as an element of Q(zeta_m)."""
        power %= m
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return Scalar(m, _reduce_mod_cyclotomic(coeffs, m))

    @staticmethod
    def from_coeffs(m: int, coeffs) -> "Scalar":
        return Scalar(m, _reduce_mod_cyclotomic([Fraction(c) for c in coeffs], m))

    # -- conductor handling ------------------------------------------------

    def promote(self, m_new: int) -> "Scalar":
        """Embed into Q(zeta_M) for a multiple M of the own conductor."""
        if m_new == self.m:
            return self
        if m_new % self.m != 0:
            raise ValueError(f"cannot embed conductor {self.m} into {m_new}")
        step = m_new // self.m
        out = [Fraction(0)] * (euler_phi(self.m) * step + 1)
        for j, c in enumerate(self.coeffs):
            out[j * step] += c
        return Scalar(m_new, _reduce_mod_cyclotomic(out, m_new))

    def _pair(self, other) -> "Scalar":
        """The other operand in this field: ints and Fractions lift, other fields raise."""
        if isinstance(other, Scalar):
            if other.m != self.m:
                raise ValueError(f"scalars of conductors {self.m} and {other.m} meet; "
                                 "promote one explicitly")
            return other
        return Scalar.rational(other, self.m)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        b = self._pair(other)
        return Scalar(self.m, tuple(x + y for x, y in zip(self.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        b = self._pair(other)
        return Scalar(self.m, tuple(x - y for x, y in zip(self.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._pair(other)
        if self.m == 1:
            return Scalar(1, (self.coeffs[0] * b.coeffs[0],))
        prod = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Scalar(self.m, _reduce_mod_cyclotomic(prod, self.m))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.m == 1:
            return Scalar(1, (1 / self.coeffs[0],))
        # extended euclid in Q[x] against the (irreducible) cyclotomic polynomial
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while len(r1) > 1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = r1[0]
        inv = [c / lead for c in s1]
        return Scalar(self.m, _reduce_mod_cyclotomic(inv, self.m))

    def __truediv__(self, other):
        return self * self._pair(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.rational(other, self.m) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Scalar.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        try:
            b = self._pair(other)
        except ValueError:
            return NotImplemented  # elements of two fields are never equal
        return self.coeffs == b.coeffs

    __hash__ = None  # equality lifts ints and Fractions, which hash differently

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(complex(c) * z**j for j, c in enumerate(self.coeffs))

    def __repr__(self):
        if self.m == 1 or self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                zp = f"z{self.m}" if j == 1 else f"z{self.m}^{j}"
                parts.append(zp if c == 1 else f"(-{zp})" if c == -1 else f"{c}*{zp}")
        return " + ".join(parts) if parts else "0"

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.m == 1:
            return str(self.coeffs[0])
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data, m: int) -> "Scalar":
        if isinstance(data, (str, int)):
            return Scalar.rational(Fraction(str(data)), m)
        if isinstance(data, list):
            if len(data) > euler_phi(m):
                raise ValueError(f"coefficient vector longer than phi({m})")
            return Scalar.from_coeffs(m, [Fraction(str(c)) for c in data])
        raise ValueError(f"bad scalar encoding: {data!r}")


def _poly_divmod(num: list, den: list):
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and den[dd] == 0:
        dd -= 1
    out = [Fraction(0)] * max(1, len(num) - dd)
    for d in range(len(num) - 1, dd - 1, -1):
        c = num[d]
        if c:
            q = c / den[dd]
            out[d - dd] = q
            for j in range(dd + 1):
                num[d - dd + j] -= q * den[j]
    return out, num[:dd] if dd else [Fraction(0)]


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
