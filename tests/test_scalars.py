import random
from fractions import Fraction

import pytest

from wildcat.scalars import Scalar, cyclotomic_polynomial, euler_phi


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 12)] == [1, 1, 2, 2, 4, 4]


def test_zeta_relations():
    z3 = Scalar.zeta(3)
    assert z3 ** 3 == 1
    assert (z3 * z3 + z3 + 1).is_zero()
    z4 = Scalar.zeta(4)
    assert z4 * z4 == -1
    z8 = Scalar.zeta(8)
    assert z8 ** 4 == -1


def test_canonical_representation():
    a = Scalar.from_coeffs(4, [Fraction(1), Fraction(2)])
    b = Scalar.from_coeffs(4, [1, 2])
    assert a == b and a.coeffs == b.coeffs
    # reduction of high powers is canonical
    c = Scalar.from_coeffs(3, [0, 0, 1])  # zeta_3^2 = -1 - zeta_3
    assert c.coeffs == (Fraction(-1), Fraction(-1))


def test_field_axioms_randomized():
    rng = random.Random(11)
    for m in (1, 3, 4, 5, 8):
        phi = euler_phi(m)
        for _ in range(40):
            a, b, c = (Scalar.from_coeffs(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                              for _ in range(phi)]) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (b / a) * a == b


def test_division_and_errors():
    a = Scalar.from_coeffs(4, [Fraction(1, 2), Fraction(3)])
    assert a / a == 1
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(4).inverse()


def test_promote():
    r = Scalar.rational(Fraction(2, 3))
    up = r.promote(12)
    assert up.m == 12 and up.is_rational() and up.as_fraction() == Fraction(2, 3)
    z3 = Scalar.zeta(3)
    z3_in_12 = z3.promote(12)
    assert z3_in_12 == Scalar.zeta(12, 4)
    with pytest.raises(ValueError):
        Scalar.zeta(3).promote(4)


def test_mixed_conductor_arithmetic():
    z3 = Scalar.zeta(3)
    s = z3 + Fraction(1, 2)
    assert s.m == 3 and s.coeffs[0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        _ = Scalar.zeta(3) + Scalar.zeta(4)
    with pytest.raises(ValueError):
        _ = Scalar.one(1) + Scalar.zeta(5)  # one field per instance: no silent promotion


def test_to_complex():
    import cmath

    z8 = Scalar.zeta(8)
    assert abs(z8.to_complex() - cmath.exp(2j * cmath.pi / 8)) < 1e-12
    assert abs(Scalar.rational(Fraction(-3, 7)).to_complex() + 3 / 7) < 1e-15


def test_json_round_trip():
    a = Scalar.from_coeffs(4, [Fraction(-3, 7), Fraction(5)])
    assert Scalar.from_json(a.to_json(), 4) == a
    r = Scalar.rational(Fraction(9, 2))
    assert Scalar.from_json(r.to_json(), 1) == r
    assert Scalar.from_json("-3/7", 1) == Scalar.rational(Fraction(-3, 7))
