import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FractionScalar,
    build,
    coeffs,
    cyclotomic_polynomial_reference,
    element,
    from_coeffs,
    promote_scalar,
    scalar_from_json,
    scalar_from_json_reference,
    scalar_to_json,
    scalar_to_json_reference,
    to_complex,
    zero,
    zeta,
)
from wildcat.modular import _image_map
from wildcat.scalars import (
    Scalar,
    _canonical as canonical,
    cyclotomic_polynomial,
    entry_text,
    euler_phi,
    parse_numerators,
    power_numerators,
)
from wildcat.stokes import promote


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_the_sympy_reference():
    for m in range(1, 61):
        assert cyclotomic_polynomial(m) == cyclotomic_polynomial_reference(m)


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 12)] == [1, 1, 2, 2, 4, 4]


def test_zeta_relations():
    z3 = zeta(3)
    assert z3 * z3 * z3 == 1
    assert (z3 * z3 + z3 + 1).is_zero()
    z4 = zeta(4)
    assert z4 * z4 == -1
    z8 = zeta(8)
    assert z8 * z8 * z8 * z8 == -1


def test_canonical_representation():
    a = from_coeffs(4, [Fraction(1), Fraction(2)])
    b = from_coeffs(4, [1, 2])
    assert a == b and coeffs(a) == coeffs(b)
    # reduction of high powers is canonical
    c = from_coeffs(3, [0, 0, 1])  # zeta_3^2 = -1 - zeta_3
    assert coeffs(c) == (Fraction(-1), Fraction(-1))


def test_field_axioms_randomized():
    rng = random.Random(11)
    for m in (1, 3, 4, 5, 8):
        phi = euler_phi(m)
        for _ in range(40):
            a, b, c = (from_coeffs(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                       for _ in range(phi)]) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (b / a) * a == b


def test_division_and_errors():
    a = from_coeffs(4, [Fraction(1, 2), Fraction(3)])
    assert a / a == 1
    with pytest.raises(ZeroDivisionError):
        zero(4).inverse()


def test_promote():
    up = promote(element(Fraction(2, 3)), 12)
    assert up.m == 12 and up == element(Fraction(2, 3), 12)
    assert promote(element(zeta(3)), 12) == element(zeta(12, 4))
    assert promote(element(zeta(3)), 12, 1) == element(zeta(12, 5))
    assert promote(element(zeta(4)), 4) == element(zeta(4))


@settings(max_examples=100)
@given(st.sampled_from([(1, 4), (1, 5), (3, 3), (3, 12), (4, 8), (4, 12), (5, 10)]),
       st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), min_size=4,
                max_size=4), st.integers(0, 23))
def test_promote_is_the_scalar_embedding_times_a_root_of_unity(fields, cs, power):
    # one numerator map (power_numerators) is the embedding Q(zeta_m) ->
    # Q(zeta_M) and the product with zeta_M^power of the Scalar route, and
    # keeps the form canonical
    m, big = fields
    x = from_coeffs(m, cs[:euler_phi(m)])
    got = promote(element(x), big, power)
    assert got == element(promote_scalar(x, big) * zeta(big, power))
    assert got.den > 0 and gcd(got.den, *got.nums) == 1


def test_mixed_conductor_arithmetic():
    z3 = zeta(3)
    s = z3 + Fraction(1, 2)
    assert s.m == 3 and coeffs(s)[0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        _ = zeta(3) + zeta(4)
    with pytest.raises(ValueError):
        _ = Scalar.one(1) + zeta(5)  # one field per instance: no silent promotion


def test_scalars_meet_only_scalars_ints_and_fractions():
    one = Scalar.one()
    assert (one == None) is False  # noqa: E711
    assert (one == "1") is False
    assert (one == 1.0) is False
    assert None not in [one]
    assert one == 1 and one == Fraction(2, 2) and one == Scalar.one()
    assert one / 2 == Fraction(1, 2) and Scalar.rational(2).inverse() == Fraction(1, 2)
    with pytest.raises(TypeError):
        _ = one + "1"
    with pytest.raises(TypeError):
        _ = "1" / one


def test_to_complex():
    import cmath

    assert abs(to_complex(zeta(8)) - cmath.exp(2j * cmath.pi / 8)) < 1e-12
    assert abs(to_complex(Scalar.rational(Fraction(-3, 7))) + 3 / 7) < 1e-15


def text(x: Scalar):
    """The library's text of x: the one entry of its 1 x 1 matrix."""
    return element(x).to_json()[0][0]


def test_json_round_trip():
    a = from_coeffs(4, [Fraction(-3, 7), Fraction(5)])
    assert scalar_from_json(text(a), 4) == a
    r = Scalar.rational(Fraction(9, 2))
    assert scalar_from_json(text(r), 1) == r
    assert scalar_from_json("-3/7", 1) == Scalar.rational(Fraction(-3, 7))


@pytest.mark.parametrize("text", ["1e5", "1_0"])
def test_scalar_grammar_rejects_exponents_and_underscores(text):
    with pytest.raises(ValueError):
        scalar_from_json(text, 1)
    with pytest.raises(ValueError):
        scalar_from_json(["0", text], 4)


def test_scalar_grammar_accepts_integers_fractions_and_decimals():
    for text, value in (("-3", -3), ("+3/4", Fraction(3, 4)), ("0.25", Fraction(1, 4)),
                        (".5", Fraction(1, 2)), ("2.", 2), (7, 7)):
        assert scalar_from_json(text, 1) == value
    assert scalar_from_json(["1/2", "-0.5"], 4) == from_coeffs(4, ["1/2", "-1/2"])


@settings(max_examples=200)
@given(st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 30),
       st.one_of(st.none(), st.integers(1, 10 ** 12)), st.sampled_from([1, 4, 5]))
def test_scalar_text_parses_as_fraction_does(sign, num, den, m):
    text = f"{sign}{num}" if den is None else f"{sign}{num:03d}/{den}"
    got = scalar_from_json(text, m)
    assert got == Scalar.rational(Fraction(text), m)
    assert got.den > 0 and gcd(got.den, *got.num) == 1
    coeffs = [text, text][:euler_phi(m)]
    assert scalar_from_json(coeffs, m) == from_coeffs(m, coeffs)


RATIONAL_TEXTS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(lambda s, p: f"{s}{p}", st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 20)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 12, 10 ** 12),
              st.sampled_from([1, 2, 6, 12, 35, 10 ** 12 + 39])),
    st.builds(lambda p, d: f"{p}.{d}", st.integers(-99, 99),
              st.sampled_from(["", "5", "25", "125"])))


@settings(max_examples=200)
@given(st.sampled_from([1, 2, 3, 4, 5, 12]), st.data())
def test_parse_numerators_matches_the_scalar_route(m, data):
    # one text, or a list of at most phi(m) coefficient texts (Q(zeta2)'s
    # list of one included), read as the Scalar sum of its Fractions
    text = data.draw(st.one_of(RATIONAL_TEXTS,
                               st.lists(RATIONAL_TEXTS, max_size=euler_phi(m))))
    num, den = parse_numerators(text, m)
    assert type(num) is tuple and len(num) == euler_phi(m)
    assert den > 0 and gcd(den, *num) == 1
    ref = scalar_from_json_reference(text, m)
    assert (num, den) == (ref.num, ref.den)
    assert scalar_from_json(text, m) == ref


@pytest.mark.parametrize("data", ["1e5", ["0", "1/0"], 1.5, None, {"re": "1"},
                                  ["1", "2", "3", "4", "5"]])
def test_parse_numerators_refuses_as_the_scalar_route_does(data):
    with pytest.raises((ValueError, ZeroDivisionError)) as want:
        scalar_from_json_reference(data, 5)
    with pytest.raises(want.type):
        parse_numerators(data, 5)


def test_zero_denominator_is_an_error():
    for data in ("3/0", "-0/000", ["1", "2/0"]):
        with pytest.raises(ZeroDivisionError):
            scalar_from_json(data, 4)


# ---------------------------------------------------------------------------
# integer-numerator scalars against the Fraction-coefficient reference

P = 241  # 240 is a multiple of every conductor below
RPOW = [pow(7, j, P) for j in range(4)]


def image_mod_p(entries, m):
    """The entries' images under zeta_m -> 7 mod P (``_image_map``)."""
    phi = euler_phi(m)
    row = build([entries], m)
    return _image_map(P, 7, phi)(row.nums, row.den)


coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.one_of(st.sampled_from([P, 2 * P, 3 * 10 ** 20 + 7]),
                        st.integers(1, 10 ** 25))),
)


@st.composite
def operands(draw):
    m = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    phi = euler_phi(m)
    return m, [draw(st.lists(coefficients, min_size=phi, max_size=phi)) for _ in range(3)]


def _canonical(x: Scalar, m: int):
    assert x.m == m and len(x.num) == euler_phi(m)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def _agrees(x: Scalar, ref: FractionScalar):
    _canonical(x, ref.m)
    assert coeffs(x) == ref.coeffs
    assert x.is_zero() == ref.is_zero() == (not x)
    assert text(x) == ref.to_json() and repr(x) == repr(ref) == element(x)[0, 0]
    assert to_complex(x) == ref.to_complex()


@settings(max_examples=150)
@given(operands())
def test_arithmetic_matches_fraction_reference(case):
    m, (ca, cb, cc) = case
    a, b, c = (from_coeffs(m, v) for v in (ca, cb, cc))
    ra, rb, rc = (FractionScalar(m, v) for v in (ca, cb, cc))
    for x, ref in ((a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (a - a, ra - ra),
                   (a * b, ra * rb), (a * b + c, ra * rb + rc), (-a, FractionScalar(m, []) - ra),
                   (a + ca[0], ra + FractionScalar(m, [ca[0]])),
                   (a * 3, ra * FractionScalar(m, [3]))):
        _agrees(x, ref)
    if not rb.is_zero():
        _agrees(a / b, ra / rb)
        _agrees(b.inverse(), FractionScalar(m, [1]) / rb)
    assert (a == b) == (ra.coeffs == rb.coeffs)
    assert a == scalar_from_json(text(a), m)
    assert (a == ca[0]) == (ra.coeffs == FractionScalar(m, [ca[0]]).coeffs)


@settings(max_examples=60)
@given(operands())
def test_conjugate_is_the_field_automorphism_zeta_to_zeta_k(case):
    # a ring map fixing Q is fixed by the image of zeta; power_numerators
    # keeps the content, so the image over the same denominator is canonical
    m, (ca, cb, _) = case
    a, b = from_coeffs(m, ca), from_coeffs(m, cb)
    for k in (k for k in range(1, m + 1) if gcd(k, m) == 1):
        def conj(x):
            return Scalar(x.m, power_numerators(x.m, x.num, k), x.den)
        _canonical(conj(a), m)
        assert conj(a + b) == conj(a) + conj(b)
        assert conj(a * b) == conj(a) * conj(b)
        assert conj(Scalar.rational(ca[0], m)) == ca[0]
        assert conj(zeta(m)) == zeta(m, k)


@settings(max_examples=100)
@given(operands())
def test_image_mod_p_matches_fraction_reference(case):
    m, rows = case
    entries = [from_coeffs(m, v) for v in rows]
    refs = [FractionScalar(m, v).image_mod_p(P, RPOW) for v in rows]
    want = None if None in refs else refs
    assert image_mod_p(entries, m) == want


def test_image_mod_p_refuses_a_denominator_divisible_by_p():
    x = from_coeffs(4, [Fraction(1, 3), Fraction(5, 2 * P)])
    assert FractionScalar(4, coeffs(x)).image_mod_p(P, RPOW) is None
    assert image_mod_p([x], 4) is None


@st.composite
def canonical_scalars(draw):
    """Canonical Scalars whose numerators are zero, negative, or share a
    factor with the denominator, which ``Matrix.to_json`` and
    ``entry_text`` must divide out."""
    m = draw(st.sampled_from([1, 3, 4, 5, 8]))
    den = draw(st.sampled_from([1, 2, 6, 12, 35, 10 ** 20 + 39]))
    shared = st.builds(lambda g, k: g * k, st.sampled_from([d for d in (1, 2, 3, 5, 6, 7)
                                                             if den % d == 0]),
                       st.integers(-40, 40))
    num = draw(st.lists(st.one_of(st.just(0), st.integers(-10 ** 25, 10 ** 25), shared),
                        min_size=euler_phi(m), max_size=euler_phi(m)))
    return canonical(m, tuple(num), den)


@settings(max_examples=150)
@given(canonical_scalars())
def test_to_json_matches_the_fraction_route(x):
    assert text(x) == scalar_to_json(x) == scalar_to_json_reference(x)
    assert scalar_from_json(text(x), x.m) == x
    assert entry_text(x.m, x.num, x.den) == repr(FractionScalar(x.m, coeffs(x)))


def test_arithmetic_makes_no_fraction(monkeypatch):
    pairs = [(from_coeffs(5, ["1/2", "-3/7", "5", "0"]),
              from_coeffs(5, ["2/3", "1", "-1/9", "4/5"])),
             (Scalar.rational(Fraction(3, 4)), Scalar.rational(Fraction(-5, 6)))]
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    for a, b in pairs:
        _ = (a + b, a - b, a * b, a == b, a.is_zero(), bool(a), a + 1, 2 * a, a == 1, -a,
             a.inverse(), a / b, repr(a))
    assert made == []
