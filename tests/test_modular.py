"""The modular layer, ``wildcat.modular``, against the list references in
``oracles``: the packed echelon, its null spaces and one-word slots, the
image map and the kernel bound; the full-algebra certificate (Norton's test
mod a small prime q), whose True the list spin at the word-size prime p
must confirm and whose value the test without its early stop must match;
the prime test and the primes; and the factoriser over Z against sympy's."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcat import algebra, modular
from wildcat.algebra import _SMALL_PRIME_FLOOR, _norton_images, _spans_full_mod_p
from wildcat.linalg import Matrix, kernel, sandwich_rows, stack
from wildcat.modular import (
    _EchelonModP,
    _distinct_degree,
    _equal_degree,
    _gcd_integer,
    _gcd_mod,
    _image_map,
    _is_prime,
    _monic,
    _modulus,
    _pack,
    _prime_and_root,
    _residues,
    factor_integer,
    kernel_dim_mod_p,
    null_space_mod_p,
)
from wildcat.scalars import Scalar, euler_phi

import oracles

SWAP = oracles.build([[0, 1], [1, 0]])


def small_modulus(m):
    """(q, r): Norton's prime, the smallest prime q > 64 with q = 1 (mod m)."""
    return _prime_and_root(m, _SMALL_PRIME_FLOOR, True)


def commutant_rows(gens):
    """The coefficient rows of x g = g x for every generator, as one Matrix:
    kernel dimension = dim commutant."""
    return stack([sandwich_rows([(None, g, False), (-g, None, False)]) for g in gens])


@st.composite
def modular_cases(draw):
    """One to three n x n matrices over Q(zeta_m), n = 1..12, entries with
    small numerators over denominators 1, 2 or 3; block upper triangular
    (never the full algebra) or not."""
    n = draw(st.integers(1, 12))
    m = draw(st.sampled_from([1, 3, 4, 5]))
    split = draw(st.one_of(st.none(), st.integers(1, n - 1))) if n > 1 else None
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry(i, j):
        if split is not None and i >= split and j < split:
            return oracles.zero(m)
        return oracles.from_coeffs(m, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                                       for _ in range(euler_phi(m))])

    gens = [oracles.build([[entry(i, j) for j in range(n)] for i in range(n)], m)
            for _ in range(draw(st.integers(1, 3)))]
    return gens, n, m


@settings(max_examples=30)
@given(modular_cases())
def test_packed_certificates_match_the_list_reference(case):
    gens, n, m = case
    full = _spans_full_mod_p(gens, n, m)
    assert oracles.spans_full_mod_p(gens, n, m) or not full  # True is a proof
    rows = commutant_rows(gens).int_rows()
    bound = kernel_dim_mod_p(rows, n * n, m)
    assert bound == oracles.kernel_dim_mod_p(rows, n * n, m)
    if full:
        assert bound == 1  # the commutant of M_n(K) is the scalars


@st.composite
def norton_cases(draw):
    """Two or three n x n matrices over Q(zeta_m), n = 1..9, of one shape:
    full (random), block upper triangular, block diagonal with isomorphic
    blocks (d x d, d the least divisor > 1 of n that is below n, else 1),
    V + V (two isomorphic blocks, n made even), scalar, or complex:
    A (x) I + B (x) R on K^(n/2) (x) K^2, n made even, with R the rotation
    by a right angle, irreducible over K = Q(zeta_m) for m != 4 but not
    absolutely (its End holds R, R^2 = -1, and -1 is no square mod the
    small prime either), or a plane: two generators, g0 full and g1 = U V
    - I with U V of rank at most n - 2 (n at least 3), so Norton's first
    element g0 (g1 + I) (``algebra._norton_elements``) has the root 0 with
    a null plane, which comes before any null line, in a module that is
    usually irreducible mod q; entries as in ``modular_cases``."""
    shape = draw(st.sampled_from(["full", "triangular", "isotypic", "double", "scalar",
                                  "complex", "plane"]))
    n = draw(st.integers(1, 9))
    n += n % 2 if shape in ("complex", "double") else 0
    n = max(n, 3) if shape == "plane" else n
    m = draw(st.sampled_from([1, 3, 4, 5]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    split = rng.randint(1, max(n - 1, 1))
    d = n // 2 if shape == "double" else next((d for d in range(2, n) if n % d == 0), 1)
    rot = [[0, -1], [1, 0]]

    def entry():
        return oracles.from_coeffs(m, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                                       for _ in range(euler_phi(m))])

    def generator():
        if shape == "scalar":
            c = entry()
            return [[c if i == j else oracles.zero(m) for j in range(n)] for i in range(n)]
        if shape == "complex":
            a, b = ([[entry() for _ in range(n // 2)] for _ in range(n // 2)] for _ in range(2))
            return [[(a[i // 2][j // 2] if i % 2 == j % 2 else oracles.zero(m))
                     + b[i // 2][j // 2] * Scalar.rational(rot[i % 2][j % 2], m)
                     for j in range(n)] for i in range(n)]
        if shape in ("isotypic", "double"):
            b = [[entry() for _ in range(d)] for _ in range(d)]
            return [[b[i % d][j % d] if i // d == j // d else oracles.zero(m) for j in range(n)]
                    for i in range(n)]
        return [[oracles.zero(m) if shape == "triangular" and i >= split and j < split
                 else entry() for j in range(n)] for i in range(n)]

    if shape == "plane":
        u, v = [[entry() for _ in range(n - 2)] for _ in range(n)], \
            [[entry() for _ in range(n)] for _ in range(n - 2)]
        low = [[sum((u[i][k] * v[k][j] for k in range(n - 2)), oracles.zero(m)) - int(i == j)
                for j in range(n)] for i in range(n)]
        return [oracles.build(generator(), m), oracles.build(low, m)], n, m
    gens = [oracles.build(generator(), m) for _ in range(draw(st.integers(2, 3)))]
    return gens, n, m


@settings(max_examples=60)
@given(norton_cases())
def test_norton_test_and_spin_agree_with_the_list_reference(case):
    gens, n, m = case
    reference = oracles.spans_full_mod_p(gens, n, m)
    assert reference or not _spans_full_mod_p(gens, n, m)  # True from Norton's test is a proof


@settings(max_examples=60)
@given(norton_cases())
def test_norton_test_matches_the_test_without_its_early_stop(case):
    # a first null vector that spans a proper submodule mod q ends the test
    # with False, which every kept null line would then have given too
    gens, n, m = case
    assert _spans_full_mod_p(gens, n, m) == oracles.norton_reference(gens, n, m)


def test_an_isotypic_module_is_decided_at_the_first_element(monkeypatch):
    # V + V, V the absolutely irreducible pair (SWAP, diag(1, 2)), in a
    # mixed basis: each eigenvalue of an element has a null line in each
    # copy of V, so no null space is a line, and the test without the early
    # stop tries all eight elements before it says False
    yielded, elements = [], algebra._norton_elements
    monkeypatch.setattr(algebra, "_norton_elements",
                        lambda gens, q: (yielded.append(y) or y for y in elements(gens, q)))
    basis = oracles.build([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
    gens = [basis @ oracles.build([[g[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(4)]
                                  for i in range(4)]) @ basis.inverse()
            for g in ([[0, 1], [1, 0]], [[1, 0], [0, 2]])]
    assert not _spans_full_mod_p(gens, 4, 1) and not oracles.norton_reference(gens, 4, 1)
    assert len(yielded) == 1


def test_a_null_plane_that_spins_to_everything_decides_nothing():
    # the first element, g0 (g1 + I) = g0 diag(1, 0, 0), has the root 0 with
    # a null plane, whose first vector spins to F_q^3, so the test goes on
    # to the root 1, whose null line decides True
    gens = [oracles.build([[1, 1, 0], [0, 1, 1], [1, 0, 2]]),
            oracles.build([[0, 0, 0], [0, -1, 0], [0, 0, -1]])]
    assert _spans_full_mod_p(gens, 3, 1) and oracles.norton_reference(gens, 3, 1)


@st.composite
def echelon_cases(draw):
    """(m, p, r, n, rows): rows of n entries over Q(zeta_m), m in {1, 4, 5},
    for the word-size prime p of width n or Norton's small one.  About n - 1
    rows are drawn and then sums of multiples of them, so the rows over the
    field often have a null line; entries have small numerators over 1, 2
    or 3, and one row may have an entry with p in its denominator."""
    m = draw(st.sampled_from([1, 4, 5]))
    n = draw(st.integers(1, 8))
    p, r = draw(st.sampled_from([_modulus(m, n), small_modulus(m)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        return oracles.from_coeffs(m, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                                       for _ in range(euler_phi(m))])

    rows = [[entry() for _ in range(n)] for _ in range(draw(st.integers(max(n - 2, 0), n)))]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [Scalar.rational(rng.randint(-2, 2), m) for _ in rows]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), oracles.zero(m))
                     for j in range(n)])
    if draw(st.booleans()):
        bad = [entry() for _ in range(n)]
        bad[rng.randrange(n)] = oracles.from_coeffs(m, [Fraction(1, p * rng.randint(1, 3))])
        rows.insert(rng.randint(0, len(rows)), bad)
    return m, p, r, n, rows


@settings(max_examples=60)
@given(echelon_cases())
def test_echelon_and_null_line_match_the_list_reference(case):
    # the image map against the Fraction route, then the packed echelon's
    # returns, rank, pivots and kept rows, and its null space, against the
    # list echelon and the null space of the reduced row echelon form
    m, p, r, n, rows = case
    phi = euler_phi(m)
    rpow = [pow(r, j, p) for j in range(phi)]
    image = _image_map(p, r, phi)
    ech, ref = _EchelonModP(p, n), oracles.ListEchelonModP(p)
    images = []
    for row in rows:
        vec = oracles.build([row], m)
        img = image(vec.nums, vec.den)
        want = [oracles.FractionScalar(m, oracles.coeffs(x)).image_mod_p(p, rpow) for x in row]
        assert img == (None if None in want else want)
        if img is not None:
            images.append(img)
            assert ech.insert(img) == ref.insert(img)
    assert ech.rows == ref.rows
    assert [v for _, v in null_space_mod_p(images, n, p)] == \
        oracles.null_space_mod_p(images, n, p)


class TestSlots:
    @pytest.mark.parametrize("m", [1, 4, 5, 12])
    @pytest.mark.parametrize("width", [1, 3, 4, 5, 16, 255, 256, 4095])
    def test_slots_hold_the_largest_value_and_no_more_words(self, m, width):
        # the prime is the largest p = 1 (mod m) below 2^31 whose slot, at
        # most p - 1 + width (p-1)^2 through an elimination, is one word
        p, _ = _modulus(m, width)

        def fits(x):
            return x - 1 + width * (x - 1) ** 2 < 1 << 64

        assert oracles.is_prime(p) and (p - 1) % m == 0 and p < 1 << 31 and fits(p)
        x = p + m   # the bound grows with x: what fits ends at the first that does not
        while x < 1 << 31 and fits(x):
            assert not oracles.is_prime(x)
            x += m

    @pytest.mark.parametrize("width", [1, 4, 5, 16, 256])
    def test_echelon_refuses_a_slot_of_two_words(self, width):
        p, _ = _modulus(1, width)
        _EchelonModP(p, width)
        wider = next(w for w in range(width, 1 << 12) if p - 1 + w * (p - 1) ** 2 >= 1 << 64)
        with pytest.raises(AssertionError, match=f"width {wider} mod {p} needs two words"):
            _EchelonModP(p, wider)

    def test_pack_and_residues_round_trip_at_the_bound(self):
        p, _ = _modulus(1, 256)
        big = p - 1 + 256 * (p - 1) ** 2
        assert big < 1 << 64
        vals = [big - j for j in range(5)]
        vec = sum(v << 64 * j for j, v in enumerate(vals))
        assert _residues(vec, 5, p) == [v % p for v in vals]
        assert _residues(_pack([p - 1, 0, 1]), 3, p) == [p - 1, 0, 1]

    def test_all_entries_p_minus_one_at_n16(self):
        # entries p - 1, the largest residues: for the certificate at q and
        # the reference's spin of 16^2 words at p, and in every slot of the
        # kernel bound's rows at the prime of their width
        p, _ = _modulus(1, 256)
        n = 16
        ones = oracles.build([[p - 1] * n for _ in range(n)])
        diag = oracles.build([[p - 1 - i if i == j else 0 for j in range(n)] for i in range(n)])
        assert not _spans_full_mod_p([ones], n, 1)  # span{I, J}: dimension 2
        assert not oracles.spans_full_mod_p([ones], n, 1)
        assert _spans_full_mod_p([ones, diag], n, 1)  # D^a J D^b span M_n
        assert oracles.spans_full_mod_p([ones, diag], n, 1)
        p, _ = _modulus(1, 64)
        rows = [[p - 1] * 64 for _ in range(3)]
        rows.append([p - 1 - j for j in range(64)])
        assert kernel_dim_mod_p(rows, 64, 1) == oracles.kernel_dim_mod_p(rows, 64, 1) == 62

    def test_echelon_returns_reduced_rows_with_unit_pivots(self):
        p, _ = _modulus(1, 3)
        ech = _EchelonModP(p, 3)
        assert ech.insert([0, 2, 4]) == [0, 1, 2]
        assert ech.insert([0, p - 1, p - 2]) is None  # -1/2 times the first
        assert ech.insert([5, 2, 4]) == [1, 0, 0]
        assert ech.rows == [(0, [1, 0, 0]), (1, [0, 1, 2])]

    def test_echelon_keeps_a_row_whose_packed_int_is_zero_mod_q(self):
        # at Norton's q = 67, 2^64 = 17 (mod 67), so [50, 1] packs to
        # 50 + 2^64 = 0 (mod 67) though it is not zero
        q = 67
        assert _pack([50, 1]) % q == 0
        ech = _EchelonModP(q, 2)
        assert ech.insert([50, 1]) == [1, pow(50, -1, q)]
        assert null_space_mod_p([[50, 1], [100, 2]], 2, q) == [(1, [-pow(50, -1, q) % q, 1])]


class TestFixedCases:
    def test_unlucky_prime_overstates_the_kernel(self):
        p, _ = _modulus(1, 4)   # the prime of 2^2 unknowns
        gens = [oracles.build([[1, 0], [0, 1 + p]]), SWAP]  # mod p: I and SWAP
        assert not oracles.spans_full_mod_p(gens, 2, 1)
        assert _spans_full_mod_p(gens, 2, 1)  # Norton's test at q is not fooled
        rows = commutant_rows(gens)
        ints = rows.int_rows()
        assert kernel_dim_mod_p(ints, 4, 1) == oracles.kernel_dim_mod_p(ints, 4, 1) == 2
        assert kernel(rows).dim == 1

    def test_denominator_divisible_by_p_decides_nothing(self):
        p, _ = _modulus(5, 4)
        z = oracles.zeta(5)
        x = oracles.from_coeffs(5, [Fraction(1, 3), Fraction(2, p)])
        gens = [oracles.build([[z, 0], [0, x]], 5), oracles.build([[0, 1], [1, 0]], 5)]
        assert not oracles.spans_full_mod_p(gens, 2, 5)
        assert _spans_full_mod_p(gens, 2, 5)  # Norton's test at q is not stopped by p
        # the integer rows have no denominator, so the bound still holds
        rows = commutant_rows(gens)
        ints = rows.int_rows()
        bound = kernel_dim_mod_p(ints, 4, 5)
        assert bound == oracles.kernel_dim_mod_p(ints, 4, 5)
        assert bound >= kernel(rows).dim


def test_norton_images_walk_past_primes_in_a_denominator():
    # the first prime q = 1 (mod m) from the small modulus on that divides
    # no denominator: past 67 and 71 over Q, past 71 over Q(zeta5)
    for dens, m, q in [(1, 1, 67), (67, 1, 71), (67 * 71, 1, 73), (71, 5, 101)]:
        g = oracles.build([[Fraction(1, dens), 0], [0, oracles.zeta(m) if m > 1 else 2]], m)
        found, images = _norton_images([g], m)
        assert found == q and oracles.is_prime(q) and (q - 1) % m == 0
        assert all((c - 1) % m or not oracles.is_prime(c) or dens % c == 0
                   for c in range(65, q))
        assert images[0][0] == pow(dens, -1, q)


def test_is_prime_matches_trial_division():
    assert [q for q in range(200_000) if _is_prime(q)] == \
        [q for q in range(200_000) if oracles.is_prime(q)]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2..23
    assert not _is_prime(3_215_031_751) and not _is_prime(3_825_123_056_546_413_051)
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)


def test_modulus_is_unchanged():
    # (p, r) as found with trial division, at width 4, the widest whose
    # slot fits one word below 2^31 (these were every system's primes before
    # primes were sized to the width), and at width 16, a 4 x 4 commutant's:
    # a change alters the primes each kernel is solved at, so the work of
    # its walk and which primes are unlucky, though not the lifted bytes,
    # as a reduced echelon basis is unique
    assert [_modulus(m, 4) for m in range(1, 13)] == [
        (2147483647, 1), (2147483647, 2147483646), (2147483647, 1513477735),
        (2147483629, 1518275076), (2147483171, 2066432606), (2147483647, 1513477736),
        (2147483647, 1752599774), (2147483497, 291288225), (2147483647, 765383222),
        (2147483171, 566890146), (2147483647, 298192073), (2147483629, 1803057106)]
    assert [_modulus(m, 16) for m in range(1, 13)] == [
        (1073741789, 1), (1073741789, 1073741788), (1073741719, 1055852462),
        (1073741789, 933053945), (1073741741, 1025510639), (1073741719, 1055852463),
        (1073741789, 1069776153), (1073741689, 377067221), (1073741689, 182527787),
        (1073741741, 1041006429), (1073741527, 804585327), (1073741689, 414888689)]


def test_small_modulus_is_unchanged():
    # (q, r) for Norton's test: the smallest prime q > 64 with q = 1 (mod m)
    assert [small_modulus(m) for m in range(1, 13)] == [
        (67, 1), (67, 66), (67, 37), (73, 27), (71, 54), (67, 38),
        (71, 30), (73, 10), (73, 37), (71, 14), (67, 64), (73, 3)]
    for m in range(1, 13):
        q, r = small_modulus(m)
        assert [x for x in range(65, q) if (x - 1) % m == 0 and oracles.is_prime(x)] == []
        assert oracles.is_prime(q) and (q - 1) % m == 0
        assert pow(r, m, q) == 1 and all(pow(r, k, q) != 1 for k in range(1, m))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


@st.composite
def integer_products(draw):
    """c x^j prod g_i^(e_i), coefficients low -> high, of degree at most 16:
    random integer factors of degree 1..5 with leads of either sign and
    up to 6, some repeated, and a content c of either sign."""
    f, degree = [draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))], 0
    for _ in range(draw(st.integers(1, 5))):
        d, e = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        if degree + d * e > 16:
            break
        g = [draw(st.integers(-9, 9)) for _ in range(d)]
        g.append(draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1])))
        for _ in range(e):
            f = poly_mul(f, g)
        degree += d * e
    return [0] * draw(st.integers(0, min(2, 16 - degree))) + f


class TestFactorInteger:
    @settings(max_examples=150, deadline=None)
    @given(integer_products())
    def test_matches_the_sympy_reference(self, f):
        content, factors = factor_integer(f)
        assert (content, factors) == oracles.factor_integer_reference(f)
        product = [content]
        for g, e in factors:
            for _ in range(e):
                product = poly_mul(product, g)
        assert product == f

    @settings(max_examples=100, deadline=None)
    @given(integer_products(), integer_products())
    def test_gcd_matches_the_sympy_factors(self, a, b):
        # the gcd is primitive with a positive lead: the common factors of
        # the two factorisations, each to the lesser multiplicity
        a, b = (a, b) if len(a) >= len(b) else (b, a)
        g = _gcd_integer(a, b)
        _, fa = factor_integer(a)
        _, fb = factor_integer(b)
        common = [(h, min(e, dict((tuple(k), v) for k, v in fb).get(tuple(h), 0))) for h, e in fa]
        expected = [1]
        for h, e in common:
            for _ in range(e):
                expected = poly_mul(expected, h)
        assert g == expected

    def test_x4_minus_10x2_plus_1_is_recombined(self):
        # sqrt(2) + sqrt(3) has this minimal polynomial, which splits into
        # factors of degree at most 2 modulo every prime, so the modular
        # factors must be lifted and recombined to prove it irreducible
        f = [1, 0, -10, 0, 1]
        for p in (3, 5, 7, 11, 13):
            fp = _monic([c % p for c in f], p)
            if len(_gcd_mod(fp, [i * c % p for i, c in enumerate(fp)][1:], p)) == 1:
                assert sum((len(g) - 1) // d for g, d in _distinct_degree(fp, p)) > 1
        assert factor_integer(f) == (1, [(f, 1)]) == oracles.factor_integer_reference(f)

    @pytest.mark.parametrize("f, primes", [
        # (x - 1)(x - 106) has discriminant 105^2 and x^2 - 105 has 420:
        # 3, 5 and 7 divide both, so 11 is the first admissible prime
        ([106, -107, 1], [11]),
        ([-105, 0, 1], [11]),
        # leads divisible by 3 and 5: (3x - 1)(5x + 2) with discriminant
        # 11^2, and 15x^2 + x + 1 with -59, are factored mod 7
        ([-2, 1, 15], [7]),
        ([1, 1, 15], [7]),
    ])
    def test_the_prime_walk(self, f, primes, monkeypatch):
        seen = []
        ddf = modular._distinct_degree
        monkeypatch.setattr(modular, "_distinct_degree", lambda g, p: seen.append(p) or ddf(g, p))
        assert factor_integer(f) == oracles.factor_integer_reference(f)
        assert seen == primes

    def test_a_power_of_x_and_a_quadratic(self):
        # x^2 (x^2 + 4), the norm of x^2 + 1 over Q(i) at the shift s = 1
        f = [0, 0, 4, 0, 1]
        assert factor_integer(f) == (1, [([0, 1], 2), ([4, 0, 1], 1)])
        assert factor_integer(f) == oracles.factor_integer_reference(f)

    def test_equal_degree_fails_on_a_g_it_cannot_split(self):
        # x^2 + 1 is irreducible mod 3, so no trial splits it into linear
        # factors: a fault of the caller must fail, not hang
        with pytest.raises(AssertionError, match=r"\[1, 0, 1\].* p = 3 .* d = 1 "):
            _equal_degree([1, 0, 1], 1, 3)
        assert _equal_degree([2, 0, 1], 1, 3) == [[1, 1], [2, 1]]   # (x + 1)(x + 2)

    def test_content_and_constants(self):
        assert factor_integer([-6]) == (-6, [])
        assert factor_integer([6, -4, -2]) == (-2, [([-1, 1], 1), ([3, 1], 1)])


class TestLiftedKernel:
    """``kernel`` solves modulo primes p = 1 (mod m), from the word-size
    prime of the system's width down, and lifts the reduced basis: each case
    makes the walk go past the first prime, and its bytes must be the exact
    kernel's."""

    @staticmethod
    def walk(monkeypatch, a):
        """(kernel(a), the primes the walk eliminated at, in order)."""
        primes, real = [], modular.null_space_mod_p

        def recorded(rows, width, p, rank=None):
            primes.append(p)
            return real(rows, width, p, rank)

        monkeypatch.setattr(modular, "null_space_mod_p", recorded)
        ker, ref = kernel(a), oracles.exact_kernel(a)
        assert ker == ref
        assert ker._echelon.reduced_rows() == ref._echelon.reduced_rows()
        return ker, list(dict.fromkeys(primes))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_a_faulty_vandermonde_step_ends_the_walk_at_its_bound(self, monkeypatch, m):
        # rows reversed, the inverse Vandermonde matrix gives each entry's
        # numerators in reverse, so no lifted basis passes the exact check:
        # the walk stops after the primes the Hadamard bound allows
        real = modular._vandermonde_inverse
        monkeypatch.setattr(modular, "_vandermonde_inverse",
                            lambda p, roots: real(p, roots)[::-1])
        a = oracles.build([[1, oracles.zeta(m), 0], [0, 1, 2]], m)
        started = time.perf_counter()
        with pytest.raises(AssertionError, match=r"width 3 \(rank 2 .*after \d+ primes"):
            kernel(a)
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("m", [1, 4, 5])
    def test_a_prime_in_a_row_denominator_is_skipped(self, monkeypatch, m):
        p, _ = _modulus(m, 3)
        x = oracles.from_coeffs(m, [Fraction(1, 3)] + [Fraction(2, p)] * (euler_phi(m) - 1)) \
            if m > 1 else Scalar.rational(Fraction(1, p))
        a = oracles.build([[x, 1, 0], [0, 1, 1]], m)
        ker, primes = self.walk(monkeypatch, a)
        assert ker.dim == 1 and p not in primes and primes[0] == _prime_and_root(m, p, False)[0]

    def test_a_pivot_minor_that_vanishes_mod_the_first_prime(self, monkeypatch):
        # mod p the rows agree, so the kernel mod p is a plane; the next
        # prime gives the line, whose smaller key starts the lift again
        p, _ = _modulus(1, 3)
        a = oracles.build([[1, 1, 0], [1, 1 + p, 0]])
        ker, primes = self.walk(monkeypatch, a)
        assert oracles.scalar_basis(ker) == ((oracles.zero(), oracles.zero(), Scalar.one()),)
        assert primes[:2] == [p, _prime_and_root(1, p, False)[0]]

    def test_a_prime_in_a_denominator_of_the_basis_gives_later_pivots(self, monkeypatch):
        # the kernel of [1, p] is spanned by (1, -1/p): mod p the row is
        # [1, 0], whose kernel (0, 1) has the same dimension and a later pivot
        p, _ = _modulus(1, 2)
        ker, primes = self.walk(monkeypatch, oracles.build([[1, p]]))
        assert oracles.scalar_basis(ker) == ((Scalar.one(), Scalar.rational(Fraction(-1, p))),)
        assert primes[0] == p and len(primes) >= 3   # 1/p needs more than one prime

    @pytest.mark.parametrize("m", [1, 4, 5])
    def test_entries_beyond_one_prime_are_combined(self, monkeypatch, m):
        big = 10 ** 6 + 3   # above sqrt(p / 2), the reach of one prime
        z = oracles.zeta(m) if m > 1 else Scalar.one()
        a = oracles.build([[big * z, 1, 0], [0, 0, Fraction(7, big)]], m)
        ker, primes = self.walk(monkeypatch, a)
        assert ker.dim == 1 and len(primes) == 2

    def test_the_commutant_of_three_conjugated_blocks(self, monkeypatch):
        # three irreducible 3 x 3 blocks over Q behind P = L L^T: the
        # commutant, 162 rows in 81 unknowns, has entries beyond 2^15
        rng = random.Random(3)
        n = 9
        blocks = [oracles.build([[0, 0, c], [1, 0, 0], [0, 1, 0]]) for c in (2, 3, 5)]
        gens = [Matrix.zero(n, n) for _ in range(2)]
        for k, b in enumerate(blocks):
            gens[0] = gens[0].place(3 * k, 3 * k, b)
            gens[1] = gens[1].place(3 * k, 3 * k, oracles.build(
                [[k + 1, 1, 0], [0, k + 1, 1], [0, 0, k + 1]]))
        lower = oracles.build([[1 if i == j else rng.randint(-2, 2) if i > j else 0
                               for j in range(n)] for i in range(n)])
        p = lower @ lower.transpose()
        gens = [p @ g @ p.inverse() for g in gens]
        ker, primes = self.walk(monkeypatch, commutant_rows(gens))
        assert ker.dim == 3 and len(primes) >= 2
        basis = oracles.scalar_basis(ker)
        assert max(max(abs(c) for c in x.num) for row in basis for x in row) >= 1 << 15 or \
            max(x.den for row in basis for x in row) >= 1 << 15
