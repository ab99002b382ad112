"""The modular layer of ``wildcat.algebra`` against the list references in
``oracles``: the packed kernel bound and its slot sizes, the full-algebra
certificate (Norton's test mod a small prime q), whose True the list spin
at the word-size prime p must confirm, the prime test and the moduli."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcat.algebra import (
    _echelon_mod_p,
    _is_prime,
    _modulus,
    _norton_images,
    _pack,
    _residues,
    _slot_words,
    _small_modulus,
    _spans_full_mod_p,
    kernel_dim_mod_p,
)
from wildcat.linalg import IntRows, Matrix, kernel, sandwich_rows
from wildcat.scalars import Scalar, euler_phi

import oracles

SWAP = Matrix.build([[0, 1], [1, 0]])


def commutant_rows(gens, n, m):
    """The integer rows of x g = g x for every generator: kernel dimension =
    dim commutant."""
    rows = []
    for g in gens:
        rows += sandwich_rows([(None, g, False), (-g, None, False)], n, n, m)[0]
    return rows


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
            return Scalar.zero(m)
        return oracles.from_coeffs(m, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                                       for _ in range(euler_phi(m))])

    gens = [Matrix(n, n, tuple(entry(i, j) for i in range(n) for j in range(n)))
            for _ in range(draw(st.integers(1, 3)))]
    return gens, n, m


@settings(max_examples=30)
@given(modular_cases())
def test_packed_certificates_match_the_list_reference(case):
    gens, n, m = case
    full = _spans_full_mod_p(gens, n, m)
    assert oracles.spans_full_mod_p(gens, n, m) or not full  # True is a proof
    rows = commutant_rows(gens, n, m)
    bound = kernel_dim_mod_p(rows, n * n, m)
    assert bound == oracles.kernel_dim_mod_p(rows, n * n, m)
    if full:
        assert bound == 1  # the commutant of M_n(K) is the scalars


@st.composite
def norton_cases(draw):
    """Two or three n x n matrices over Q(zeta_m), n = 1..9, of one shape:
    full (random), block upper triangular, block diagonal with isomorphic
    blocks (d x d, d the least divisor > 1 of n that is below n, else 1),
    scalar, or complex: A (x) I + B (x) R on K^(n/2) (x) K^2, n made even,
    with R the rotation by a right angle, irreducible over K = Q(zeta_m)
    for m != 4 but not absolutely (its End holds R, R^2 = -1, and -1 is no
    square mod the small prime either); entries as in ``modular_cases``."""
    shape = draw(st.sampled_from(["full", "triangular", "isotypic", "scalar", "complex"]))
    n = draw(st.integers(1, 9))
    n += n % 2 if shape == "complex" else 0
    m = draw(st.sampled_from([1, 3, 4, 5]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    split = rng.randint(1, max(n - 1, 1))
    d = next((d for d in range(2, n) if n % d == 0), 1)
    rot = [[0, -1], [1, 0]]

    def entry():
        return oracles.from_coeffs(m, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                                       for _ in range(euler_phi(m))])

    def generator():
        if shape == "scalar":
            c = entry()
            return [[c if i == j else Scalar.zero(m) for j in range(n)] for i in range(n)]
        if shape == "complex":
            a, b = ([[entry() for _ in range(n // 2)] for _ in range(n // 2)] for _ in range(2))
            return [[(a[i // 2][j // 2] if i % 2 == j % 2 else Scalar.zero(m))
                     + b[i // 2][j // 2] * Scalar.rational(rot[i % 2][j % 2], m)
                     for j in range(n)] for i in range(n)]
        if shape == "isotypic":
            b = [[entry() for _ in range(d)] for _ in range(d)]
            return [[b[i % d][j % d] if i // d == j // d else Scalar.zero(m) for j in range(n)]
                    for i in range(n)]
        return [[Scalar.zero(m) if shape == "triangular" and i >= split and j < split
                 else entry() for j in range(n)] for i in range(n)]

    gens = [Matrix(n, n, tuple(x for row in generator() for x in row))
            for _ in range(draw(st.integers(2, 3)))]
    return gens, n, m


@settings(max_examples=60)
@given(norton_cases())
def test_norton_test_and_spin_agree_with_the_list_reference(case):
    gens, n, m = case
    reference = oracles.spans_full_mod_p(gens, n, m)
    assert reference or not _spans_full_mod_p(gens, n, m)  # True from Norton's test is a proof


class TestSlots:
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("width", [1, 3, 4, 256])
    def test_slots_hold_the_largest_value_and_no_more_words(self, m, width):
        p, _ = _modulus(m)
        step = (p - 1) ** 2
        # width, and the widths whose bound p - 1 + w step is just below and
        # just at 2^64 and 2^128
        edges = [(top - p) // step for top in (1 << 64, 1 << 128)]
        for w in [width] + edges + [e + 1 for e in edges]:
            k = _slot_words(w, p)
            bound = p - 1 + w * step
            assert bound < 1 << 64 * k and (k == 1 or bound >= 1 << 64 * (k - 1))

    def test_pack_and_residues_round_trip_at_the_bound(self):
        p, _ = _modulus(1)
        k = _slot_words(256, p)
        big = p - 1 + 256 * (p - 1) ** 2
        vals = [big - j for j in range(5)]
        vec = sum(v << 64 * k * j for j, v in enumerate(vals))
        assert _residues(vec, 5, k, p) == [v % p for v in vals]
        assert _residues(_pack([p - 1, 0, 1], k), 3, k, p) == [p - 1, 0, 1]

    def test_all_entries_p_minus_one_at_n16(self):
        # entries p - 1, the largest residues: for the certificate at q, and
        # in every slot of the kernel bound's rows
        p, _ = _modulus(1)
        n = 16
        ones = Matrix.build([[p - 1] * n for _ in range(n)])
        diag = Matrix.build([[p - 1 - i if i == j else 0 for j in range(n)] for i in range(n)])
        assert not _spans_full_mod_p([ones], n, 1)  # span{I, J}: dimension 2
        assert not oracles.spans_full_mod_p([ones], n, 1)
        assert _spans_full_mod_p([ones, diag], n, 1)  # D^a J D^b span M_n
        assert oracles.spans_full_mod_p([ones, diag], n, 1)
        rows = [[p - 1] * 64 for _ in range(3)]
        rows.append([p - 1 - j for j in range(64)])
        assert kernel_dim_mod_p(rows, 64, 1) == oracles.kernel_dim_mod_p(rows, 64, 1) == 62

    def test_echelon_returns_reduced_rows_with_unit_pivots(self):
        p, _ = _modulus(1)
        k = _slot_words(3, p)
        insert = _echelon_mod_p(p, 3, k)
        row = insert(_pack([0, 2, 4], k))
        assert _residues(row, 3, k, p) == [0, 1, 2]
        assert insert(_pack([0, p - 1, p - 2], k)) is None  # -1/2 times the first
        assert _residues(insert(_pack([5, 2, 4], k)), 3, k, p) == [1, 0, 0]


class TestFixedCases:
    def test_unlucky_prime_overstates_the_kernel(self):
        p, _ = _modulus(1)
        gens = [Matrix.build([[1, 0], [0, 1 + p]]), SWAP]  # mod p: I and SWAP
        assert not oracles.spans_full_mod_p(gens, 2, 1)
        assert _spans_full_mod_p(gens, 2, 1)  # Norton's test at q is not fooled
        rows = commutant_rows(gens, 2, 1)
        assert kernel_dim_mod_p(rows, 4, 1) == oracles.kernel_dim_mod_p(rows, 4, 1) == 2
        assert kernel(IntRows(rows, 4, 1)).dim == 1

    def test_denominator_divisible_by_p_decides_nothing(self):
        p, _ = _modulus(5)
        z = Scalar.zeta(5)
        x = oracles.from_coeffs(5, [Fraction(1, 3), Fraction(2, p)])
        gens = [Matrix.build([[z, 0], [0, x]], 5), Matrix.build([[0, 1], [1, 0]], 5)]
        assert not oracles.spans_full_mod_p(gens, 2, 5)
        assert _spans_full_mod_p(gens, 2, 5)  # Norton's test at q is not stopped by p
        # the integer rows have no denominator, so the bound still holds
        rows = commutant_rows(gens, 2, 5)
        bound = kernel_dim_mod_p(rows, 4, 5)
        assert bound == oracles.kernel_dim_mod_p(rows, 4, 5)
        assert bound >= kernel(IntRows(rows, 4, 5)).dim


def test_norton_images_walk_past_primes_in_a_denominator():
    # the first prime q = 1 (mod m) from the small modulus on that divides
    # no denominator: past 67 and 71 over Q, past 71 over Q(zeta5)
    for dens, m, q in [(1, 1, 67), (67, 1, 71), (67 * 71, 1, 73), (71, 5, 101)]:
        g = Matrix.build([[Fraction(1, dens), 0], [0, Scalar.zeta(m) if m > 1 else 2]], m)
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
    # (p, r) as found with trial division; a change alters every certificate
    assert [_modulus(m) for m in range(1, 13)] == [
        (2147483647, 1), (2147483647, 2147483646), (2147483647, 1513477735),
        (2147483629, 1518275076), (2147483171, 2066432606), (2147483647, 1513477736),
        (2147483647, 1752599774), (2147483497, 291288225), (2147483647, 765383222),
        (2147483171, 566890146), (2147483647, 298192073), (2147483629, 1803057106)]


def test_small_modulus_is_unchanged():
    # (q, r) for Norton's test: the smallest prime q > 64 with q = 1 (mod m)
    assert [_small_modulus(m) for m in range(1, 13)] == [
        (67, 1), (67, 66), (67, 37), (73, 27), (71, 54), (67, 38),
        (71, 30), (73, 10), (73, 37), (71, 14), (67, 64), (73, 3)]
    for m in range(1, 13):
        q, r = _small_modulus(m)
        assert [x for x in range(65, q) if (x - 1) % m == 0 and oracles.is_prime(x)] == []
        assert oracles.is_prime(q) and (q - 1) % m == 0
        assert pow(r, m, q) == 1 and all(pow(r, k, q) != 1 for k in range(1, m))
