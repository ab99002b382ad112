import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcat.linalg import (
    Grading,
    Matrix,
    Subspace,
    kernel,
    linear_solve,
    rref,
    sandwich_rows,
    weight_projectors,
)
from wildcat.scalars import Scalar, euler_phi


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return Matrix.build([[Fraction(rng.randint(lo, hi), rng.randint(1, 2))
                          for _ in range(cols)] for _ in range(rows)])


class TestLinearSolve:
    def test_identity_case(self):
        part, ker = linear_solve(Matrix.identity(2), Matrix.identity(2))
        assert part == Matrix.identity(2)
        assert ker.dim == 0

    def test_nilpotent_kernel(self):
        part, ker = linear_solve(Matrix.build([[0, 1], [0, 0]]), Matrix.zero(2, 1))
        assert ker == Subspace.from_vectors(2, [(1, 0)])

    def test_rank_one_system(self):
        part, ker = linear_solve(Matrix.build([[1, 1], [1, 1]]), Matrix.build([[2], [2]]))
        assert part is not None
        assert Matrix.build([[1, 1], [1, 1]]) @ part == Matrix.build([[2], [2]])
        assert ker == Subspace.from_vectors(2, [(1, -1)])

    def test_inconsistent(self):
        part, ker = linear_solve(Matrix.build([[1, 1], [1, 1]]), Matrix.build([[1], [2]]))
        assert part is None and ker.dim == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_solve(Matrix.identity(2), Matrix.zero(3, 1))

    def test_random_consistency(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            a = rand_matrix(rng, n, n)
            x = rand_matrix(rng, n, 1)
            part, ker = linear_solve(a, a @ x)
            assert part is not None and a @ part == a @ x
            for v in ker.basis:
                assert all(y.is_zero() for y in a.mul_vector(v))


class TestRref:
    def test_identity(self):
        r, piv, rank = rref(Matrix.identity(3))
        assert r == Matrix.identity(3) and piv == (0, 1, 2) and rank == 3

    def test_zero(self):
        z = Matrix.zero(2, 2)
        r, piv, rank = rref(z)
        assert r == z and piv == () and rank == 0

    def test_rank_one(self):
        r, piv, rank = rref(Matrix.build([[2, 4], [1, 2]]))
        assert r == Matrix.build([[1, 2], [0, 0]]) and rank == 1

    def test_idempotence_randomized(self):
        rng = random.Random(9)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            r1, _, _ = rref(a)
            r2, _, _ = rref(r1)
            assert r1 == r2


class TestWeightProjectors:
    def test_coordinate_grading(self):
        g = Grading(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = weight_projectors(g)
        assert p[0] == Matrix.build([[1, 0], [0, 0]])
        assert p[1] == Matrix.build([[0, 0], [0, 1]])

    def test_single_piece(self):
        g = Grading.trivial(3)
        assert weight_projectors(g) == [Matrix.identity(3)]

    def test_diagonal_lines(self):
        g = Grading(2, [((1,), [(1, 1)]), ((-1,), [(1, -1)])])
        p = weight_projectors(g)
        half = Fraction(1, 2)
        assert p[0] == Matrix.build([[half, half], [half, half]])
        assert p[1] == Matrix.build([[half, -half], [-half, half]])

    def test_projector_identities_randomized(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.choice([2, 3, 4])
            while True:
                b = rand_matrix(rng, n, n, -2, 2)
                if b.is_invertible():
                    break
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            bounds = [0] + cuts + [n]
            pieces = []
            for i in range(len(bounds) - 1):
                rows = [b.row(k) for k in range(bounds[i], bounds[i + 1])]
                pieces.append(((i,), rows))
            g = Grading(n, pieces)
            projs = weight_projectors(g)
            total = Matrix.zero(n, n)
            for i, p in enumerate(projs):
                assert p @ p == p
                total = total + p
                for j, q in enumerate(projs):
                    if i != j:
                        assert (p @ q).is_zero()
            assert total == Matrix.identity(n)

    def test_grading_validation(self):
        with pytest.raises(ValueError):
            Grading(2, [((1,), [(1, 0)]), ((1,), [(0, 1)])])  # repeated weight
        with pytest.raises(ValueError):
            Grading(2, [((1,), [(1, 0)]), ((2,), [(1, 0)])])  # not independent
        with pytest.raises(ValueError):
            Grading(2, [((1,), [(1, 0)])])  # not spanning


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.from_vectors(3, [(1, 1, 0), (0, 1, 1)])
        b = Subspace.from_vectors(3, [(1, 2, 1), (2, 3, 1)])
        assert a == b

    def test_contains_and_coordinates(self):
        s = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
        one, zero = Scalar.one(), Scalar.zero()
        assert s.contains((one, one, one + one))
        assert not s.contains((one, zero, zero))
        coords = s.coordinates((one, one, one + one))
        assert coords == (one, one)

    def test_sum_intersection(self):
        a = Subspace.from_vectors(3, [(1, 0, 0)])
        b = Subspace.from_vectors(3, [(0, 1, 0)])
        assert a.sum(b).dim == 2
        assert a.intersection(b).dim == 0
        c = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        d = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
        inter = c.intersection(d)
        assert inter == Subspace.from_vectors(3, [(1, 1, 0)])

    def test_kernel(self):
        k = kernel(Matrix.build([[1, 2, 3]]))
        assert k.dim == 2
        for v in k.basis:
            assert all(x.is_zero() for x in Matrix.build([[1, 2, 3]]).mul_vector(v))


class TestMatrix:
    def test_inverse(self):
        a = Matrix.build([[1, 1], [0, 1]])
        assert a @ a.inverse() == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix.build([[1, 1], [1, 1]]).inverse()

    def test_char_poly(self):
        j = Matrix.build([[1, 1], [0, 1]])
        coeffs = j.char_poly()
        assert [c.as_fraction() for c in coeffs] == [1, -2, 1]

    def test_cyclotomic_entries(self):
        z = Scalar.zeta(4)
        a = Matrix.build([[z, 0], [0, z]], 4)
        assert a @ a == Matrix.identity(2, 4).scale(Scalar.rational(-1, 4))

    def test_one_field_per_matrix(self):
        z5 = Scalar.zeta(5)
        a = Matrix.build([[1, z5], [0, 1]])
        assert all(x.m == 5 for x in a.entries)
        assert Matrix.from_json(a.to_json(), 5) == a
        with pytest.raises(ValueError):
            Matrix.from_json(a.to_json(), 1)  # no silent reduction of zeta_5 to 1
        with pytest.raises(ValueError):
            Matrix.build([[Scalar.one(1), z5]])
        with pytest.raises(ValueError):
            Matrix.build([[z5]], 1)

    def test_place_writes_a_copy(self):
        a = Matrix.build([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        b = a.place(1, 0, Matrix.build([[-1, -2]]))
        assert b == Matrix.build([[1, 2, 3], [-1, -2, 6], [7, 8, 9]])
        assert a == Matrix.build([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert a.place(0, 1, Matrix.build([[0, 0], [0, 0], [0, 0]])) == \
            Matrix.build([[1, 0, 0], [4, 0, 0], [7, 0, 0]])
        with pytest.raises(ValueError):
            a.place(2, 2, Matrix.identity(2))  # does not fit
        with pytest.raises(ValueError):
            a.place(0, 0, Matrix.identity(1, 5))  # another field


def scalars(m):
    phi = euler_phi(m)
    coeffs = st.lists(st.integers(-2, 2), min_size=phi, max_size=phi)
    return st.one_of(st.just(Scalar.zero(m)), coeffs.map(lambda cs: Scalar.from_coeffs(m, cs)))


def matrices(m, rows, cols):
    return st.lists(scalars(m), min_size=rows * cols, max_size=rows * cols).map(
        lambda es: Matrix(rows, cols, tuple(es)))


@settings(max_examples=40)
@given(st.data())
def test_sandwich_rows_match_products(data):
    m = data.draw(st.sampled_from([1, 5]))
    rows, cols, height, width = (data.draw(st.integers(1, 3)) for _ in range(4))
    x = data.draw(matrices(m, rows, cols))
    terms = []
    total = Matrix.zero(height, width, m)
    for _ in range(data.draw(st.integers(1, 3))):
        transposed = data.draw(st.booleans())
        inner = x.transpose() if transposed else x
        left = data.draw(matrices(m, height, inner.rows))
        right = data.draw(matrices(m, inner.cols, width))
        if height == inner.rows and data.draw(st.booleans()):
            left = None  # the identity
        if inner.cols == width and data.draw(st.booleans()):
            right = None
        terms.append((left, right, transposed))
        total = total + (inner if left is None else left @ inner) @ \
            (Matrix.identity(width, m) if right is None else right)
    coeffs = Matrix.from_rows(sandwich_rows(terms, rows, cols, m))
    assert coeffs @ Matrix(rows * cols, 1, x.entries) == Matrix(height * width, 1, total.entries)
