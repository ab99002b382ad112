import random

import pytest

from wildcat.engine import FramedPoint, Loop, _doubled, galois_generators, normalize_point
from wildcat.linalg import Grading, Matrix

from oracles import adjoint, apply, build, compose, multiply, plain, transpose_inverse

J = build([[1, 1], [0, 1]])


def rand_invertible(rng, n):
    while True:
        m = build([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def normalize(x: Loop) -> Loop:
    """The one loop of a point made of x alone, normalized."""
    n = x.g.rows
    return normalize_point(FramedPoint(n, [Grading.trivial(n)], [], [x])).loops[0]


def doubled(x: Loop) -> Matrix:
    return _doubled(x.g, x.sigma)


class TestNormalize:
    def test_inner_twist_cancels(self):
        # (g, Inn(g^-1)) normalizes to the identity element: its adjoint is trivial
        x = Loop(J, J.inverse())
        out = normalize(x)
        assert out.g == Matrix.identity(2)
        assert not out.sigma and out.inner.is_identity()

    def test_untwisted_unchanged(self):
        x = plain(J)
        assert normalize(x) is x

    def test_sigma_with_inner(self):
        # one bitorsor move: (g, Inn(A) o sigma) -> (g A, sigma)
        a = build([[2, 1], [1, 1]])
        x = Loop(Matrix.identity(2), a, True)
        out = normalize(x)
        assert out.g == a
        assert out.sigma and out.inner.is_identity()

    def test_adjoint_preserved(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.choice([2, 3])
            x = Loop(rand_invertible(rng, n), rand_invertible(rng, n), rng.random() < 0.5)
            out = normalize(x)
            assert out.inner.is_identity()
            assert adjoint(x) == adjoint(out)

    def test_idempotent(self):
        rng = random.Random(8)
        x = Loop(rand_invertible(rng, 2), rand_invertible(rng, 2), True)
        once = normalize(x)
        assert normalize(once) is once


class TestEmbedding:
    def test_identity(self):
        assert doubled(plain(Matrix.identity(2))) == Matrix.identity(4)

    def test_diagonal(self):
        d = build([[2, 0], [0, 1]])
        e = doubled(plain(d))
        from fractions import Fraction
        assert e == build([[2, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, Fraction(1, 2), 0], [0, 0, 0, 1]])

    def test_sigma_product_identity(self):
        d = build([[2, 0], [0, 1]])
        lhs = doubled(plain(d, True)) @ doubled(plain(Matrix.identity(2), True))
        assert lhs == doubled(plain(d))

    def test_homomorphism_randomized(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            a = plain(rand_invertible(rng, n), rng.random() < 0.5)
            b = plain(rand_invertible(rng, n), rng.random() < 0.5)
            assert doubled(a) @ doubled(b) == doubled(multiply(a, b))

    def test_unnormalized_rejected(self):
        # the doubled generators are built from normalized loops only
        p = FramedPoint(2, [Grading.trivial(2)], [], [Loop(J, J, True)])
        with pytest.raises(ValueError, match="loops must be normalized first"):
            galois_generators(p)

    def test_faithful_on_samples(self):
        rng = random.Random(10)
        seen = []
        for _ in range(10):
            x = plain(rand_invertible(rng, 2), rng.random() < 0.5)
            e = doubled(x)
            for y, f in seen:
                if f == e:
                    assert y == x
            seen.append((x, e))


class TestAutomorphismAlgebra:
    def test_compose_matches_apply(self):
        rng = random.Random(14)
        for _ in range(20):
            n = 2
            phi = (rand_invertible(rng, n), rng.random() < 0.5)
            psi = (rand_invertible(rng, n), rng.random() < 0.5)
            g = rand_invertible(rng, n)
            assert apply(compose(phi, psi), g) == apply(phi, apply(psi, g))
            # (Inn(A) s)^-1 = Inn(s^-1(A^-1)) s
            a, outer = phi
            inverse = (transpose_inverse(a.inverse()) if outer else a.inverse(), outer)
            assert apply(compose(phi, inverse), g) == g

    def test_sigma_is_an_automorphism(self):
        rng = random.Random(15)
        for _ in range(10):
            a, b = rand_invertible(rng, 3), rand_invertible(rng, 3)
            assert transpose_inverse(a @ b) == transpose_inverse(a) @ transpose_inverse(b)
