import random

import pytest

from wildcat.linalg import Matrix
from wildcat.twists import (
    Automorphism,
    TwistedElement,
    embed_doubled,
    normalize,
    transpose_inverse,
)

from oracles import adjoint, apply, build, compose, multiply, sigma

J = build([[1, 1], [0, 1]])


def rand_invertible(rng, n):
    while True:
        m = build([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


class TestNormalize:
    def test_inner_twist_cancels(self):
        # (g, Inn(g^-1)) normalizes to the identity element: its adjoint is trivial
        x = TwistedElement(J, Automorphism(J.inverse(), False))
        out = normalize([x])[0]
        assert out.g == Matrix.identity(2)
        assert not out.phi.outer and out.phi.is_inner_trivial()

    def test_untwisted_unchanged(self):
        x = TwistedElement.plain(J)
        assert normalize([x])[0] == x

    def test_sigma_with_inner(self):
        # one bitorsor move: (g, Inn(A) o sigma) -> (g A, sigma)
        a = build([[2, 1], [1, 1]])
        x = TwistedElement(Matrix.identity(2), Automorphism(a, True))
        out = normalize([x])[0]
        assert out.g == a
        assert out.phi.outer and out.phi.is_inner_trivial()

    def test_adjoint_preserved(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.choice([2, 3])
            x = TwistedElement(rand_invertible(rng, n),
                               Automorphism(rand_invertible(rng, n), rng.random() < 0.5))
            out = normalize([x])[0]
            assert out.is_normalized()
            assert adjoint(x) == adjoint(out)

    def test_idempotent(self):
        rng = random.Random(8)
        x = TwistedElement(rand_invertible(rng, 2),
                           Automorphism(rand_invertible(rng, 2), True))
        once = normalize([x])
        assert normalize(once) == once


class TestEmbedding:
    def test_identity(self):
        assert embed_doubled(TwistedElement.plain(Matrix.identity(2))) == Matrix.identity(4)

    def test_diagonal(self):
        d = build([[2, 0], [0, 1]])
        e = embed_doubled(TwistedElement.plain(d))
        from fractions import Fraction
        assert e == build([[2, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, Fraction(1, 2), 0], [0, 0, 0, 1]])

    def test_sigma_product_identity(self):
        d = build([[2, 0], [0, 1]])
        lhs = embed_doubled(TwistedElement(d, sigma(2))) @ \
            embed_doubled(TwistedElement(Matrix.identity(2), sigma(2)))
        assert lhs == embed_doubled(TwistedElement.plain(d))

    def test_homomorphism_randomized(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            a = TwistedElement(rand_invertible(rng, n),
                               Automorphism(Matrix.identity(n), rng.random() < 0.5))
            b = TwistedElement(rand_invertible(rng, n),
                               Automorphism(Matrix.identity(n), rng.random() < 0.5))
            assert embed_doubled(a) @ embed_doubled(b) == embed_doubled(multiply(a, b))

    def test_unnormalized_rejected(self):
        x = TwistedElement(J, Automorphism(J, False))
        with pytest.raises(ValueError):
            embed_doubled(x)

    def test_faithful_on_samples(self):
        rng = random.Random(10)
        seen = []
        for _ in range(10):
            x = TwistedElement(rand_invertible(rng, 2),
                               Automorphism(Matrix.identity(2), rng.random() < 0.5))
            e = embed_doubled(x)
            for y, f in seen:
                if f == e:
                    assert y == x
            seen.append((x, e))


class TestAutomorphismAlgebra:
    def test_compose_matches_apply(self):
        rng = random.Random(14)
        for _ in range(20):
            n = 2
            phi = Automorphism(rand_invertible(rng, n), rng.random() < 0.5)
            psi = Automorphism(rand_invertible(rng, n), rng.random() < 0.5)
            g = rand_invertible(rng, n)
            assert apply(compose(phi, psi), g) == apply(phi, apply(psi, g))
            # (Inn(A) s)^-1 = Inn(s^-1(A^-1)) s
            ainv = phi.inner.inverse()
            inverse = Automorphism(transpose_inverse(ainv) if phi.outer else ainv, phi.outer)
            assert apply(compose(phi, inverse), g) == g

    def test_sigma_is_an_automorphism(self):
        rng = random.Random(15)
        for _ in range(10):
            a, b = rand_invertible(rng, 3), rand_invertible(rng, 3)
            assert transpose_inverse(a @ b) == transpose_inverse(a) @ transpose_inverse(b)
