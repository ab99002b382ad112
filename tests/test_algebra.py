import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcat.algebra import (
    MeatAxeInconclusive,
    NotSemisimpleError,
    _modulus,
    _primitive_element,
    _spans_full_mod_p,
    commutant,
    decompose_irreducibles,
    factor_over_field,
    invariant_complement,
    invariant_subspace,
    isotypic_decomposition,
    minimal_polynomial,
    module_homs,
    radical_trace,
    restrict_matrix,
    spin_algebra,
)
from wildcat.linalg import Matrix, Subspace, _EchelonSet
from wildcat.scalars import Scalar, euler_phi

from oracles import is_closed, radical_oracle

I2 = Matrix.identity(2)
J = Matrix.build([[1, 1], [0, 1]])
N = Matrix.build([[0, 1], [0, 0]])
SWAP = Matrix.build([[0, 1], [1, 0]])
DIAG = Matrix.build([[1, 0], [0, -1]])
ROT = Matrix.build([[0, -1], [1, 0]])


def rand_matrix(rng, n, lo=-2, hi=2):
    return Matrix.build([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestSpin:
    def test_identity_only(self):
        alg = spin_algebra([I2])
        assert alg.dim == 1 and alg.basis[0] == I2

    def test_jordan_block(self):
        alg = spin_algebra([J])
        assert alg.dim == 2
        assert list(alg.basis) == [I2, N]

    def test_matrix_units(self):
        alg = spin_algebra([Matrix.build([[0, 1], [0, 0]]), Matrix.build([[0, 0], [1, 0]])])
        assert alg.dim == 4

    def test_closure_randomized(self):
        rng = random.Random(21)
        for _ in range(10):
            n = rng.choice([2, 3])
            alg = spin_algebra([rand_matrix(rng, n) for _ in range(rng.randint(1, 2))])
            assert is_closed(alg)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            spin_algebra([I2, Matrix.identity(3)])


def reference_spin(gens, n, m):
    """Echelon basis of the unital algebra: products on both sides, no early stop."""
    ech = _EchelonSet(n * n)
    frontier = [w for w in [Matrix.identity(n, m)] + gens if ech.add(list(w.flatten()))]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                for prod in (g @ w, w @ g):
                    if ech.add(list(prod.flatten())):
                        nxt.append(prod)
        frontier = nxt
    return tuple(Matrix(n, n, tuple(row)) for row in ech.rows)


@st.composite
def generator_tuples(draw):
    """One to three n x n matrices over Q or Q(zeta5), n = 2 or 3, with small
    (half-)integer coefficients; block upper triangular (not full) or not."""
    m = draw(st.sampled_from([1, 5]))
    n = draw(st.integers(2, 3))
    split = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    scalar = st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)).map(
        lambda cs: Scalar.from_coeffs(m, cs))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        entries = [Scalar.zero(m) if split is not None and i >= split and j < split
                   else draw(scalar) for i in range(n) for j in range(n)]
        gens.append(Matrix(n, n, tuple(entries)))
    return gens, n, m


@settings(max_examples=50)
@given(generator_tuples())
def test_spin_matches_two_sided_reference(case):
    gens, n, m = case
    reference = reference_spin(gens, n, m)
    assert spin_algebra(gens).basis == reference
    if len(reference) == n * n:
        assert invariant_subspace(gens) is None


class TestModularCertificate:
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
    def test_modulus_has_a_primitive_root_of_unity(self, m):
        p, r = _modulus(m)
        assert p < 2 ** 31 and (p - 1) % m == 0 and pow(r, m, p) == 1
        assert all(pow(r, k, p) != 1 for k in range(1, m))
        assert all(p % d for d in range(2, 50000) if d * d <= p)

    def test_unlucky_prime_falls_back_to_exact_spin(self):
        p, _ = _modulus(1)
        gens = [Matrix.build([[1, 0], [0, 1 + p]]), SWAP]  # mod p: only I and SWAP
        assert not _spans_full_mod_p(gens, 2, 1)
        alg = spin_algebra(gens)
        assert alg.dim == 4 and alg.basis == reference_spin(gens, 2, 1)
        assert invariant_subspace(gens) is None

    def test_denominator_divisible_by_prime_falls_back(self):
        p, _ = _modulus(1)
        gens = [Matrix.build([[1, 0], [0, Fraction(1, p)]]), SWAP]
        assert not _spans_full_mod_p(gens, 2, 1)
        alg = spin_algebra(gens)
        assert alg.dim == 4 and alg.basis == reference_spin(gens, 2, 1)

    def test_full_algebra_over_cyclotomic_field(self):
        z = Scalar.zeta(5)
        gens = [Matrix.build([[z, 0], [0, 1]]), Matrix.build([[0, 1], [1, 0]], 5)]
        assert _spans_full_mod_p(gens, 2, 5)
        assert spin_algebra(gens).basis == reference_spin(gens, 2, 5)


class TestRadical:
    def test_scalars(self):
        cert = radical_trace(spin_algebra([I2]))
        assert cert.dim == 0 and cert.witness is None and cert.nilpotency_index == 1

    def test_jordan_gram(self):
        cert = radical_trace(spin_algebra([J]))
        assert cert.dim == 1
        assert cert.witness == N
        assert cert.nilpotency_index == 2

    def test_full_matrix_algebra(self):
        cert = radical_trace(spin_algebra([Matrix.build([[0, 1], [0, 0]]),
                                           Matrix.build([[0, 0], [1, 0]])]))
        assert cert.dim == 0

    def test_oracle_agrees_on_examples(self):
        for gens in ([I2], [J], [Matrix.build([[1, 0], [0, 0]]), N]):
            alg = spin_algebra(gens)
            assert radical_trace(alg).radical == radical_oracle(alg).radical

    def test_upper_triangular(self):
        alg = spin_algebra([Matrix.build([[1, 0], [0, 0]]), N])
        assert alg.dim == 3
        cert = radical_oracle(alg)
        assert cert.dim == 1 and cert.witness == N and cert.nilpotency_index == 2

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            gens = [rand_matrix(rng, n) for _ in range(rng.randint(1, 2))]
            alg = spin_algebra(gens)
            a, b = radical_trace(alg), radical_oracle(alg)
            assert a.radical == b.radical
            # radical elements are nilpotent as matrices
            for row in a.radical.basis:
                mat = Matrix(n, n, tuple(row))
                assert (mat ** n).is_zero()


class TestInvariantSubspace:
    def test_jordan_line(self):
        sub = invariant_subspace([J])
        assert sub == Subspace.from_vectors(2, [(1, 0)])

    def test_irreducible_pair(self):
        assert invariant_subspace([SWAP, DIAG]) is None

    def test_identity_deterministic_first_line(self):
        sub = invariant_subspace([I2])
        assert sub == Subspace.from_vectors(2, [(1, 0)])

    def test_rotation_irreducible_over_rationals(self):
        assert invariant_subspace([ROT]) is None

    def test_rotation_splits_over_gaussian_field(self):
        z = Scalar.zeta(4)
        rot4 = Matrix.build([[Scalar.zero(4), -Scalar.one(4)],
                             [Scalar.one(4), Scalar.zero(4)]], 4)
        sub = invariant_subspace([rot4])
        assert sub is not None and sub.dim == 1
        v = sub.basis[0]
        image = rot4.mul_vector(v)
        assert sub.contains(image)

    def test_consistency_triangle(self):
        # absent <=> zero radical and a single irreducible isotypic component
        rng = random.Random(13)
        corpus = [[J], [I2], [SWAP, DIAG], [ROT],
                  [Matrix.build([[2, 0], [0, 3]])],
                  [Matrix.build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])]]
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            corpus.append([rand_matrix(rng, n) for _ in range(rng.randint(1, 2))])
        for gens in corpus:
            n = gens[0].rows
            absent = invariant_subspace(gens) is None
            rad_zero = radical_trace(spin_algebra(gens)).dim == 0
            if not rad_zero:
                assert not absent
                continue
            comps = isotypic_decomposition(gens)
            irr_single = len(comps) == 1 and len(decompose_irreducibles(gens)) == 1
            assert absent == irr_single

    def test_witness_is_invariant(self):
        rng = random.Random(4)
        for _ in range(15):
            n = rng.choice([2, 3])
            gens = [rand_matrix(rng, n, -1, 1) for _ in range(2)]
            sub = invariant_subspace(gens)
            if sub is None:
                continue
            assert 0 < sub.dim < n
            for g in gens:
                for v in sub.basis:
                    assert sub.contains(g.mul_vector(v))


class TestDecomposition:
    def test_eigenspace_grouping(self):
        comps = isotypic_decomposition([Matrix.build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])])
        assert sorted(c.dim for c in comps) == [1, 2]

    def test_identity_single_component(self):
        comps = isotypic_decomposition([Matrix.identity(3)])
        assert len(comps) == 1 and comps[0].dim == 3

    def test_swap_eigenlines(self):
        comps = isotypic_decomposition([SWAP])
        assert [c.basis for c in comps] == [
            Subspace.from_vectors(2, [(1, -1)]).basis,
            Subspace.from_vectors(2, [(1, 1)]).basis,
        ]

    def test_not_semisimple(self):
        with pytest.raises(NotSemisimpleError):
            isotypic_decomposition([J])

    def test_direct_sum_is_everything(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.choice([2, 3])
            while True:
                g = rand_matrix(rng, n)
                if radical_trace(spin_algebra([g])).dim == 0:
                    break
            comps = isotypic_decomposition([g])
            assert sum(c.dim for c in comps) == n
            total = comps[0]
            for c in comps[1:]:
                total = total.sum(c)
            assert total.dim == n

    def test_invariant_complement(self):
        gens = [Matrix.build([[2, 0], [0, 3]])]
        sub = Subspace.from_vectors(2, [(1, 0)])
        comp = invariant_complement(gens, sub)
        assert comp == Subspace.from_vectors(2, [(0, 1)])

    def test_module_homs_schur(self):
        a = Subspace.from_vectors(3, [(1, 0, 0)])
        b = Subspace.from_vectors(3, [(0, 1, 0)])
        c = Subspace.from_vectors(3, [(0, 0, 1)])
        gens = [Matrix.build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])]
        assert module_homs(gens, a, b)
        assert not module_homs(gens, a, c)


class TestPolynomialTools:
    def test_minimal_polynomial(self):
        coeffs = minimal_polynomial(J)
        assert [c.as_fraction() for c in coeffs] == [1, -2, 1]
        coeffs = minimal_polynomial(Matrix.build([[2, 0], [0, 2]]))
        assert [c.as_fraction() for c in coeffs] == [-2, 1]

    def test_primitive_element_sweep(self):
        # E11 alone generates span{I, E11}; E22 forces the sweep to E11 + c E22
        units = [Matrix.build([[int(i == j == k) for j in range(3)] for i in range(3)])
                 for k in range(3)]
        f = _primitive_element(units, 3, 1)
        powers = Subspace.from_vectors(9, [g.flatten() for g in (Matrix.identity(3), f, f @ f)])
        assert powers.dim == 3
        assert powers == Subspace.from_vectors(9, [g.flatten() for g in units])
        assert len(minimal_polynomial(f)) == 4

    def test_factor_over_rationals(self):
        x2m1 = [Scalar.rational(-1), Scalar.zero(), Scalar.one()]
        factors = factor_over_field(x2m1, 1)
        assert len(factors) == 2

    def test_factor_over_gaussian(self):
        x2p1 = [Scalar.one(4), Scalar.zero(4), Scalar.one(4)]
        factors = factor_over_field(x2p1, 4)
        assert len(factors) == 2
        for fc, mult in factors:
            assert len(fc) == 2 and mult == 1
        roots = [-fc[0] for fc, _ in factors]
        assert any(r == Scalar.zeta(4) for r in roots)
        assert any(r == -Scalar.zeta(4) for r in roots)

    def test_commutant_of_irreducible_is_scalars(self):
        assert len(commutant([SWAP, DIAG], 2)) == 1

    def test_restrict_matrix(self):
        g = Matrix.build([[2, 0], [0, 3]])
        sub = Subspace.from_vectors(2, [(0, 1)])
        r = restrict_matrix(g, sub)
        assert r == Matrix.build([[3]])
