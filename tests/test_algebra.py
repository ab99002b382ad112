import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wildcat.algebra
from wildcat.algebra import (
    MeatAxeInconclusive,
    NotSemisimpleError,
    _SMALL_PRIME_FLOOR,
    _norton_images,
    _split_by_element,
    _spans_full_mod_p,
    commutant,
    decompose_irreducibles,
    factor_over_field,
    invariant_complement,
    invariant_subspace,
    minimal_polynomial,
    radical_trace,
    restrict_matrix,
    spin_algebra,
    spin_subspace,
)
from wildcat.linalg import Matrix, kernel, linear_solve
from wildcat.modular import _modulus, _prime_and_root, factor_integer
from wildcat.scalars import Scalar, euler_phi, power_numerators

from oracles import (
    ScalarEchelon,
    algebra_basis,
    build,
    complement_reference,
    contains,
    entries,
    factor_over_field_reference,
    factor_over_field_scalar,
    from_coeffs,
    from_entries,
    from_vectors,
    intertwiners,
    is_closed,
    mul_vector,
    nilpotency_index,
    radical_oracle,
    scalar_basis,
    scale_reference,
    spans_full_mod_p,
    spin_algebra_reference,
    zero,
    zeta,
)

I2 = Matrix.identity(2)
J = build([[1, 1], [0, 1]])
N = build([[0, 1], [0, 0]])
SWAP = build([[0, 1], [1, 0]])
DIAG = build([[1, 0], [0, -1]])
ROT = build([[0, -1], [1, 0]])


def rand_matrix(rng, n, lo=-2, hi=2):
    return build([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def levi_blocks(gens):
    """The blocks of ``decompose_irreducibles``, split first where
    ``invariant_subspace(gens)`` splits, with the generators' commutant.

    On a module V with a radical, where no generator has a kernel, the
    search returns the radical image JV (J = rad A), and that has no
    invariant complement, so NotSemisimpleError is raised: if V = JV + C as
    modules, JC lies in JV and in C, so JC = 0 and JV = J(JV) + JC = J^2 V,
    hence JV = J^k V = 0 for J nilpotent, against JV != 0.
    """
    comm = commutant(gens)
    return decompose_irreducibles(gens, invariant_subspace(gens), comm)


class TestSpin:
    def test_identity_only(self):
        alg = spin_algebra([I2])
        assert alg.dim == 1 and algebra_basis(alg) == (I2,)

    def test_jordan_block(self):
        alg = spin_algebra([J])
        assert alg.dim == 2
        assert algebra_basis(alg) == (I2, N)

    def test_matrix_units(self):
        alg = spin_algebra([build([[0, 1], [0, 0]]), build([[0, 0], [1, 0]])])
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
    ech = ScalarEchelon(n * n)
    frontier = [w for w in [Matrix.identity(n, m)] + gens if ech.add(list(entries(w)))]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                for prod in (g @ w, w @ g):
                    if ech.add(list(entries(prod))):
                        nxt.append(prod)
        frontier = nxt
    return tuple(from_entries(n, n, row, m) for row in ech.rows)


@st.composite
def generator_tuples(draw):
    """One to three n x n matrices over Q or Q(zeta5), n = 2 or 3, with small
    (half-)integer coefficients; block upper triangular (not full) or not."""
    m = draw(st.sampled_from([1, 5]))
    n = draw(st.integers(2, 3))
    split = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    scalar = st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)).map(
        lambda cs: from_coeffs(m, cs))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        entries = [zero(m) if split is not None and i >= split and j < split
                   else draw(scalar) for i in range(n) for j in range(n)]
        gens.append(from_entries(n, n, entries, m))
    return gens, n, m


@settings(max_examples=50)
@given(generator_tuples())
def test_spin_matches_two_sided_reference(case):
    gens, n, m = case
    reference = reference_spin(gens, n, m)
    assert algebra_basis(spin_algebra(gens)) == reference
    if len(reference) == n * n:
        assert invariant_subspace(gens) is None


@st.composite
def non_full_generators(draw):
    """One to three block upper triangular n x n matrices, n = 2 or 3, over
    Q, Q(i) or Q(zeta5), with assorted denominators, and a start vector."""
    m = draw(st.sampled_from([1, 4, 5]))
    n = draw(st.integers(2, 3))
    split = draw(st.integers(1, n - 1))
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    scalar = st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)).map(
        lambda cs: from_coeffs(m, cs))
    gens = [from_entries(n, n, [zero(m) if i >= split and j < split else draw(scalar)
                                for i in range(n) for j in range(n)], m)
            for _ in range(draw(st.integers(1, 3)))]
    return gens, n, m, [draw(scalar) for _ in range(n)]


@settings(max_examples=60)
@given(non_full_generators())
def test_integer_spin_matches_the_scalar_reference(case):
    gens, n, m, start = case
    assert algebra_basis(spin_algebra(gens)) == spin_algebra_reference(gens, n, m)
    ech = ScalarEchelon(n)
    frontier = [start] if ech.add(start) else []
    while frontier:
        frontier = [v for w in frontier for v in [mul_vector(g, w) for g in gens] if ech.add(v)]
    assert scalar_basis(spin_subspace(gens, build([start], m))) == \
        tuple(tuple(row) for row in ech.rows)


class TestModularCertificate:
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
    def test_modulus_has_a_primitive_root_of_unity(self, m):
        for width in (1, 16, 256):
            p, r = _modulus(m, width)
            assert p < 2 ** 31 and (p - 1) % m == 0 and pow(r, m, p) == 1
            assert all(pow(r, k, p) != 1 for k in range(1, m))
            assert all(p % d for d in range(2, 50000) if d * d <= p)

    def test_unlucky_prime_falls_back_to_exact_spin(self):
        p, _ = _modulus(1, 4)   # the prime of the reference's spin of 2^2 words
        q, _ = _prime_and_root(1, _SMALL_PRIME_FLOOR, True)
        gens = [build([[1, 0], [0, 1 + p * q]]), SWAP]  # mod p and q: only I and SWAP
        assert not spans_full_mod_p(gens, 2, 1)
        assert not _spans_full_mod_p(gens, 2, 1)
        alg = spin_algebra(gens)
        assert alg.dim == 4 and algebra_basis(alg) == reference_spin(gens, 2, 1)
        assert invariant_subspace(gens) is None

    def test_denominator_divisible_by_prime_falls_back(self, monkeypatch):
        # p divides a denominator, so the spin at p proves nothing; Norton's
        # test at q does, and the exact spin, forced, gives the same basis
        p, _ = _modulus(1, 4)
        gens = [build([[1, 0], [0, Fraction(1, p)]]), SWAP]
        assert not spans_full_mod_p(gens, 2, 1)
        assert _spans_full_mod_p(gens, 2, 1)
        full = algebra_basis(spin_algebra(gens))
        monkeypatch.setattr(wildcat.algebra, "_spans_full_mod_p", lambda *args: False)
        alg = spin_algebra(gens)
        assert alg.dim == 4 and algebra_basis(alg) == reference_spin(gens, 2, 1) == full

    def test_full_algebra_over_cyclotomic_field(self):
        z = zeta(5)
        gens = [build([[z, 0], [0, 1]]), build([[0, 1], [1, 0]], 5)]
        assert _spans_full_mod_p(gens, 2, 5)
        assert algebra_basis(spin_algebra(gens)) == reference_spin(gens, 2, 5)

    # the same cases at n = 5, Norton's test mod q against the spin at p:
    # diag(1, 1 + c, ..., 1 + 4c) and the cyclic shift span M_5 over Q
    @staticmethod
    def diag_and_shift(c, shift_scale=1):
        diag = build([[1 + i * c if i == j else 0 for j in range(5)] for i in range(5)])
        shift = build([[1 if (i - j) % 5 == 1 else 0 for j in range(5)] for i in range(5)])
        return [diag, Matrix.identity(5) + shift.scale(Fraction(shift_scale))]

    def test_scalar_images_mod_q_fall_back_to_the_spin(self):
        q, _ = _prime_and_root(1, _SMALL_PRIME_FLOOR, True)
        gens = self.diag_and_shift(q, q)  # both = I mod q
        assert not _spans_full_mod_p(gens, 5, 1)
        assert spans_full_mod_p(gens, 5, 1)  # the spin at p is not fooled
        alg = spin_algebra(gens)  # by the exact spin
        assert alg.dim == 25 and algebra_basis(alg) == reference_spin(gens, 5, 1)

    def test_unlucky_at_both_primes_falls_back_to_exact_spin(self):
        q, _ = _prime_and_root(1, _SMALL_PRIME_FLOOR, True)
        p, _ = _modulus(1, 25)   # the prime of the reference's spin of 5^2 words
        gens = self.diag_and_shift(p * q)  # mod p and mod q: I and I + shift
        # the first element is 2I + shift, its one eigenvalue mod q is 3, and
        # the null line of shift - I, (1, ..., 1), spins to itself
        assert not _spans_full_mod_p(gens, 5, 1)
        assert not spans_full_mod_p(gens, 5, 1)
        alg = spin_algebra(gens)
        assert alg.dim == 25 and algebra_basis(alg) == reference_spin(gens, 5, 1)
        assert invariant_subspace(gens) is None

    def test_denominator_divisible_by_q_moves_on_to_the_next_prime(self):
        # q = 67 divides the denominator, so Norton's test maps to F_71, where
        # the diagonal entries stay distinct and the module absolutely irreducible
        q, _ = _prime_and_root(1, _SMALL_PRIME_FLOOR, True)
        gens = self.diag_and_shift(Fraction(1, q))
        assert _norton_images(gens, 1)[0] == 71
        assert _spans_full_mod_p(gens, 5, 1) and spans_full_mod_p(gens, 5, 1)
        assert algebra_basis(spin_algebra(gens)) == reference_spin(gens, 5, 1)


class TestRadical:
    def test_scalars(self):
        rad = radical_trace(spin_algebra([I2]))
        assert rad.dim == 0 and scalar_basis(rad) == () and nilpotency_index(rad, 2) == 1

    def test_jordan_gram(self):
        rad = radical_trace(spin_algebra([J]))
        assert rad.dim == 1
        assert rad.matrices(2, 2)[0] == N
        assert nilpotency_index(rad, 2) == 2

    def test_full_matrix_algebra(self):
        rad = radical_trace(spin_algebra([build([[0, 1], [0, 0]]),
                                          build([[0, 0], [1, 0]])]))
        assert rad.dim == 0

    def test_oracle_agrees_on_examples(self):
        for gens in ([I2], [J], [build([[1, 0], [0, 0]]), N]):
            alg = spin_algebra(gens)
            assert radical_trace(alg) == radical_oracle(alg)

    def test_upper_triangular(self):
        alg = spin_algebra([build([[1, 0], [0, 0]]), N])
        assert alg.dim == 3
        rad = radical_oracle(alg)
        assert rad.dim == 1 and rad.matrices(2, 2)[0] == N and nilpotency_index(rad, 2) == 2

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            gens = [rand_matrix(rng, n) for _ in range(rng.randint(1, 2))]
            alg = spin_algebra(gens)
            a, b = radical_trace(alg), radical_oracle(alg)
            assert a == b
            # the radical is a nilpotent ideal: its n-th power is 0
            assert nilpotency_index(a, n) <= n


class TestInvariantSubspace:
    def test_jordan_line(self):
        sub = invariant_subspace([J])
        assert sub == from_vectors(2, [(1, 0)])

    def test_irreducible_pair(self):
        assert invariant_subspace([SWAP, DIAG]) is None

    def test_identity_deterministic_first_line(self):
        sub = invariant_subspace([I2])
        assert sub == from_vectors(2, [(1, 0)])

    def test_rotation_irreducible_over_rationals(self):
        assert invariant_subspace([ROT]) is None

    def test_field_commutant_is_factored_once_per_element(self, monkeypatch):
        # the commutant Q(i) is a field: one factorisation for its non-scalar
        # basis element, and none after it (a commutative commutant whose
        # basis elements do not split is a field)
        calls = []

        def counted(coeffs, m):
            calls.append(m)
            return factor_over_field(coeffs, m)
        monkeypatch.setattr(wildcat.algebra, "factor_over_field", counted)
        assert invariant_subspace([ROT]) is None
        assert len(calls) == 1

    def test_rotation_splits_over_gaussian_field(self):
        z = zeta(4)
        rot4 = build([[zero(4), -Scalar.one(4)],
                             [Scalar.one(4), zero(4)]], 4)
        sub = invariant_subspace([rot4])
        assert sub is not None and sub.dim == 1
        v = scalar_basis(sub)[0]
        image = mul_vector(rot4, v)
        assert contains(sub, image)

    def test_consistency_triangle(self):
        # absent <=> zero radical and a single irreducible block
        rng = random.Random(13)
        corpus = [[J], [I2], [SWAP, DIAG], [ROT],
                  [build([[2, 0], [0, 3]])],
                  [build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])]]
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
            blocks = levi_blocks(gens)
            assert absent == (len(blocks) == 1)

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
                for v in scalar_basis(sub):
                    assert contains(sub, mul_vector(g, v))


def hom_dims(gens, blocks):
    """dim Hom(B_j, B_i) in row i, column j, for the blocks B_i."""
    m = gens[0].m
    acts = [[restrict_matrix(g, b) for g in gens] for b in blocks]
    return [[len(intertwiners(acts[j], acts[i], b.dim, a.dim, m)) for j, b in enumerate(blocks)]
            for i, a in enumerate(blocks)]


def isotypic_dims(gens):
    """Dimensions of the isotypic components: two irreducible blocks lie in
    one iff a nonzero module map joins them (Schur)."""
    blocks = levi_blocks(gens)
    homs = hom_dims(gens, blocks)
    first = [next(j for j, d in enumerate(row) if d) for row in homs]
    return sorted(sum(b.dim for b, f in zip(blocks, first) if f == c) for c in set(first))


@st.composite
def semisimple_modules(draw, fields=(1, 4, 5)):
    """Two generators conjugate by P = L L^T, L unit lower triangular, to
    block diagonal ones over one of the ``fields`` (Q, Q(i) or Q(zeta5) by
    default), and a proper submodule.
    The blocks are of one or two types, 1 x 1 or 2 x 2, each repeated once
    or twice, so isotypic blocks occur.  A type's part of the submodule is
    nothing, its block, or for a repeated type the diagonal copy
    {(v, c v)}, which has many complements.  Types whose algebra has a
    radical are discarded, so the module is semisimple."""
    m = draw(st.sampled_from(fields))
    phi = euler_phi(m)
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    scalar = st.lists(coeff, min_size=phi, max_size=phi).map(lambda cs: from_coeffs(m, cs))
    types = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([1, 2]))
        acts = [from_entries(d, d, [draw(scalar) for _ in range(d * d)], m) for _ in range(2)]
        assume(radical_trace(spin_algebra(acts)).dim == 0)
        types.append((acts, draw(st.integers(1, 2))))
    n = sum(acts[0].rows * mult for acts, mult in types)
    assume(n >= 2)
    gens = [Matrix.zero(n, n, m) for _ in range(2)]
    vectors, at = [], 0
    for acts, mult in types:
        d = acts[0].rows
        for k in range(mult):
            gens = [g.place(at + k * d, at + k * d, a) for g, a in zip(gens, acts)]
        if draw(st.booleans()):  # this type's part of the submodule
            c = draw(scalar) if mult == 2 else zero(m)
            for t in range(d):
                v = [zero(m)] * n
                v[at + t] = Scalar.one(m)
                if mult == 2:
                    v[at + d + t] = c
                vectors.append(v)
        at += d * mult
    assume(0 < len(vectors) < n)
    lower = from_entries(n, n, [Scalar.one(m) if i == j else draw(scalar) if i > j
                                else zero(m) for i in range(n) for j in range(n)], m)
    p = lower @ lower.transpose()
    p_inv = p.inverse()
    sub = from_vectors(n, [mul_vector(p, v) for v in vectors])
    return [p @ g @ p_inv for g in gens], sub


@st.composite
def two_isotypic_components(draw):
    """a I_k1 (+) C^(+k2) over Q, Q(i) or Q(zeta5), k1, k2 in {1, 2}, C the
    companion matrix of x^2 - c, c in {2, 3}, which is irreducible over
    each of them, conjugated by P = L L^T as in ``semisimple_modules``.  The
    irreducible blocks have dimensions 1 and 2, so there are two isotypic
    components."""
    m = draw(st.sampled_from([1, 4, 5]))
    phi = euler_phi(m)
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    scalar = st.lists(coeff, min_size=phi, max_size=phi).map(lambda cs: from_coeffs(m, cs))
    a, c = draw(scalar), draw(st.sampled_from([2, 3]))
    k1, k2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = k1 + 2 * k2
    one, nil = Scalar.one(m), zero(m)
    g = Matrix.zero(n, n, m)
    for i in range(k1):
        g = g.place(i, i, build([[a]], m))
    companion = build([[nil, Scalar.rational(c, m)], [one, nil]], m)
    for k in range(k2):
        g = g.place(k1 + 2 * k, k1 + 2 * k, companion)
    lower = from_entries(n, n, [one if i == j else draw(scalar) if i > j else nil
                                for i in range(n) for j in range(n)], m)
    p = lower @ lower.transpose()
    return p @ g @ p.inverse(), n, m


@settings(max_examples=30)
@given(two_isotypic_components())
def test_a_commutant_basis_element_splits_a_module_with_two_isotypic_components(case):
    # the invariant_subspace docstring: a commutant basis that splits
    # nothing makes the module isotypic, so here some basis element splits
    g, n, m = case
    assert any(_split_by_element(b, n, m) is not None for b in commutant([g]))


class TestDecomposition:
    def test_eigenspace_grouping(self):
        assert isotypic_dims([build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])]) == [1, 2]

    def test_identity_single_component(self):
        gens = [Matrix.identity(3)]
        blocks = levi_blocks(gens)
        assert [b.dim for b in blocks] == [1, 1, 1]
        assert hom_dims(gens, blocks) == [[1, 1, 1]] * 3

    def test_swap_eigenlines(self):
        gens = [SWAP]
        blocks = levi_blocks(gens)
        assert [scalar_basis(b) for b in blocks] == [
            scalar_basis(from_vectors(2, [(1, -1)])),
            scalar_basis(from_vectors(2, [(1, 1)])),
        ]
        assert hom_dims(gens, blocks) == [[1, 0], [0, 1]]

    def test_not_semisimple(self):
        with pytest.raises(NotSemisimpleError):
            levi_blocks([J])

    def test_non_split_extension_is_refused(self):
        # upper triangular 2x2 matrices: the line e1 and the quotient are
        # non-isomorphic (E11 acts by 1 and 0), the extension does not split
        # and the commutant is the scalars, so only the radical shows it
        gens = [build([[2, 1], [0, 3]]), build([[1, 0], [0, 2]])]
        assert len(commutant(gens)) == 1
        with pytest.raises(NotSemisimpleError):
            levi_blocks(gens)

    def test_direct_sum_is_everything(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.choice([2, 3])
            while True:
                g = rand_matrix(rng, n)
                if radical_trace(spin_algebra([g])).dim == 0:
                    break
            blocks = levi_blocks([g])
            assert sum(b.dim for b in blocks) == n
            assert from_vectors(n, [v for b in blocks for v in scalar_basis(b)]).dim == n
            assert sum(isotypic_dims([g])) == n

    def test_invariant_complement(self):
        gens = [build([[2, 0], [0, 3]])]
        sub = from_vectors(2, [(1, 0)])
        comp = invariant_complement(commutant(gens), sub)
        assert comp == from_vectors(2, [(0, 1)])

    def test_a_complement_that_is_not_unique_is_the_one_of_the_full_solve(self):
        # diag(2, 2, 3) and the line (1, 1, 0) of the 2-eigenspace: every
        # line of that plane other than it completes it, so the projections
        # e = sum u_i E_i form a line, not a point; the one chosen is zero
        # at the free columns of the system in e's 9 entries
        gens = [build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])]
        sub = from_vectors(3, [(1, 1, 0)])
        other = from_vectors(3, [(1, 0, 0), (0, 0, 1)])
        assert all(contains(other, mul_vector(g, v)) for g in gens for v in scalar_basis(other))
        comp = invariant_complement(commutant(gens), sub)
        assert comp == from_vectors(3, [(0, 1, 0), (0, 0, 1)]) != other
        assert comp.to_json() == complement_reference(gens, sub).to_json()

    @settings(max_examples=30)
    @given(semisimple_modules())
    def test_invariant_complement_matches_the_completed_basis_route(self, case):
        # byte for byte, where the complement is not unique too: the solve
        # in the commutant's coordinates picks the n^2-unknown solve's one
        gens, sub = case
        comp = invariant_complement(commutant(gens), sub)
        assert comp.to_json() == complement_reference(gens, sub).to_json()
        assert comp.dim == sub.ambient_dim - sub.dim

    def test_module_homs_schur(self):
        a, b, c = (from_vectors(3, [v]) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        gens = [build([[2, 0, 0], [0, 2, 0], [0, 0, 3]])]

        def homs(x, y):
            return intertwiners([restrict_matrix(g, x) for g in gens],
                                [restrict_matrix(g, y) for g in gens], x.dim, y.dim, 1)
        assert homs(a, b)
        assert not homs(a, c)


def poly_product(polys, m):
    """The product of polynomials with Scalar coefficients, low -> high."""
    out = [Scalar.one(m)]
    for f in polys:
        prod = [zero(m)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] = prod[i + j] + x * y
        out = prod
    return out


@st.composite
def factor_products(draw, m):
    """A monic polynomial of degree at most 6 over Q(zeta_m): a product of
    random monic factors of degree 1 or 2, each taken once, twice, or times
    one of its Galois conjugates."""
    phi = euler_phi(m)
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    scalar = st.lists(coeff, min_size=phi, max_size=phi).map(lambda cs: from_coeffs(m, cs))
    units = [k for k in range(2, m) if gcd(k, m) == 1]
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        f = [draw(scalar) for _ in range(draw(st.integers(1, 2)))] + [Scalar.one(m)]
        kind = draw(st.sampled_from(["once", "twice", "with a conjugate"]))
        if kind == "twice":
            more = [f, f]
        elif kind == "with a conjugate" and units:
            k = draw(st.sampled_from(units))
            more = [f, [Scalar(m, power_numerators(m, c.num, k), c.den) for c in f]]
        else:
            more = [f]
        if sum(len(g) - 1 for g in factors + more) > 6:
            break
        factors += more
    return poly_product(factors, m)


class TestPolynomialTools:
    def test_minimal_polynomial(self):
        # the powers I, f, ..., f^(d-1) come back as the integer numerators
        # of (den f)^i, den the common denominator of f's entries
        coeffs, powers, den = minimal_polynomial(J)
        assert coeffs == build([[1, -2, 1]])
        assert (powers, den) == ([[1, 0, 0, 1], [1, 1, 0, 1]], 1)
        coeffs, powers, den = minimal_polynomial(build([[2, 0], [0, 2]]))
        assert coeffs == build([[-2, 1]])
        assert (powers, den) == ([[1, 0, 0, 1]], 1)
        half = build([[Fraction(1, 2), 1], [0, Fraction(1, 2)]])
        coeffs, powers, den = minimal_polynomial(half)   # (x - 1/2)^2
        assert coeffs == build([[Fraction(1, 4), -1, 1]])
        assert (powers, den) == ([[1, 0, 0, 1], [1, 2, 0, 1]], 2)

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([1, 4, 5]), data=st.data())
    def test_minimal_polynomial_kills_f_and_nothing_smaller(self, m, data):
        # mu(f) = 0, I, f, ..., f^(d-1) are independent (the echelon of
        # their entries has rank d), and powers[i] holds the numerators of
        # (den f)^i, on Matrix products as the reference
        n = data.draw(st.integers(1, 4))
        entry = st.builds(lambda c, j: Scalar.rational(c, m) * zeta(m, j),
                          st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                          st.integers(0, 3))
        f = build([[data.draw(entry) for _ in range(n)] for _ in range(n)], m)
        coeffs, powers, den = minimal_polynomial(f)
        assert coeffs.rows == 1 and coeffs.m == m
        d = coeffs.cols - 1
        mats = [Matrix.identity(n, m)]
        for _ in range(d):
            mats.append(mats[-1] @ f)
        total = Matrix.zero(n, n, m)
        for c, a in zip(entries(coeffs), mats):
            total = total + scale_reference(a, c)
        assert total.is_zero() and entries(coeffs)[-1] == 1
        assert from_vectors(n * n, [entries(a) for a in mats[:d]]).dim == d
        assert den == lcm(*(x.den for x in entries(f)))
        scaled = [a.scale(den ** i) for i, a in enumerate(mats[:d])]
        assert all(a.den == 1 for a in scaled) and powers == [a.nums for a in scaled]

    def test_factor_over_rationals(self):
        factors = factor_over_field(build([[-1, 0, 1]]), 1)
        assert factors == [(build([[-1, 1]]), 1), (build([[1, 1]]), 1)]

    def test_factor_over_gaussian(self, monkeypatch):
        # the norms of x^2 + 1 at s = 0 and 1, (x^2 + 1)^2 and x^2 (x^2 + 4),
        # fail the degree check; at s = 2 it is (x^2 + 1)(x^2 + 9)
        norms = []
        monkeypatch.setattr(wildcat.algebra, "factor_integer",
                            lambda f: norms.append(list(f)) or factor_integer(f))
        factors = factor_over_field(build([[1, 0, 1]], 4), 4)
        assert norms == [[1, 0, 2, 0, 1], [0, 0, 4, 0, 1], [9, 0, 10, 0, 1]]
        i = zeta(4)
        assert factors == [(build([[-i, 1]]), 1), (build([[i, 1]]), 1)]

    def test_factor_with_a_repeated_factor_and_its_conjugate(self):
        # (x - zeta5)^2 (x - zeta5^4): zeta5^4 is a Galois conjugate of zeta5
        z, z4 = zeta(5), zeta(5, 4)
        p = build([poly_product([[-z, 1], [-z, 1], [-z4, 1]], 5)])
        assert factor_over_field(p, 5) == [(build([[-z, 1]]), 2), (build([[-z4, 1]]), 1)]

    @pytest.mark.parametrize("m", [1, 4, 3, 5, 8])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_factor_over_field_matches_the_sympy_reference(self, m, data):
        # the factors, rows over the field, are sympy's and those of the
        # Scalar route, canonical matrices compared whole, and multiply
        # back to the polynomial
        p = data.draw(factor_products(m))
        factors = factor_over_field(build([p], m), m)
        assert factors == factor_over_field_reference(build([p], m), m) == \
            factor_over_field_scalar(build([p], m), m)
        assert all(fc.rows == 1 and fc.m == m and entries(fc)[-1] == 1 for fc, _ in factors)
        assert poly_product([list(entries(fc)) for fc, e in factors for _ in range(e)], m) == p

    def test_commutant_of_irreducible_is_scalars(self):
        assert len(commutant([SWAP, DIAG])) == 1

    def test_restrict_matrix(self):
        g = build([[2, 0], [0, 3]])
        sub = from_vectors(2, [(0, 1)])
        r = restrict_matrix(g, sub)
        assert r == build([[3]])

    def test_restrict_matrix_refuses_a_subspace_that_is_not_invariant(self):
        with pytest.raises(ValueError):
            restrict_matrix(SWAP, from_vectors(2, [(0, 1)]))
        # the pivot read alone would accept it: g B read at the pivot is 1
        with pytest.raises(ValueError):
            restrict_matrix(build([[1, 0], [1, 1]]), from_vectors(2, [(1, 0)]))

    @settings(max_examples=30)
    @given(semisimple_modules())
    def test_restrict_matrix_matches_the_solve_route(self, case):
        # R read at the pivots is the one solution of B R = g B
        gens, sub = case
        for s in (sub, invariant_complement(commutant(gens), sub)):
            cols = build(scalar_basis(s)).transpose()
            assert kernel(cols).dim == 0
            for g in gens:
                assert restrict_matrix(g, s) == linear_solve(cols, g @ cols)
