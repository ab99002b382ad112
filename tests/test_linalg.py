import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcat.engine import FramedPoint
from wildcat.linalg import (
    Grading,
    Matrix,
    Subspace,
    _EchelonSet,
    _eliminate,
    _matrix,
    kernel,
    linear_solve,
    sandwich_rows,
)
from wildcat.scalars import Scalar, euler_phi

from oracles import (
    FractionScalar,
    ScalarEchelon,
    build,
    coeffs,
    col,
    contains,
    coordinates,
    entries,
    from_coeffs,
    from_entries,
    from_pieces,
    from_vectors,
    intersection,
    inverse_reference,
    kernel_reference,
    left_action,
    left_product,
    linear_solve_reference,
    matmul_reference,
    matrix_from_json_reference,
    mul_vector,
    pieces_of,
    place_reference,
    plain,
    sandwich_rows_reference,
    scalar_basis,
    scalar_entry,
    scalar_row,
    scalar_to_json,
    scale_reference,
    sum_reference,
    transpose_reference,
    weight_projectors,
    zero,
    zeta,
)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return build([[Fraction(rng.randint(lo, hi), rng.randint(1, 2))
                          for _ in range(cols)] for _ in range(rows)])


def assert_canonical(a: Matrix):
    """The one storage: phi(m) integer numerators per entry over a positive
    denominator with no common factor, so equal matrices store equal numbers."""
    assert len(a.nums) == a.rows * a.cols * euler_phi(a.m)
    assert all(type(x) is int for x in a.nums) and type(a.den) is int
    assert a.den > 0 and gcd(a.den, *a.nums) == 1


class TestLinearSolve:
    def test_identity_case(self):
        assert linear_solve(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(2)
        assert kernel(Matrix.identity(2)).dim == 0

    def test_nilpotent_kernel(self):
        a = build([[0, 1], [0, 0]])
        assert linear_solve(a, Matrix.zero(2, 1)) == Matrix.zero(2, 1)
        assert kernel(a) == from_vectors(2, [(1, 0)])

    def test_rank_one_system(self):
        a = build([[1, 1], [1, 1]])
        part = linear_solve(a, build([[2], [2]]))
        assert part is not None
        assert a @ part == build([[2], [2]])
        assert kernel(a) == from_vectors(2, [(1, -1)])

    def test_inconsistent(self):
        a = build([[1, 1], [1, 1]])
        assert linear_solve(a, build([[1], [2]])) is None and kernel(a).dim == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_solve(Matrix.identity(2), Matrix.zero(3, 1))

    def test_random_consistency(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            a = rand_matrix(rng, n, n)
            x = rand_matrix(rng, n, 1)
            part = linear_solve(a, a @ x)
            assert part is not None and a @ part == a @ x
            for v in scalar_basis(kernel(a)):
                assert all(y.is_zero() for y in mul_vector(a, v))


def echelon(a: Matrix) -> _EchelonSet:
    return Subspace.span(a)._echelon


def scalar_rows(ech: _EchelonSet) -> list:
    """The reduced echelon rows as lists of Scalars."""
    return [list(row) for row in scalar_basis(Subspace(ech))]


def eigenvalue(x: Matrix, v: tuple):
    """c with x v = c v, or None when v is no eigenvector of x."""
    i = next(i for i, y in enumerate(v) if y)
    c = mul_vector(x, v)[i] / v[i]
    return c if mul_vector(x, v) == tuple(y * c for y in v) else None


def projectors(g: Grading) -> list:
    """The spectral projectors of the weight operator, one per piece, by
    Lagrange interpolation at the eigenvalues on the pieces."""
    x = g.weight_operator()
    ident = Matrix.identity(g.ambient_dim, x.m)
    values = [eigenvalue(x, basis[0]) for _, basis in pieces_of(g)]
    out = []
    for i, e in enumerate(values):
        p = ident
        for j, f in enumerate(values):
            if j != i:
                p = p @ scale_reference(x - scale_reference(ident, f), (e - f).inverse())
        out.append(p)
    return out


class TestRref:
    def test_identity(self):
        ech = echelon(Matrix.identity(3))
        assert ech.matrix(0, 3) == Matrix.identity(3) and ech.pivots == [0, 1, 2]

    def test_zero(self):
        ech = echelon(Matrix.zero(2, 2))
        assert scalar_rows(ech) == [] and ech.pivots == [] and ech.dim == 0

    def test_rank_one(self):
        ech = echelon(build([[2, 4], [1, 2]]))
        assert ech.matrix(0, 2) == build([[1, 2]]) and ech.pivots == [0]

    def test_idempotence_randomized(self):
        rng = random.Random(9)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            r1 = echelon(a)
            r2 = echelon(r1.matrix(0, a.cols))
            rows = scalar_rows(r1)
            assert (scalar_rows(r2), r2.pivots) == (rows, r1.pivots)
            assert all(row[p] == 1 and all(not other[p] for other in rows if other is not row)
                       for row, p in zip(rows, r1.pivots))


@st.composite
def echelon_inputs(draw):
    """Rows of width 1-5 over Q, Q(zeta3), Q(i) or Q(zeta5) with assorted
    denominators (small ones, or up to about 10^12 with shared and coprime
    factors), zero rows and combinations of earlier rows, in shuffled order,
    and probe vectors: fresh, in the span, or zero."""
    m = draw(st.sampled_from([1, 3, 4, 5]))
    width = draw(st.integers(1, 5))
    coeff = st.one_of(
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6])),
        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.sampled_from([7, 2 ** 20, 3 ** 12, 10 ** 12 + 39, 6 * 10 ** 9 + 7])))
    scalar = st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)).map(
        lambda cs: from_coeffs(m, cs))
    vector = st.lists(st.one_of(st.just(zero(m)), scalar), min_size=width,
                      max_size=width)
    base = draw(st.lists(vector, max_size=4))

    def combination():
        out = [zero(m)] * width
        for row in base:
            c = draw(scalar)
            out = [x + c * y for x, y in zip(out, row)]
        return out

    rows = base + [combination() for _ in range(draw(st.integers(0, 2)))]
    rows += [[zero(m)] * width] * draw(st.integers(0, 1))
    probes = [draw(vector), combination(), [zero(m)] * width]
    return width, draw(st.permutations(rows)), probes


@settings(max_examples=120)
@given(echelon_inputs())
def test_integer_echelon_matches_the_scalar_reference(case):
    width, rows, probes = case
    m = probes[0][0].m
    ech, ref = _EchelonSet(width, m), ScalarEchelon(width)
    for row in rows:
        assert (ech.insert(build([row], m).nums) is not None) == ref.add(row)
    assert (scalar_rows(ech), ech.pivots, ech.dim) == (ref.rows, ref.pivots, ref.dim)
    sub = Subspace(ech)
    for vec in probes:
        res, coords = ref.reduce(vec)
        assert coordinates(sub, vec) == (None if any(res) else tuple(coords))
        assert contains(sub, vec) == ref.contains(vec)
    # each integer row is canonical: a positive denominator with no common
    # factor, numerators (den, 0, ..., 0) at its pivot and zeros at the others
    phi = len(ech._nums[0]) // width if ech.dim else 1
    for nums, den, piv in zip(ech._nums, ech._dens, ech.pivots):
        assert den > 0 and gcd(den, *nums) == 1
        assert nums[piv * phi:(piv + 1) * phi] == [den] + [0] * (phi - 1)
        assert not any(any(nums[p * phi:(p + 1) * phi]) for p in ech.pivots if p != piv)


@settings(max_examples=120)
@given(echelon_inputs(), st.data())
def test_kernel_solve_and_inverse_match_the_scalar_reference(case, data):
    width, rows, probes = case
    if rows:
        m = rows[0][0].m
        a = build(rows, m)
        assert_canonical(a)
        ker = kernel(a)
        assert scalar_basis(ker) == tuple(map(tuple, kernel_reference(rows, width, m)))
        assert_canonical(ker.matrix)
        # a consistent right-hand side, and a unit vector, consistent only
        # when the last row is independent of the others
        unit = [zero(m)] * (a.rows - 1) + [Scalar.one(m)]
        b = build([mul_vector(a, probes[0]), unit], m).transpose()
        for rhs in (b, build([col(b, 0)], m).transpose()):
            ref_part, ref_ker = linear_solve_reference(a, rhs)
            part = linear_solve(a, rhs)
            assert part == ref_part
            if part is not None:
                assert_canonical(part)
            assert scalar_basis(kernel(a)) == tuple(map(tuple, ref_ker))
        # the intersection with the probes' span: inside both, of the dimension
        # dim U + dim W - dim (U + W)
        inter = intersection(from_vectors(width, rows),
                             from_vectors(width, probes))
        u, w = ScalarEchelon(width, rows), ScalarEchelon(width, probes)
        assert inter.dim == u.dim + w.dim - ScalarEchelon(width, rows + probes).dim
        assert all(u.contains(v) and w.contains(v) for v in scalar_basis(inter))
    # square matrices: the rows with a fresh vector on top, and random n x n
    n = data.draw(st.integers(1, 4))
    m = probes[0][0].m
    squares = [data.draw(matrices(m, n, n)),
               build((probes[:1] + rows + probes * 2)[:width], m)]
    for sq in squares:
        try:
            inv = inverse_reference(sq)
        except ValueError:
            with pytest.raises(ValueError):
                sq.inverse()
            continue
        assert sq.inverse() == inv
        assert_canonical(sq.inverse())


@st.composite
def gradings(draw):
    """A grading of K^n, n in 1..4, into 1..n pieces behind a random basis,
    with distinct weights in Z^k, k = 1 or 2, negative ones included."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2))
    pieces = draw(st.integers(1, n))
    weights = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k),
                            min_size=pieces, max_size=pieces, unique=True))

    def unit_triangular(lower):
        return build([[1 if i == j else draw(st.integers(-2, 2)) if (i > j) == lower else 0
                              for j in range(n)] for i in range(n)])
    b = unit_triangular(True) @ unit_triangular(False)  # invertible
    bounds = [0] + sorted(draw(st.permutations(range(1, n)))[:pieces - 1]) + [n]
    return from_pieces(n, [(w, [scalar_row(b, r) for r in range(bounds[i], bounds[i + 1])])
                       for i, w in enumerate(weights)])


@settings(max_examples=40)
@given(gradings())
def test_weight_operator_has_each_piece_as_an_eigenspace(g):
    # eigenvalue <lambda, u> on piece u, lambda = (1, s, s^2, ...) with
    # s = 2 max|u_i| + 1; the linear extension u -> <lambda, u> is
    # injective on the weights and their negatives
    x = g.weight_operator()
    s = 2 * max(abs(c) for w, _ in pieces_of(g) for c in w) + 1
    value = {}
    for w, basis in pieces_of(g):
        inner = sum(c * s ** i for i, c in enumerate(w))
        assert all(eigenvalue(x, v) == inner for v in basis)
        for u, e in ((w, inner), (tuple(-c for c in w), -inner)):
            assert value.setdefault(u, e) == e
    assert len(set(value.values())) == len(value)


class TestWeightProjectors:
    @pytest.mark.parametrize("weights, sizes", [
        ([(0,), (1,)], [1]),      # two weights, one piece
        ([(0,), (1,)], [1, 2]),   # pieces of total dimension 3 in K^2
        ([(0,), (1,)], [2, 0]),   # an empty piece
    ])
    def test_inconsistent_pieces_are_refused(self, weights, sizes):
        with pytest.raises(ValueError, match="grading"):
            Grading(weights, sizes, Matrix.identity(2))

    def test_coordinate_grading(self):
        g = from_pieces(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = projectors(g)
        assert p[0] == build([[1, 0], [0, 0]])
        assert p[1] == build([[0, 0], [0, 1]])

    def test_single_piece(self):
        g = Grading.trivial(3)
        assert projectors(g) == [Matrix.identity(3)]

    def test_diagonal_lines(self):
        g = from_pieces(2, [((1,), [(1, 1)]), ((-1,), [(1, -1)])])
        p = projectors(g)
        half = Fraction(1, 2)
        assert p[0] == build([[half, half], [half, half]])
        assert p[1] == build([[half, -half], [-half, half]])

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
                rows = [scalar_row(b, k) for k in range(bounds[i], bounds[i + 1])]
                pieces.append(((i,), rows))
            g = from_pieces(n, pieces)
            projs = projectors(g)
            total = Matrix.zero(n, n)
            for i, p in enumerate(projs):
                assert p @ p == p
                total = total + p
                for j, q in enumerate(projs):
                    if i != j:
                        assert (p @ q).is_zero()
            assert total == Matrix.identity(n)
            assert projs == weight_projectors(g)

    def test_grading_validation(self):
        with pytest.raises(ValueError):
            from_pieces(2, [((1,), [(1, 0)]), ((1,), [(0, 1)])])  # repeated weight
        with pytest.raises(ValueError):
            from_pieces(2, [((1,), [(1, 0)]), ((2,), [(1, 0)])])  # not independent
        with pytest.raises(ValueError):
            from_pieces(2, [((1,), [(1, 0)])])  # not spanning


class TestSubspace:
    @settings(max_examples=60)
    @given(st.data())
    def test_canonical_equality(self, data):
        a = from_vectors(3, [(1, 1, 0), (0, 1, 1)])
        b = from_vectors(3, [(1, 2, 1), (2, 3, 1)])
        assert a == b
        # drawn: the build -> entries round trip gives the canonical Scalars
        # back, and a span is stored as the same numbers whatever multiples
        # and combinations of its rows it is given
        m = data.draw(st.sampled_from([1, 2, 4, 5]))
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        x = data.draw(matrices(m, rows, cols))
        assert_canonical(x)
        assert x.to_json() == [[scalar_to_json(e) for e in scalar_row(x, i)] for i in range(rows)]
        drawn = [data.draw(scalars(m)) for _ in range(rows * cols)]
        built = from_entries(rows, cols, drawn, m)
        assert_canonical(built)
        assert [(e.m, e.num, e.den) for e in entries(built)] == \
            [(e.m, e.num, e.den) for e in drawn]
        assert from_entries(rows, cols, entries(built), m) == built
        assert Matrix.from_json(built.to_json(), m) == built
        assert (built == x) == (entries(built) == entries(x))
        c = data.draw(scalars(m).filter(bool))
        first, last = scalar_row(x, 0), scalar_row(x, rows - 1)
        mixed = [[c * e for e in first]] + [list(scalar_row(x, i)) for i in range(1, rows)] + \
            [[e + f for e, f in zip(first, last)]]
        span, again = Subspace.span(x), from_vectors(cols, mixed)
        assert span == again and scalar_basis(span) == scalar_basis(again)
        assert span._echelon.reduced_rows() == again._echelon.reduced_rows()
        assert_canonical(span.matrix)

    def test_contains_and_coordinates(self):
        s = from_vectors(3, [(1, 0, 1), (0, 1, 1)])
        one, nil = Scalar.one(), zero()
        assert contains(s, (one, one, one + one))
        assert not contains(s, (one, nil, nil))
        coords = coordinates(s, (one, one, one + one))
        assert coords == (one, one)

    def test_from_json_reads_what_it_is_given(self):
        assert Subspace.from_json({"ambient_dim": 3, "basis": []}, 5) == Subspace.zero(3, 5)
        read = Subspace.from_json({"ambient_dim": 3, "basis": [["1", "0", "1/2"]]}, 1)
        assert read == from_vectors(3, [(1, 0, Fraction(1, 2))])
        with pytest.raises(ValueError, match="length 5"):
            Subspace.from_json({"ambient_dim": 5, "basis": [["1", "0", "0"]]}, 1)
        with pytest.raises(ValueError, match="ragged"):
            Subspace.from_json({"ambient_dim": 2, "basis": [["1", "0"], ["0", "1", "0"]]}, 1)

    def test_from_json_refuses_dependent_rows(self):
        with pytest.raises(ValueError, match="2 independent"):
            Subspace.from_json({"ambient_dim": 3, "basis": [["1", "0", "0"], ["2", "0", "0"]]}, 1)
        with pytest.raises(ValueError, match="1 independent"):
            Subspace.from_json({"ambient_dim": 2, "basis": [["0", "0"]]}, 1)

    def test_from_json_refuses_a_basis_it_would_not_write(self):
        # independent rows that are not their span's reduced echelon basis
        # would write back as that basis, another certificate
        for rows in ([["2", "0"], ["1", "1"]], [["0", "1"], ["1", "0"]], [["1", "1"], ["0", "1"]],
                     [["2", "4"]]):
            with pytest.raises(ValueError, match="independent echelon rows"):
                Subspace.from_json({"ambient_dim": 2, "basis": rows}, 1)
        for rows, m in (([["1", "0"], ["0", "1"]], 1), ([["1", "1/2"]], 1),
                        ([[["1", "0", "0", "0"], ["0", "1/3", "0", "0"]]], 5)):
            data = {"ambient_dim": 2, "basis": rows}
            assert Subspace.from_json(data, m).to_json() == data

    def test_sum_intersection(self):
        a = from_vectors(3, [(1, 0, 0)])
        b = from_vectors(3, [(0, 1, 0)])
        assert from_vectors(3, scalar_basis(a) + scalar_basis(b)).dim == 2
        assert intersection(a, b).dim == 0
        c = from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        d = from_vectors(3, [(1, 1, 0), (0, 0, 1)])
        inter = intersection(c, d)
        assert inter == from_vectors(3, [(1, 1, 0)])

    def test_kernel(self):
        k = kernel(build([[1, 2, 3]]))
        assert k.dim == 2
        for v in scalar_basis(k):
            assert all(x.is_zero() for x in mul_vector(build([[1, 2, 3]]), v))


@settings(max_examples=80)
@given(st.data())
def test_matrix_text_round_trip(data):
    # the one writer and the one reader: entries over Q(zeta2) are lists of
    # one text, and a matrix of no rows is written [], which reads as 0 x 0;
    # a Subspace keeps the width of a span of no rows in its ambient_dim
    m = data.draw(st.sampled_from([1, 2, 4, 5, 12]))
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    a = data.draw(matrices(m, rows, cols))
    text = a.to_json()
    assert text == [[scalar_to_json(e) for e in scalar_row(a, i)] for i in range(rows)]
    if m == 2:
        assert all(isinstance(x, list) and len(x) == 1 for row in text for x in row)
    back = Matrix.from_json(text, m)
    assert_canonical(back)
    if rows:
        assert back == a == matrix_from_json_reference(text, m)
    else:
        assert text == [] and back == Matrix.zero(0, 0, m)
    span = Subspace.span(a)
    assert Subspace.from_json(span.to_json(), m) == span


class TestMatrix:
    def test_inverse(self):
        a = build([[1, 1], [0, 1]])
        assert a @ a.inverse() == Matrix.identity(2)
        with pytest.raises(ValueError):
            build([[1, 1], [1, 1]]).inverse()

    def test_cyclotomic_entries(self):
        z = zeta(4)
        a = build([[z, 0], [0, z]], 4)
        assert a @ a == Matrix.identity(2, 4).scale(-1)

    def test_one_field_per_matrix(self):
        z5 = zeta(5)
        a = build([[1, z5], [0, 1]])
        assert a.m == 5 and all(x.m == 5 for x in entries(a))
        assert Matrix.from_json(a.to_json(), 5) == a
        with pytest.raises(ValueError):
            Matrix.from_json(a.to_json(), 1)  # no silent reduction of zeta_5 to 1
        with pytest.raises(ValueError):
            build([[Scalar.one(1), z5]])
        with pytest.raises(ValueError):
            build([[z5]], 1)
        # a product, a sum, a block or a point that mixes two conductors
        # raises, naming both
        q = Matrix.identity(2)
        for mix in (lambda: a @ q, lambda: q @ a, lambda: a + q, lambda: q - a,
                    lambda: q.place(0, 0, build([[z5]])),
                    lambda: linear_solve(q, a),
                    lambda: FramedPoint(2, [Grading.trivial(2)], [], [plain(a)]),
                    lambda: FramedPoint(2, [Grading.trivial(2, 5), Grading.trivial(2)], [a], [])):
            with pytest.raises(ValueError, match=r"\[1, 5\]"):
                mix()

    @settings(max_examples=60)
    @given(st.data())
    def test_place_writes_a_copy(self, data):
        a = build([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        b = a.place(1, 0, build([[-1, -2]]))
        assert b == build([[1, 2, 3], [-1, -2, 6], [7, 8, 9]])
        assert a == build([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert a.place(0, 1, build([[0, 0], [0, 0], [0, 0]])) == \
            build([[1, 0, 0], [4, 0, 0], [7, 0, 0]])
        with pytest.raises(ValueError):
            a.place(2, 2, Matrix.identity(2))  # does not fit
        with pytest.raises(ValueError):
            a.place(0, 0, Matrix.identity(1, 5))  # another field
        # drawn: a block over unlike denominators, read back by submatrix,
        # the matrix it is written into unchanged, a zero block dropping the
        # denominator it carried
        m = data.draw(st.sampled_from([1, 4, 5]))
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        x = data.draw(matrices(m, rows, cols))
        h, w = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
        block = data.draw(matrices(m, h, w))
        r, c = data.draw(st.integers(0, rows - h)), data.draw(st.integers(0, cols - w))
        before = (x.nums[:], x.den)
        placed = x.place(r, c, block)
        assert placed == place_reference(x, r, c, block)
        assert (x.nums, x.den) == before
        assert_canonical(placed)
        assert placed.submatrix(range(r, r + h), c, c + w) == block
        assert x.place(r, c, Matrix.zero(h, w, m)) == \
            place_reference(x, r, c, Matrix.zero(h, w, m))


def scalars(m):
    """Zero, or small numerators over assorted denominators, so that the rows
    and columns of a matrix have mixed lcms."""
    phi = euler_phi(m)
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5, 12]))
    coeffs = st.lists(coeff, min_size=phi, max_size=phi)
    return st.one_of(st.just(zero(m)), coeffs.map(lambda cs: from_coeffs(m, cs)))


@st.composite
def matrices(draw, m, rows, cols):
    """rows x cols matrices of ``scalars``, now and then with zero rows."""
    entries = draw(st.lists(scalars(m), min_size=rows * cols, max_size=rows * cols))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)) if rows else ():
        entries[i * cols:(i + 1) * cols] = [zero(m)] * cols
    return from_entries(rows, cols, entries, m)


@settings(max_examples=40)
@given(st.data())
def test_sandwich_rows_match_products(data):
    # one-sided square terms, L X, L X^T and X R: each coefficient is an
    # entry of the factor, placed over the lcm of the denominators
    m = data.draw(st.sampled_from([1, 4, 5]))
    n = data.draw(st.integers(1, 4))
    x = data.draw(matrices(m, n, n))
    terms = []
    total = Matrix.zero(n, n, m)
    for _ in range(data.draw(st.integers(1, 3))):
        on_left = data.draw(st.booleans())
        transposed = on_left and data.draw(st.booleans())
        factor = data.draw(matrices(m, n, n))
        inner = x.transpose() if transposed else x
        terms.append((factor, None, transposed) if on_left else (None, factor, transposed))
        total = total + (factor @ inner if on_left else inner @ factor)
    coeffs = sandwich_rows(terms)
    assert_canonical(coeffs)
    assert (coeffs.rows, coeffs.cols, coeffs.m) == (n * n, n * n, m)
    # the coefficient rows are the Scalar rows, entry by entry
    assert [list(scalar_row(coeffs, i)) for i in range(coeffs.rows)] == \
        sandwich_rows_reference(terms, n, n, m)
    assert coeffs @ x.reshape(n * n, 1) == total.reshape(n * n, 1)


I2 = Matrix.identity(2)


@pytest.mark.parametrize("terms, message", [
    ([], "exactly one factor"),
    ([(None, None, False)], "exactly one factor"),
    ([(I2, I2, False)], "exactly one factor"),
    ([(None, I2, True)], "exactly one factor"),   # X^T R
    *(([(I2, None, False), (None, other, False)], "differ in shape or field")
      for other in (Matrix.identity(3), Matrix.identity(2, 5), Matrix.zero(2, 3))),
])
def test_sandwich_rows_take_one_sided_square_terms_of_one_field(terms, message):
    with pytest.raises(ValueError, match=message):
        sandwich_rows(terms)


@settings(max_examples=60)
@given(st.data())
def test_integer_product_matches_the_scalar_reference(data):
    m = data.draw(st.sampled_from([1, 3, 4, 5, 8]))
    n, k, p = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(matrices(m, n, k))
    b = data.draw(matrices(m, k, p))
    if n == k and data.draw(st.booleans()):
        a = Matrix.identity(n, m)  # an identity factor
    prod = a @ b
    ref = matmul_reference(a, b)
    assert (prod.rows, prod.cols) == (ref.rows, ref.cols) == (n, p)
    # the same canonical Scalars, so the same printed bytes, empty shapes included
    assert [(x.m, x.num, x.den) for x in entries(prod)] == \
        [(x.m, x.num, x.den) for x in entries(ref)]
    assert repr(prod) == repr(ref) and prod.to_json() == ref.to_json()
    assert prod == ref
    # the table-based left product, made canonical, is the same matrix
    assert _matrix(n, p, m, left_product(left_action(a), b.nums, p, euler_phi(m)),
                   a.den * b.den) == prod
    # the other operations the storage implements, each against its
    # Scalar-entry reference, each result canonical
    c = data.draw(matrices(m, n, k))
    for got, want in ((a + c, sum_reference(a, c)), (a - c, sum_reference(a, c, -1)),
                      (-a, scale_reference(a, -1)), (a.scale(3), scale_reference(a, 3)),
                      (a.scale(Fraction(-2, 9)), scale_reference(a, Fraction(-2, 9))),
                      (a.transpose(), transpose_reference(a)), (prod, ref)):
        assert got == want and entries(got) == entries(want)
        assert_canonical(got)
    assert (a == c) == (entries(a) == entries(c) and (n, k) == (c.rows, c.cols))
    if k and n and p:
        other = next(f for f in (1, 5) if f != m)
        foreign = build([[Scalar.one(other)] * p] * k, other)
        with pytest.raises(ValueError):
            build([[Scalar.one(m)] * k] * n, m) @ foreign


@pytest.mark.parametrize("m", [1, 3, 5])
def test_zero_width_products(m):
    # a 1 x 0 factor has one row and no numerators: 1 x 0 times 0 x 1 is the
    # 1 x 1 zero, and 0 x 1 times 1 x 0 the 0 x 0 matrix
    row, col = Matrix.zero(1, 0, m), Matrix.zero(0, 1, m)
    for a, b in ((row, col), (col, row), (Matrix.zero(2, 0, m), Matrix.zero(0, 3, m))):
        prod, ref = a @ b, matmul_reference(a, b)
        assert prod == ref and (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod.nums == [0] * (a.rows * b.cols * euler_phi(m))


@st.composite
def near_identities(draw):
    """Matrices that are identities, or nearly: a square or non-square
    identity pattern (the empty one included) with at most one entry
    replaced, by a drawn Scalar or by a diagonal value that is almost 1,
    and now and then scaled by a drawn Scalar, which makes near-scalar
    matrices."""
    m = draw(st.sampled_from([1, 5]))
    rows = draw(st.integers(0, 4))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 4))
    one, nil = Scalar.one(m), zero(m)
    entries = [one if i == j else nil for i in range(rows) for j in range(cols)]
    if entries and draw(st.booleans()):
        k = draw(st.integers(0, len(entries) - 1))
        near_one = [Scalar.rational(-1, m), Scalar.rational(Fraction(1, 2), m), one]
        if m == 5:  # numerators (1, 1, 0, 0) over 1: rational part 1, not rational
            near_one.append(one + zeta(5))
        entries[k] = draw(st.one_of(scalars(m), st.sampled_from(near_one)))
    if draw(st.booleans()):
        c = draw(scalars(m))
        entries = [c * x for x in entries]
    return from_entries(rows, cols, entries, m), m


@settings(max_examples=120)
@given(near_identities())
def test_is_identity_agrees_with_equality_to_the_identity(case):
    a, m = case
    assert a.is_identity() == (a == Matrix.identity(a.rows, m))
    # and a scalar matrix is its first entry times the identity
    if a.rows and a.cols:
        assert a.is_scalar() == \
            (a == scale_reference(Matrix.identity(a.rows, m), scalar_entry(a, 0, 0)))


def test_is_identity_cases():
    z5 = zeta(5)
    assert Matrix.identity(0).is_identity() and Matrix.zero(0, 0).is_identity()
    assert not Matrix.zero(0, 2).is_identity() and not Matrix.zero(2, 0).is_identity()
    assert Matrix.identity(3, 5).is_identity()
    assert not build([[1, 0, 0], [0, 1, 0]]).is_identity()
    assert not build([[1, 0], [0, -1]]).is_identity()
    assert not build([[1, 0], [0, Fraction(1, 2)]]).is_identity()
    assert not build([[1, 0], [0, 1 + z5]]).is_identity()
    assert not build([[1, z5], [0, 1]]).is_identity()


@settings(max_examples=60)
@given(st.data())
def test_identity_factor_returns_the_other_factor(data):
    m = data.draw(st.sampled_from([1, 3, 4, 5, 8]))
    n, p = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    x = data.draw(matrices(m, n, p))
    y = data.draw(matrices(m, p, n))
    ident = Matrix.identity(n, m)
    for prod, ref in ((ident @ x, matmul_reference(ident, x)),
                      (y @ ident, matmul_reference(y, ident))):
        assert [(e.m, e.num, e.den) for e in entries(prod)] == \
            [(e.m, e.num, e.den) for e in entries(ref)]
        assert (prod.rows, prod.cols) == (ref.rows, ref.cols)
    if p:
        assert ident @ x is x and y @ ident is (ident if y.is_identity() else y)
        other = next(f for f in (1, 5) if f != m)
        with pytest.raises(ValueError):
            Matrix.identity(n, other) @ x
        with pytest.raises(ValueError):
            y @ Matrix.identity(n, other)


def test_identity_is_shared_and_place_leaves_it_unchanged():
    for m in (1, 5):
        ident = Matrix.identity(3, m)
        assert Matrix.identity(3, m) is ident
        placed = ident.place(0, 1, build([[7, 8], [9, 10]], m))
        assert placed == build([[1, 7, 8], [0, 9, 10], [0, 0, 1]], m)
        assert Matrix.identity(3, m) is ident and ident.is_identity()
        assert [(e.num, e.den) for e in entries(ident)] == \
            [((int(i == j),) + (0,) * (euler_phi(m) - 1), 1) for i in range(3) for j in range(3)]


class TestEliminationStep:
    # the pivot row (0, 1, 3/2) over Q: numerators (0, 2, 3) over 2
    ROW, DR = [0, 2, 3], 2

    def test_an_unscaled_step_keeps_the_prefix_and_denominator_and_takes_no_gcd(self):
        # (5, 4, 6)/3 less 2 (0, 1, 3/2): f = 4 is a multiple of dr = 2, so d = 1;
        # the result (5, 0, 0)/3 comes back with v's prefix, as is
        v = [5, 4, 6]
        out, dv = _eliminate(v, 3, self.ROW, self.DR, 1, 1, 1)
        assert (out, dv) == ([5, 0, 0], 3) and out[:1] == v[:1]
        # with content: (6, 4, 12)/3 = (2, 4/3, 4) gives (6, 0, 6)/3, content 3 left
        assert _eliminate([6, 4, 12], 3, self.ROW, self.DR, 1, 1, 1) == ([6, 0, 6], 3)

    def test_a_scaled_step_returns_a_content_free_row(self):
        # (4, 3, 1)/2 less 3/2 (0, 1, 3/2): d = 2, giving (8, 0, -7)/4, content 1
        out, dv = _eliminate([4, 3, 1], 2, self.ROW, self.DR, 1, 1, 1)
        assert (out, dv) == ([8, 0, -7], 4) and gcd(dv, *out) == 1
        # (2, 1, 1) less (0, 1, 3/2), v over 3: d = 2, (12, 0, -3)/6 less its content 3
        assert _eliminate([6, 3, 3], 3, self.ROW, self.DR, 1, 1, 1) == ([4, 0, -1], 2)

    def test_the_rule_holds_over_a_cyclotomic_field(self):
        # over Q(i), phi = 2: the pivot row (1, 1 + i) is (1, 0, 1, 1) over 1;
        # v = (i, 2) = (0, 1, 2, 0) over 1 has f = i, d = 1: v - i row = (0, 2 - i + 1)
        out, dv = _eliminate([0, 1, 2, 0], 1, [1, 0, 1, 1], 1, 0, 2, 4)
        assert dv == 1 and out == [0, 0, 3, -1]
        # v = (i/2, 1) = (0, 1, 2, 0) over 2 against the row (1, i/3) = (3, 0, 0, 1)
        # over 3: f = i, gcd(3, 0, 1) = 1, d = 3, and v - (i/2) row = (0, 7/6)
        assert _eliminate([0, 1, 2, 0], 2, [3, 0, 0, 1], 3, 0, 2, 4) == ([0, 0, 7, 0], 6)


@settings(max_examples=100)
@given(st.sampled_from([1, 3, 4, 5, 12]), st.data())
def test_matrix_text_is_the_scalar_route_repr_entry_by_entry(m, data):
    # the text views print each entry's numerators over the matrix's one
    # denominator (scalars.entry_text); each entry's text is the repr of
    # its canonical Scalar and of the Fraction-coefficient reference
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = data.draw(matrices(m, rows, cols))
    for i in range(rows):
        want = tuple(repr(FractionScalar(m, coeffs(x))) for x in scalar_row(a, i))
        assert a.row(i) == want == tuple(repr(x) for x in scalar_row(a, i))
        assert [a[i, j] for j in range(cols)] == list(want)
    assert repr(a) == "Matrix(" + "; ".join(
        "[" + ", ".join(repr(x) for x in scalar_row(a, i)) + "]" for i in range(rows)) + ")"
    span = Subspace.span(a)
    assert span.basis == tuple(tuple(repr(x) for x in row) for row in scalar_basis(span))
