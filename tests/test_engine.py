import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcat.algebra import invariant_subspace, radical_trace, spin_algebra
from wildcat.engine import (
    FramedPoint,
    NotPolystable,
    TwistedInput,
    act,
    galois_generators,
    is_polystable,
    is_stable,
    kernel_lie_dim,
    levi_reduction,
    normalize_point,
    restrict_point,
    stabilizer_lie_dim,
)
from wildcat.linalg import Grading, Matrix, Subspace
from wildcat.twists import Automorphism, TwistedElement

from oracles import radical_oracle, stabilizer_lie_dim_commutant

J = Matrix.build([[1, 1], [0, 1]])
SWAP = Matrix.build([[0, 1], [1, 0]])
DIAG = Matrix.build([[1, 0], [0, -1]])


def simple_point(loops, n=2, gradings=None, connectors=None):
    return FramedPoint(n, gradings if gradings is not None else [Grading.trivial(n)],
                       connectors or [], loops)


def coordinate_grading(n):
    ident = Matrix.identity(n)
    return Grading(n, [((i,), [ident.row(i)]) for i in range(n)])


def rand_invertible(rng, n, lo=-2, hi=2):
    while True:
        m = Matrix.build([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def rand_block_diag(rng, sizes):
    n = sum(sizes)
    out = [[0] * n for _ in range(n)]
    start = 0
    for s in sizes:
        b = rand_invertible(rng, s)
        for r in range(s):
            for c in range(s):
                out[start + r][start + c] = b[r, c].as_fraction()
        start += s
    return Matrix.build(out)


def rand_point(rng, n=2, twisted=True, m2=True):
    gradings = [Grading.trivial(n)]
    connectors = []
    if m2:
        gradings.append(coordinate_grading(n))
        connectors.append(rand_invertible(rng, n))
    loops = []
    for _ in range(rng.randint(1, 2)):
        outer = twisted and rng.random() < 0.5
        loops.append(TwistedElement(rand_invertible(rng, n),
                                    Automorphism(rand_invertible(rng, n), outer)))
    return FramedPoint(n, gradings, connectors, loops)


class TestGaloisGenerators:
    def test_trivial_grading_drops_projector(self):
        p = simple_point([TwistedElement.plain(J)])
        assert galois_generators(p) == [J]

    def test_projectors_only(self):
        g = Grading(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = FramedPoint(2, [g], [], [])
        gens = galois_generators(p)
        assert gens == [Matrix.build([[1, 0], [0, 0]]), Matrix.build([[0, 0], [0, 1]])]

    def test_transported_projectors(self):
        c2 = Matrix.build([[1, 1], [0, 1]])
        g = Grading(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = FramedPoint(2, [Grading.trivial(2), g], [c2], [])
        gens = galois_generators(p)
        assert gens == [Matrix.build([[1, 1], [0, 0]]), Matrix.build([[0, -1], [0, 1]])]

    def test_unnormalized_rejected(self):
        p = simple_point([TwistedElement(J, Automorphism(J, False))])
        with pytest.raises(ValueError):
            galois_generators(p)

    def test_doubled_torus_projectors_span_torus_algebra(self):
        # diag(t, 1/t) doubles to diag(t, 1/t, 1/t, t): the joint projectors of
        # the characters t and 1/t pair weight spaces across the two blocks
        g = Grading(2, [((1,), [(1, 0)]), ((-1,), [(0, 1)])])
        sig = TwistedElement(Matrix.identity(2), Automorphism.sigma(2))
        p = FramedPoint(2, [g], [], [sig])
        gens = galois_generators(p)
        projs = [m for m in gens if m.rows == 4 and not m.is_invertible()]
        assert len(projs) == 2
        got = set()
        for q in projs:
            assert q @ q == q
            got.add(tuple(0 if q[i, i].is_zero() else 1 for i in range(4)))
        assert got == {(1, 0, 0, 1), (0, 1, 1, 0)}


class TestPolystable:
    def test_jordan_not_polystable(self):
        rep = is_polystable(simple_point([TwistedElement.plain(J)]))
        assert not rep.polystable
        assert rep.radical_witness is not None
        w = rep.radical_witness
        assert (w ** 2).is_zero() and not w.is_zero()

    def test_diagonal_polystable(self):
        rep = is_polystable(simple_point([TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))]))
        assert rep.polystable and rep.radical_witness is None

    def test_unipotent_with_inner_twist(self):
        # unipotent group parts, each twisted by conjugation with its own inverse:
        # the adjoint action is trivial, so the point is polystable; dropping the
        # twists leaves a unipotent tuple, which is not
        for n, root in ((2, Matrix.build([[0, 1], [0, 0]])),
                        (3, Matrix.build([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))):
            gs = [Matrix.identity(n) + root, Matrix.identity(n) + root.scale(Fraction(2))]
            twisted = [TwistedElement(g, Automorphism(g.inverse(), False)) for g in gs]
            assert is_polystable(simple_point(twisted, n=n)).polystable
            plain = [TwistedElement.plain(g) for g in gs]
            assert not is_polystable(simple_point(plain, n=n)).polystable


class TestDimensions:
    def test_identity_loop_full_stabilizer(self):
        assert stabilizer_lie_dim(simple_point([TwistedElement.plain(Matrix.identity(2))])) == 4

    def test_diagonal_commutant(self):
        assert stabilizer_lie_dim(simple_point(
            [TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))])) == 2

    def test_jordan_commutant(self):
        assert stabilizer_lie_dim(simple_point([TwistedElement.plain(J)])) == 2

    def test_kernel_dims(self):
        assert kernel_lie_dim(simple_point([TwistedElement.plain(J)])) == 1
        sig = TwistedElement(Matrix.identity(2), Automorphism.sigma(2))
        assert kernel_lie_dim(simple_point([sig])) == 0
        assert kernel_lie_dim(FramedPoint(2, [Grading.trivial(2)], [], [])) == 1

    def test_correspondence_randomized(self):
        rng = random.Random(42)
        for _ in range(20):
            p = rand_point(rng, n=2, twisted=True, m2=rng.random() < 0.7)
            assert stabilizer_lie_dim(p) == stabilizer_lie_dim_commutant(p)


class TestStable:
    def test_irreducible_pair(self):
        rep = is_stable(simple_point([TwistedElement.plain(SWAP), TwistedElement.plain(DIAG)]))
        assert rep.stable and rep.polystable
        assert rep.stabilizer_dim == 1 == rep.kernel_dim
        assert rep.invariant_subspace_witness is None

    def test_diagonal_not_stable(self):
        rep = is_stable(simple_point([TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))]))
        assert rep.polystable and not rep.stable
        assert rep.invariant_subspace_witness is not None
        assert rep.invariant_subspace_witness.dim == 1

    def test_jordan_not_stable(self):
        rep = is_stable(simple_point([TwistedElement.plain(J)]))
        assert not rep.polystable and not rep.stable

    def test_stable_implies_polystable_on_corpus(self):
        rng = random.Random(3)
        for _ in range(25):
            p = rand_point(rng, n=2, twisted=True, m2=rng.random() < 0.5)
            rep = is_stable(p)
            if rep.stable:
                assert rep.polystable


class TestLevi:
    def test_finest_eigen_decomposition(self):
        # the three eigenlines of diag(2,2,3); their isotypic sums are the
        # 2-dimensional eigenplane and the remaining line
        p = simple_point([TwistedElement.plain(Matrix.build(
            [[2, 0, 0], [0, 2, 0], [0, 0, 3]]))], n=3)
        blocks = levi_reduction(p)
        assert [b.dim for b in blocks] == [1, 1, 1]
        total = blocks[0]
        for b in blocks[1:]:
            total = total.sum(b)
        assert total.dim == 3

    def test_irreducible_whole_space(self):
        p = simple_point([TwistedElement.plain(SWAP), TwistedElement.plain(DIAG)])
        blocks = levi_reduction(p)
        assert len(blocks) == 1 and blocks[0].dim == 2

    def test_single_diagonal(self):
        p = simple_point([TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))])
        blocks = levi_reduction(p)
        assert [b.dim for b in blocks] == [1, 1]

    def test_not_polystable_raises(self):
        with pytest.raises(NotPolystable):
            levi_reduction(simple_point([TwistedElement.plain(J)]))

    def test_twisted_raises(self):
        sig = TwistedElement(Matrix.identity(2), Automorphism.sigma(2))
        with pytest.raises(TwistedInput):
            levi_reduction(simple_point([sig]))

    def test_blocks_reanalyze_stable(self):
        p = simple_point([TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))])
        for block in levi_reduction(p):
            rep = is_stable(restrict_point(p, block))
            assert rep.stable

    def test_blocks_stable_with_gradings(self):
        g = Grading(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = FramedPoint(2, [g], [], [TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))])
        blocks = levi_reduction(p)
        assert len(blocks) == 2
        for block in blocks:
            assert is_stable(restrict_point(p, block)).stable

    def test_is_stable_reports_levi_blocks(self):
        g = Grading(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        diag = TwistedElement.plain(Matrix.build([[2, 0], [0, 3]]))
        p = FramedPoint(2, [g], [], [diag])
        assert is_stable(p).levi_decomposition == levi_reduction(p)
        assert is_stable(simple_point([TwistedElement.plain(J)])).levi_decomposition is None
        sig = TwistedElement(Matrix.identity(2), Automorphism.sigma(2))
        assert is_stable(simple_point([sig])).levi_decomposition is None


class TestAction:
    def test_identity_action(self):
        p = simple_point([TwistedElement.plain(J)])
        q = act([Matrix.identity(2)], p)
        assert q.loops[0].g == J

    def test_conjugation(self):
        p = simple_point([TwistedElement.plain(J)])
        q = act([Matrix.build([[2, 0], [0, 1]])], p)
        assert q.loops[0].g == Matrix.build([[1, 2], [0, 1]])

    def test_connector_update(self):
        g = coordinate_grading(2)
        p = FramedPoint(2, [Grading.trivial(2), g], [Matrix.identity(2)], [])
        q = act([Matrix.identity(2), Matrix.build([[1, 0], [0, 2]])], p)
        assert q.connectors[0] == Matrix.build([[1, 0], [0, 2]])

    def test_membership_enforced(self):
        g = coordinate_grading(2)
        p = FramedPoint(2, [g], [], [])
        with pytest.raises(ValueError):
            act([SWAP], p)  # swap does not centralize the coordinate torus

    def test_verdict_invariance_randomized(self):
        rng = random.Random(9)
        for _ in range(10):
            p = rand_point(rng, n=2, twisted=True, m2=True)
            h = [rand_invertible(rng, 2), rand_block_diag(rng, [1, 1])]
            q = act(h, p)
            a, b = is_stable(p), is_stable(q)
            assert a.polystable == b.polystable and a.stable == b.stable


class TestNormalizeInvariance:
    def test_verdicts_invariant(self):
        rng = random.Random(17)
        for _ in range(15):
            p = rand_point(rng, n=2, twisted=True, m2=False)
            q = normalize_point(p)
            a, b = is_stable(p), is_stable(q)
            assert (a.polystable, a.stable, a.stabilizer_dim) == \
                (b.polystable, b.stable, b.stabilizer_dim)


class TestRichardsonSpecialization:
    def test_untwisted_single_basepoint(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.choice([2, 3])
            loops = [TwistedElement.plain(rand_invertible(rng, n))
                     for _ in range(rng.randint(1, 2))]
            p = simple_point(loops, n=n)
            rep = is_stable(p)
            mats = [x.g for x in loops]
            oracle_poly = radical_oracle(spin_algebra(mats)).dim == 0
            oracle_stable = (invariant_subspace(mats) is None and
                             stabilizer_lie_dim_commutant(p) == kernel_lie_dim(p))
            assert rep.polystable == oracle_poly
            assert rep.stable == oracle_stable


def invertibles(n):
    return st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n).map(
        lambda es: Matrix.build([es[i * n:(i + 1) * n] for i in range(n)])).filter(
        lambda g: g.is_invertible())


@st.composite
def small_points(draw, n=2):
    """Points over Q with one or two loops, sigma-twisted or not, maybe a second torus."""
    gradings, connectors = [Grading.trivial(n)], []
    if draw(st.booleans()):
        gradings.append(coordinate_grading(n))
        connectors.append(draw(invertibles(n)))
    twisted = draw(st.booleans())
    loops = [TwistedElement(draw(invertibles(n)),
                            Automorphism(draw(invertibles(n)), twisted and draw(st.booleans())))
             for _ in range(draw(st.integers(1, 2)))]
    return FramedPoint(n, gradings, connectors, loops)


def promote_point(p, m):
    """The same point with every entry promoted into Q(zeta_m)."""
    def lift(mat):
        return Matrix(mat.rows, mat.cols, tuple(x.promote(m) for x in mat.entries))
    gradings = [Grading(g.ambient_dim, [(w, [tuple(x.promote(m) for x in v) for v in basis])
                                        for w, basis in g.pieces]) for g in p.gradings]
    loops = [TwistedElement(lift(x.g), Automorphism(lift(x.phi.inner), x.phi.outer))
             for x in p.loops]
    return FramedPoint(p.n, gradings, [lift(c) for c in p.connectors], loops)


def verdicts(p):
    rep = is_stable(p)
    pn = normalize_point(p)
    ambient = p.n if pn.is_untwisted() else 2 * p.n
    radical = radical_trace(spin_algebra(galois_generators(pn), ambient_n=ambient))
    return rep.polystable, rep.stable, rep.stabilizer_dim, radical.dim


@settings(max_examples=12)
@given(small_points())
def test_verdicts_invariant_under_field_extension(p):
    q = promote_point(p, 5)
    assert q.conductor() == 5
    assert verdicts(q) == verdicts(p)
