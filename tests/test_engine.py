import itertools
import random
from collections import Counter
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wildcat import algebra, engine, linalg
from wildcat.algebra import (
    NotSemisimpleError,
    commutant,
    intertwiner_rows,
    invariant_complement,
    invariant_subspace,
    minimal_polynomial,
    radical_trace,
    restrict_matrix,
    spin_algebra,
    spin_subspace,
)
from wildcat.engine import (
    FramedPoint,
    Loop,
    NotPolystable,
    _doubled,
    TwistedInput,
    galois_generators,
    is_polystable,
    is_stable,
    kernel_lie_dim,
    levi_reduction,
    normalize_point,
    stabilizer_lie_dim,
)
from wildcat.linalg import Grading, Matrix, Subspace, kernel
from wildcat.modular import _modulus
from wildcat.scalars import Scalar, euler_phi

from conftest import hypergeometric_points
from test_algebra import semisimple_modules
from test_linalg import echelon_inputs

from oracles import (
    act,
    build,
    commutant_radical_dim,
    complement_reference,
    contains,
    entries,
    exact_kernel,
    from_coeffs,
    from_entries,
    from_pieces,
    from_vectors,
    galois_generators_reference,
    intertwiners,
    minimal_polynomial_left,
    mul_vector,
    pieces_of,
    plain,
    promote_scalar,
    radical_oracle,
    restrict_point,
    scalar_basis,
    scalar_entry,
    scalar_row,
    shares_an_eigenvector,
    spin_algebra_left,
    spin_subspace_left,
    stabilizer_lie_dim_commutant,
    zeta,
)

J = build([[1, 1], [0, 1]])
SWAP = build([[0, 1], [1, 0]])
DIAG = build([[1, 0], [0, -1]])


def simple_point(loops, n=2, gradings=None, connectors=None):
    return FramedPoint(n, gradings if gradings is not None else [Grading.trivial(n)],
                       connectors or [], loops)


def coordinate_grading(n, m=1):
    ident = Matrix.identity(n, m)
    return from_pieces(n, [((i,), [scalar_row(ident, i)]) for i in range(n)])


def rand_invertible(rng, n, lo=-2, hi=2):
    while True:
        m = build([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
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
                out[start + r][start + c] = scalar_entry(b, r, c)
        start += s
    return build(out)


def generic_twisted_point(rng, n, m):
    """Two sigma-twisted loops, the coordinate torus at a second basepoint and
    a connector, all random: entries +-1 or +-2, plus +-zeta^k over Q(zeta_m).
    The doubled module is M_2n(K)'s, so the point is stable with stabilizer 0."""
    def entry():
        x = Scalar.rational(rng.choice((-2, -1, 1, 2)), m)
        if m > 1:
            x = x + Scalar.rational(rng.choice((-1, 1)), m) * zeta(m, rng.randrange(1, euler_phi(m)))
        return x

    def invertible():
        while True:
            g = from_entries(n, n, [entry() for _ in range(n * n)], m)
            if g.is_invertible():
                return g
    loops = [plain(invertible(), True) for _ in range(2)]
    return FramedPoint(n, [Grading.trivial(n, m), coordinate_grading(n, m)], [invertible()], loops)


def rand_point(rng, n=2, twisted=True, m2=True):
    gradings = [Grading.trivial(n)]
    connectors = []
    if m2:
        gradings.append(coordinate_grading(n))
        connectors.append(rand_invertible(rng, n))
    loops = []
    for _ in range(rng.randint(1, 2)):
        outer = twisted and rng.random() < 0.5
        loops.append(Loop(rand_invertible(rng, n), rand_invertible(rng, n), outer))
    return FramedPoint(n, gradings, connectors, loops)


class TestGaloisGenerators:
    def test_trivial_grading_drops_projector(self):
        p = simple_point([plain(J)])
        assert galois_generators(p) == [J]

    def test_torus_only_gives_its_weight_operator(self):
        g = from_pieces(2, [((2,), [(1, 0)]), ((-1,), [(0, 1)])])
        p = FramedPoint(2, [g], [], [])
        assert galois_generators(p) == [build([[2, 0], [0, -1]])]

    def test_transported_projectors(self):
        # the weight operator diag(1, 0), moved to the basepoint as C^-1 X C:
        # the projector onto the weight 1 line along the transported 0 line
        c2 = build([[1, 1], [0, 1]])
        g = from_pieces(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = FramedPoint(2, [Grading.trivial(2), g], [c2], [])
        assert galois_generators(p) == [build([[1, 1], [0, 0]])]

    def test_scalars_and_repeats_dropped(self):
        two = Matrix.identity(2).scale(Fraction(2))
        loops = [plain(g) for g in (Matrix.identity(2), J, SWAP, J, two)]
        assert galois_generators(simple_point(loops)) == [J, SWAP]
        # every generator scalar: the first stays, so the algebra keeps its size
        loops = [plain(g) for g in (two, Matrix.identity(2))]
        assert galois_generators(simple_point(loops)) == [two]
        # under sigma, +-I doubles to a scalar and 2I does not
        sig = plain(J, True)
        loops = [sig, plain(Matrix.identity(2).scale(-1)),
                 plain(two), sig]
        gens = galois_generators(simple_point(loops))
        assert len(gens) == 2 and scalar_entry(gens[1], 0, 0) == 2

    def test_unnormalized_rejected(self):
        p = simple_point([Loop(J, J)])
        with pytest.raises(ValueError):
            galois_generators(p)

    def test_doubled_torus_projectors_span_torus_algebra(self):
        # diag(t, 1/t) doubles to diag(t, 1/t, 1/t, t), and the weight
        # operator diag(1, -1) to diag(1, -1, -1, 1): its algebra is spanned
        # by the joint projectors of the characters t and 1/t, which pair
        # weight spaces across the two blocks
        g = from_pieces(2, [((1,), [(1, 0)]), ((-1,), [(0, 1)])])
        sig = plain(Matrix.identity(2), True)
        p = FramedPoint(2, [g], [], [sig])
        gens = galois_generators(p)
        torus = build([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
        assert gens[1:] == [torus]
        joint = [build([[int(i == j and i in rows) for j in range(4)] for i in range(4)])
                 for rows in ((0, 3), (1, 2))]
        assert spin_algebra([torus]).rows == spin_algebra(joint).rows
        assert spin_algebra([torus]).dim == 2


class TestPolystable:
    def test_jordan_not_polystable(self):
        rep = is_polystable(simple_point([plain(J)]))
        assert not rep.polystable
        assert rep.radical_witness is not None
        w = rep.radical_witness
        assert (w @ w).is_zero() and not w.is_zero()

    def test_diagonal_polystable(self):
        rep = is_polystable(simple_point([plain(build([[2, 0], [0, 3]]))]))
        assert rep.polystable and rep.radical_witness is None

    def test_unipotent_with_inner_twist(self):
        # unipotent group parts, each twisted by conjugation with its own inverse:
        # the adjoint action is trivial, so the point is polystable; dropping the
        # twists leaves a unipotent tuple, which is not
        for n, root in ((2, build([[0, 1], [0, 0]])),
                        (3, build([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))):
            gs = [Matrix.identity(n) + root, Matrix.identity(n) + root.scale(Fraction(2))]
            twisted = [Loop(g, g.inverse()) for g in gs]
            assert is_polystable(simple_point(twisted, n=n)).polystable
            untwisted = [plain(g) for g in gs]
            assert not is_polystable(simple_point(untwisted, n=n)).polystable


class TestDimensions:
    def test_identity_loop_full_stabilizer(self):
        assert stabilizer_lie_dim(simple_point([plain(Matrix.identity(2))])) == 4
        assert stabilizer_lie_dim(simple_point([])) == 4  # no torus or loop condition

    def test_diagonal_commutant(self):
        assert stabilizer_lie_dim(simple_point(
            [plain(build([[2, 0], [0, 3]]))])) == 2

    def test_jordan_commutant(self):
        assert stabilizer_lie_dim(simple_point([plain(J)])) == 2

    def test_kernel_dims(self):
        assert kernel_lie_dim(simple_point([plain(J)])) == 1
        sig = plain(Matrix.identity(2), True)
        assert kernel_lie_dim(simple_point([sig])) == 0
        assert kernel_lie_dim(FramedPoint(2, [Grading.trivial(2)], [], [])) == 1

    def test_correspondence_randomized(self):
        rng = random.Random(42)
        for _ in range(20):
            p = rand_point(rng, n=2, twisted=True, m2=rng.random() < 0.7)
            assert stabilizer_lie_dim(p) == stabilizer_lie_dim_commutant(p)


class TestStable:
    def test_irreducible_pair(self):
        rep = is_stable(simple_point([plain(SWAP), plain(DIAG)]))
        assert rep.stable and rep.polystable
        assert rep.stabilizer_dim == 1 == rep.kernel_dim
        assert rep.invariant_subspace_witness is None

    def test_diagonal_not_stable(self):
        rep = is_stable(simple_point([plain(build([[2, 0], [0, 3]]))]))
        assert rep.polystable and not rep.stable
        assert rep.invariant_subspace_witness is not None
        assert rep.invariant_subspace_witness.dim == 1

    def test_jordan_not_stable(self):
        rep = is_stable(simple_point([plain(J)]))
        assert not rep.polystable and not rep.stable

    def test_two_rotations_split_at_the_commutant_basis(self):
        # diag(R, R), R the rotation by a quarter turn, in a fixed basis:
        # an isotypic module whose End M_2(Q(i)) has dimension 8 and the
        # field Q(i) as centre; a commutant basis element splits it, so no
        # element of the centre is needed
        rot = build([[0, -1], [1, 0]])
        lower = build([[1, 0, 0, 0], [1, 1, 0, 0], [0, -1, 1, 0], [2, 0, 1, 1]])
        p = lower @ lower.transpose()
        g = p @ Matrix.zero(4, 4).place(0, 0, rot).place(2, 2, rot) @ p.inverse()
        comm = commutant([g])
        assert len(comm) == 8 and len(commutant([g] + comm)) == 2
        assert any(algebra._split_by_element(b, 4, 1) is not None for b in comm)
        rep = is_stable(simple_point([plain(g)], n=4))
        assert rep.polystable and not rep.stable and rep.stabilizer_dim == 8
        assert [b.dim for b in rep.levi_decomposition] == [2, 2]

    def test_every_pair_of_small_2x2_matrices_against_shemesh(self):
        # the exhaustive small-scope sweep: all 1,128 unordered pairs of
        # distinct invertible 2 x 2 matrices with entries in {-1, 0, 1} over
        # Q, one basepoint and a trivial torus.  A pair is stable exactly when
        # it shares no eigenvector over the algebraic closure.  98 pairs reach
        # the MeatAxe's factoring, so its verdicts are known independently
        mats = [((a, b), (c, d)) for a, b, c, d in itertools.product((-1, 0, 1), repeat=4)
                if a * d - b * c]
        verdicts = Counter()
        for x, y in itertools.combinations(mats, 2):
            rep = is_stable(simple_point([plain(build(x)),
                                          plain(build(y))]))
            assert rep.stable == (not shares_an_eigenvector(x, y)), (x, y)
            verdicts[rep.stabilizer_dim if rep.polystable else None] += 1
        assert verdicts == {1: 904, 2: 123, 4: 1, None: 100}

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
        p = simple_point([plain(build(
            [[2, 0, 0], [0, 2, 0], [0, 0, 3]]))], n=3)
        blocks = levi_reduction(p)
        assert [b.dim for b in blocks] == [1, 1, 1]
        assert from_vectors(3, [v for b in blocks for v in scalar_basis(b)]).dim == 3

    def test_irreducible_whole_space(self):
        p = simple_point([plain(SWAP), plain(DIAG)])
        blocks = levi_reduction(p)
        assert len(blocks) == 1 and blocks[0].dim == 2

    def test_single_diagonal(self):
        p = simple_point([plain(build([[2, 0], [0, 3]]))])
        blocks = levi_reduction(p)
        assert [b.dim for b in blocks] == [1, 1]

    def test_not_polystable_raises(self):
        with pytest.raises(NotPolystable):
            levi_reduction(simple_point([plain(J)]))

    def test_twisted_raises(self):
        sig = plain(Matrix.identity(2), True)
        with pytest.raises(TwistedInput):
            levi_reduction(simple_point([sig]))

    def test_blocks_reanalyze_stable(self):
        p = simple_point([plain(build([[2, 0], [0, 3]]))])
        for block in levi_reduction(p):
            rep = is_stable(restrict_point(p, block))
            assert rep.stable

    def test_blocks_stable_with_gradings(self):
        g = from_pieces(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = FramedPoint(2, [g], [], [plain(build([[2, 0], [0, 3]]))])
        blocks = levi_reduction(p)
        assert len(blocks) == 2
        for block in blocks:
            assert is_stable(restrict_point(p, block)).stable

    def test_is_stable_reports_levi_blocks(self):
        g = from_pieces(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        diag = plain(build([[2, 0], [0, 3]]))
        p = FramedPoint(2, [g], [], [diag])
        assert is_stable(p).levi_decomposition == levi_reduction(p)
        assert is_stable(simple_point([plain(J)])).levi_decomposition is None
        sig = plain(Matrix.identity(2), True)
        assert is_stable(simple_point([sig])).levi_decomposition is None


class TestAction:
    def test_identity_action(self):
        p = simple_point([plain(J)])
        q = act([Matrix.identity(2)], p)
        assert q.loops[0].g == J

    def test_conjugation(self):
        p = simple_point([plain(J)])
        q = act([build([[2, 0], [0, 1]])], p)
        assert q.loops[0].g == build([[1, 2], [0, 1]])

    def test_connector_update(self):
        g = coordinate_grading(2)
        p = FramedPoint(2, [Grading.trivial(2), g], [Matrix.identity(2)], [])
        q = act([Matrix.identity(2), build([[1, 0], [0, 2]])], p)
        assert q.connectors[0] == build([[1, 0], [0, 2]])

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
            loops = [plain(rand_invertible(rng, n))
                     for _ in range(rng.randint(1, 2))]
            p = simple_point(loops, n=n)
            rep = is_stable(p)
            mats = [x.g for x in loops]
            oracle_poly = radical_oracle(spin_algebra(mats)).dim == 0
            oracle_stable = (invariant_subspace(mats) is None and
                             stabilizer_lie_dim_commutant(p) == kernel_lie_dim(p))
            assert rep.polystable == oracle_poly
            assert rep.stable == oracle_stable


def invertibles(n, m=1):
    """Invertible n x n matrices over Q(zeta_m), coordinates in -2..2."""
    d = euler_phi(m)
    return st.lists(st.integers(-2, 2), min_size=n * n * d, max_size=n * n * d).map(
        lambda cs: build([[from_coeffs(m, cs[(i * n + j) * d:(i * n + j + 1) * d])
                           for j in range(n)] for i in range(n)], m)).filter(
        lambda g: g.is_invertible())


@st.composite
def small_points(draw, n=2):
    """Points over Q with one or two loops, sigma-twisted or not, maybe a second torus."""
    gradings, connectors = [Grading.trivial(n)], []
    if draw(st.booleans()):
        gradings.append(coordinate_grading(n))
        connectors.append(draw(invertibles(n)))
    twisted = draw(st.booleans())
    loops = [Loop(draw(invertibles(n)), draw(invertibles(n)), twisted and draw(st.booleans()))
             for _ in range(draw(st.integers(1, 2)))]
    return FramedPoint(n, gradings, connectors, loops)


@st.composite
def graded_points(draw):
    """A random grading of 1-3 pieces over Q or Q(zeta5), with no loops: at
    the basepoint, or behind a random connector."""
    m = draw(st.sampled_from([1, 5]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(3, n)))
    b = draw(invertibles(n, m))
    bounds = [0] + sorted(draw(st.permutations(range(1, n)))[:k - 1]) + [n]
    g = from_pieces(n, [((i,), [scalar_row(b, r) for r in range(bounds[i], bounds[i + 1])])
                    for i in range(k)])
    if draw(st.booleans()):
        return FramedPoint(n, [Grading.trivial(n, m), g], [draw(invertibles(n, m))], [])
    return FramedPoint(n, [g], [], [])


def promote_point(p, m):
    """The same point with every entry promoted into Q(zeta_m)."""
    def lift(mat):
        return from_entries(mat.rows, mat.cols, [promote_scalar(x, m) for x in entries(mat)], m)
    gradings = [from_pieces(g.ambient_dim,
                            [(w, [tuple(promote_scalar(x, m) for x in v) for v in basis])
                             for w, basis in pieces_of(g)]) for g in p.gradings]
    loops = [Loop(lift(x.g), lift(x.inner), x.sigma) for x in p.loops]
    return FramedPoint(p.n, gradings, [lift(c) for c in p.connectors], loops)


def verdicts(p):
    rep = is_stable(p)
    radical = radical_trace(spin_algebra(galois_generators(normalize_point(p))))
    return rep.polystable, rep.stable, rep.stabilizer_dim, radical.dim


@settings(max_examples=12)
@given(small_points())
def test_verdicts_invariant_under_field_extension(p):
    q = promote_point(p, 5)
    assert q.conductor() == 5
    assert verdicts(q) == verdicts(p)


def block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    out, at = Matrix.zero(n, n, blocks[0].m), 0
    for b in blocks:
        out, at = out.place(at, at, b), at + b.rows
    return out


@st.composite
def block_point_parts(draw, m=1, repeated=False):
    """(point, blocks): a point over Q(zeta_m) whose loops are one basis
    change B of block diagonal matrices, and the invariant subspaces that
    the blocks' columns of B span.

    With ``same`` every block of one size repeats, so the summands are
    isomorphic; a sigma twist or a basepoint torus whose pieces are unions
    of blocks may follow.  ``repeated`` fixes ``same`` and a layout with a
    repeated size, so a class repeats unless the torus tells the copies
    apart or a block splits further.
    """
    layouts = [(1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 2)]
    layout = draw(st.sampled_from([t for t in layouts if len(set(t)) < len(t)] if repeated
                                  else layouts))
    n, same = sum(layout), repeated or draw(st.booleans())
    basis = draw(invertibles(n, m))
    binv = basis.inverse()

    def conjugated():
        seen = {}
        for s in layout:
            if not (same and s in seen):
                seen[s] = draw(invertibles(s, m))
        return basis @ block_diagonal([seen[s] for s in layout]) @ binv

    twisted = draw(st.booleans())
    loops = [Loop(conjugated(),
                  conjugated() if draw(st.booleans()) else Matrix.identity(n, m),
                  twisted and draw(st.booleans()))
             for _ in range(draw(st.integers(1, 2)))]
    cols, spans, at = basis.transpose(), [], 0
    for s in layout:
        spans.append([scalar_row(cols, at + j) for j in range(s)])
        at += s
    grading = Grading.trivial(n, m)
    if draw(st.booleans()):
        pieces = [((k % 2,) if same else (k,), span) for k, span in enumerate(spans)]
        if len({w for w, _ in pieces}) == len(pieces):
            grading = from_pieces(n, pieces)
    return FramedPoint(n, [grading], [], loops), [from_vectors(n, s) for s in spans]


def block_points(m=1, repeated=False):
    """The points of ``block_point_parts``."""
    return block_point_parts(m, repeated).map(lambda parts: parts[0])


@st.composite
def twisted_points(draw):
    """Sigma-twisted points that are not full: every loop is block diagonal
    on K^a + K^b behind one basis change B (B d B^T under sigma, B d B^-1
    without), so the doubled module splits.  The torus pieces are B times
    coordinate groups that refine the blocks, with distinct weights from
    -2..2 (symmetric under negation or not), at the basepoint or behind a
    random connector.  A block split into lines makes the stabilizer depend
    on the torus; a block of dimension 2 kept whole, on the transposed term
    of xi g + g xi^T."""
    layout = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    n = sum(layout)
    basis = draw(invertibles(n))
    groups, at = [], 0
    for s in layout:
        groups += [[at + j] for j in range(s)] if s > 1 and draw(st.booleans()) \
            else [list(range(at, at + s))]
        at += s
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(groups), max_size=len(groups),
                            unique=True))
    connector = draw(st.one_of(st.none(), invertibles(n)))
    cols = (basis if connector is None else connector @ basis).transpose()
    grading = from_pieces(n, [((w,), [scalar_row(cols, j) for j in group])
                          for w, group in zip(weights, groups)])

    def loop(sigma):
        d = block_diagonal([draw(invertibles(s)) for s in layout])
        g = basis @ d @ (basis.transpose() if sigma else basis.inverse())
        return plain(g, sigma)

    loops = [loop(True)] + [loop(draw(st.booleans())) for _ in range(draw(st.integers(0, 1)))]
    if connector is None:
        return FramedPoint(n, [grading], [], loops)
    return FramedPoint(n, [Grading.trivial(n), grading], [connector], loops)


def module_point(case):
    """The untwisted point whose loops are a ``semisimple_modules`` draw's
    generators g, each shifted to g + c I for the least c >= 0 that makes
    it invertible (one of n + 1 does): the shift keeps the unital algebra
    they generate, hence the module and its commutant."""
    gens, _ = case
    n, m = gens[0].rows, gens[0].m
    loops = []
    for g in gens:
        shifts = (g + Matrix.identity(n, m).scale(c) for c in range(n + 1))
        loops.append(plain(next(h for h in shifts if h.is_invertible())))
    return simple_point(loops, n, [Grading.trivial(n, m)])


@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(st.one_of(st.one_of(small_points(), small_points(n=3), block_points()),
                 semisimple_modules().map(module_point)).filter(lambda p: p.is_untwisted()))
def test_a_polystable_point_has_a_semisimple_commutant(p):
    # Matsushima: the stabilizer of a polystable point is reductive
    assert not is_polystable(p).polystable or commutant_radical_dim(p) == 0


def test_a_non_split_self_extension_has_a_radical_in_its_commutant():
    # [[A, I], [0, A]], A the rotation by a right angle, irreducible over Q:
    # I is not a commutator A T - T A (its trace is 2), so the extension of
    # the module of A by itself does not split; the commutant is Q[g] =
    # Q[x] / (x^2 + 1)^2, whose radical (x^2 + 1) has dimension 2
    g = build([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]])
    point = simple_point([plain(g)], n=4)
    assert not is_polystable(point).polystable and commutant_radical_dim(point) == 2


def test_a_radical_in_the_commutant_proves_non_polystability_and_none_proves_nothing():
    # the Jordan block's commutant is span{I, J - I}, with J - I nilpotent;
    # J and diag(1, 2) generate the upper triangular algebra, which is not
    # semisimple, yet their commutant is the scalars
    jordan = simple_point([plain(J)])
    assert not is_polystable(jordan).polystable and commutant_radical_dim(jordan) == 1
    borel = simple_point([plain(J),
                          plain(build([[1, 0], [0, 2]]))])
    assert not is_polystable(borel).polystable and commutant_radical_dim(borel) == 0


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(hypergeometric_points())
def test_a_hypergeometric_pair_is_stable_iff_no_parameter_coincides(case):
    # the closed-form verdict (conftest.hypergeometric_points): irreducible
    # over C, hence stable, iff no alpha_j = beta_k; on a coincidence the
    # witness is a proper subspace that both loops keep
    p, alpha, beta = case
    rep = is_stable(p)
    assert rep.stable == (not set(alpha) & set(beta))
    if not rep.stable:
        witness = rep.invariant_subspace_witness
        assert witness is not None and 0 < witness.dim < p.n
        assert all(contains(witness, mul_vector(loop.g, v))
                   for loop in p.loops for v in scalar_basis(witness))


def hom_sum(gens, blocks) -> int:
    """The sum of dim Hom(B_j, B_i) over all pairs of the blocks B_i."""
    m = gens[0].m
    acts = [[restrict_matrix(g, b) for g in gens] for b in blocks]
    return sum(len(intertwiners(acts[j], acts[i], b.dim, a.dim, m))
               for i, a in enumerate(blocks) for j, b in enumerate(blocks))


@settings(max_examples=30)
@given(st.sampled_from([1, 4, 5]).flatmap(lambda m: block_point_parts(m, repeated=True)))
def test_complements_of_a_repeated_class_match_the_completed_basis_route(parts):
    # a repeated class leaves a block many complements; the solve in the
    # commutant's coordinates picks the n^2-unknown solve's, byte for byte,
    # and refuses where that one finds none (a block with a radical)
    p, blocks = parts
    assume(p.is_untwisted())
    gens = galois_generators(normalize_point(p))
    comm = commutant(gens)
    for block in blocks:
        reference = complement_reference(gens, block)
        if reference is None:
            with pytest.raises(NotSemisimpleError):
                invariant_complement(comm, block)
        else:
            assert invariant_complement(comm, block).to_json() == reference.to_json()


def spun_modules(m):
    """(generators, proper submodule) over Q(zeta_m): the loop matrices of
    an untwisted ``block_point_parts`` point and its first block, which may
    have a radical, or a ``semisimple_modules`` draw."""
    blocks = block_point_parts(m).filter(lambda parts: parts[0].is_untwisted()).map(
        lambda parts: ([x.g for x in parts[0].loops], parts[1][0]))
    return st.one_of(blocks, semisimple_modules(fields=(m,)))


@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(st.sampled_from([1, 4, 3, 5]).flatmap(spun_modules))
def test_the_right_spins_match_the_left_spins(case):
    # the spins run on w g and v^T g^T, one product reading its left factor
    # as stored; the left spins g w and g v, on the table-based product of
    # tests/oracles.py, span the same spaces, so the echelon bases agree
    gens, sub = case
    n = gens[0].rows
    assert spin_algebra(gens).rows == spin_algebra_left(gens)
    assert spin_subspace(gens, sub.matrix) == spin_subspace_left(gens, sub.matrix)
    for g in gens:
        assert minimal_polynomial(g) == minimal_polynomial_left(g)
    reference = complement_reference(gens, sub)
    if reference is None:
        with pytest.raises(NotSemisimpleError):
            invariant_complement(commutant(gens), sub)
    else:
        assert invariant_complement(commutant(gens), sub).to_json() == reference.to_json()


# diag(2, 2, 3) behind a basis change: three lines, two of them isomorphic
BASIS3 = build([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
CONJUGATED_223 = simple_point([plain(
    BASIS3 @ build([[2, 0, 0], [0, 2, 0], [0, 0, 3]]) @ BASIS3.inverse())], n=3)
# no loop and no torus over Q(zeta5): its one generator is the identity
LOOPLESS_ZETA5 = FramedPoint(1, [Grading.trivial(1, 5)], [], [])


@settings(max_examples=60)
@given(st.one_of(small_points(), block_points(), twisted_points()))
@example(CONJUGATED_223)
@example(LOOPLESS_ZETA5)
def test_certified_stabilizer_matches_exact_solve(p):
    rep = is_stable(p)
    assert rep.stabilizer_dim == stabilizer_lie_dim(p) == stabilizer_lie_dim_commutant(p)
    if rep.levi_decomposition is not None:
        # dim E, the stabilizer read off a polystable point, is the Hom sum
        # over the Levi blocks, and over coarser ones, two adjacent blocks
        # merged: Hom is additive over direct sums, irreducible or not
        blocks, gens = rep.levi_decomposition, rep.galois.generators
        assert hom_sum(gens, blocks) == rep.stabilizer_dim
        for i in range(len(blocks) - 1):
            merged = from_vectors(p.n, scalar_basis(blocks[i]) + scalar_basis(blocks[i + 1]))
            assert hom_sum(gens, blocks[:i] + [merged] + blocks[i + 2:]) == rep.stabilizer_dim
    rows = engine._stabilizer_rows(rep.galois.point, rep.galois.generators)
    assert all(any(row) for row in rows.int_rows())
    if rep.polystable and p.is_untwisted():
        assert rep.levi_decomposition == levi_reduction(p)
    if rep.polystable:
        # a search handed the commutant skips the radical: same answer
        gens = galois_generators(normalize_point(p))
        comm = commutant(gens)
        assert invariant_subspace(gens, comm=comm) == invariant_subspace(gens)
    if rep.invariant_subspace_witness is not None or (
            p.is_untwisted() and p.m == 1 and p.gradings[0].is_trivial() and p.loops):
        # the witness of a polystable point skips the radical step: same subspace
        mats = [x.g for x in normalize_point(p).loops]
        assert rep.invariant_subspace_witness == invariant_subspace(mats)


@settings(max_examples=40)
@given(st.one_of(graded_points(), block_points(), twisted_points()))
def test_weight_operators_span_the_weight_projectors(p):
    # one weight operator per torus (diag(X, -X^T) under sigma) generates
    # the algebra and commutant that every weight projector does; the
    # identity, which changes neither, joins the reference, which is empty
    # on a point with no loop and no non-trivial torus
    pn = normalize_point(p)
    n = pn.n if pn.is_untwisted() else 2 * pn.n
    gens = galois_generators(pn)
    reference = galois_generators_reference(pn) + [Matrix.identity(n, pn.conductor())]
    assert spin_algebra(gens).rows == spin_algebra(reference).rows
    assert commutant(gens) == commutant(reference)


def test_stabilizer_rows_drop_zero_rows():
    # a sigma loop and coordinate weights 1, 2, 0: the diagonal entries of
    # the weight operator's commutator with xi are zero rows
    e = Matrix.identity(3)
    grading = from_pieces(3, [((1,), [scalar_row(e, 0)]), ((2,), [scalar_row(e, 1)]),
                              ((0,), [scalar_row(e, 2)])])
    loop = plain(build([[1, 2, 0], [0, 1, 1], [1, 0, 2]]), True)
    p = FramedPoint(3, [grading], [], [loop])
    pn = normalize_point(p)
    rows = engine._stabilizer_rows(pn, galois_generators(pn)).int_rows()
    assert rows and all(any(row) for row in rows)
    assert is_stable(p).stabilizer_dim == stabilizer_lie_dim(p) == stabilizer_lie_dim_commutant(p)


def appended_loop(p, extra):
    return FramedPoint(p.n, p.gradings, p.connectors, p.loops + [extra])


@settings(max_examples=30)
@given(st.one_of(small_points(), block_points()), st.data())
def test_scalar_and_repeated_loops_change_nothing(p, data):
    # a scalar loop fixes every point of the orbit and a repeated loop adds
    # no constraint; under sigma only +-I double to a scalar generator
    values = [1, -1, 2, Fraction(-1, 3)] if p.is_untwisted() else [1, -1, 2]
    scalar = st.sampled_from(values).map(
        lambda c: plain(Matrix.identity(p.n).scale(Fraction(c))))
    q = appended_loop(p, data.draw(st.one_of(scalar, st.sampled_from(p.loops))))
    assert is_stable(q).to_json() == is_stable(p).to_json()
    if p.is_untwisted() and is_polystable(p).polystable:
        assert levi_reduction(q) == levi_reduction(p)


class TestCertifiedStabilizer:
    def exact_calls(self, monkeypatch):
        calls = []
        exact = engine.stabilizer_lie_dim

        def counted(p, *rows):
            calls.append(p)
            return exact(p, *rows)
        monkeypatch.setattr(engine, "stabilizer_lie_dim", counted)
        return calls

    def test_full_algebra_decides(self, monkeypatch):
        calls = self.exact_calls(monkeypatch)
        rep = is_stable(simple_point([plain(SWAP), plain(DIAG)]))
        assert rep.stable and rep.stabilizer_dim == 1 and calls == []
        # sigma-twisted: the doubled algebra is M_4(Q), so the stabilizer is 0
        grading = from_pieces(2, [((1,), [(1, 0)]), ((0,), [(0, 1)])])
        p = FramedPoint(2, [grading], [], [
            plain(build([[1, 1], [1, 2]]), True),
            plain(SWAP)])
        rep = is_stable(p)
        assert rep.galois.algebra.dim == 16
        assert rep.stable and rep.stabilizer_dim == 0 == stabilizer_lie_dim(p)
        assert calls == []  # the direct call above is not the engine's

    def test_modular_bound_decides_distinct_blocks(self, monkeypatch):
        calls = self.exact_calls(monkeypatch)
        p = simple_point([plain(build([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))],
                         n=3)
        rep = is_stable(p)
        assert (rep.polystable, rep.stable, rep.stabilizer_dim) == (True, False, 3)
        assert len(rep.levi_decomposition) == 3 and calls == []

    def test_isomorphic_blocks_are_read_off_the_levi_blocks(self, monkeypatch):
        # two copies of the absolutely irreducible pair (SWAP, DIAG): one
        # class of multiplicity 2 with End = Q, so the commutant is M_2(Q),
        # of dimension 4, over 2 Levi blocks
        calls = self.exact_calls(monkeypatch)
        basis = build([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        loops = [plain(basis @ block_diagonal([g, g]) @ basis.inverse())
                 for g in (SWAP, DIAG)]
        rep = is_stable(simple_point(loops, n=4))
        assert rep.polystable and not rep.stable
        assert rep.stabilizer_dim == 4 and len(rep.levi_decomposition) == 2
        assert calls == []

    def test_prime_dividing_a_denominator_is_read_off_the_levi_blocks(self, monkeypatch):
        # the Levi blocks are solved exactly, so no modular image is needed
        calls = self.exact_calls(monkeypatch)
        p, _ = _modulus(1, 4)   # the prime of the kernel bound on 2^2 unknowns
        loop = plain(build([[Fraction(1, p), 0], [0, 3]]))
        rep = is_stable(simple_point([loop]))
        assert rep.polystable and rep.stabilizer_dim == 2 and len(rep.levi_decomposition) == 2
        assert calls == []

    def test_non_polystable_point_with_a_prime_denominator_reaches_the_exact_solve(
            self, monkeypatch):
        # no Levi blocks, and the bound decides nothing: the integer rows are
        # those of p times the loop, the identity mod p, so every row
        # vanishes mod p and the bound is 4; the rows built for it are
        # handed to the exact solve
        calls = self.exact_calls(monkeypatch)
        p, _ = _modulus(1, 4)   # the prime of the kernel bound on 2^2 unknowns
        point = simple_point([plain(build([[Fraction(1, p), 1],
                                                                 [0, Fraction(1, p)]]))])
        built = []
        rows = engine._stabilizer_rows
        monkeypatch.setattr(engine, "_stabilizer_rows",
                            lambda q, gens: built.append((q, gens)) or rows(q, gens))
        rep = is_stable(point)
        assert not rep.polystable and rep.levi_decomposition is None
        assert rep.stabilizer_dim == 2 == stabilizer_lie_dim_commutant(point)
        # the rows are built once, from the generators the verdict kept
        assert calls == [point] and built == [(point, rep.galois.generators)]


class TestOneAnalysis:
    def counted(self, monkeypatch, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(engine, name, None) or getattr(algebra, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            for module in (engine, algebra):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
        return counts

    def test_one_spin_and_one_search_per_module(self, monkeypatch):
        names = ["normalize_point", "galois_generators", "spin_algebra", "invariant_subspace"]
        p = simple_point([plain(build([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))],
                         n=3)
        counts = self.counted(monkeypatch, names)
        rep = is_stable(p)
        # the witness is the first split; only the 2-dim half is searched again
        assert len(rep.levi_decomposition) == 3 and rep.invariant_subspace_witness.dim == 2
        assert counts == {"normalize_point": 1, "galois_generators": 1,
                          "spin_algebra": 1, "invariant_subspace": 2}
        counts.update(dict.fromkeys(names, 0))
        assert levi_reduction(p) == rep.levi_decomposition
        assert counts == {"normalize_point": 1, "galois_generators": 1,
                          "spin_algebra": 1, "invariant_subspace": 2}

    def test_one_commutant_per_searched_module(self, monkeypatch):
        # (2) + (3) + (swap, diag) behind a basis change, blocks 1 + 1 + 2:
        # the whole module and the 3-dimensional first split are searched,
        # each with the one commutant that also solves its complement; the
        # 2-dimensional block is certified M_2(Q), and the stabilizer is
        # dim E = 3, with no Hom system outside the commutants
        names = ["commutant", "intertwiner_rows", "invariant_subspace", "invariant_complement"]
        counts = self.counted(monkeypatch, names)
        basis = build([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        loops = [plain(basis @ g @ basis.inverse()) for g in (
            build([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
            build([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]))]
        rep = is_stable(simple_point(loops, n=4))
        assert [b.dim for b in rep.levi_decomposition] == [1, 1, 2]
        assert rep.invariant_subspace_witness.dim == 3
        assert (rep.polystable, rep.stable, rep.stabilizer_dim) == (True, False, 3)
        assert counts == {"commutant": 2, "intertwiner_rows": 2, "invariant_subspace": 2,
                          "invariant_complement": 2}

    def test_full_algebra_is_not_searched(self, monkeypatch):
        counts = self.counted(monkeypatch, ["invariant_subspace", "invariant_complement"])
        rep = is_stable(simple_point([plain(SWAP), plain(DIAG)]))
        assert rep.invariant_subspace_witness is None
        assert rep.levi_decomposition == [Subspace.full(2)]
        assert counts == {"invariant_subspace": 0, "invariant_complement": 0}

    def test_full_algebra_certificate_runs_once_per_module(self, monkeypatch):
        # (swap, diag) (+) (2, 3): the certificate says False on the whole
        # module, the first split runs no certificate, and the 2-dimensional
        # block's M_2(Q) is certified before any search of it
        calls = []
        original = algebra._spans_full_mod_p
        monkeypatch.setattr(algebra, "_spans_full_mod_p",
                            lambda gens, n, m: calls.append(n) or original(gens, n, m))
        counts = self.counted(monkeypatch, ["invariant_subspace"])
        loops = [build([[0, 1, 0], [1, 0, 0], [0, 0, 2]]),
                 build([[1, 0, 0], [0, -1, 0], [0, 0, 3]])]
        rep = is_stable(simple_point([plain(g) for g in loops], n=3))
        assert [b.dim for b in rep.levi_decomposition] == [1, 2]
        assert calls == [3, 2] and counts == {"invariant_subspace": 1}

    @pytest.mark.parametrize("n, m", [(10, 1), (5, 5)])
    def test_twisted_generic_point_is_certified_without_the_spin(self, monkeypatch, n, m):
        # Norton's test mod a small prime proves M_2n(K) on the doubled
        # module, so the stabilizer is the kernel and the kernel bound mod p
        # never runs
        counts = self.counted(monkeypatch, ["kernel_dim_mod_p"])
        rep = is_stable(generic_twisted_point(random.Random(0), n, m))
        assert rep.stable and rep.stabilizer_dim == 0 == rep.kernel_dim
        assert counts == {"kernel_dim_mod_p": 0}

    def test_twisted_point_with_q_in_a_denominator_is_certified_at_the_next_prime(
            self, monkeypatch):
        # 67, the first small prime for Q, divides a denominator of this
        # point's Galois generators, so Norton's test walks on to 71 and
        # still proves M_20(Q), and the kernel bound mod p never runs
        counts = self.counted(monkeypatch, ["kernel_dim_mod_p"])
        rep = is_stable(generic_twisted_point(random.Random(1), 10, 1))
        assert rep.stable and rep.stabilizer_dim == 0 == rep.kernel_dim
        assert counts == {"kernel_dim_mod_p": 0}
        assert algebra._norton_images(rep.galois.generators, 1)[0] == 71

    def test_reducible_point_builds_no_packed_echelon(self, monkeypatch):
        # three 3-dimensional blocks over Q: Norton's test says False on the
        # whole module and on the 6-dimensional summand, which the exact
        # routes then decide, and the stabilizer is dim E, so the kernel
        # bound mod p never runs
        counts = self.counted(monkeypatch, ["kernel_dim_mod_p"])
        rng = random.Random(0)
        loops = [plain(rand_block_diag(rng, [3, 3, 3])) for _ in range(2)]
        rep = is_stable(simple_point(loops, n=9))
        assert rep.polystable and not rep.stable and rep.stabilizer_dim == 3
        assert [b.dim for b in rep.levi_decomposition] == [3, 3, 3]
        assert counts == {"kernel_dim_mod_p": 0}

    def test_each_generator_is_restricted_to_each_block_once(self, monkeypatch):
        # the rotation (+) (2) over Q: the certificate and the search of the
        # 2-dimensional irreducible block share its actions
        restricted = []
        original = algebra.restrict_matrix

        def counted(g, sub):
            restricted.append((g, sub))
            return original(g, sub)
        monkeypatch.setattr(algebra, "restrict_matrix", counted)
        loop = build([[0, -1, 0], [1, 0, 0], [0, 0, 2]])
        rep = is_stable(simple_point([plain(loop)], n=3))
        assert [b.dim for b in rep.levi_decomposition] == [1, 2] and rep.stabilizer_dim == 3
        assert restricted and all(restricted.count(pair) == 1 for pair in restricted)

    def test_normalized_point_comes_back_unchanged(self):
        p = simple_point([plain(J)])
        assert normalize_point(p) is p

    def test_a_connector_and_a_sigma_loop_are_eliminated_once(self, monkeypatch):
        # FramedPoint inverts them to validate them and the matrices keep
        # their inverses, so the Galois generators (the connector's
        # transport of the torus, the doubled sigma loop) eliminate nothing
        a, g = build([[2, 1], [1, 1]]), build([[1, 2], [0, 1]])
        grading = from_pieces(2, [((0,), [(1, 0)]), ((1,), [(0, 1)])])
        p = FramedPoint(2, [Grading.trivial(2), grading], [a],
                        [plain(g, True)])
        assert a._inverse is not None and g._inverse is not None
        inserts = []
        real = linalg._EchelonSet.insert
        monkeypatch.setattr(linalg._EchelonSet, "insert",
                            lambda self, nums: inserts.append(nums) or real(self, nums))
        gens = galois_generators(normalize_point(p))
        assert not inserts and gens[0] == _doubled(g, True)
        # a singular one is still named by its path
        with pytest.raises(engine.SingularMatrixError, match=r"connectors\[0\]"):
            FramedPoint(2, [Grading.trivial(2), grading], [build([[1, 1], [1, 1]])], [])
        with pytest.raises(engine.SingularMatrixError, match=r"loops\[0\]\.matrix"):
            simple_point([plain(build([[1, 1], [1, 1]]), True)])

    def test_normalizing_copies_without_revalidation(self, monkeypatch):
        a = build([[2, 1], [1, 1]])
        p = simple_point([Loop(J, a, True)])
        monkeypatch.setattr(FramedPoint, "__post_init__",
                            lambda self: pytest.fail("validated again"))
        q = normalize_point(p)
        assert q.loops[0] == plain(J @ a, True)
        assert p.loops[0].inner == a  # the input point is untouched

    def test_every_entry_point_still_validates(self):
        singular = build([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            simple_point([plain(singular)])
        with pytest.raises(ValueError):
            simple_point([Loop(J, singular)])
        with pytest.raises(ValueError):
            act([singular], simple_point([plain(J)]))

    def test_a_loop_part_that_is_not_n_by_n_is_refused(self):
        # a 3 x 3 identity as the inner part of a 2 x 2 loop was once taken
        # for a trivial twist, and a 3 x 3 non-identity one failed in a product
        three = build([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        for loop in (Loop(J, Matrix.identity(3)), Loop(J, three, True),
                     Loop(J, build([[1, 0, 0], [0, 1, 0]])),
                     Loop(build([[1, 1, 0], [0, 1, 0]]), Matrix.identity(2))):
            with pytest.raises(ValueError, match="loop size mismatch"):
                simple_point([loop])


def row_multiples(system: Matrix) -> Matrix:
    """The system with row i given as i + 1 times its numerators, over
    denominator 1, as the library writes some of its systems: each row
    stands for any nonzero multiple of itself, so the kernel is the same."""
    return Matrix(system.rows, system.cols, system.m,
                  [x * (i + 1) for i, row in enumerate(system.int_rows()) for x in row])


@st.composite
def kernel_systems(draw):
    """A linear system: the rows of an ``echelon_inputs`` draw, or the
    commutant rows of the Galois generators of a ``block_points`` draw or of
    a ``semisimple_modules`` draw's generators, over Q, Q(i) or Q(zeta5),
    as it is or as ``row_multiples``."""
    source = draw(st.sampled_from(["rows", "points", "modules"]))
    if source == "rows":
        _, rows, _ = draw(echelon_inputs())
        assume(rows)
        system = build(rows, rows[0][0].m)
    else:
        if source == "points":
            m = draw(st.sampled_from([1, 4, 5]))
            gens = galois_generators(normalize_point(draw(block_points(m))))
        else:
            gens, _ = draw(semisimple_modules())
        system = intertwiner_rows(gens, gens)
    return row_multiples(system) if draw(st.booleans()) else system


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(kernel_systems())
def test_modular_kernel_equals_the_exact_kernel(system):
    # the lifted basis, integer rows and pivots included, is the exact one
    ker, ref = kernel(system), exact_kernel(system)
    assert ker == ref and ker.pivots == ref.pivots
    assert ker._echelon.reduced_rows() == ref._echelon.reduced_rows()
