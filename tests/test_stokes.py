import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildcat import linalg
from wildcat.engine import is_stable, stabilizer_lie_dim
from wildcat.linalg import Matrix
from wildcat.scalars import euler_phi
from wildcat.stokes import (
    Circle,
    InvalidCandidate,
    IrregularClass,
    UnsolvableRelation,
    WildSurface,
    _apply_framing_spread,
    _block_support_violation,
    build_scaffold,
    exponential_torus_grading,
    expand_sheets,
    grouped_directions,
    random_candidate,
    singular_directions,
    to_framed_point,
    verify_candidate,
)

from oracles import (
    block_support_violation_reference,
    build,
    element,
    entries,
    from_coeffs,
    pieces_of,
    sheets_reference,
    singular_directions_reference,
    stabilizer_lie_dim_commutant,
    zeta,
)

TWO_CIRCLE = IrregularClass([Circle(1, [(1, element(1))], 1), Circle(1, [(1, element(-1))], 1)])
KATZ = IrregularClass([Circle(2, [(3, element(1))], 1)])
TAME2 = IrregularClass([Circle(1, [], 2)])
# three sheets with blocks of sizes 2, 1, 1, and a ramified class of three
MULTI = IrregularClass([Circle(1, [(1, element(1))], 2), Circle(1, [(1, element(-1))], 1),
                        Circle(1, [(1, element(2))], 1)])
RAM3 = IrregularClass([Circle(3, [(1, element(1))], 1)])


def close(a, b, tol=1e-9):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi) <= tol


class TestCircles:
    def test_gcd_normalization(self):
        with pytest.raises(ValueError):
            Circle(2, [(2, element(1))], 1)  # gcd(2, 2) = 2: not minimally ramified
        with pytest.raises(ValueError):
            Circle(2, [], 1)  # tame circle must have ramification 1

    def test_rank(self):
        assert TWO_CIRCLE.rank == 2 and KATZ.rank == 2
        assert IrregularClass([Circle(2, [(3, element(1))], 2)]).rank == 4


class TestDirections:
    def test_opposite_level_one(self):
        dirs = singular_directions(TWO_CIRCLE)
        assert len(dirs) == 2
        by_pair = {d.pair: d.theta for d in dirs}
        assert close(by_pair[(0, 1)], math.pi)
        assert close(by_pair[(1, 0)], 0.0)

    def test_single_sheet_no_pairs(self):
        assert singular_directions(TAME2) == []

    def test_level_two(self):
        cls = IrregularClass([Circle(1, [(2, element(1))], 1), Circle(1, [], 1)])
        dirs = singular_directions(cls)
        up = sorted(d.theta for d in dirs if d.pair == (0, 1))
        down = sorted(d.theta for d in dirs if d.pair == (1, 0))
        assert len(up) == 2 and close(up[0], math.pi / 2) and close(up[1], 3 * math.pi / 2)
        assert len(down) == 2 and close(down[0], 0.0) and close(down[1], math.pi)

    def test_count_matches_level(self):
        for cls in (TWO_CIRCLE, KATZ,
                    IrregularClass([Circle(1, [(2, element(1))], 1),
                                    Circle(1, [(1, element(1))], 1)])):
            dirs = singular_directions(cls)
            per_pair = {}
            for d in dirs:
                per_pair.setdefault(d.pair, []).append(d.theta)
            for pair, thetas in per_pair.items():
                level = next(d.level for d in dirs if d.pair == pair)
                assert len(thetas) == level
                for i in range(len(thetas)):
                    for j in range(i + 1, len(thetas)):
                        assert not close(thetas[i], thetas[j])

    def test_pair_swap_shift(self):
        # swapping the ordered pair shifts each direction by pi/level
        for cls in (TWO_CIRCLE, KATZ):
            dirs = singular_directions(cls)
            by_pair = {}
            for d in dirs:
                by_pair.setdefault(d.pair, []).append(d.theta)
            for (i, j), thetas in by_pair.items():
                level = next(d.level for d in dirs if d.pair == (i, j))
                shift = math.pi / float(level)
                opposite = by_pair[(j, i)]
                for t in thetas:
                    assert any(close(t + shift, s) for s in opposite)
                    if level == 1:
                        assert any(close(t + math.pi, s) for s in opposite)

    def test_katz_cover_directions(self):
        groups = grouped_directions(singular_directions(KATZ))
        assert len(groups) == 6
        for k, (theta, pattern) in enumerate(groups):
            assert close(theta, k * math.pi / 3)
            assert pattern == ([(1, 0)] if k % 2 == 0 else [(0, 1)])


class TestPatterns:
    def test_two_circle_patterns(self):
        (t0, p0), (t1, p1) = grouped_directions(singular_directions(TWO_CIRCLE))
        assert close(t0, 0.0) and p0 == [(1, 0)]
        assert close(t1, math.pi) and p1 == [(0, 1)]


class TestGrading:
    def test_two_circle_weights(self):
        # two sheet lines, so the centralizer is the diagonal torus
        g = exponential_torus_grading(TWO_CIRCLE.sheets, TWO_CIRCLE.rank, TWO_CIRCLE.conductor())
        assert [basis for _, basis in pieces_of(g)] == [[(1, 0)], [(0, 1)]]

    def test_katz_weights(self):
        # the two Galois sheets of one ramified circle are two blocks
        g = exponential_torus_grading(KATZ.sheets, KATZ.rank, KATZ.conductor())
        assert [basis for _, basis in pieces_of(g)] == [[(1, 0)], [(0, 1)]]

    def test_multiplicity_blocks(self):
        cls = IrregularClass([Circle(1, [(1, element(1))], 2), Circle(1, [], 1)])
        g = exponential_torus_grading(cls.sheets, cls.rank, cls.conductor())
        dims = [len(basis) for _, basis in pieces_of(g)]
        assert dims == [2, 1]

    def test_sheets_distinct(self):
        sheets = expand_sheets(KATZ)
        assert len(sheets) == 2
        assert sheets[0].q != sheets[1].q


class TestScaffold:
    def test_tame_sphere(self):
        sc = build_scaffold(WildSurface(0, [TAME2], 2))
        assert [g.name for g in sc.generators] == ["h1"]
        assert sc.relation == [("h1", 1)]

    def test_genus_one_tame(self):
        sc = build_scaffold(WildSurface(1, [TAME2], 2))
        assert [g.name for g in sc.generators] == ["a1", "b1", "h1"]
        assert sc.relation == [("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1), ("h1", 1)]

    def test_two_circle_sphere(self):
        sc = build_scaffold(WildSurface(0, [TWO_CIRCLE], 2))
        assert len(sc.generators) == 3
        assert sc.relation == [("h1", 1), ("S1.1", 1), ("S1.0", 1)]

    def test_two_punctures_connector(self):
        sc = build_scaffold(WildSurface(0, [TAME2, TWO_CIRCLE], 2))
        names = [g.name for g in sc.generators]
        assert "C2" in names
        assert sc.relation[:1] == [("h1", 1)]
        assert ("C2", -1) in sc.relation and ("C2", 1) in sc.relation


class TestVerify:
    def setup_method(self):
        self.sc = build_scaffold(WildSurface(0, [TWO_CIRCLE], 2))

    def test_forced_point_verifies(self):
        cand = {"h1": Matrix.identity(2),
                "S1.0": Matrix.identity(2),
                "S1.1": Matrix.identity(2)}
        assert verify_candidate(self.sc, cand) == []

    def test_relation_violation(self):
        x = Fraction(1)
        cand = {"h1": Matrix.identity(2),
                "S1.0": build([[1, 0], [x, 1]]),
                "S1.1": build([[1, -x], [0, 1]])}
        v = verify_candidate(self.sc, cand)
        assert len(v) == 1 and "relation" in v[0]

    def test_pattern_violation(self):
        cand = {"h1": Matrix.identity(2),
                "S1.0": build([[1, 1], [0, 1]]),  # wrong block
                "S1.1": Matrix.identity(2)}
        v = verify_candidate(self.sc, cand)
        assert any("S1.0" in s and "pattern" in s for s in v)

    def test_formal_off_block(self):
        cand = {"h1": build([[0, 1], [1, 0]]),
                "S1.0": Matrix.identity(2),
                "S1.1": Matrix.identity(2)}
        v = verify_candidate(self.sc, cand)
        assert any("h1" in s and "graded" in s for s in v)

    def test_missing_assignment(self):
        v = verify_candidate(self.sc, {"h1": Matrix.identity(2)})
        assert any("missing" in s for s in v)

    def test_unknown_and_missing_assignments_are_both_reported(self):
        cand = {"h1": Matrix.identity(2), "S1.0": Matrix.identity(2),
                "X9": Matrix.identity(2)}
        assert verify_candidate(self.sc, cand) == ["S1.1: missing assignment",
                                                   "X9: not a scaffold generator"]

    def test_katz_formal_pattern_is_cyclic(self):
        sck = build_scaffold(WildSurface(0, [KATZ], 2))
        pd = sck.punctures[0]
        assert sorted(pd.formal_blocks) == [(0, 1), (1, 0)]


class TestFramedAssembly:
    def test_tame_sphere_verdict(self):
        sc = build_scaffold(WildSurface(0, [TAME2], 2))
        fp = to_framed_point(sc, {"h1": Matrix.identity(2)})
        rep = is_stable(fp)
        assert rep.polystable and not rep.stable
        assert rep.stabilizer_dim == 4

    def test_two_circle_forced_point(self):
        sc = build_scaffold(WildSurface(0, [TWO_CIRCLE], 2))
        cand = {"h1": Matrix.identity(2), "S1.0": Matrix.identity(2),
                "S1.1": Matrix.identity(2)}
        rep = is_stable(to_framed_point(sc, cand))
        assert rep.polystable and not rep.stable

    def test_unverified_rejected(self):
        sc = build_scaffold(WildSurface(0, [TWO_CIRCLE], 2))
        cand = {"h1": build([[2, 0], [0, 1]]),
                "S1.0": Matrix.identity(2), "S1.1": Matrix.identity(2)}
        with pytest.raises(InvalidCandidate):
            to_framed_point(sc, cand)

    def test_loops_follow_the_generator_order(self):
        # handles as they are, then h_1 (a tame puncture has no S_1.*), then
        # C_2^-1 x C_2 for h_2 and S_2.*; the gradings are the punctures' sheet gradings
        sc = build_scaffold(WildSurface(1, [TAME2, TWO_CIRCLE], 2))
        a = random_candidate(sc, 3)
        c = a["C2"]
        expected = [a["a1"], a["b1"], a["h1"]]
        expected += [c.inverse() @ a[name] @ c for name in ("h2", "S2.0", "S2.1")]
        fp = to_framed_point(sc, a)
        assert [loop.g for loop in fp.loops] == expected
        assert all(loop.inner.is_identity() and not loop.sigma for loop in fp.loops)
        assert fp.connectors == [c]
        assert [pieces_of(g) for g in fp.gradings] == \
            [pieces_of(exponential_torus_grading(pd.sheets, sc.n, sc.conductor))
             for pd in sc.punctures]

    def test_one_elimination_per_verified_handle_and_connector(self, monkeypatch):
        # verify inverts the handles and the connector, as the relation does,
        # and the framed point reads those kept inverses; it ranks the formal
        # monodromies, and the point ranks its other loops, h_1, S_1.* and
        # the conjugated h_2 and S_2.*, once each
        sc = build_scaffold(WildSurface(1, [TWO_CIRCLE, TWO_CIRCLE], 2))
        cand = {name: Matrix(a.rows, a.cols, a.m, a.nums, a.den)   # no inverse kept yet
                for name, a in random_candidate(sc, 0).items()}
        eliminations, real = [], linalg._EchelonSet.__init__

        def counted(self, width, m):
            eliminations.append(width)
            real(self, width, m)

        monkeypatch.setattr(linalg._EchelonSet, "__init__", counted)
        fp = to_framed_point(sc, cand)
        kinds = [g.kind for g in sc.generators]
        assert kinds == ["handle_a", "handle_b", "formal", "stokes", "stokes", "connector",
                         "formal", "stokes", "stokes"]
        # three inversions [x | I], two ranks of formal monodromies, six ranks of loops
        assert len(fp.loops) == 8 and sorted(eliminations) == [2] * 8 + [4] * 3

    def test_grading_compatibility(self):
        sc = build_scaffold(WildSurface(0, [KATZ], 2))
        cand = random_candidate(sc, 0)
        fp = to_framed_point(sc, cand)
        assert fp.n == 2 and len(fp.gradings) == 1
        assert [basis for _, basis in pieces_of(fp.gradings[0])] == [[(1, 0)], [(0, 1)]]


class TestSampling:
    def test_tame_sphere_forced(self):
        sc = build_scaffold(WildSurface(0, [TAME2], 2))
        cand = random_candidate(sc, 5)
        assert cand["h1"] == Matrix.identity(2)

    def test_genus_one_tame(self):
        sc = build_scaffold(WildSurface(1, [TAME2], 2))
        for seed in range(4):
            cand = random_candidate(sc, seed)
            assert verify_candidate(sc, cand) == []
        a, b, h = (cand[k] for k in ("a1", "b1", "h1"))
        assert a @ b @ a.inverse() @ b.inverse() @ h == Matrix.identity(2)

    def test_two_circle_seeds(self):
        sc = build_scaffold(WildSurface(0, [TWO_CIRCLE], 2))
        for seed in range(6):
            cand = random_candidate(sc, seed)
            assert verify_candidate(sc, cand) == []

    def test_framing_spread_inverts_once_per_puncture(self, monkeypatch):
        sc = build_scaffold(WildSurface(1, [TWO_CIRCLE, TAME2], 2))
        assignment = random_candidate(sc, 3)
        inverted = []
        real = Matrix.inverse
        monkeypatch.setattr(Matrix, "inverse", lambda self: inverted.append(self) or real(self))
        spread = _apply_framing_spread(random.Random(0), sc, assignment)
        assert len(inverted) == len(sc.punctures) == 2
        assert verify_candidate(sc, spread) == []

    def test_katz_seeds_verify(self):
        sc = build_scaffold(WildSurface(0, [KATZ], 2))
        for seed in range(6):
            assert verify_candidate(sc, random_candidate(sc, seed)) == []

    def test_genus_with_wild_puncture(self):
        sc = build_scaffold(WildSurface(1, [TWO_CIRCLE], 2))
        cand = random_candidate(sc, 2)
        assert verify_candidate(sc, cand) == []

    def test_two_punctures_mixed(self):
        sc = build_scaffold(WildSurface(0, [TAME2, TWO_CIRCLE], 2))
        for seed in range(3):
            cand = random_candidate(sc, seed)
            assert verify_candidate(sc, cand) == []

    def test_determinism(self):
        sc = build_scaffold(WildSurface(0, [KATZ], 2))
        assert random_candidate(sc, 7) == random_candidate(sc, 7)

    @pytest.mark.parametrize("surface, seed, digest", [
        (WildSurface(0, [TWO_CIRCLE, TAME2], 2), 3, "b85ef2304b1b276a"),  # free formal
        (WildSurface(1, [TWO_CIRCLE], 2), 2, "4c670bcbad2dbcbe"),  # genus commutator
        (WildSurface(0, [KATZ], 2), 7, "826061ac603f7172"),  # local factor
    ], ids=["free_formal", "genus_commutator", "local_factor"])
    def test_seeded_candidate_bytes(self, surface, seed, digest):
        # one pin per solve route of random_candidate
        cand = random_candidate(build_scaffold(surface), seed)
        text = json.dumps({name: mat.to_json() for name, mat in cand.items()}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("surface", [
        WildSurface(0, [IrregularClass([Circle(3, [(1, element(1))], 1)])], 3),  # ram 3, exponent 1
        WildSurface(1, [IrregularClass([Circle(1, [(1, element(1))], 1),
                                        Circle(1, [(1, element(-1))], 1),
                                        Circle(1, [(1, element(2))], 1)])], 3),  # genus one, rank 3
    ])
    def test_failure_counts_every_reason(self, surface):
        with pytest.raises(UnsolvableRelation) as info:
            random_candidate(build_scaffold(surface), 0)
        reasons = info.value.reasons
        assert reasons and sum(reasons.values()) == 40
        message = str(info.value)
        assert "\n" not in message and "after 40 seeded attempts" in message
        for reason, count in reasons.items():
            assert f"{count} x {reason}" in message


@settings(max_examples=15)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2)]), min_size=3, max_size=3,
                unique=True),
       st.booleans(), st.integers(0, 10 ** 6))
def test_stokes_stabilizer_matches_exact_solve(coeffs, tame, seed):
    # three exponent-1 circles at n = 3: distinct 1-dim Levi blocks, or with
    # a second, tame puncture usually the whole algebra
    wild = IrregularClass([Circle(1, [(1, element(a))], 1) for a in coeffs])
    punctures = [wild, IrregularClass([Circle(1, [], 3)])] if tame else [wild]
    sc = build_scaffold(WildSurface(0, punctures, 3))
    try:
        cand = random_candidate(sc, seed)
    except UnsolvableRelation:
        assume(False)
    p = to_framed_point(sc, cand)
    assert is_stable(p).stabilizer_dim == stabilizer_lie_dim(p) == stabilizer_lie_dim_commutant(p)


@settings(max_examples=80)
@given(st.data())
def test_block_support_violation_matches_the_identity_difference(data):
    # block-supported Stokes and formal matrices, then up to two entries
    # overwritten anywhere, the diagonal included
    cls = data.draw(st.sampled_from([TWO_CIRCLE, KATZ, MULTI, RAM3]))
    sc = build_scaffold(WildSurface(0, [cls], cls.rank))
    pd, n, m = sc.punctures[0], sc.n, sc.conductor
    shift = data.draw(st.booleans())
    pattern = data.draw(st.sampled_from([pairs for _, pairs in pd.directions])) if shift \
        else pd.formal_blocks
    value = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])
    mat = Matrix.identity(n, m) if shift else Matrix.zero(n, n, m)
    for i, j in pattern:
        si, sj = pd.sheets[i], pd.sheets[j]
        block = [[data.draw(value) for _ in range(sj.size)] for _ in range(si.size)]
        mat = mat.place(si.start, sj.start, build(block, m))
    for _ in range(data.draw(st.integers(0, 2))):
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        entry = data.draw(st.one_of(value, st.just(zeta(m)) if m > 1 else value))
        mat = mat.place(r, c, build([[entry]], m))
    assert _block_support_violation(mat, pd.sheets, pattern, shift) == \
        block_support_violation_reference(mat, pd.sheets, pattern, shift)


@st.composite
def irregular_classes(draw):
    """An irregular class over Q, Q(i), Q(zeta3), Q(zeta5) or Q(zeta8):
    one to three circles of ramification 1 to 4, each minimally ramified,
    with up to three nonzero coefficients of that field (an unramified
    circle may be tame)."""
    m = draw(st.sampled_from([1, 4, 3, 5, 8]))
    coefficient = st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
                           min_size=euler_phi(m), max_size=euler_phi(m))
    circles = []
    for _ in range(draw(st.integers(1, 3))):
        ram = draw(st.integers(1, 4))
        exps = draw(st.lists(st.integers(1, 6), min_size=0 if ram == 1 else 1, max_size=3,
                             unique=True))
        assume(math.gcd(ram, *exps) == 1)
        cs = [from_coeffs(m, draw(coefficient)) for _ in exps]
        assume(all(not c.is_zero() for c in cs))
        circles.append(Circle(ram, [(j, element(c)) for j, c in zip(exps, cs)],
                              draw(st.integers(1, 2))))
    try:
        return IrregularClass(circles)
    except ValueError:  # two sheets share one exponential factor
        assume(False)


@settings(max_examples=80)
@given(irregular_classes())
def test_sheets_and_directions_match_the_scalar_route(cls):
    # the sheets' coefficients are one numerator map of the circles' (a
    # promotion times a root of unity), and the directions' angles come
    # from the 1 x 1 differences; both equal the Scalar route's, the
    # floats bit for bit
    assert [{e: entries(a)[0] for e, a in s.q.items()} for s in cls.sheets] == \
        sheets_reference(cls)
    got = [(d.theta, d.pair, d.level) for d in singular_directions(cls)]
    assert got == singular_directions_reference(cls)
