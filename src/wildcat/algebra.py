"""Unital matrix algebras: spinning, radicals, invariant subspaces, decomposition.

The semisimplicity oracle at the centre of the stability engine.  A tuple of
invertible matrices generates the same unital algebra as the Zariski closure
of the group they generate (inverses come for free by Cayley-Hamilton), so in
characteristic zero the natural module is semisimple exactly when that group
is linearly reductive.

Spinning keeps an echelon basis of words in the generators.  Every word is a
shorter word times a generator, so only kept words are extended, each by
one side; the spin stops as soon as it holds N^2 independent words.
``_spin_left`` is the one closure loop: the exact algebra spin, the
submodule spanned by vectors, the spins of one vector modulo a prime in
Norton's test, and the powers of one matrix (its minimal polynomial) all
run on it.  The exact spins extend each kept word, its integer echelon row
as stored, by right factors through the one integer product,
``linalg._product``: the algebra as w g, which spans the same unital
algebra as g w and so gives the same canonical basis, a submodule as
v^T g^T, and the powers of f as w f.  No Matrix or Scalar is built per word.

Whether the algebra is all of M_N(K), K = Q(zeta_m), is first asked modulo a
small prime q = 1 (mod m) by Norton's irreducibility test
(``_spans_full_mod_p``, after Parker 1984 and Holt and Rees 1994), in about
N^3 steps per element tried.  The ring map zeta_m -> r onto F_q
(``modular``, which also gives the prime and the echelon) carries a word in
the generators to the same word in their images.  A null vector of a - l I,
a line, that spins to F_q^N, and one of its transpose that spins to the
dual, prove the images absolutely irreducible, so by Burnside they span
M_N(F_q): N^2 words have images independent over F_q, the determinant of
their N^2 coordinate rows maps to a nonzero element, so it is nonzero, and
the algebra is M_N(K), which is simple (radical 0, module irreducible).
False proves nothing (q may be unlucky, or no element tried has a simple
eigenvalue); the exact spin decides then.

The radical is ``radical_trace``: the null space of the trace form of the
natural module, zero without any Gram matrix once the algebra has dimension
N^2.  An independent second route (the trace form of the left regular
module, from structure constants, with no shortcut for M_N(K)) is kept as a
test oracle in ``tests/oracles.py``; the two must agree on every input.

Invariant-subspace search is a MeatAxe over the exact coefficient field:
kernel and eigenvalue candidates, then a proof-grade fallback through the
radical, the commutant, and polynomial factorisation over the field.  The
modular certificate of M_N(K) runs once per module before it: in
``spin_algebra`` for the whole module, in ``decompose_irreducibles`` for
each summand.  That factorisation (``factor_over_field``) follows Trager:
the norm, an integer polynomial, is factored over Z by the package's own
Zassenhaus algorithm (``modular.factor_integer``), and Euclid's algorithm
over the field recovers the factors.  A polynomial over the field is a
1 x (d + 1) Matrix, its coefficients low -> high as integer numerators over
one denominator; Trager's shift and Euclid's gcd run on those numerators,
each remainder a residue against the one exact echelon, so no Scalar is
made; each factor q is evaluated at the element from the integer rows of
its powers.  A returned subspace is always a genuine submodule; ``None`` is
only returned with a proof of irreducibility over the field.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional

from .linalg import (
    Matrix,
    Subspace,
    _EchelonSet,
    _matrix,
    _product,
    _right_factor,
    _times,
    kernel,
    sandwich_rows,
    stack,
)
from .modular import (
    _charpoly_mod,
    _EchelonModP,
    _horner_mod,
    _image_map,
    _prime_and_root,
    factor_integer,
    null_space_mod_p,
)
from .scalars import euler_phi, inverse_numerators, multiplication_matrix, power_numerators


class NotSemisimpleError(Exception):
    """Raised when an operation requiring a semisimple module meets a radical."""


class MeatAxeInconclusive(Exception):
    """Raised when irreducibility over the field cannot be certified: only
    on an isotypic module V^k whose endomorphism ring M_k(D) is not
    commutative (a noncommutative division algebra D, or k > 1), when no
    element tried splits it.  Never returns a wrong verdict."""


@dataclass
class MatrixAlgebra:
    """A unital subalgebra of n x n matrices: ``rows`` is its reduced
    echelon basis, one element per row, flattened row-major."""

    ambient_n: int
    rows: Matrix                   # dim x n^2

    @property
    def dim(self) -> int:
        return self.rows.rows


def _spin_left(words, gens, mul, add, full: int) -> list:
    """What ``add`` kept of each independent word of a one-sided spin, in
    order; ``mul(g, e)`` is g e (the spins mod p) or e g (the exact spins).

    ``add(w)`` inserts a word into an echelon and returns what the spin
    extends it by, or None if it was dependent: the word itself, or its
    echelon row e.  e is a nonzero multiple of w plus earlier kept words,
    which are extended first, so ``mul(g, e)`` is a multiple of
    ``mul(g, w)`` plus products already inserted: it is independent exactly
    when ``mul(g, w)`` is, and keeps the same span.  Kept words are
    extended for every generator g until no new word is independent or
    ``full`` words are kept.  They span the closure: their span holds the
    start words and is closed under multiplication by every generator on
    that side.
    """
    kept = [e for e in map(add, words) if e is not None]
    frontier = list(kept)
    while frontier and len(kept) < full:
        nxt = []
        for w in frontier:
            for g in gens:
                if len(kept) == full:
                    return kept
                e = add(mul(g, w))
                if e is not None:
                    kept.append(e)
                    nxt.append(e)
        frontier = nxt
    return kept


_SMALL_PRIME_FLOOR = 64
_NORTON_TRIALS = 8


def _spins_to_all(gens, v, n: int, q: int) -> bool:
    """Whether v spins to all of F_q^n under the matrices gens (rows)."""
    ech = _EchelonModP(q, n)
    return len(_spin_left([v], gens, lambda g, e: [sum(map(operator.mul, gi, e)) for gi in g],
                          ech.insert, n)) == n


def _norton_elements(gens, q: int):
    """The fixed elements Norton's test tries, each a short word in the
    generators' images (rows over F_q): y_t = y_(t-1) g_(t mod k) +
    t g_((t+1) mod k) for t = 1, 2, ..., from y_0 = g_0, for k generators."""
    k, y = len(gens), gens[0]
    for t in range(1, _NORTON_TRIALS + 1):
        cols = list(zip(*gens[t % k]))
        y = [[(sum(map(operator.mul, row, col)) + t * z) % q for col, z in zip(cols, g_row)]
             for row, g_row in zip(y, gens[(t + 1) % k])]
        yield y


def _norton_images(generators, m: int):
    """(q, images): the generators' entries mapped to F_q by zeta_m -> r,
    q the first prime > 64 with q = 1 (mod m) that divides none of their
    denominators (``_prime_and_root``, from ``_SMALL_PRIME_FLOOR`` up).
    Only finitely many primes divide the denominators, so the walk ends."""
    q = _SMALL_PRIME_FLOOR
    while True:
        q, r = _prime_and_root(m, q, True)
        image = _image_map(q, r, euler_phi(m))
        images = [image(g.nums, g.den) for g in generators]
        if None not in images:
            return q, images


def _spans_full_mod_p(generators, n: int, m: int) -> bool:
    """True only if words in the generators span all of M_n(Q(zeta_m)), by
    Norton's irreducibility test over a small prime field (Parker, "The
    computer calculation of modular characters (the Meat-Axe)", 1984;
    Holt and Rees, "Testing modules for irreducibility", J. Austral. Math.
    Soc. 1994).

    The generators are mapped to F_q by zeta_m -> r, where q is the smallest
    prime > 64 with q = 1 (mod m) or, when q divides a denominator, the next
    such prime that divides none (``_norton_images``).
    For each element a of ``_norton_elements`` and each eigenvalue l in F_q
    of a (a root of its characteristic polynomial), theta = a - l I is kept
    if its null space is a line <v>; the null space of theta^T is then a
    line <w> too.  Then True iff v spins to all of F_q^n under the images
    and w under their transposes.  The first kept theta decides; with none,
    False.  A larger null space has its first null vector spun: if that
    stops short, it spans a proper submodule mod q, with which no kept theta
    gives True (below), so False at once (V^k, k > 1, at its first root).

    Why True proves M_n(K).  Let U be a proper nonzero submodule mod q.  If
    theta is singular on U, then v lies in U.  Otherwise theta is invertible
    on U, so it is singular on F_q^n / U, and theta^T is singular on U^perp
    (nonzero, proper, and invariant under the transposes): w lies in U^perp.
    Either way one of the two spins stops short, so two full spins make the
    module irreducible mod q.  Its endomorphisms then form a finite division
    ring, a field F_(q^e); they commute with theta, so ker theta is a vector
    space over that field, and e divides dim ker theta = 1: the module is
    absolutely irreducible.  By Burnside the images span M_n(F_q), so n^2
    words have images independent mod q.  zeta_m -> r is a ring map on
    Z_(q)[zeta_m], so the determinant of those words' n^2 coordinate rows
    maps to a nonzero element of F_q: it is nonzero, and the words are
    independent over K.

    q is small so that all of F_q is searched for eigenvalues by evaluating
    the characteristic polynomial; it is above 64 so that an element of
    M_n(F_q) has a simple eigenvalue in F_q with probability near 1 - 1/e.
    On 400 random draws of one to three generators (n = 5..9) and 194
    sigma-twisted generic points (n = 6..14), every draw that reached such
    an element did so by the seventh, so ``_NORTON_TRIALS`` = 8 elements
    make a miss rare.  A module that is reducible or not absolutely
    irreducible mod q, images scalar mod q, or a miss make the test say
    False, which proves nothing: the callers then decide exactly.
    """
    q, images = _norton_images(generators, m)
    gens = [[g[i * n:(i + 1) * n] for i in range(n)] for g in images]
    for a in _norton_elements(gens, q):
        chi = _charpoly_mod(a, q)
        for lam in range(q):
            if _horner_mod(chi, lam, q):
                continue
            theta = [[x - lam if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(a)]
            (_, v), *rest = null_space_mod_p(theta, n, q)   # lam is a root: theta is singular
            if not rest:
                ((_, w),) = null_space_mod_p(list(zip(*theta)), n, q)
                return _spins_to_all(gens, v, n, q) and \
                    _spins_to_all([list(zip(*g)) for g in gens], w, n, q)
            if not _spins_to_all(gens, v, n, q):
                return False   # a proper submodule mod q (docstring)
    return False


def _spin_exact(rights, starts, rows: int, m: int) -> _EchelonSet:
    """The echelon of the spin over Q(zeta_m) of the start words, the
    numerators of rows x n matrices (row-major, phi(m) per entry), by the
    n x n matrices ``rights`` on the right: each kept echelon row e
    (``_spin_left``) goes to e g by ``_product``, with no Matrix built."""
    width = rows * rights[0].cols
    ech = _EchelonSet(width, m)
    _spin_left(starts, [g.right_factor() for g in rights],
               lambda b, e: _product(e, rows, b), ech.insert, width)
    return ech


def spin_algebra(generators) -> MatrixAlgebra:
    """Smallest unital algebra of n x n matrices containing the generators,
    of which there is at least one (the identity spins the scalars).

    The matrix units, the rows of the shared n^2 x n^2 identity, are
    returned without an exact spin when Norton's test mod a small prime
    (``_spans_full_mod_p``) proves the algebra all of M_n(K).  Where it
    cannot (an unlucky prime, no simple eigenvalue, or a smaller algebra),
    the exact spin decides, and it returns the same matrix units on a full
    algebra, so the basis does not depend on which route ran."""
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square of one common size")
    m = generators[0].m
    if _spans_full_mod_p(generators, n, m):
        return MatrixAlgebra(n, Matrix.identity(n * n, m))
    starts = [w.nums for w in [Matrix.identity(n, m)] + list(generators)]
    return MatrixAlgebra(n, _spin_exact(generators, starts, n, m).matrix(0, n * n))


def radical_trace(alg: MatrixAlgebra) -> Subspace:
    """Radical, as a subspace of the flattened n^2 space: the null space of
    the Gram matrix tr(b_i b_j) on the algebra.

    An algebra of dimension N^2 is M_N(K), which is simple: radical 0.  The
    Gram matrix is one product, since tr(b_i b_j) = vec(b_i) . vec(b_j^T):
    vec(b^T) is vec(b) with entry (i, j) moved to (j, i), so the second
    factor is the transpose of the basis rows with its rows so permuted.
    Its entries are those of the trace form, and the radical, an echelon
    basis, is unique, so it is the same Subspace whichever way they are
    summed.
    """
    n, vecs = alg.ambient_n, alg.rows
    if alg.dim == n * n:
        return Subspace.zero(n * n, vecs.m)
    perm = [j * n + i for i in range(n) for j in range(n)]
    ker = kernel(vecs @ vecs.transpose().submatrix(perm, 0, alg.dim))
    if ker.dim == 0:
        return Subspace.zero(n * n, vecs.m)
    return Subspace.span(ker.matrix @ vecs)


# ---------------------------------------------------------------------------
# module machinery


def spin_subspace(generators, starts: Matrix) -> Subspace:
    """Submodule of K^n generated by the rows of starts, spun as v^T g^T."""
    return Subspace(_spin_exact([g.transpose() for g in generators], starts.int_rows(), 1,
                                starts.m))


def intertwiner_rows(acts_a, acts_b) -> Matrix:
    """The coefficient rows (``sandwich_rows``) of b h - h a, h an n x n
    unknown, for every pair (a, b) of n x n actions; there is at least one
    pair."""
    return stack([sandwich_rows([(gb, None, False), (None, -ga, False)])
                  for ga, gb in zip(acts_a, acts_b)])


def commutant(generators):
    """Echelon basis of {x : x g = g x for all generators g}."""
    n = generators[0].rows
    return kernel(intertwiner_rows(generators, generators)).matrices(n, n)


def restrict_matrix(g: Matrix, sub: Subspace) -> Matrix:
    """Coordinate matrix R of g on an invariant subspace: g B = B R, B the
    echelon basis as columns.  Row i of R is row p_i of g B, p_i the i-th
    pivot, since row p_i of B is e_i; g B = B R checks the invariance."""
    cols = sub.matrix.transpose()
    image = g @ cols
    coords = image.submatrix(sub.pivots, 0, image.cols)
    if cols @ coords != image:
        raise ValueError("subspace is not invariant under the matrix")
    return coords


def _reversed(v: list, phi: int) -> list:
    """The entries of v (phi numerators each) in reversed order."""
    return [x for t in range(len(v) - phi, -1, -phi) for x in v[t:t + phi]]


def invariant_complement(comm, sub: Subspace) -> Subspace:
    """A complementary submodule of sub, given ``comm``, the echelon basis
    E_i of the module's commutant E (it exists whenever the module is
    semisimple).

    It is the kernel of a projection e onto sub that commutes with every
    generator, so e = sum u_i E_i lies in E, and the system has dim E
    unknowns u, not n^2: the columns of e lie in sub (the rows of sub's
    annihilator A kill them, A e = 0) and e fixes sub pointwise (B^T e^T =
    B^T, B sub's basis as columns).  A is read off sub's reduced echelon
    rows b_i over den, pivots p_i: den (e_j - sum_i b_i[j] e_(p_i)) per free
    column j (any basis of the annihilator keeps the system's solutions).
    Its rows are the entries of A N_i and B^T N_i^T, N_i the numerators of
    E_i, as integer products (``_product``), so no Matrix and no Scalar is
    multiplied.  With b their right-hand side (0, then B^T), the kernel of
    [-b | rows] in (t, u) has an echelon row with t = 1 exactly when a
    projection exists; its other rows have t = 0 and give the homogeneous
    solutions h = sum u_i N_i.

    Where the complement is not unique, the projection is the one that
    ``linear_solve`` returns on the system in e's n^2 entries (these rows
    and the commuting ones), which is zero at that system's free columns,
    so the complement keeps its bytes.  The kernel vector of a free column
    f is 1 at f, 0 at the other free columns, and nonzero elsewhere only at
    pivots before f.  So in reversed column order the homogeneous
    solutions' echelon has exactly the free columns as pivots, and a
    particular solution reduced by it is zero there: it is that one, up to
    a factor, which leaves the kernel as it is.
    """
    n, s = sub.ambient_dim, sub.dim
    m = comm[0].m
    phi = euler_phi(m)
    width = n * phi
    fixed = sub.matrix  # B^T
    ann = [0] * ((n - s) * width)   # A (docstring)
    for t, j in enumerate(j for j in range(n) if j not in sub.pivots):
        ann[t * width + j * phi] = fixed.den
        for i, piv in enumerate(sub.pivots):
            at, to = i * width + j * phi, t * width + piv * phi
            ann[to:to + phi] = [-x for x in fixed.nums[at:at + phi]]
    # per E_i, the entries of A N_i, then those of B^T N_i^T
    cols = [_product(ann, n - s, b.right_factor()) +
            _product(fixed.nums, s, b.transpose().right_factor()) for b in comm]
    rhs = [0] * ((n - s) * width) + fixed.nums
    rows = [x for t in range(0, n * width, phi)
            for x in [-y for y in rhs[t:t + phi]] + [c for col in cols for c in col[t:t + phi]]]
    ker = kernel(Matrix(n * n, len(comm) + 1, m, rows))
    if not ker.dim or ker.pivots[0] != 0:
        raise NotSemisimpleError("no invariant complement: module is not semisimple")
    # sum u_i N_i for every kernel vector (t, u): the u as rows times the N_i as rows
    us = [x for v in ker.matrices(1, len(comm) + 1) for x in v.nums[phi:]]
    sums = _product(us, ker.dim, _right_factor([x for b in comm for x in b.nums], n * n, m))
    first, *rest = [sums[t:t + n * width] for t in range(0, len(sums), n * width)]
    if rest:
        ech = _EchelonSet(n * n, m)
        for h in rest:
            ech.insert(_reversed(h, phi))
        first = _reversed(ech.residue(_reversed(first, phi)), phi)
    return kernel(Matrix(n, n, m, first))


# ---------------------------------------------------------------------------
# polynomial factorisation over the coefficient field (Trager's norm method)


def _norm(p: Matrix, m: int) -> list:
    """Integer coefficients, low -> high, of a nonzero multiple of the norm
    prod_k sigma_k(p) of the row p over Q(zeta_m): p's numerators, times
    each conjugate's over Z[zeta_m], coefficient by coefficient through
    multiplication matrices.  The norm lies in Q[x], so only each
    coefficient's first numerator can be nonzero."""
    phi, nums = euler_phi(m), p.nums
    norm = nums
    for k in range(2, m):
        if gcd(k, m) != 1:
            continue
        out = [0] * (len(norm) + len(nums) - phi)
        for j in range(0, len(nums), phi):
            y = power_numerators(m, nums[j:j + phi], k)
            if any(y):
                for t, z in enumerate(_times(multiplication_matrix(m, y), norm, 0, phi), j):
                    out[t] += z
        norm = out
    return norm[::phi]


def _shift(p: Matrix, s: int) -> Matrix:
    """The row of p(x + s zeta), zeta = zeta_m and phi(m) > 1, by Horner's
    rule on p's numerators: s zeta is integral, so the denominator stays."""
    m, phi, nums = p.m, euler_phi(p.m), p.nums
    table = multiplication_matrix(m, [0, s] + [0] * (phi - 2))
    out = nums[-phi:]
    for t in range(len(nums) - 2 * phi, -1, -phi):   # c + (x + s zeta) out
        out = list(map(operator.add, nums[t:t + phi] + out, _times(table, out, 0, phi) + [0] * phi))
    return _matrix(1, p.cols, m, out, p.den)


def _poly_gcd(a: Matrix, b: Matrix) -> Matrix:
    """The monic gcd of a nonzero polynomial a and a monic b, by Euclid's
    algorithm on the rows' numerators.  Read highest coefficient first, a
    mod b is the one vector of a + span(x^k b) that is zero at the leading
    places of the x^k b, so a multiple of it is a's residue against their
    echelon (``_EchelonSet``); the inverse of its leading coefficient
    (``inverse_numerators``) makes it monic."""
    m, phi = a.m, euler_phi(a.m)
    while True:
        steps, b_desc = max(a.cols - b.cols + 1, 0), _reversed(b.nums, phi)
        ech = _EchelonSet(a.cols, m)
        for k in range(steps):
            ech.insert([0] * (k * phi) + b_desc + [0] * ((steps - 1 - k) * phi))
        r = _reversed(ech.residue(_reversed(a.nums, phi))[steps * phi:], phi)
        while r and not any(r[-phi:]):
            r = r[:-phi]
        if not r:
            return b
        y, d = inverse_numerators(m, r[-phi:])
        a, b = b, _matrix(1, len(r) // phi, m, _times(multiplication_matrix(m, y), r, 0, phi), d)


def factor_over_field(coeffs: Matrix, m: int):
    """Irreducible monic factors (with multiplicity) of a monic polynomial
    over K = Q(zeta_m), by Trager's norm method (Trager, "Algebraic factoring
    and rational function integration", SYMSAC 1976).

    ``coeffs`` is the polynomial's row, a 1 x (d + 1) Matrix over K with its
    coefficients low -> high.  Returns a list of (factor row, multiplicity),
    sorted by degree and then by coefficients.  Everything runs on the rows'
    integer numerators, and no Scalar is made.

    For s = 0, 1, 2, ... the shift p_s(x) = p(x + s zeta) has the norm
    N_s = prod_k sigma_k(p_s) over the phi(m) automorphisms sigma_k: zeta ->
    zeta^k of K, a polynomial over Q, which is computed on integer
    numerators up to a constant factor (``_norm``) and factored over Z
    (``modular.factor_integer``, Zassenhaus), whose factors are primitive, so
    the constant changes none of them.  Each
    irreducible factor r of N_s, of multiplicity e, gives q = gcd_K(p_s, r),
    and the shift is accepted when phi(m) deg q = deg r for every r.  Then
    (q(x - s zeta), e) are the factors of p.

    Why acceptance proves the result: write p_s = prod g_i^(a_i) over K, the
    g_i distinct, monic and irreducible.  N(g_i) = h_i^(c_i) for a
    Q-irreducible h_i, and g_i divides h_i (it divides N(g_i)) and no other
    irreducible r.  So q = prod of the g_i with h_i = r, and phi deg q =
    sum c_i deg r, which equals deg r only if exactly one g_i has h_i = r,
    with N(g_i) = r.  Every g_i has its h_i among the r, so the q are all
    the factors, and N_s = prod N(g_i)^(a_i) makes e the multiplicity a_i
    of q in p_s.

    Why the loop ends: a shift fails only when the norm of the squarefree
    part of p_s has a repeated root.  Conjugating by an automorphism of the
    splitting field, a repeat is alpha - s zeta = beta - s zeta^l for a root
    alpha of p, a root beta of sigma_l(p) and l != 1, so
    s = (alpha - beta) / (zeta - zeta^l): at most d^2 (phi(m) - 1) shifts
    fail, d = deg p.  When phi(m) = 1, N_0 = p and q = r / lead(r).
    """
    phi, d = euler_phi(m), coeffs.cols - 1
    for s in range(d * d * (phi - 1) + 1):
        ps = _shift(coeffs, s) if s else coeffs
        _, factors = factor_integer(_norm(ps, m))
        out = []
        for r, mult in factors:
            # r / lead(r) over K: each coefficient's first numerator
            lead, nums = r[-1], [0] * (len(r) * phi)
            nums[::phi] = r if lead > 0 else [-c for c in r]
            rk = _matrix(1, len(r), m, nums, abs(lead))
            q = rk if phi == 1 else _poly_gcd(ps, rk)
            if phi * (q.cols - 1) != len(r) - 1:
                break
            out.append((_shift(q, -s) if s else q, mult))
        else:
            out.sort(key=lambda t: (t[0].cols, t[0].sort_key()))
            return out
    raise ArithmeticError(f"no shift s <= {d * d * (phi - 1)} separates the norm")


def minimal_polynomial(f: Matrix):
    """(coeffs, powers, den): the monic minimal polynomial of f, of degree
    d, as its row (a 1 x (d + 1) Matrix, coefficients low -> high, as
    ``factor_over_field`` takes it), and the integer rows it was solved
    on, powers[i] the numerators of (den f)^i for i < d (row-major, phi(m)
    per entry), den the common denominator of f's entries.

    The powers are spun into one echelon on integer rows, as in
    ``_spin_exact`` (w to w (den f) by ``_product``), until (den f)^d is
    the first that depends on the earlier ones, so no Matrix product is
    made.  The relation
    (den f)^d + sum v_i (den f)^i = 0 is the kernel of the powers' entries
    at the echelon's pivot columns, where the earlier powers are
    independent, so it is one line, whose echelon vector has v_d = 1 when
    v_d is the first unknown; then the coefficients are v_i / den^(d - i),
    over den^d the numerators of v_i times den^i.
    """
    n, m, den = f.rows, f.m, f.den
    phi = euler_phi(m)
    right = f.right_factor()
    ech = _EchelonSet(n * n, m)
    powers = _spin_left([Matrix.identity(n, m).nums], [right],
                        lambda b, w: _product(w, n, b),
                        lambda w: w if ech.insert(w) is not None else None, n * n)
    d, last = len(powers), _product(powers[-1], n, right)
    # unknowns v_d, ..., v_0: the kernel's echelon vector has v_d = 1
    rows = [x for j in ech.pivots for w in [last] + powers[::-1] for x in w[j * phi:(j + 1) * phi]]
    (v,) = kernel(Matrix(len(ech.pivots), d + 1, m, rows)).matrices(1, d + 1)
    nums = [x * den ** i for i in range(d + 1) for x in v.nums[(d - i) * phi:(d - i + 1) * phi]]
    return _matrix(1, d + 1, m, nums, v.den * den ** d), powers, den


# ---------------------------------------------------------------------------
# invariant subspaces (MeatAxe)


_MEATAXE_SEED = 0x5EED
_HUNT_BUDGET = 64


def _split_by_element(f: Matrix, n: int, m: int):
    """A proper nonzero kernel of q(f) for an irreducible factor q of the
    minimal polynomial of f (the characteristic polynomial has the same ones), or None.

    None for a non-scalar f proves its minimal polynomial irreducible: each
    factor q then has q(f) = 0 or q(f) invertible, not all are invertible
    (their product, with multiplicities, kills f), and q(f) = 0 makes q the
    minimal polynomial itself.

    q(f) is evaluated on the integer rows of the powers that
    ``minimal_polynomial`` spun, as one integer product, with no Matrix
    product; a q of the minimal polynomial's degree is that polynomial, so
    q(f) = 0 and it is skipped."""
    if f.is_zero() or f.is_scalar():
        return None
    ker_f = kernel(f)
    if 0 < ker_f.dim < n:
        return ker_f
    coeffs, powers, den = minimal_polynomial(f)
    phi = euler_phi(m)
    for fc, _ in factor_over_field(coeffs, m):
        k = fc.cols - 1
        if k == len(powers):
            continue   # q is the minimal polynomial: q(f) = 0
        # q(f) den^k = sum c_i den^(k - i) (den f)^i, an integer product of
        # the scaled coefficient row and the powers as rows (times fc.den,
        # which leaves the kernel as it is)
        row = [x * den ** (k - t // phi) for t, x in enumerate(fc.nums)]
        pf = _product(row, 1, _right_factor([x for w in powers[:k + 1] for x in w], n * n, m))
        kp = kernel(Matrix(n, n, m, pf))
        if 0 < kp.dim < n:
            return kp
    return None


def _products(comm):
    """prod(k, j): the numerators of d_k d_j e_k e_j, e_k the basis elements
    and d_k the denominator of e_k, as an integer product (``_product``)."""
    n = comm[0].rows
    return lambda k, j: _product(comm[k].nums, n, comm[j].right_factor())


def _centre_dim(comm, m: int) -> int:
    """The dimension of the centre of the algebra with basis ``comm``, in its
    coordinates: the c with sum c_k (e_k e_j - e_j e_k) = 0 for every j.
    The integer products scale column k by d_k and block j by d_j, which
    leaves the kernel's dimension as it is."""
    prod, k, n, phi = _products(comm), len(comm), comm[0].rows, euler_phi(m)
    brackets = [[[x - y for x, y in zip(prod(a, j), prod(j, a))] for a in range(k)]
                for j in range(k)]
    rows = [x for block in brackets for t in range(0, len(block[0]), phi)
            for col in block for x in col[t:t + phi]]
    return kernel(Matrix(k * n * n, k, m, rows)).dim


def invariant_subspace(generators, *, comm: Optional[list] = None) -> Optional[Subspace]:
    """A proper nonzero subspace invariant under all generators, if one exists.

    Over the coefficient field: ``None`` certifies that the natural module is
    irreducible over that field.  ``comm``, the echelon basis of the
    generators' commutant E, says the caller has proven the module
    semisimple (a zero radical) and solved E; the search then skips the
    spin, the radical and its own commutant, whose answers are known, and
    returns what it would return without them.

    A semisimple module whose commutant basis splits nothing is isotypic.
    A basis element b that ``_split_by_element`` does not split has an
    irreducible minimal polynomial mu, and it has mu on every isotypic
    component W_j, so Tr(b | W_j) = -(dim W_j / deg mu) c, c the coefficient
    of x^(deg mu - 1) in mu.  With two components, the linear form
    dim W_2 Tr_1 - dim W_1 Tr_2 then kills every basis element, so all of
    the commutant; but the projection onto W_1 lies in the commutant, and
    the form takes dim W_1 dim W_2 on it.  So the module is V^k with V
    irreducible, and its commutant is M_k(D), D = End(V) a division
    algebra.  Its centre is the field Z(D), in which no element has a
    reducible minimal polynomial, so no central element can split.  A
    commutative commutant (k = 1, D a field), one whose basis elements
    commute pairwise, proves the module irreducible; a noncommutative one
    leaves the unit-vector spins and the hunt.  The centre's dimension, in
    E's coordinates (``_centre_dim``), is only reported when they fail.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square of one common size")
    if n <= 1:
        return None
    m = generators[0].m
    ident = Matrix.identity(n, m)

    if all(g.is_scalar() for g in generators):
        return Subspace.span(ident.submatrix([0], 0, n))

    # cheap kernel candidates straight from the generators
    for f in generators:
        kf = kernel(f)
        if 0 < kf.dim < n:
            sub = spin_subspace(generators, kf.matrix)
            if 0 < sub.dim < n:
                return sub

    if comm is None:
        rad = radical_trace(spin_algebra(generators))
        if rad.dim > 0:
            # the columns of the radical's basis elements
            sub = Subspace.span(stack([b.transpose() for b in rad.matrices(n, n)]))
            if not (0 < sub.dim < n):
                raise AssertionError("radical image must be proper and nonzero")
            return sub
        comm = commutant(generators)

    # semisimple from here on
    if len(comm) == 1:
        return None  # commutant is scalars: absolutely irreducible

    for f in comm:
        sub = _split_by_element(f, n, m)
        if sub is not None:
            return sub

    # no basis element splits, so the module is isotypic (docstring)
    prod = _products(comm)
    if all(prod(k, j) == prod(j, k) for k, j in combinations(range(len(comm)), 2)):
        return None  # a commutative commutant: the module is irreducible

    # an isotypic module whose End (M_k(D), D a division algebra) is not
    # commutative; hunt for zero divisors before giving up
    for j in range(n):
        sub = spin_subspace(generators, ident.submatrix([j], 0, n))
        if 0 < sub.dim < n:
            return sub
    rng = random.Random(_MEATAXE_SEED)
    for _ in range(_HUNT_BUDGET):
        f = Matrix.zero(n, n, m)
        for b in comm:
            f = f + b.scale(rng.randint(-3, 3))
        for candidate in (f, f @ comm[-1] - comm[-1] @ f):
            sub = _split_by_element(candidate, n, m)
            if sub is not None:
                return sub
    raise MeatAxeInconclusive(
        f"MeatAxe inconclusive: the endomorphism ring (dimension {len(comm)}, centre "
        f"dimension {_centre_dim(comm, m)}) is not a field, and no element tried splits the module")


# ---------------------------------------------------------------------------
# decomposition


def decompose_irreducibles(generators, split: Optional[Subspace], comm: Optional[list]):
    """Irreducible summands of K^n, sorted canonically.

    Requires a semisimple module; the caller proves it (the engine reads it
    off the polystability verdict), and summands of a semisimple module are
    semisimple, so no search below spins.  ``split`` is the first split, a
    proper submodule as ``invariant_subspace(generators)`` returns it, or
    None for an irreducible module; ``comm`` is the generators' commutant,
    which solves its complement (read only with a split).  A summand of
    dimension 1 is irreducible as it is; each other summand has the
    generators restricted to it once, for Norton's test, and if that does
    not certify it, solves its own commutant once, for its search and its
    complement alike.  A summand with no invariant complement raises
    NotSemisimpleError.
    """
    def summands(sub: Subspace, inner: Optional[Subspace], comm):
        """Irreducible summands of sub, whose commutant is comm; inner is the
        search's proper submodule of sub's coordinates, or None."""
        if inner is None:
            return [sub]
        # each half of sub's coordinates, back in the ambient space
        halves = [Subspace.span(h.matrix @ sub.matrix)
                  for h in (inner, invariant_complement(comm, inner))]
        return [block for half in halves for block in decompose(half)]

    def decompose(sub: Subspace):
        if sub.dim == 1:
            return [sub]
        acts = [restrict_matrix(g, sub) for g in generators]
        if _spans_full_mod_p(acts, sub.dim, m):  # M_d(K)
            return [sub]
        comm = commutant(acts)
        return summands(sub, invariant_subspace(acts, comm=comm), comm)

    m = generators[0].m
    blocks = summands(Subspace.full(generators[0].rows, m), split, comm)
    blocks.sort(key=Subspace.sort_key)
    return blocks
