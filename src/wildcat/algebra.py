"""Unital matrix algebras: spinning, radicals, invariant subspaces, decomposition.

The semisimplicity oracle at the centre of the stability engine.  A tuple of
invertible matrices generates the same unital algebra as the Zariski closure
of the group they generate (inverses come for free by Cayley-Hamilton), so in
characteristic zero the natural module is semisimple exactly when that group
is linearly reductive.

Spinning keeps an echelon basis of words in the generators.  Every word is a
generator times a shorter word, so only kept words are extended, and only by
left factors; the spin stops as soon as it holds N^2 independent words.
``_spin_left`` is the one closure loop: the algebra spin (exact and modulo
p), the submodule spanned by vectors, and the powers of one matrix (minimal
polynomial, primitive element) all run on it.

Whether the algebra is all of M_N(K), K = Q(zeta_m), is first asked modulo a
word-size prime p = 1 (mod m) (``_spans_full_mod_p``, after Cohen, Ivanyos and
Wales, JPAA 1997, and Dixon, 1982).  With r a root of the m-th cyclotomic
polynomial mod p, zeta_m -> r is a ring map from Z_(p)[zeta_m] (coefficients
with denominators prime to p) onto F_p; it carries a word in the generators
to the same word in their images.  If N^2 words have images independent over
F_p, the determinant of their N^2 coordinate rows maps to a nonzero element,
so it is nonzero: the words are independent over K, and the algebra is
M_N(K), which is simple (radical 0, module irreducible).  A lower rank mod p
proves nothing (p may divide a denominator or be unlucky); the exact spin
decides then.

The radical is ``radical_trace``: the null space of the trace form of the
natural module, zero without any Gram matrix once the algebra has dimension
N^2.  An independent second route (the trace form of the left regular
module, from structure constants, with no shortcut for M_N(K)) is kept as a
test oracle in ``tests/oracles.py``; the two must agree on every input.

Invariant-subspace search is a MeatAxe over the exact coefficient field:
the modular certificate of M_N(K), kernel and eigenvalue candidates, then a
proof-grade fallback through the radical, the commutant, and polynomial
factorisation over the field.  A returned subspace is always a genuine
submodule; ``None`` is only returned with a proof of irreducibility over the
field.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional

from .linalg import Matrix, Subspace, _EchelonSet, kernel, linear_solve, sandwich_rows
from .scalars import Scalar, euler_phi


class NotSemisimpleError(Exception):
    """Raised when an operation requiring a semisimple module meets a radical."""


class MeatAxeInconclusive(Exception):
    """Raised when irreducibility over the field cannot be certified.

    Only reachable when the endomorphism ring is a noncommutative
    division-algebra candidate; deciding that case amounts to solving norm
    equations, which is out of scope.  Never returns a wrong verdict.
    """


def _field_of(generators) -> int:
    """Conductor of the generators' one field (Q for no generators)."""
    return generators[0]._conductor() if generators else 1


@dataclass
class MatrixAlgebra:
    """A unital subalgebra of n x n matrices, basis in canonical echelon order."""

    ambient_n: int
    basis: tuple
    conductor: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def _spin_left(words, gens, mul, add, full: int) -> list:
    """The independent words kept by a left-multiplication spin, in order.

    ``add(w)`` inserts a word into an echelon and says whether it was
    independent.  Kept words are extended by ``mul(g, w)`` for every
    generator g until no new word is independent or ``full`` words are kept.
    The kept words span the closure: their span holds the start words and is
    closed under left multiplication by every generator.
    """
    kept = [w for w in words if add(w)]
    frontier = list(kept)
    while frontier and len(kept) < full:
        nxt = []
        for w in frontier:
            for g in gens:
                if len(kept) == full:
                    return kept
                prod = mul(g, w)
                if add(prod):
                    kept.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return kept


_MODULUS_BOUND = 1 << 31


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


@lru_cache(maxsize=None)
def _modulus(m: int):
    """(p, r): the largest prime p < 2^31 with p = 1 (mod m), and a root r of
    the m-th cyclotomic polynomial mod p (r^m = 1, r^(m/q) != 1 for primes q | m)."""
    p = (_MODULUS_BOUND - 2) // m * m + 1
    while not _is_prime(p):
        p -= m
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for g in range(2, p):
        r = pow(g, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in primes):
            return p, r
    raise AssertionError("no primitive root of unity modulo p")


def _image_mod_p(g: Matrix, p: int, rpow):
    """Row-major entries of g under zeta_m -> r, or None if p divides a denominator."""
    out = []
    for x in g.entries:
        v = 0
        for c, rj in zip(x.coeffs, rpow):
            if c:
                if c.denominator % p == 0:
                    return None
                v += c.numerator * pow(c.denominator, -1, p) * rj
        out.append(v % p)
    return out


def _spans_full_mod_p(generators, n: int, m: int) -> bool:
    """True only if words in the generators span all of M_n(Q(zeta_m)).

    The generators are mapped to F_p by zeta_m -> r (``_modulus``), a ring
    map on Z_(p)[zeta_m], so the image of a word is the word in the images.
    Their left words are spun from I with an echelon over F_p.  n^2 images
    independent over F_p are images of n^2 words independent over the field,
    since the determinant of the words' coordinates maps to a nonzero one.
    False proves nothing: p may divide a denominator, or be unlucky.
    """
    p, r = _modulus(m)
    rpow = [pow(r, j, p) for j in range(euler_phi(m))]
    gens = []
    for g in generators:
        img = _image_mod_p(g, p, rpow)
        if img is None:
            return False
        gens.append(img)
    pivots = []   # sorted pivot columns
    tails = {}    # pivot -> echelon row from its pivot on, leading entry 1

    def add(vec) -> bool:
        vec = list(vec)
        for piv in pivots:
            f = vec[piv]
            if f:
                vec[piv:] = [(x - f * y) % p for x, y in zip(vec[piv:], tails[piv])]
        piv = next((j for j, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        inv = pow(vec[piv], -1, p)
        tails[piv] = [x * inv % p for x in vec[piv:]]
        insort(pivots, piv)
        return True

    def mul(a, b):
        cols = [b[j::n] for j in range(n)]
        return [sum(x * y for x, y in zip(a[i * n:(i + 1) * n], col)) % p
                for i in range(n) for col in cols]

    ident = [1 if k % (n + 1) == 0 else 0 for k in range(n * n)]
    return len(_spin_left([ident], gens, mul, add, n * n)) == n * n


def _matrix_units(n: int, m: int):
    """E_11, E_12, ..., E_nn: the reduced echelon basis of all of M_n."""
    one, zero = Scalar.one(m), Scalar.zero(m)
    return tuple(Matrix(n, n, tuple(one if k == u else zero for k in range(n * n)))
                 for u in range(n * n))


def spin_algebra(generators, ambient_n: Optional[int] = None) -> MatrixAlgebra:
    """Smallest unital algebra of n x n matrices containing the generators."""
    if not generators and ambient_n is None:
        raise ValueError("need generators or an ambient size")
    n = generators[0].rows if generators else ambient_n
    for g in generators:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square of one common size")
    m = _field_of(generators)
    if _spans_full_mod_p(generators, n, m):
        return MatrixAlgebra(n, _matrix_units(n, m), m)
    ech = _EchelonSet(n * n)
    _spin_left([Matrix.identity(n, m)] + list(generators), generators,
               lambda g, w: g @ w, lambda w: ech.add(list(w.flatten())), n * n)
    basis = tuple(Matrix(n, n, tuple(row)) for row in ech.rows)
    return MatrixAlgebra(n, basis, m)


@dataclass
class RadicalCertificate:
    radical: Subspace              # of the flattened n^2 space
    nilpotency_index: int          # least k with radical^k = 0 (1 when radical = 0)
    witness: Optional[Matrix]      # a nonzero radical element, absent iff radical = 0

    @property
    def dim(self) -> int:
        return self.radical.dim


def _certificate_from_rows(n: int, rows) -> RadicalCertificate:
    sub = Subspace.from_vectors(n * n, rows)
    if sub.dim == 0:
        return RadicalCertificate(sub, 1, None)
    mats = [Matrix(n, n, tuple(row)) for row in sub.basis]
    index = 1
    current = mats
    while current:
        index += 1
        ech = _EchelonSet(n * n)
        nxt = []
        for a in current:
            for b in mats:
                p = a @ b
                if ech.add(list(p.flatten())):
                    nxt.append(p)
        current = nxt
        if index > n + 1:
            raise AssertionError("radical fails to be nilpotent")
    return RadicalCertificate(sub, index, mats[0])


def radical_trace(alg: MatrixAlgebra) -> RadicalCertificate:
    """Radical as the null space of the Gram matrix tr(b_i b_j) on the algebra.

    An algebra of dimension N^2 is M_N(K), which is simple: radical 0.
    """
    d = alg.dim
    n = alg.ambient_n
    if d == n * n:
        return _certificate_from_rows(n, [])
    gram = []
    for i in range(d):
        bi = alg.basis[i]
        row = []
        for j in range(d):
            bj = alg.basis[j]
            s = Scalar.zero(alg.conductor)
            for r in range(n):
                for c in range(n):
                    x = bi[r, c]
                    if x:
                        s = s + x * bj[c, r]
            row.append(s)
        gram.append(row)
    ker = kernel(Matrix.build(gram, alg.conductor))
    if ker.dim == 0:
        return _certificate_from_rows(n, [])
    elems = Matrix.from_rows(ker.basis) @ Matrix.from_rows([b.flatten() for b in alg.basis])
    return _certificate_from_rows(n, elems.row_list())


# ---------------------------------------------------------------------------
# module machinery


def spin_subspace(generators, vectors, n: int) -> Subspace:
    """Submodule of K^n generated by the given vectors."""
    m = _field_of(generators)
    ech = _EchelonSet(n)
    starts = [[x if isinstance(x, Scalar) else Scalar.rational(Fraction(x), m) for x in v]
              for v in vectors]
    _spin_left(starts, generators, lambda g, v: g.mul_vector(v), ech.add, n)
    return Subspace(ech)


def commutant(generators, n: int):
    """Echelon basis of {x : x g = g x for all generators g}."""
    m = _field_of(generators)
    rows = []
    for g in generators:
        rows += sandwich_rows([(None, g, False), (-g, None, False)], n, n, m)
    if not rows:
        return [Matrix.identity(n, m)]
    ker = kernel(Matrix.build(rows, m))
    return [Matrix(n, n, tuple(v)) for v in ker.basis]


def restrict_matrix(g: Matrix, sub: Subspace) -> Matrix:
    """Coordinate matrix of g acting on an invariant subspace."""
    cols = Matrix.from_cols(sub.basis)
    sol, _ = linear_solve(cols, g @ cols)
    if sol is None:
        raise ValueError("subspace is not invariant under the matrix")
    return sol


def lift_subspace(inner: Subspace, outer: Subspace) -> Subspace:
    """Interpret a subspace of coordinates on ``outer`` inside the ambient space."""
    coords = Matrix(inner.dim, outer.dim, tuple(x for row in inner.basis for x in row))
    vectors = coords @ Matrix.from_rows(outer.basis)
    return Subspace.from_vectors(outer.ambient_dim, vectors.row_list())


def invariant_complement(generators, sub: Subspace) -> Subspace:
    """A complementary submodule (exists whenever the module is semisimple)."""
    n = sub.ambient_dim
    m = _field_of(generators)
    d = sub.dim
    # complete the echelon basis of sub to a basis of the ambient space
    full = _EchelonSet(n, sub.basis)
    extra = []
    for j in range(n):
        e = [Scalar.zero(m)] * n
        e[j] = Scalar.one(m)
        if full.add(e):
            extra.append(tuple(e))
    f = Matrix.from_rows(list(sub.basis) + extra)
    g_test = f.transpose().inverse()
    # conditions on the projection e (n^2 unknowns), each a family L.e.R = rhs:
    # columns of e lie in sub (bottom coordinates vanish), e fixes sub pointwise,
    # e commutes with every generator
    bottom = Matrix.from_rows([g_test.row(i) for i in range(d, n)])
    fixed = Matrix.from_cols(sub.basis)
    rows = sandwich_rows([(bottom, None, False)], n, n, m)
    rhs = [Scalar.zero(m)] * len(rows)
    rows += sandwich_rows([(None, fixed, False)], n, n, m)
    rhs += fixed.entries
    for g in generators:
        commuting = sandwich_rows([(None, g, False), (-g, None, False)], n, n, m)
        rows += commuting
        rhs += [Scalar.zero(m)] * len(commuting)
    sol, _ = linear_solve(Matrix.build(rows, m), Matrix.build([[x] for x in rhs], m))
    if sol is None:
        raise NotSemisimpleError("no invariant complement: module is not semisimple")
    proj = Matrix(n, n, tuple(sol.entries))
    return kernel(proj)


def module_homs(generators, sub_a: Subspace, sub_b: Subspace):
    """Basis of module maps sub_a -> sub_b (as coordinate matrices)."""
    if sub_a.dim == 0 or sub_b.dim == 0:
        return []
    m = _field_of(generators)
    da, db = sub_a.dim, sub_b.dim
    rows = []
    # unknown h (db x da) with act_b h = h act_a
    for g in generators:
        ga, gb = restrict_matrix(g, sub_a), restrict_matrix(g, sub_b)
        rows += sandwich_rows([(gb, None, False), (None, -ga, False)], db, da, m)
    if not rows:
        return [Matrix.identity(da, m)] if da == db else []
    ker = kernel(Matrix.build(rows, m))
    return [Matrix(db, da, tuple(v)) for v in ker.basis]


# ---------------------------------------------------------------------------
# polynomial factorisation over the coefficient field (sympy bridge)


@lru_cache(maxsize=None)
def _sympy_field(m: int):
    import sympy

    if m == 1:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / m))


def _scalar_to_domain(x: Scalar, m: int, dom):
    import sympy

    if m == 1:
        q = x.as_fraction()
        return dom(q.numerator) / dom(q.denominator)
    coeffs = list(reversed([sympy.QQ(c.numerator, c.denominator) for c in x.coeffs]))
    return dom(coeffs)


def _domain_to_scalar(val, m: int) -> Scalar:
    if m == 1:
        return Scalar.rational(Fraction(int(val.numerator), int(val.denominator)))
    lst = list(reversed(val.to_list()))
    return Scalar.from_coeffs(m, [Fraction(int(c.numerator), int(c.denominator)) for c in lst])


def factor_over_field(coeffs, m: int):
    """Irreducible monic factors (with multiplicity) of a monic polynomial.

    ``coeffs`` are Scalar coefficients, low -> high.  Returns a list of
    (factor_coeffs_low_to_high, multiplicity).
    """
    import sympy

    dom = _sympy_field(m)
    x = sympy.symbols("x")
    poly = sympy.Poly([_scalar_to_domain(c, m, dom) for c in reversed(coeffs)],
                      x, domain=dom)
    _, factors = poly.factor_list()
    out = []
    for f, mult in factors:
        fc = [_domain_to_scalar(c, m) for c in f.rep.to_list()]  # highest first
        lead = fc[0]
        fc = [c / lead for c in fc]
        out.append((list(reversed(fc)), mult))
    out.sort(key=lambda t: (len(t[0]), [tuple(c.coeffs) for c in t[0]]))
    return out


def _eval_poly(coeffs, f: Matrix) -> Matrix:
    n = f.rows
    m = f._conductor()
    out = Matrix.zero(n, n, m)
    power = Matrix.identity(n, m)
    for c in coeffs:
        if c:
            out = out + power.scale(c)
        power = power @ f
    return out


def _powers(f: Matrix):
    """(I, f, ..., f^(d-1), their echelon), d the degree of f's minimal polynomial."""
    n = f.rows
    ech = _EchelonSet(n * n)
    powers = _spin_left([Matrix.identity(n, f._conductor())], [f], lambda g, w: w @ g,
                        lambda w: ech.add(list(w.flatten())), n * n)
    return powers, ech


def minimal_polynomial(f: Matrix):
    """Monic minimal polynomial coefficients, low -> high."""
    n = f.rows
    powers, _ = _powers(f)
    # f^d is the first dependent power: solve sum a_i f^i = f^d
    cols = Matrix.from_cols([p.flatten() for p in powers])
    sol, _ = linear_solve(cols, Matrix(n * n, 1, (powers[-1] @ f).flatten()))
    return [-sol[i, 0] for i in range(len(powers))] + [Scalar.one(f._conductor())]


# ---------------------------------------------------------------------------
# invariant subspaces (MeatAxe)


_MEATAXE_SEED = 0x5EED
_HUNT_BUDGET = 64


def _first_line(n: int, m: int = 1) -> Subspace:
    v = [Scalar.zero(m)] * n
    v[0] = Scalar.one(m)
    return Subspace.from_vectors(n, [v])


def _is_scalar_matrix(g: Matrix) -> bool:
    n = g.rows
    c = g[0, 0]
    for i in range(n):
        for j in range(n):
            if (i == j and not (g[i, j] == c)) or (i != j and g[i, j]):
                return False
    return True


def _split_by_element(f: Matrix, n: int, m: int):
    """A proper nonzero kernel of p(f) for a factor p of the char poly, or None."""
    if f.is_zero() or _is_scalar_matrix(f):
        return None
    ker_f = kernel(f)
    if 0 < ker_f.dim < n:
        return ker_f
    factors = factor_over_field(f.char_poly(), m)
    for fc, _ in factors:
        pf = _eval_poly(fc, f)
        if pf.is_zero():
            continue
        kp = kernel(pf)
        if 0 < kp.dim < n:
            return kp
    return None


def _primitive_element(basis, n: int, m: int) -> Matrix:
    """Generator of a commutative algebra span(basis) (deterministic sweep)."""
    f = None
    for b in basis:
        if _is_scalar_matrix(b):
            continue
        if f is None:
            f, span = b, _powers(b)[1]
            continue
        if span.contains(list(b.flatten())):  # b already lies in K[f]
            continue
        for c in range(n * n + 2):
            g = f + b.scale(Scalar.rational(c, m))
            g_span = _powers(g)[1]
            if g_span.dim > span.dim:
                f, span = g, g_span
                break
        else:
            raise AssertionError("primitive element sweep failed")
        if span.dim == len(basis):
            break
    return f if f is not None else Matrix.identity(n, m)


def invariant_subspace(generators) -> Optional[Subspace]:
    """A proper nonzero subspace invariant under all generators, if one exists.

    Over the coefficient field: ``None`` certifies that the natural module is
    irreducible over that field.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square of one common size")
    if n <= 1:
        return None
    m = _field_of(generators)

    if all(_is_scalar_matrix(g) for g in generators):
        return _first_line(n, m)
    if _spans_full_mod_p(generators, n, m):
        return None  # the algebra is M_n(K): absolutely irreducible

    # cheap kernel candidates straight from the generators
    for f in generators:
        kf = kernel(f)
        if 0 < kf.dim < n:
            sub = spin_subspace(generators, [list(v) for v in kf.basis], n)
            if 0 < sub.dim < n:
                return sub

    alg = spin_algebra(generators)
    rad = radical_trace(alg)
    if rad.dim > 0:
        cols = []
        for row in rad.radical.basis:
            mat = Matrix(n, n, tuple(row))
            cols.extend([mat.col(j) for j in range(n)])
        sub = Subspace.from_vectors(n, cols)
        if not (0 < sub.dim < n):
            raise AssertionError("radical image must be proper and nonzero")
        return sub

    # semisimple from here on
    comm = commutant(generators, n)
    if len(comm) == 1:
        return None  # commutant is scalars: absolutely irreducible

    for f in comm:
        sub = _split_by_element(f, n, m)
        if sub is not None:
            return sub

    commutative = True
    for i in range(len(comm)):
        for j in range(i + 1, len(comm)):
            if not (comm[i] @ comm[j] - comm[j] @ comm[i]).is_zero():
                commutative = False
                break
        if not commutative:
            break

    if commutative:
        f = _primitive_element(comm, n, m)
        sub = _split_by_element(f, n, m)
        if sub is not None:
            return sub
        factors = factor_over_field(minimal_polynomial(f), m)
        if len(factors) == 1 and factors[0][1] == 1:
            return None  # the commutant is a field: irreducible over it
        raise AssertionError("commutative endomorphism ring escaped splitting")

    # noncommutative endomorphism ring: try its centre, then bounded hunts
    # the centre is the commutant intersected with its own commutant
    double_comm = Subspace.from_vectors(n * n, [b.flatten() for b in commutant(comm, n)])
    comm_span = Subspace.from_vectors(n * n, [list(b.flatten()) for b in comm])
    centre_sub = double_comm.intersection(comm_span)
    centre_mats = [Matrix(n, n, tuple(row)) for row in centre_sub.basis]
    if len(centre_mats) >= 2:
        f = _primitive_element(centre_mats, n, m)
        sub = _split_by_element(f, n, m)
        if sub is not None:
            return sub

    # isotypic with division endomorphisms is the only remaining shape;
    # hunt for zero divisors before giving up
    ident = Matrix.identity(n, m)
    for j in range(n):
        e = [Scalar.zero(m)] * n
        e[j] = Scalar.one(m)
        sub = spin_subspace(generators, [e], n)
        if 0 < sub.dim < n:
            return sub
    rng = random.Random(_MEATAXE_SEED)
    for _ in range(_HUNT_BUDGET):
        f = Matrix.zero(n, n, m)
        for b in comm:
            f = f + b.scale(Scalar.rational(rng.randint(-3, 3), m))
        for candidate in (f, f @ comm[-1] - comm[-1] @ f):
            sub = _split_by_element(candidate, n, m)
            if sub is not None:
                return sub
    raise MeatAxeInconclusive(
        "endomorphism ring resists splitting: division algebra candidate")


# ---------------------------------------------------------------------------
# decomposition


def decompose_irreducibles(generators, n: Optional[int] = None):
    """Direct sum decomposition of K^n into irreducible submodules.

    Requires a semisimple module (raises NotSemisimpleError otherwise via the
    complement computation).  Deterministic; result sorted canonically.
    """
    if not generators and n is None:
        raise ValueError("need generators or an ambient size")
    size = generators[0].rows if generators else n
    m = _field_of(generators)

    def rec(sub: Subspace):
        acts = [restrict_matrix(g, sub) for g in generators]
        if sub.dim == 1:
            return [sub]
        if not acts:
            return [Subspace.from_vectors(size, [row]) for row in sub.basis]
        inner = invariant_subspace(acts)
        if inner is None:
            return [sub]
        part = lift_subspace(inner, sub)
        comp_inner = invariant_complement(acts, inner)
        comp = lift_subspace(comp_inner, sub)
        return rec(part) + rec(comp)

    parts = rec(Subspace.full(size, m))
    parts.sort(key=lambda s: s.sort_key())
    return parts


def isotypic_decomposition(generators, n: Optional[int] = None):
    """Isotypic components of a semisimple module: sums of isomorphic irreducibles."""
    size = generators[0].rows if generators else n
    alg = spin_algebra(generators, ambient_n=size)
    if radical_trace(alg).dim > 0:
        raise NotSemisimpleError("module has a nonzero radical")
    parts = decompose_irreducibles(generators, n=size)
    groups = []
    for part in parts:
        placed = False
        for group in groups:
            rep = group[0]
            if part.dim == rep.dim and module_homs(generators, part, rep):
                group.append(part)
                placed = True
                break
        if not placed:
            groups.append([part])
    components = []
    for group in groups:
        total = group[0]
        for extra in group[1:]:
            total = total.sum(extra)
        components.append(total)
    components.sort(key=lambda s: s.sort_key())
    return components
