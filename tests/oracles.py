"""Independent reference routes the tests compare the library against.

Each oracle computes a quantity the library also computes, by a different
method and with no shortcut, so a disagreement on any input is a bug in one
of the two:

* ``is_closed``: a spun algebra holds the identity and every product of two
  of its basis elements;
* ``radical_oracle``: the radical as the null space of the trace form of the
  left regular module, from structure constants (``radical_trace`` uses the
  natural module and skips the Gram matrix for M_N(K)), asserted nilpotent
  by ``nilpotency_index``;
* ``transported_projectors``: each weight projector as B . sel . B^-1, with
  the n x n selector sel of the piece's columns of B, conjugated to the
  basepoint as C^-1 . P . C;
* ``galois_generators_reference``: the loops and those projectors, doubled
  under sigma into the joint projectors diag(Q_u, Q_{-u}^T) of the
  characters u (``galois_generators`` enters each torus as one weight
  operator, whose unital algebra is the span of the projectors);
* ``stabilizer_lie_dim_commutant``: the stabilizer dimension from the
  conjugation picture, with hand-written constraint rows, commuting with
  the projectors above and twisted-commuting with the loops as given
  (``stabilizer_lie_dim`` writes the commutant rows of the Galois
  generators, doubled under sigma, with ``sandwich_rows``);
* ``FractionScalar``: Q(zeta_m) with one Fraction per power-basis coefficient
  and division by a linear solve (``Scalar`` keeps integer numerators over one
  denominator and inverts by fraction-free elimination of its
  multiplication matrix);
* ``spans_full_mod_p``: the left spin of N^2 words from I over F_p, on lists
  of residues (the library asks Norton's test over a small prime field
  instead; its True must be a True here);
* ``norton_reference``: Norton's test with no early stop, on
  ``null_space_mod_p`` and ``ListEchelonModP``: only a null line decides
  (``algebra._spans_full_mod_p`` also spins the first null vector of a
  larger null space, and says False when that stops short; the two must
  agree on every input);
* ``ListEchelonModP``: the echelon mod p on lists of residues, reduced at
  every step (``modular._EchelonModP`` packs each row into one int and
  reduces it once, after its elimination);
* ``null_space_mod_p``: the null space mod p from the reduced row echelon
  form of the whole matrix (``modular.null_space_mod_p`` back-substitutes
  on the rows of the packed echelon);
* ``kernel_dim_mod_p``: the kernel bound on ``ListEchelonModP``, every row
  eliminated (``modular.kernel_dim_mod_p`` eliminates packed rows and stops
  once its echelon is full);
* ``commutant_radical_dim``: Matsushima's criterion, one way: the radical
  of E, the commutant of an untwisted point's Galois generators, which is
  the algebra of its stabilizer.  A polystable point has a reductive
  stabilizer, so rad E = 0 (the engine reads polystability off the
  generators' own algebra, never off E); rad E = 0 proves nothing;
* ``is_prime``: trial division (the library runs Miller-Rabin);
* ``ScalarEchelon``: the reduced echelon form on lists of Scalars, one
  Scalar operation per entry (``linalg._EchelonSet`` keeps integer
  numerators over one denominator per row); the other oracles here run on it;
* ``matmul_reference``, ``sum_reference``, ``scale_reference``,
  ``transpose_reference`` and ``place_reference``: the matrix product, sum
  and difference, scaling, transpose and block writing on the Scalar
  entries, one Scalar operation per entry or term (``Matrix`` works on
  integer numerators over one denominator, with one gcd per result, and a
  product returns the other factor of a square identity);
* ``scalar_to_json_reference``: a Scalar's JSON text through its Fraction
  coefficients (``Scalar.to_json`` prints the numerators, one gcd each);
* ``scalar_from_json_reference`` and ``matrix_from_json_reference``: scalar
  and matrix text read by the Scalar route, one Scalar per entry summed from
  its Fraction coefficients, and a matrix's entries put over the product of
  their denominators with one gcd (``parse_numerators`` lays a text's
  numerators over their lcm, and ``Matrix.from_json`` and the instance
  reader lay a matrix's entries over theirs with ``linalg.over_lcm``, with
  no Scalar);
  ``instance_matrices_reference`` reads every matrix of an instance document
  that way, for comparison with ``instance_matrices`` of the parsed one;
* ``block_support_violation_reference``: the first entry of S - I (or S)
  outside the allowed sheet blocks, with S - I built as a Matrix
  (``stokes._block_support_violation`` reads it off S entry by entry);
* ``sandwich_rows_reference``: the L.X.R coefficient rows as Scalars, one
  product per pair of entries, for two-sided and rectangular terms too
  (``sandwich_rows`` takes one-sided square terms, L X, L X^T or X R, and
  places each factor's numerators over one denominator, with no product);
  ``intertwiners``, the Hom space between two modules of any dimensions,
  solves its rows by ``exact_kernel`` (the library solves only the square
  case, the commutant, through ``intertwiner_rows``);
* ``exact_kernel``: the null space of a Matrix by exact elimination on
  ``linalg._EchelonSet`` integer rows, then the echelon of the free
  columns' vectors (``linalg.kernel`` solves modulo primes, lifts the
  reduced basis and checks it exactly);
* ``kernel_reference``, ``linear_solve_reference`` and ``inverse_reference``:
  null space, solution and inverse read off ``ScalarEchelon`` rows (the
  library reads them off integer echelon rows, converting only the block it
  needs);
* ``spin_algebra_reference``: the algebra spin with a Matrix product per
  word and a ``ScalarEchelon`` (the library extends integer echelon rows,
  after a modular certificate);
* ``left_product``, with ``left_action``: the integer product that reads
  the left factor through a multiplication table per entry and the right
  factor as stored (``linalg._product`` reads the left factor as stored and
  the right one through its zeta-shifts); ``spin_algebra_left``,
  ``spin_subspace_left`` and ``minimal_polynomial_left`` spin on it by
  left factors, g w (the library spins by right factors, w g, and the
  submodule as v^T g^T);
* ``complement_reference``: the invariant complement from one system in
  the projection's n^2 entries, commuting rows included, with "the columns
  of the projection lie in sub" stated by the last rows of F^-T, F sub's
  basis completed by unit vectors, solved on ``ScalarEchelon`` (the library
  solves in the commutant's coordinates, states the condition by the rows
  of sub's annihilator, a kernel, and reduces its solution to this one);
* ``factor_over_field_reference``: sympy's ``factor_list`` over
  ``QQ.algebraic_field(exp(2 pi i / m))`` (the library factors the norm over
  Z and recovers the factors by gcds over Q(zeta_m));
* ``factor_over_field_scalar``: Trager's method by the Scalar route, the
  shift, the monic polynomial, the remainder and Euclid's gcd over the field
  on lists of Scalars (the library runs them on the integer numerators of
  1 x (d + 1) rows);
* ``sheets_reference`` and ``singular_directions_reference``: a Stokes
  class's sheets and direction incidences by the Scalar route, each circle
  coefficient promoted and multiplied by a Scalar power of zeta, and each
  angle read off ``to_complex`` of a Scalar difference (the library keeps
  the coefficients as 1 x 1 matrices, maps their numerators once with
  ``stokes.promote``, and reads the angle off the difference's numerators;
  the floats must be equal);
* ``factor_integer_reference``: sympy's ``dup_factor_list`` over ZZ (the
  library factors over Z by its own Zassenhaus algorithm, in
  ``wildcat.modular``);
* ``cyclotomic_polynomial_reference``: sympy's ``cyclotomic_poly`` (the
  library divides x^m - 1 by the cyclotomic polynomials of the proper
  divisors of m).  sympy is a test dependency only;
* ``shares_an_eigenvector``: two 2 x 2 matrices share an eigenvector over
  the algebraic closure iff det(AB - BA) = 0 (Shemesh, Linear Algebra
  Appl. 1984), one determinant and no spin (``is_stable`` decides
  stability from the spun algebra, the commutant and the MeatAxe).

No library computation makes a Scalar; the tests make and read them here.
``from_coeffs`` builds the Scalar sum c_j zeta_m^j from any number of
rational coefficients with the field's own arithmetic, for the tests that
write scalars as coefficient lists, and ``zero``, ``zeta``, ``coeffs``,
``is_rational``, ``promote_scalar``, ``to_complex`` and ``scalar_to_json``
are the Scalar constructors and readers only tests use.  ``build`` makes a
Matrix of nested rows of Scalars, ints and Fractions (the library makes
its matrices from numerators), ``from_entries`` one of any shape, the
empty ones included, ``element`` a 1 x 1 one, as a Stokes coefficient is;
``entries``, ``scalar_row``, ``scalar_entry``, ``col`` and
``scalar_basis`` read a Matrix's entries and a Subspace's echelon rows
back as Scalars (the library's ``row``, ``[i, j]`` and ``basis`` print
them as text).

The rest is API that only the tests need, kept here rather than in the
library: the framing-group action ``act``, under which every verdict is
invariant; ``restrict_point``, a point restricted to an invariant summand;
``plain``, the loop (g, s) with the identity as inner part; the twist
group law on an automorphism Inn(A) o s kept as its pair (A, s)
(``apply``, ``compose``, ``multiply``, ``adjoint``), which
``normalize_point`` and the doubled realisation must respect; and
``mul_vector``, ``contains``, ``coordinates``, ``intersection`` and
``piece_subspaces`` on vectors and subspaces; ``from_vectors``,
``from_pieces`` and ``pieces_of``, which build a Subspace and a Grading
from Scalar vectors and read a grading's pieces back as Scalars (the
library reads and writes both as matrix text); and ``scalar_from_json``,
one Scalar read from its text (the library reads text to numerators,
``parse_numerators``, and makes no Scalar of it).
"""

import cmath
import math
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm, prod
from operator import mul

from wildcat.algebra import (
    MatrixAlgebra,
    _norm,
    _norton_elements,
    _norton_images,
    _spin_left,
    commutant,
    radical_trace,
    restrict_matrix,
    spin_algebra,
)
from wildcat.engine import (FramedPoint, Loop, TwistedInput, _doubled, galois_generators,
                            normalize_point)
from wildcat.linalg import Grading, Matrix, Subspace, _EchelonSet, _matrix, kernel, over_lcm, stack
from wildcat.modular import _charpoly_mod, _horner_mod, _image_map, _modulus, factor_integer
from wildcat.scalars import (
    Scalar,
    _canonical,
    _parse_rational,
    _rational_text,
    _reduce,
    cyclotomic_polynomial,
    euler_phi,
    multiplication_matrix,
    parse_numerators,
)
from wildcat.stokes import ANGLE_TOL


class ScalarEchelon:
    """Incremental reduced row echelon basis on lists of Scalars.

    Rows stay sorted by pivot and fully reduced, so after any sequence of
    insertions they are the unique reduced row echelon form of their span.
    """

    def __init__(self, width: int, rows=()):
        self.width = width
        self.rows = []          # echelon rows, pivot order
        self.pivots = []        # pivot column per row
        for row in rows:
            self.add(row)

    def reduce(self, vec):
        """(residue of vec modulo the span, coordinates along the echelon rows)."""
        vec = list(vec)
        coords = []
        for row, piv in zip(self.rows, self.pivots):
            f = vec[piv]
            coords.append(f)
            if f:
                for j in range(piv, self.width):
                    if row[j]:
                        vec[j] = vec[j] - f * row[j]
        return vec, coords

    def add(self, vec) -> bool:
        """Insert vec into the span; True if it was independent."""
        res, _ = self.reduce(vec)
        piv = next((j for j, x in enumerate(res) if x), None)
        if piv is None:
            return False
        inv = res[piv].inverse()
        res = [x * inv if x else x for x in res]
        for row in self.rows:
            f = row[piv]
            if f:
                for j in range(self.width):
                    if res[j]:
                        row[j] = row[j] - f * res[j]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.rows))
        self.rows.insert(at, res)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec) -> bool:
        return all(not x for x in self.reduce(vec)[0])

    @property
    def dim(self) -> int:
        return len(self.rows)


def zero(m: int = 1) -> Scalar:
    return Scalar(m, (0,) * euler_phi(m))


def zeta(m: int, power: int = 1) -> Scalar:
    """zeta_m ** power as an element of Q(zeta_m)."""
    power %= m
    num = [0] * (power + 1)
    num[power] = 1
    return Scalar(m, _reduce(num, m))


def coeffs(x: Scalar) -> tuple:
    """The power-basis coefficients of x as Fractions."""
    return tuple(Fraction(c, x.den) for c in x.num)


def is_rational(x: Scalar) -> bool:
    return not any(x.num[1:])


def promote_scalar(x: Scalar, m_new: int) -> Scalar:
    """x embedded into Q(zeta_M), M = m_new a multiple of x's conductor,
    by the Scalar route: each power zeta_m^j written as zeta_M^(j M / m)."""
    if m_new % x.m != 0:
        raise ValueError(f"cannot embed conductor {x.m} into {m_new}")
    step = m_new // x.m
    out = [0] * (euler_phi(x.m) * step + 1)
    for j, c in enumerate(x.num):
        out[j * step] += c
    return _canonical(m_new, _reduce(out, m_new), x.den)


def to_complex(x: Scalar) -> complex:
    """The float image of x (int / int is correctly rounded, as
    Fraction.__float__ is)."""
    z = cmath.exp(2j * cmath.pi / x.m)
    return sum(complex(c / x.den) * z**j for j, c in enumerate(x.num))


def scalar_to_json(x: Scalar):
    """The coefficients of x as text, "p" or "p/q" in lowest terms: one
    string over Q, else a list of phi(m)."""
    if x.m == 1:
        return str(x.num[0]) if x.den == 1 else f"{x.num[0]}/{x.den}"
    return [_rational_text(c, x.den) for c in x.num]


def _scalars(a: Matrix, start: int, stop: int) -> tuple:
    """a's entries start .. stop, row-major, as canonical Scalars."""
    phi = euler_phi(a.m)
    return tuple(_canonical(a.m, tuple(a.nums[t:t + phi]), a.den)
                 for t in range(start * phi, stop * phi, phi))


def entries(a: Matrix) -> tuple:
    """a's entries, row-major, as canonical Scalars."""
    return _scalars(a, 0, a.rows * a.cols)


def scalar_row(a: Matrix, i: int) -> tuple:
    return _scalars(a, i * a.cols, (i + 1) * a.cols)


def scalar_entry(a: Matrix, i: int, j: int) -> Scalar:
    return _scalars(a, i * a.cols + j, i * a.cols + j + 1)[0]


def col(a: Matrix, j: int) -> tuple:
    return entries(a)[j::a.cols] if a.cols else ()


def scalar_basis(sub: Subspace) -> tuple:
    """The canonical echelon rows of sub as tuples of Scalars."""
    rows = sub.matrix
    return tuple(scalar_row(rows, i) for i in range(rows.rows))


def element(x, m: int = 1) -> Matrix:
    """The 1 x 1 Matrix of a Scalar, or of an int or a Fraction in Q(zeta_m)."""
    return build([[x]], m if not isinstance(x, Scalar) else x.m)


def build(rows, m=None) -> Matrix:
    """Matrix of nested rows in one field: that of its Scalar entries, or ``m``.

    Ints and Fractions lift into the field; entries of two fields, or of a
    field other than an explicit ``m``, raise ValueError.  The entries are
    laid over one denominator by ``over_lcm``.
    """
    data = [list(row) for row in rows]
    nr = len(data)
    nc = len(data[0]) if nr else 0
    if any(len(row) != nc for row in data):
        raise ValueError("ragged matrix rows")
    flat = [x for row in data for x in row]
    fields = {x.m for x in flat if isinstance(x, Scalar)}
    if m is not None:
        fields.add(m)
    if len(fields) > 1:
        raise ValueError(f"entries from fields of conductors {sorted(fields)}")
    m = fields.pop() if fields else 1
    flat = [x if isinstance(x, Scalar) else Scalar.rational(x, m) for x in flat]
    return over_lcm(nr, nc, m, [(x.num, x.den) for x in flat])


def from_entries(rows: int, cols: int, values, m: int) -> Matrix:
    """The rows x cols Matrix over Q(zeta_m) with these entries, row-major."""
    values = list(values)
    if not rows:
        return Matrix.zero(0, cols, m)
    return build([values[i * cols:(i + 1) * cols] for i in range(rows)], m)


def matmul_reference(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with one Scalar product and one Scalar sum per nonzero term of
    a, zero entries of a skipped, and Scalar zeros of a's field where no
    term is left."""
    if a.cols != b.rows:
        raise ValueError("matrix shape mismatch in product")
    n, k, p = a.rows, a.cols, b.cols
    ae, be = entries(a), entries(b)
    out = []
    for i in range(n):
        arow = ae[i * k:(i + 1) * k]
        for j in range(p):
            s = None
            for t in range(k):
                x = arow[t]
                if x:
                    term = x * be[t * p + j]
                    s = term if s is None else s + term
            out.append(s if s is not None else zero(a.m))
    return from_entries(n, p, out, a.m)


def sum_reference(a: Matrix, b: Matrix, sign: int = 1) -> Matrix:
    """a + sign b, one Scalar sum or difference per entry."""
    return from_entries(a.rows, a.cols, [x + y if sign > 0 else x - y
                                         for x, y in zip(entries(a), entries(b))], a.m)


def scale_reference(a: Matrix, c) -> Matrix:
    """c a, one Scalar product per entry."""
    return from_entries(a.rows, a.cols, [x * c for x in entries(a)], a.m)


def transpose_reference(a: Matrix) -> Matrix:
    return from_entries(a.cols, a.rows,
                        [scalar_entry(a, i, j) for j in range(a.cols) for i in range(a.rows)],
                        a.m)


def place_reference(a: Matrix, row: int, col: int, block: Matrix) -> Matrix:
    """a with block's entries written from (row, col) on, entry by entry."""
    out = list(entries(a))
    for i in range(block.rows):
        for j in range(block.cols):
            out[(row + i) * a.cols + col + j] = scalar_entry(block, i, j)
    return from_entries(a.rows, a.cols, out, a.m)


def scalar_to_json_reference(x: Scalar):
    """``Scalar.to_json`` through the Fraction coefficients."""
    return str(coeffs(x)[0]) if x.m == 1 else [str(c) for c in coeffs(x)]


def scalar_from_json_reference(data, m: int) -> Scalar:
    """An instance scalar in Q(zeta_m) by the Scalar route: each
    coefficient's Fraction from the text grammar (``_parse_rational``),
    summed times the powers of zeta with Scalar arithmetic."""
    coeffs = [data] if isinstance(data, (str, int)) else data
    if not isinstance(coeffs, list) or len(coeffs) > euler_phi(m):
        raise ValueError(f"bad scalar encoding: {data!r}")
    return from_coeffs(m, [Fraction(*_parse_rational(c)) for c in coeffs])


def matrix_from_json_reference(data, m: int) -> Matrix:
    """A matrix text by the Scalar route: one Scalar per entry
    (``scalar_from_json_reference``), over the product of the entries'
    distinct denominators, made canonical by one gcd."""
    flat = [scalar_from_json_reference(x, m) for row in data for x in row]
    den = prod({x.den for x in flat})
    return _matrix(len(data), len(data[0]) if data else 0, m,
                   [c * (den // x.den) for x in flat for c in x.num], den)


def instance_matrices(inst) -> list:
    """Every matrix of a parsed instance, in document order: each grading's
    basis, the connectors, each loop's matrix and inner part, and the
    candidate's matrices by name."""
    out = []
    if inst.point is not None:
        p = inst.point
        out += [g.basis for g in p.gradings] + list(p.connectors)
        out += [a for x in p.loops for a in (x.g, x.inner)]
    return out + [inst.candidate[name] for name in sorted(inst.candidate or ())]


def instance_matrices_reference(data, m: int) -> list:
    """``instance_matrices`` of the instance document data, each matrix
    read by ``matrix_from_json_reference`` in Q(zeta_m), m the instance's
    conductor; an absent grading list or inner part is the identity."""
    out = []
    if data["mode"] == "tuple":
        t = data["tuple"]
        ident = Matrix.identity(t["n"], m)
        out += [matrix_from_json_reference([v for piece in g for v in piece["basis"]], m)
                for g in t["gradings"]] if "gradings" in t else [ident]
        out += [matrix_from_json_reference(c, m) for c in t.get("connectors", [])]
        out += [matrix_from_json_reference(loop[key], m) if key in loop else ident
                for loop in t.get("loops", []) for key in ("matrix", "inner")]
    candidate = sorted(data.get("candidate", {}).items())
    return out + [matrix_from_json_reference(a, m) for _, a in candidate]


def block_support_violation_reference(mat: Matrix, sheets, allowed_blocks,
                                      shift_identity: bool):
    """The first (r, c), row-major, where mat - I (if shift_identity) or mat
    is nonzero outside the allowed (row sheet, column sheet) blocks, or None."""
    n = mat.rows
    probe = mat - Matrix.identity(n, mat.m) if shift_identity else mat
    block_of = {s.start + t: idx for idx, s in enumerate(sheets) for t in range(s.size)}
    allowed = set(allowed_blocks)
    for r in range(n):
        for c in range(n):
            if scalar_entry(probe, r, c) and (block_of[r], block_of[c]) not in allowed:
                return (r, c)
    return None


def sandwich_rows_reference(terms, rows: int, cols: int, m: int) -> list:
    """Scalar coefficient rows of X -> sum over terms of L.X.R, X a rows x
    cols matrix of unknowns flattened row-major, one Scalar product and sum
    per nonzero pair of entries of L and R (a term is (L, R, transposed), a
    transposed one contributing L.X^T.R, and None is the identity)."""
    nil, one = zero(m), Scalar.one(m)
    out = None
    for left, right, transposed in terms:
        inner_rows, inner_cols = (cols, rows) if transposed else (rows, cols)
        height = inner_rows if left is None else left.rows
        width = inner_cols if right is None else right.cols
        if out is None:
            out = [[nil] * (rows * cols) for _ in range(height * width)]
        lefts = [[(r, one)] if left is None else
                 [(a, x) for a, x in enumerate(scalar_row(left, r)) if x] for r in range(height)]
        rights = [[(c, one)] if right is None else
                  [(b, y) for b, y in enumerate(col(right, c)) if y] for c in range(width)]
        for r in range(height):
            for c in range(width):
                row = out[r * width + c]
                for a, x in lefts[r]:
                    for b, y in rights[c]:
                        k = b * cols + a if transposed else a * cols + b
                        row[k] = row[k] + x * y
    return out


def intertwiners(acts_a, acts_b, da: int, db: int, m: int) -> list:
    """Echelon basis of the db x da matrices h with b h = h a for every pair
    (a, b) of actions, from the rows of ``sandwich_rows_reference`` solved by
    ``exact_kernel``; there is at least one pair."""
    rows = [row for ga, gb in zip(acts_a, acts_b)
            for row in sandwich_rows_reference([(gb, None, False), (None, -ga, False)], db, da, m)]
    return exact_kernel(build(rows, m)).matrices(db, da)


def kernel_reference(rows, width: int, m: int) -> list:
    """Reduced echelon basis of {x : rows . x = 0} on ``ScalarEchelon``: per
    free column f, e_f less the echelon rows' entries at f at their pivots."""
    ech, out = ScalarEchelon(width, rows), ScalarEchelon(width)
    for f in range(width):
        if f not in ech.pivots:
            v = [zero(m)] * width
            v[f] = Scalar.one(m)
            for row, piv in zip(ech.rows, ech.pivots):
                v[piv] = -row[f]
            out.add(v)
    return out.rows


def exact_kernel(a: Matrix) -> Subspace:
    """Null space {x : a @ x = 0} of a Matrix as a canonical Subspace: a's
    rows eliminated exactly on ``_EchelonSet``, then per free column f the
    vector e_f less the rows' entries at f placed at their pivots, on
    integer rows, inserted into a second echelon."""
    n, m = a.cols, a.m
    phi = euler_phi(m)
    ech = _EchelonSet(n, m)
    for r in a.int_rows():
        ech.insert(r)
    rows = [(r, d, p * phi) for (r, d), p in zip(ech.reduced_rows(), ech.pivots)]
    out = _EchelonSet(n, m)
    for f in sorted(set(range(n)) - set(ech.pivots)):
        t = f * phi
        hits = [(r[t:t + phi], d, s) for r, d, s in rows if any(r[t:t + phi])]
        den = lcm(*[d for _, d, _ in hits])
        v = [0] * (n * phi)
        v[t] = den
        for x, d, s in hits:
            v[s:s + phi] = [-c * (den // d) for c in x]
        out.insert(v)
    return Subspace(out)


def linear_solve_reference(a: Matrix, b: Matrix):
    """(X, kernel rows) with a X = b and X zero at the free columns, or
    (None, kernel rows) when there is no solution, on ``ScalarEchelon``."""
    n, m = a.cols, a.m
    ech = ScalarEchelon(n + b.cols,
                        [list(scalar_row(a, i) + scalar_row(b, i)) for i in range(a.rows)])
    ker = kernel_reference([list(scalar_row(a, i)) for i in range(a.rows)], n, m)
    if any(piv >= n for piv in ech.pivots):
        return None, ker
    xs = [[zero(m)] * b.cols for _ in range(n)]
    for row, piv in zip(ech.rows, ech.pivots):
        xs[piv] = row[n:]
    return build(xs, m), ker


def inverse_reference(a: Matrix) -> Matrix:
    """a^-1, read off the echelon form of [a | 1] on ``ScalarEchelon``."""
    n, m = a.rows, a.m
    one = Matrix.identity(n, m)
    ech = ScalarEchelon(2 * n, [list(scalar_row(a, i) + scalar_row(one, i)) for i in range(n)])
    if ech.pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return from_entries(n, n, [x for row in ech.rows for x in row[n:]], m)


def spin_algebra_reference(generators, n: int, m: int) -> tuple:
    """Echelon basis of the unital algebra of the generators: every kept word
    times every generator on the left, until no product is new."""
    ech = ScalarEchelon(n * n)
    frontier = [w for w in [Matrix.identity(n, m)] + list(generators)
                if ech.add(entries(w))]
    while frontier:
        frontier = [prod for w in frontier for prod in [g @ w for g in generators]
                    if ech.add(entries(prod))]
    return tuple(from_entries(n, n, row, m) for row in ech.rows)


def _row_action(nums: list, m: int, phi: int) -> list:
    """The phi integer rows c of x -> a . x on power-basis numerators, a the
    row with numerators ``nums``: coefficient c of a . x is
    ``sum(map(mul, rows[c], x))``, from the multiplication tables of a's
    entries."""
    if phi == 1:
        return [nums]
    zero = [0] * phi
    tables = [multiplication_matrix(m, nums[t:t + phi]) if any(nums[t:t + phi]) else None
              for t in range(0, len(nums), phi)]
    return [[x for table in tables for x in (zero if table is None else table[c])]
            for c in range(phi)]


def left_action(a: Matrix) -> list:
    """a as the left factor of ``left_product``: per row, its ``_row_action``,
    or None for a zero row."""
    phi = euler_phi(a.m)
    return [_row_action(row, a.m, phi) if any(row) else None for row in a.int_rows()]


def left_product(action: list, nums: list, cols: int, phi: int) -> list:
    """The numerators of a b over the product of the denominators, a given
    by its ``left_action`` and b by its numerators (``cols`` columns)."""
    columns = [[x for t in range(j * phi, len(nums), cols * phi) for x in nums[t:t + phi]]
               for j in range(cols)]
    out = []
    for lines in action:
        out += [0] * (cols * phi) if lines is None else \
            [sum(x * y for x, y in zip(tc, col)) for col in columns for tc in lines]
    return out


def _left_spin(generators, starts, n: int, cols: int, m: int) -> _EchelonSet:
    """The echelon of the spin of the start words (numerators of n x cols
    matrices) by left factors, each generator's ``left_action`` taken once."""
    ech, phi = _EchelonSet(n * cols, m), euler_phi(m)
    _spin_left(starts, [left_action(g) for g in generators],
               lambda a, e: left_product(a, e, cols, phi), ech.insert, n * cols)
    return ech


def spin_algebra_left(generators) -> Matrix:
    """The echelon basis rows (``MatrixAlgebra.rows``) of the unital algebra
    of the generators by the exact left spin from I and the generators,
    with no modular certificate."""
    n, m = generators[0].rows, generators[0].m
    starts = [w.nums for w in [Matrix.identity(n, m)] + list(generators)]
    return _left_spin(generators, starts, n, n, m).matrix(0, n * n)


def spin_subspace_left(generators, starts: Matrix) -> Subspace:
    """The submodule of K^n generated by the rows of starts, as columns spun
    by the generators on the left."""
    return Subspace(_left_spin(generators, starts.int_rows(), starts.cols, 1, starts.m))


def minimal_polynomial_left(f: Matrix):
    """``minimal_polynomial``'s (coeffs, powers, den), the powers of den f
    spun by f on the left, the relation read off the whole power rows."""
    n, m, den = f.rows, f.m, f.den
    phi = euler_phi(m)
    action, ech = left_action(f), _EchelonSet(n * n, m)
    powers = _spin_left([Matrix.identity(n, m).nums], [action],
                        lambda a, w: left_product(a, w, n, phi),
                        lambda w: w if ech.insert(w) is not None else None, n * n)
    d, last = len(powers), left_product(action, powers[-1], n, phi)
    rows = [x for t in range(0, n * n * phi, phi) for w in [last] + powers[::-1]
            for x in w[t:t + phi]]
    (v,) = kernel(Matrix(n * n, d + 1, m, rows)).matrices(1, d + 1)
    return build([[_canonical(m, tuple(v.nums[(d - i) * phi:(d - i + 1) * phi]),
                              v.den * den ** (d - i)) for i in range(d + 1)]], m), powers, den


def complement_reference(generators, sub: Subspace) -> Subspace:
    """The kernel of the projection e onto sub that commutes with every
    generator and fixes sub pointwise, or None if there is none.  The columns
    of e lie in sub when the last n - d rows of F^-T kill them, F the rows of
    sub's basis and of the unit vectors that complete it to a basis."""
    n, d = sub.ambient_dim, sub.dim
    m = generators[0].m
    units = Matrix.identity(n, m)
    full = ScalarEchelon(n, scalar_basis(sub))
    extra = [scalar_row(units, j) for j in range(n) if full.add(scalar_row(units, j))]
    f_inv_t = inverse_reference(build(list(scalar_basis(sub)) + extra).transpose())
    bottom = build([scalar_row(f_inv_t, i) for i in range(d, n)])
    fixed = build(scalar_basis(sub)).transpose()
    rows = sandwich_rows_reference([(bottom, None, False)], n, n, m)
    rhs = [zero(m)] * len(rows)
    rows += sandwich_rows_reference([(None, fixed, False)], n, n, m)
    rhs += entries(fixed)
    for g in generators:
        commuting = sandwich_rows_reference([(None, g, False), (-g, None, False)], n, n, m)
        rows += commuting
        rhs += [zero(m)] * len(commuting)
    sol, _ = linear_solve_reference(build(rows, m), build([[x] for x in rhs], m))
    if sol is None:
        return None
    proj = sol.reshape(n, n)
    return from_vectors(n, kernel_reference([list(scalar_row(proj, i)) for i in range(n)], n, m))


def algebra_basis(alg: MatrixAlgebra) -> tuple:
    """The echelon basis of alg as n x n matrices, one per row of ``rows``."""
    n = alg.ambient_n
    return tuple(alg.rows.submatrix([i], 0, n * n).reshape(n, n) for i in range(alg.dim))


def _echelon(alg: MatrixAlgebra) -> ScalarEchelon:
    return ScalarEchelon(alg.ambient_n ** 2, [entries(b) for b in algebra_basis(alg)])


def is_closed(alg: MatrixAlgebra) -> bool:
    ech, basis = _echelon(alg), algebra_basis(alg)
    for a in basis:
        for b in basis:
            if not ech.contains(list(entries(a @ b))):
                return False
    return ech.contains(list(entries(Matrix.identity(alg.ambient_n, alg.rows.m))))


def radical_oracle(alg: MatrixAlgebra) -> Subspace:
    """Radical via the trace form of the left regular module.

    Structure constants are computed first; the Gram matrix lives on the
    regular module A acting on itself, so this route never looks at natural-
    module traces.  Every element of the result is certified nilpotent.
    """
    d, basis = alg.dim, algebra_basis(alg)
    n, m = alg.ambient_n, alg.rows.m
    ech = _echelon(alg)
    struct = []
    for i in range(d):
        row = []
        for j in range(d):
            res, coords = ech.reduce(entries(basis[i] @ basis[j]))
            if any(res):
                raise AssertionError("algebra is not multiplicatively closed")
            row.append(coords)
        struct.append(row)
    # tau[l] = trace of left multiplication by basis element l
    tau = []
    for l in range(d):
        s = zero(m)
        for k in range(d):
            s = s + struct[l][k][k]
        tau.append(s)
    gram = []
    for i in range(d):
        row = []
        for j in range(d):
            s = zero(m)
            for l in range(d):
                c = struct[i][j][l]
                if c:
                    s = s + c * tau[l]
            row.append(s)
        gram.append(row)
    rows = []
    for coeffs in kernel_reference(gram, d, m):
        elem = Matrix.zero(n, n, m)
        for c, b in zip(coeffs, basis):
            if c:
                elem = elem + scale_reference(b, c)
        rows.append(list(entries(elem)))
    radical = from_vectors(n * n, rows)
    nilpotency_index(radical, n)
    return radical


def nilpotency_index(radical: Subspace, n: int) -> int:
    """Least k with radical^k = 0 (1 when the radical is 0), from the
    products of the radical's powers with it; raises unless it is nilpotent."""
    mats = radical.matrices(n, n)
    index, current = 1, mats
    while current:
        index += 1
        ech = ScalarEchelon(n * n)
        nxt = []
        for a in current:
            for b in mats:
                prod = a @ b
                if ech.add(list(entries(prod))):
                    nxt.append(prod)
        current = nxt
        if index > n + 1:
            raise AssertionError("radical fails to be nilpotent")
    return index


def weight_projectors(g: Grading) -> list:
    """Projector onto each piece along the others: B . sel . B^-1."""
    n = g.ambient_dim
    b = build([v for _, basis in pieces_of(g) for v in basis]).transpose()
    binv = inverse_reference(b)
    m = b.m
    out = []
    start = 0
    for _, basis in pieces_of(g):
        d = len(basis)
        sel = build([[1 if (i == j and start <= i < start + d) else 0
                             for j in range(n)] for i in range(n)], m)
        out.append(b @ sel @ binv)
        start += d
    return out


def transported_projectors(p: FramedPoint) -> list:
    """(weight, C_i^-1 . P . C_i) per piece of every non-trivial grading i."""
    out = []
    for i, grading in enumerate(p.gradings):
        if grading.is_trivial():
            out.append([])
            continue
        projs = weight_projectors(grading)
        if i:
            c = p.connectors[i - 1]
            cinv = inverse_reference(c)
            projs = [cinv @ proj @ c for proj in projs]
        out.append([(w, proj) for (w, _), proj in zip(pieces_of(grading), projs)])
    return out


def galois_generators_reference(p: FramedPoint) -> list:
    """The loops of a normalized point and every transported weight
    projector.  Under sigma the loops are doubled, and a torus element t
    acts as diag(t, (t^T)^-1): the joint eigenspace of a character u is the
    u weight space on the first block plus the dual of the -u weight space
    on the second, so its projector is diag(Q_u, Q_{-u}^T), Q_u the u
    projector or 0 when u is no weight."""
    per_grading = transported_projectors(p)
    if p.is_untwisted():
        return [x.g for x in p.loops] + [q for projs in per_grading for _, q in projs]
    n, m = p.n, p.conductor()
    zero = Matrix.zero(n, n, m)
    gens = [_doubled(x.g, x.sigma) for x in p.loops]
    for projs in per_grading:
        by_weight = dict(projs)
        for u in sorted(set(by_weight) | {tuple(-c for c in w) for w in by_weight}):
            minus = tuple(-c for c in u)
            gens.append(Matrix.zero(2 * n, 2 * n, m).place(0, 0, by_weight.get(u, zero))
                        .place(n, n, by_weight.get(minus, zero).transpose()))
    return gens


def stabilizer_lie_dim_commutant(p: FramedPoint) -> int:
    """Independent stabilizer dimension via the conjugation picture.

    The stabilizer corresponds to matrices commuting with every transported
    weight projector and twisted-commuting with every loop.
    """
    n = p.n
    m = p.conductor()
    rows = []
    for per_grading in transported_projectors(p):
        for _, q in per_grading:
            for r in range(n):
                for c in range(n):
                    row = [zero(m)] * (n * n)
                    for k in range(n):
                        row[r * n + k] = row[r * n + k] + scalar_entry(q, k, c)
                        row[k * n + c] = row[k * n + c] - scalar_entry(q, r, k)
                    rows.append(row)
    for x in p.loops:
        g = x.g
        ga = g @ x.inner
        inner_inv = inverse_reference(x.inner)
        for r in range(n):
            for c in range(n):
                row = [zero(m)] * (n * n)
                for k in range(n):
                    row[r * n + k] = row[r * n + k] + scalar_entry(g, k, c)
                for a in range(n):
                    if not scalar_entry(ga, r, a):
                        continue
                    for b in range(n):
                        f = scalar_entry(inner_inv, b, c)
                        if f:
                            if x.sigma:
                                row[b * n + a] = row[b * n + a] + scalar_entry(ga, r, a) * f
                            else:
                                row[a * n + b] = row[a * n + b] - scalar_entry(ga, r, a) * f
                rows.append(row)
    if not rows:
        return n * n
    return len(kernel_reference(rows, n * n, m))


class FractionScalar:
    """Reference element of Q(zeta_m): a tuple of Fraction coefficients."""

    def __init__(self, m: int, coeffs):
        phi, mod = euler_phi(m), cyclotomic_polynomial(m)
        c = [Fraction(x) for x in coeffs] + [Fraction(0)] * max(0, phi - len(coeffs))
        for d in range(len(c) - 1, phi - 1, -1):  # divide by the monic Phi_m
            q = c[d]
            for j in range(phi + 1):
                c[d - phi + j] -= q * mod[j]
        self.m, self.coeffs = m, tuple(c[:phi])

    def __add__(self, other):
        return FractionScalar(self.m, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FractionScalar(self.m, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        prod = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                prod[i + j] += x * y
        return FractionScalar(self.m, prod)

    def __truediv__(self, other):
        """The x with other * x == self, by Gauss-Jordan on multiplication by other."""
        phi = len(self.coeffs)
        cols = [(other * FractionScalar(self.m, [0] * j + [1])).coeffs for j in range(phi)]
        aug = [[cols[j][i] for j in range(phi)] + [self.coeffs[i]] for i in range(phi)]
        for c in range(phi):
            piv = next(r for r in range(c, phi) if aug[r][c])
            aug[c], aug[piv] = aug[piv], aug[c]
            aug[c] = [x / aug[c][c] for x in aug[c]]
            for r in range(phi):
                if r != c and aug[r][c]:
                    f = aug[r][c]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
        return FractionScalar(self.m, [row[phi] for row in aug])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_json(self):
        return str(self.coeffs[0]) if self.m == 1 else [str(c) for c in self.coeffs]

    def __repr__(self):
        if self.m == 1 or self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                zp = f"z{self.m}" if j == 1 else f"z{self.m}^{j}"
                parts.append(zp if c == 1 else f"(-{zp})" if c == -1 else f"{c}*{zp}")
        return " + ".join(parts) if parts else "0"

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(complex(c) * z**j for j, c in enumerate(self.coeffs))

    def image_mod_p(self, p: int, rpow):
        """The image under zeta_m -> r, or None if p divides a denominator."""
        v = 0
        for c, rj in zip(self.coeffs, rpow):
            if c:
                if c.denominator % p == 0:
                    return None
                v += c.numerator * pow(c.denominator, -1, p) * rj
        return v % p


def commutant_radical_dim(p: FramedPoint) -> int:
    """dim rad E for an untwisted point, E the commutant of its Galois
    generators: 0 whenever the point is polystable (Matsushima, "Espaces
    homogenes de Stein des groupes de Lie complexes", Nagoya Math. J. 1960)."""
    if not p.is_untwisted():
        raise ValueError("the commutant is the stabilizer's algebra only without a sigma twist")
    return radical_trace(spin_algebra(commutant(galois_generators(normalize_point(p))))).dim


def is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


class ListEchelonModP:
    """One echelon over F_p of residue lists, reduced mod p at every step:
    ``insert(vec)`` returns vec's echelon row (0 before its pivot, 1 at it),
    or None if vec was dependent; ``rows`` holds the (pivot, row) pairs by
    pivot."""

    def __init__(self, p: int):
        self.p, self.rows = p, []

    def insert(self, vec):
        p = self.p
        vec = [x % p for x in vec]
        for piv, row in self.rows:
            f = vec[piv]
            if f:
                vec[piv:] = [(x - f * y) % p for x, y in zip(vec[piv:], row[piv:])]
        piv = next((j for j, x in enumerate(vec) if x), None)
        if piv is None:
            return None
        inv = pow(vec[piv], -1, p)
        row = [x * inv % p for x in vec]
        insort(self.rows, (piv, row))
        return row


def null_space_mod_p(rows, n: int, p: int) -> list:
    """A basis of the null space over F_p of the matrix with these rows and
    n columns, read off its reduced row echelon form, made by Gauss-Jordan
    elimination of the whole matrix: one vector per free column, 1 there."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for j, row in enumerate(a):
            if j != r and row[c]:
                a[j] = [(x - row[c] * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for row, c in zip(a, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def spans_full_mod_p(generators, n: int, m: int) -> bool:
    """The left spin of the generators' images from I has rank n^2 over F_p,
    p the word-size prime for n^2 slots."""
    p, r = _modulus(m, n * n)
    phi = euler_phi(m)
    image = _image_map(p, r, phi)
    gens = [image(g.nums, g.den) for g in generators]
    if None in gens:
        return False

    def mul(a, b):
        cols = [b[j::n] for j in range(n)]
        return [sum(x * y for x, y in zip(a[i * n:(i + 1) * n], col)) % p
                for i in range(n) for col in cols]

    ident = [1 if k % (n + 1) == 0 else 0 for k in range(n * n)]
    return len(_spin_left([ident], gens, mul, ListEchelonModP(p).insert, n * n)) == n * n


def kernel_dim_mod_p(rows, width: int, m: int) -> int:
    """width minus the rank over F_p of integer rows, phi(m) numerators per
    entry as a Matrix keeps them, each entry mapped by zeta_m -> r, at the
    word-size prime for the width."""
    p, r = _modulus(m, width)
    phi = euler_phi(m)
    rpow = [pow(r, j, p) for j in range(phi)]
    ech = ListEchelonModP(p)
    images = [[sum(c * x for c, x in zip(row[t:t + phi], rpow)) % p
               for t in range(0, len(row), phi)] for row in rows]
    return width - sum(ech.insert(img) is not None for img in images)


def norton_reference(generators, n: int, m: int) -> bool:
    """Norton's test with no early stop: for each element a of
    ``_norton_elements`` and each root l of its characteristic polynomial
    mod q, the first theta = a - l I whose null space is a line <v>
    decides, True iff v spins to F_q^n under the images and the null line
    of theta^T to it under their transposes; with none, False.  Null
    spaces from the whole reduced row echelon form, spins on
    ``ListEchelonModP``."""
    q, images = _norton_images(generators, m)
    gens = [[g[i * n:(i + 1) * n] for i in range(n)] for g in images]

    def spins_to_all(mats, v) -> bool:
        kept = _spin_left([v], mats, lambda g, e: [sum(map(mul, row, e)) for row in g],
                          ListEchelonModP(q).insert, n)
        return len(kept) == n

    for a in _norton_elements(gens, q):
        chi = _charpoly_mod(a, q)
        for lam in range(q):
            if _horner_mod(chi, lam, q):
                continue
            theta = [[x - lam if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(a)]
            null = null_space_mod_p(theta, n, q)
            if len(null) == 1:
                (w,) = null_space_mod_p(list(zip(*theta)), n, q)
                return spins_to_all(gens, null[0]) and \
                    spins_to_all([list(zip(*g)) for g in gens], w)
    return False


def from_coeffs(m: int, coeffs) -> Scalar:
    """sum c_j zeta_m^j in Q(zeta_m), for ints, Fractions or their text."""
    return sum((Scalar.rational(Fraction(c), m) * zeta(m, j)
                for j, c in enumerate(coeffs)), zero(m))


@lru_cache(maxsize=None)
def _sympy_field(m: int):
    import sympy

    if m == 1:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / m))


def factor_over_field_reference(poly: Matrix, m: int):
    """The monic irreducible factors over Q(zeta_m), as rows, with their
    multiplicities, of the polynomial with row ``poly``, from sympy's
    ``factor_list`` over the algebraic field, sorted as ``factor_over_field``
    sorts them."""
    import sympy

    dom = _sympy_field(m)

    def to_domain(c: Scalar):
        if m == 1:
            return dom(c.num[0]) / dom(c.den)
        return dom([sympy.QQ(x, c.den) for x in reversed(c.num)])

    def to_scalar(val) -> Scalar:
        if m == 1:
            return Scalar.rational(Fraction(int(val.numerator), int(val.denominator)))
        return from_coeffs(m, [Fraction(int(c.numerator), int(c.denominator))
                               for c in reversed(val.to_list())])

    poly = sympy.Poly([to_domain(c) for c in reversed(entries(poly))], sympy.symbols("x"),
                      domain=dom)
    out = []
    for f, mult in poly.factor_list()[1]:
        fc = [to_scalar(c) for c in reversed(f.rep.to_list())]
        out.append((build([[c / fc[-1] for c in fc]], m), mult))
    out.sort(key=lambda t: (t[0].cols, [tuple(coeffs(c)) for c in entries(t[0])]))
    return out


def _shift_scalar(p, a: Scalar) -> list:
    """The coefficients of p(x + a), by Horner's rule in x + a."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out = [c + a * out[0]] + [u + a * v for u, v in zip(out, out[1:])] + [out[-1]]
    return out


def _poly_rem_scalar(a, b) -> list:
    """a mod b for a monic b, without trailing zero coefficients."""
    a, db = list(a), len(b) - 1
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            for j in range(db):
                a[d - db + j] = a[d - db + j] - c * b[j]
    rem = a[:db]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _poly_gcd_scalar(a, b) -> list:
    """The monic gcd of a nonzero polynomial a and a monic b, by Euclid's
    algorithm, each remainder made monic by one Scalar inverse."""
    while True:
        r = _poly_rem_scalar(a, b)
        if not r:
            return b
        inv = r[-1].inverse()
        a, b = b, [c * inv for c in r]


def factor_over_field_scalar(poly: Matrix, m: int):
    """``factor_over_field`` by the Scalar route: the same shifts and the
    same norms, factored over Z by the package, with the shift, the monic
    polynomial, the remainder and Euclid's gcd over the field in Scalar
    arithmetic, one Scalar per coefficient (the library runs them on the
    rows' integer numerators).  The factors are returned as rows."""
    phi, p = euler_phi(m), list(entries(poly))
    d = len(p) - 1
    for s in range(d * d * (phi - 1) + 1):
        ps = _shift_scalar(p, zeta(m) * s) if s else p
        _, factors = factor_integer(_norm(build([ps], m), m))
        out = []
        for r, mult in factors:
            rk = [Scalar.rational(Fraction(c, r[-1]), m) for c in r]
            q = rk if phi == 1 else _poly_gcd_scalar(ps, rk)
            if phi * (len(q) - 1) != len(r) - 1:
                break
            out.append((build([_shift_scalar(q, zeta(m) * -s) if s else q], m), mult))
        else:
            out.sort(key=lambda t: (t[0].cols, [tuple(coeffs(c)) for c in entries(t[0])]))
            return out
    raise ArithmeticError(f"no shift s <= {d * d * (phi - 1)} separates the norm")


def sheets_reference(cls) -> list:
    """Each sheet's q of an IrregularClass as {cover exponent: Scalar}, by
    the Scalar route: a circle's coefficient promoted into the class's
    field and multiplied by a Scalar power of zeta (``stokes.promote`` maps
    the numerators once)."""
    m, big_r, out = cls.conductor(), cls.cover_degree(), []
    for c in cls.circles:
        for leaf in range(c.ram):
            out.append({j * (big_r // c.ram): promote_scalar(entries(a)[0], m)
                        * zeta(m, (m // c.ram) * ((j * leaf) % c.ram)) for j, a in c.coeffs})
    return out


def singular_directions_reference(cls) -> list:
    """(theta, pair, level) of every singular direction incidence of an
    IrregularClass, sorted by (theta, pair), by the Scalar route: the
    sheets' difference in Scalars, its angle from ``to_complex``."""
    m, sheets, out = cls.conductor(), sheets_reference(cls), []
    for i, qa in enumerate(sheets):
        for j, qb in enumerate(sheets):
            if i == j:
                continue
            for level in sorted(set(qa) | set(qb), reverse=True):
                delta = qa.get(level, zero(m)) - qb.get(level, zero(m))
                if not delta.is_zero():
                    break
            arg = cmath.phase(to_complex(delta))
            for k in range(level):
                theta = (arg + math.pi + 2 * math.pi * k) / level % (2 * math.pi)
                if theta > 2 * math.pi - ANGLE_TOL:
                    theta = 0.0
                out.append((theta, (i, j), Fraction(level)))
    return sorted(out, key=lambda d: (d[0], d[1]))


def factor_integer_reference(f):
    """(content, factors) of an integer polynomial f, coefficients low ->
    high, from sympy's ``dup_factor_list`` over ZZ, in the layout of
    ``wildcat.modular.factor_integer``: each factor low -> high, in sympy's
    order."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    content, factors = dup_factor_list([ZZ(c) for c in reversed(f)], ZZ)
    return int(content), [([int(c) for c in reversed(g)], e) for g, e in factors]


def cyclotomic_polynomial_reference(m: int) -> tuple:
    """The m-th cyclotomic polynomial, coefficients low -> high, from
    sympy's ``cyclotomic_poly``."""
    from sympy import cyclotomic_poly, symbols

    return tuple(int(c) for c in reversed(cyclotomic_poly(m, symbols("x"), polys=True).all_coeffs()))


def shares_an_eigenvector(a, b) -> bool:
    """Whether the 2 x 2 matrices a and b, rows of rationals, share an
    eigenvector over the algebraic closure: det(ab - ba) = 0 (Shemesh)."""
    c = [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(2)) for j in range(2)]
         for i in range(2)]
    return c[0][0] * c[1][1] - c[0][1] * c[1][0] == 0


def mul_vector(a: Matrix, v) -> tuple:
    """a v for a vector v of Scalars (or ints and Fractions) in a's field."""
    return entries(a @ build([[x] for x in v], a.m))


def contains(sub: Subspace, vector) -> bool:
    return not any(sub._echelon.residue(build([vector], sub._echelon.m).nums))


def coordinates(sub: Subspace, vector):
    """Coordinates of vector in the echelon basis (its pivot entries), or None."""
    if not contains(sub, vector):
        return None
    row = build([vector], sub._echelon.m)
    return tuple(scalar_entry(row, 0, p) for p in sub.pivots)


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row reduce [A|A; B|0], read the right half of the zero-left rows."""
    n = a.ambient_dim
    if not (a.dim and b.dim):
        return Subspace.zero(n, a._echelon.m)
    top, bottom = a.matrix, b.matrix
    both = Subspace.span(stack([Matrix.zero(top.rows, 2 * n, top.m).place(0, 0, top).place(0, n, top),
                                Matrix.zero(bottom.rows, 2 * n, top.m).place(0, 0, bottom)]))
    rows = [i for i, piv in enumerate(both.pivots) if piv >= n]
    return Subspace.span(both.matrix.submatrix(rows, n, 2 * n))


def from_vectors(ambient_dim: int, vectors) -> Subspace:
    """The span in K^ambient_dim of vectors of Scalars in one field (ints
    and Fractions lift into it)."""
    vectors = list(vectors)
    return Subspace.span(build(vectors) if vectors else Matrix.zero(0, ambient_dim))


def scalar_from_json(data, m: int) -> Scalar:
    """The Scalar of a scalar text in Q(zeta_m)."""
    return Scalar(m, *parse_numerators(data, m))


def from_pieces(ambient_dim: int, pieces) -> Grading:
    """The grading with pieces (weight, basis vectors), the vectors of
    Scalars in one field (ints and Fractions lift into it)."""
    pieces = [(weight, list(vectors)) for weight, vectors in pieces]
    vectors = [v for _, basis in pieces for v in basis]
    if any(len(v) != ambient_dim for v in vectors) or len(vectors) != ambient_dim:
        raise ValueError("grading pieces do not have total dimension n")
    return Grading([w for w, _ in pieces], [len(basis) for _, basis in pieces],
                   build(vectors) if vectors else Matrix.zero(0, ambient_dim))


def pieces_of(g: Grading) -> list:
    """(weight, basis vectors as tuples of Scalars) per piece of g."""
    out, start = [], 0
    for weight, size in zip(g.weights, g.sizes):
        out.append((weight, [scalar_row(g.basis, i) for i in range(start, start + size)]))
        start += size
    return out


def piece_subspaces(g: Grading) -> list:
    return [from_vectors(g.ambient_dim, basis) for _, basis in pieces_of(g)]


def plain(g: Matrix, sigma: bool = False) -> Loop:
    """The loop (g, s), s = sigma when ``sigma`` is set: its inner part is
    the identity."""
    return Loop(g, Matrix.identity(g.rows, g.m), sigma)


def transpose_inverse(g: Matrix) -> Matrix:
    """sigma(g) = (g^-1)^T."""
    return g.inverse().transpose()


def apply(phi: tuple, g: Matrix) -> Matrix:
    """phi(g) for the automorphism phi = (A, s), Inn(A) o s."""
    inner, outer = phi
    core = transpose_inverse(g) if outer else g
    if inner.is_identity():
        return core
    return inner @ core @ inner.inverse()


def compose(phi: tuple, psi: tuple) -> tuple:
    """phi o psi: Inn(A) s_a Inn(B) s_b = Inn(A s_a(B)) s_a s_b."""
    (a, s_a), (b, s_b) = phi, psi
    return a @ (transpose_inverse(b) if s_a else b), s_a != s_b


def multiply(x: Loop, y: Loop) -> Loop:
    """(g, phi)(h, psi) = (g phi(h), phi psi) in G x| {id, sigma}."""
    phi = (x.inner, x.sigma)
    return Loop(x.g @ apply(phi, y.g), *compose(phi, (y.inner, y.sigma)))


def adjoint(x: Loop) -> tuple:
    """The induced automorphism Inn(g) o Inn(A) o s, as its pair (g A, s);
    invariant under ``normalize_point``."""
    return compose((x.g, False), (x.inner, x.sigma))


def restrict_point(p: FramedPoint, block: Subspace) -> FramedPoint:
    """Restrict an untwisted framed point to an invariant summand.

    The summand is invariant under loops and transported tori; grading i is
    restricted on the transported image C_i . block.
    """
    if not p.is_untwisted():
        raise TwistedInput("restriction requires untwisted loops")
    pn = normalize_point(p)
    nb = block.dim
    loops = [plain(restrict_matrix(x.g, block)) for x in pn.loops]
    gradings = []
    connectors = []
    for i, grading in enumerate(pn.gradings):
        if i == 0:
            image = block
        else:
            # the connector's coordinates on the image are its pivot rows
            moved = pn.connectors[i - 1] @ block.matrix.transpose()
            image = from_vectors(pn.n, [col(moved, j) for j in range(nb)])
            connectors.append(build([scalar_row(moved, q) for q in image.pivots]))
        pieces = []
        for (w, basis) in pieces_of(grading):
            inter = intersection(from_vectors(pn.n, basis), image)
            if inter.dim:
                pieces.append((w, [coordinates(image, v) for v in scalar_basis(inter)]))
        gradings.append(from_pieces(nb, pieces))
    return FramedPoint(nb, gradings, connectors, loops)


def act(h, p: FramedPoint) -> FramedPoint:
    """The framing-group action; every verdict is invariant under it.

    Each h_i is promoted into the point's field, which must contain it.
    """
    if len(h) != p.m:
        raise ValueError("need one group element per grading")
    m = p.conductor()
    hs = [build([[promote_scalar(x, m) for x in scalar_row(elt, i)] for i in range(elt.rows)], m)
          for elt in h]
    for i, (elt, grading) in enumerate(zip(hs, p.gradings)):
        if not elt.is_invertible():
            raise ValueError(f"group element {i + 1} is not invertible")
        for piece in piece_subspaces(grading):
            for v in scalar_basis(piece):
                if not contains(piece, mul_vector(elt, v)):
                    raise ValueError(f"group element {i + 1} does not centralize torus {i + 1}")
    h1, h1inv = hs[0], hs[0].inverse()
    connectors = [hs[i + 1] @ c @ h1inv for i, c in enumerate(p.connectors)]
    loops = [Loop(h1 @ x.g @ apply((x.inner, x.sigma), h1).inverse(), x.inner, x.sigma)
             for x in p.loops]
    return FramedPoint(p.n, p.gradings, connectors, loops)
