"""Arithmetic modulo a prime: one prime search, one image map, one echelon,
one null space, the lifted kernel, and factoring over Z.

The modular certificates map Q(zeta_m) to F_p for a prime p = 1 (mod m):
with r a root of the m-th cyclotomic polynomial mod p, zeta_m -> r is a
ring map from Z_(p)[zeta_m] (coefficients with denominators prime to p) onto
F_p.  Norton's test (``algebra._spans_full_mod_p``) works at a small prime,
the kernel bound ``kernel_dim_mod_p`` at the word-size prime of
``_modulus``; both find their prime with ``_prime_and_root``, map rows with
``_image_map`` and eliminate with ``_EchelonModP``.  Every null space mod p
(Norton's null spaces, the kernel bound, the lifted kernel) is read off one
routine, ``null_space_mod_p``, which stops once the rank is full.

The lifted kernel (``lift_kernel``, behind ``linalg.kernel``) solves a
system over Q(zeta_m) exactly from its images: at primes p = 1 (mod m) from
its width's word-size prime down, under each of the phi(m) maps zeta_m ->
r^k, it takes the reduced echelon basis of the null space mod p, recovers
each entry's power-basis numerators mod p through the inverse Vandermonde
matrix of the roots, combines the primes that agree on the pivots by the
Chinese remainder theorem (Cabay, "Exact solution of linear equations",
SYMSAM 1971), and reconstructs each vector over one denominator (Wang,
SYMSAC 1981).  It returns a basis only once the integer rows kill it exactly.

The echelon works on packed rows: a vector over F_p of width W is one Python
int of W 64-bit slots (``_pack``), so adding a multiple of a row is one
big-int ``vec += c * row``.  Slots are never reduced during elimination;
they start at most p-1 (a residue) and grow by at most (p-1)^2 per
elimination step, of which there are at most W, so p - 1 + W (p-1)^2 <
2^64: ``_modulus(m, W)`` is the largest such prime p = 1 (mod m) below
2^31, and ``_EchelonModP`` refuses any other (Norton's small prime fits at
any width below 2^48).  A vector is reduced mod p once, its bytes read in
place as 64-bit words, after its elimination: it is dependent exactly when
every slot is 0 mod p.  ``tests/oracles.py`` keeps list-based routes mod p,
reduced at every step, as references: the echelon, the kernel bound, and a
spin of N^2 words that answers the certificate's question at p.

Integer polynomials are factored here too, by Zassenhaus's algorithm
(``factor_integer``), with no dependency and one path per step.  The
content and the squarefree parts (Yun, on gcds from a primitive remainder
sequence) come first.  Each part f is factored modulo one prime: the first
odd p that does not divide its lead and modulo which it stays squarefree.
There distinct-degree factorisation, from degree 1, and Cantor-Zassenhaus
equal-degree splitting, with trial polynomials from a fixed sequence so
that every run does the same work, give its irreducible factors.  They are
lifted mod p^(2^k) past a Mignotte bound by quadratic Hensel steps down one
factor tree, and recombined over subsets of increasing size, a subset kept
when its product divides f exactly.  Every divisor mod p or mod p^k is
monic, so a division takes no modular inverse.  ``tests/oracles.py`` keeps
sympy's ``dup_factor_list`` as the reference.
"""

from __future__ import annotations

import sys
from array import array
from bisect import insort
from functools import lru_cache
from itertools import combinations, zip_longest
from math import comb, gcd, isqrt
from operator import mul
from typing import Optional

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BIG_ENDIAN = sys.byteorder == "big"
_SPLIT_TRIALS = 64   # a product of two or more factors survives a trial with probability <= 5/9


def _is_prime(q: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: deterministic for
    q < 3.18e23 (Sorenson and Webster, 2015), far above every modulus here."""
    if q < 2:
        return False
    for b in _WITNESSES:
        if q % b == 0:
            return q == b
    s = ((q - 1) & (1 - q)).bit_length() - 1   # q - 1 = d 2^s, d odd
    d = (q - 1) >> s
    for b in _WITNESSES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_and_root(m: int, bound: int, up: bool):
    """(p, r): the first prime p = 1 (mod m) beyond ``bound``, the smallest
    above it if ``up``, else the largest below it, and a root r of the m-th
    cyclotomic polynomial mod p (r^m = 1, r^(m/q) != 1 for primes q | m)."""
    if up:
        p, step = -(-bound // m) * m + 1, m
    else:
        p, step = (bound - 2) // m * m + 1, -m
    while not _is_prime(p):
        p += step
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for g in range(2, p):
        r = pow(g, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in primes):
            return p, r
    raise AssertionError("no primitive root of unity modulo p")


@lru_cache(maxsize=None)
def _modulus(m: int, width: int):
    """(p, r) for the largest prime p < 2^31 with p = 1 (mod m) and p - 1 +
    width (p-1)^2 < 2^64, whose packed rows of ``width`` slots keep each
    slot in one word (module docstring): the kernel bound's prime and the
    lifted kernel's first (``_prime_and_root``)."""
    x = isqrt((1 << 64) // max(width, 1))   # at least the largest p - 1 that fits
    while x + width * x * x >= 1 << 64:
        x -= 1
    return _prime_and_root(m, min(x + 2, 1 << 31), False)


@lru_cache(maxsize=None)
def _image_map(p: int, r: int, phi: int):
    """The ring map zeta_m -> r into F_p, phi = phi(m), on rows laid out
    as a ``linalg.Matrix`` keeps its entries: ``image(nums, den)`` gives
    the residues of the entries whose phi power-basis numerators each are
    nums over den, or None if p divides den.  A canonical den is the lcm
    of the entries' denominators, so p divides it exactly when p divides
    one of them."""
    rpow = [pow(r, j, p) for j in range(1, phi)]

    def image(nums, den) -> Optional[list]:
        if den % p == 0:
            return None
        acc = nums[::phi]   # the coefficients of zeta^0, then add those of zeta^j times r^j
        for j, rj in enumerate(rpow, 1):
            acc = [x + c * rj for x, c in zip(acc, nums[j::phi])]
        if den == 1:
            return [x % p for x in acc]
        inv = pow(den, -1, p)
        return [x * inv % p for x in acc]

    return image


def _pack(values) -> int:
    """One int whose 64-bit slots hold the values (each < 2^64), slot 0 lowest."""
    words = array("Q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _residues(vec: int, count: int, p: int) -> list:
    """The count 64-bit slots of vec, each reduced mod p: its bytes in
    native order read in place as words, lowest first."""
    words = memoryview(vec.to_bytes(8 * count, sys.byteorder)).cast("Q")
    if _BIG_ENDIAN:
        words = words[::-1]
    return [x % p for x in words]


class _EchelonModP:
    """One echelon over F_p of vectors of ``width`` ints, eliminated on
    packed rows (module docstring): eliminating a pivot adds (p - f) times
    its row, f the residue of vec's slot there, so slots only grow: a p
    with p - 1 + width (p-1)^2 >= 2^64, a slot of two words, raises
    AssertionError.

    ``insert(vec)`` returns the residues of vec's echelon row, 0 before its
    pivot and 1 at it, or None if vec was dependent; ``rows`` holds the
    (pivot, residues) pairs by pivot.
    """

    def __init__(self, p: int, width: int):
        if p - 1 + width * (p - 1) ** 2 >= 1 << 64:
            raise AssertionError(f"a slot of width {width} mod {p} needs two words")
        self.p, self.width = p, width
        self.rows = []
        self._packed = []   # (bit offset of the pivot slot, packed row), by pivot

    def insert(self, vec) -> Optional[list]:
        p = self.p
        packed = _pack([x % p for x in vec])
        for shift, row in self._packed:
            f = (packed >> shift & 0xFFFFFFFFFFFFFFFF) % p
            if f:
                packed += (p - f) * row
        res = _residues(packed, self.width, p)
        lead = next(filter(None, res), 0)   # the first nonzero residue
        if not lead:
            return None
        piv, inv = res.index(lead), pow(lead, -1, p)
        row = [x * inv % p for x in res]
        insort(self._packed, (64 * piv, _pack(row)))
        insort(self.rows, (piv, row))
        return row


def null_space_mod_p(rows, width: int, p: int, rank: Optional[int] = None) -> list:
    """The null space over F_p of the rows (ints, any representatives, an
    iterable read only as far as needed), as (f, v) per free column f of
    their echelon form, f ascending: v is 1 at f, 0 at the other free
    columns, and its entries at the pivots follow by back substitution, so
    v is the one null vector with those free entries.  The rows are read
    until their rank reaches ``rank`` (default the width; [] when the rank
    is full), so the null space is that of the rows read."""
    ech = _EchelonModP(p, width)
    rank = width if rank is None else rank
    for row in rows:
        if len(ech.rows) == rank:
            break
        ech.insert(row)
    if len(ech.rows) == width:
        return []
    pivots = {piv for piv, _ in ech.rows}
    out = []
    for f in range(width):
        if f in pivots:
            continue
        v = [0] * width
        v[f] = 1
        for piv, row in reversed(ech.rows):   # pivots high -> low; v is 0 past f
            if piv < f:
                v[piv] = -sum(map(mul, row[piv + 1:f + 1], v[piv + 1:f + 1])) % p
        out.append((f, v))
    return out


def _charpoly_mod(a, q: int) -> list:
    """det(x I - a) over F_q, coefficients low -> high: a is reduced to upper
    Hessenberg form h by similarity, and p_k, the polynomial of h's leading
    k x k block, follows p_(k+1) = (x - h_kk) p_k - sum_(i<k) h_ik
    h_(i+1,i) ... h_(k,k-1) p_i (Cohen, A Course in Computational Algebraic
    Number Theory, 2.2.9)."""
    n = len(a)
    h = [list(row) for row in a]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:   # swap rows and columns piv, j + 1
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, q)
        for i in range(j + 2, n):
            u = h[i][j] * inv % q
            if u:   # row i -= u row j+1, then column j+1 += u column i
                h[i] = [(x - u * y) % q for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % q
    polys = [[1]]
    for k in range(n):
        p = [0] + polys[k]
        for d, c in enumerate(polys[k]):
            p[d] -= h[k][k] * c
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % q
            u = h[i][k] * t
            for d, c in enumerate(polys[i]):
                p[d] -= u * c
        polys.append([c % q for c in p])
    return polys[n]


def _horner_mod(poly, x: int, q: int) -> int:
    out = 0
    for c in reversed(poly):
        out = (out * x + c) % q
    return out


def kernel_dim_mod_p(rows, width: int, m: int) -> int:
    """An upper bound on the kernel dimension over Q(zeta_m) of integer rows
    of width entries, phi(m) power-basis numerators each, as a
    ``linalg.Matrix`` keeps them (``sandwich_rows``).

    The rows are mapped to F_p by zeta_m -> r (``_image_map``), p the
    word-size prime of ``_modulus`` for the width; every integer row has an
    image, so no denominator can stop it.  A minor that is nonzero mod p is the image of
    a nonzero minor, so the kernel mod p is at least as large.  The rows
    are eliminated until the echelon is full, when the kernel mod p is 0.
    """
    p, r = _modulus(m, width)
    image = _image_map(p, r, len(_units(m)))
    return len(null_space_mod_p((image(row, 1) for row in rows), width, p))


@lru_cache(maxsize=None)
def _units(m: int) -> tuple:
    """The k in 1..m prime to m (k = 1 when m is 1 or 2): phi(m) of them,
    one ring map zeta_m -> r^k per k."""
    return tuple(k for k in range(1, max(m, 2)) if gcd(k, m) == 1)


@lru_cache(maxsize=None)
def _vandermonde_inverse(p: int, roots: tuple) -> list:
    """The inverse mod p of the matrix with row (rho^0, rho^1, ...) per
    root rho, by Gauss-Jordan elimination: row j of it, dotted with the
    images of an element under zeta -> rho, gives its numerator j mod p."""
    k = len(roots)
    a = [[pow(rho, j, p) for j in range(k)] + [int(i == j) for j in range(k)]
         for i, rho in enumerate(roots)]
    for c in range(k):
        piv = next(i for i in range(c, k) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p)
        a[c] = [x * inv % p for x in a[c]]
        for i in range(k):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return [row[k:] for row in a]


def _rational(u: int, modulus: int, bound: int) -> Optional[tuple]:
    """(a, b) with a = b u (mod modulus), |a| <= bound and 0 < b <= bound,
    by the extended Euclidean algorithm stopped halfway, or None (Wang, "A
    p-adic algorithm for univariate partial fractions", SYMSAC 1981)."""
    r0, r1, s0, s1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(values, modulus: int) -> Optional[tuple]:
    """(nums, den): integers over one positive denominator with no common
    factor, nums / den = values (mod modulus), each at most sqrt(modulus /
    2) in size, or None.  The denominator grows only where the values times
    the one found so far are not small already."""
    bound, half = isqrt(modulus >> 1), modulus >> 1
    den, nums = 1, []
    for x in values:
        a = x * den % modulus
        if a > half:
            a -= modulus
        if abs(a) > bound:
            frac = _rational(a, modulus, bound)
            if frac is None:
                return None
            a, b = frac
            den *= b
            if den > bound:
                return None
            nums = [y * b for y in nums]
        nums.append(a)
    g = gcd(den, *nums)
    return [y // g for y in nums], den // g


def lift_kernel(rows, den: int, width: int, m: int, kills, bits: int) -> list:
    """The reduced echelon basis over Q(zeta_m) of the null space of the
    rows (integer numerators over den, phi(m) per entry as a
    ``linalg.Matrix`` keeps them, none zero), as (pivot, numerators,
    denominator) per vector, pivots ascending: each over one positive
    denominator with no common factor, numerators (den, 0, ...) at its
    pivot and zeros at the other pivots.

    The primes p = 1 (mod m) are walked down from ``_modulus(m, width)``
    (``_prime_and_root``); a prime that divides den is skipped.  At each,
    the rows are mapped by each of the phi(m) ring maps zeta_m -> r^k, k
    prime to m (``_image_map``), and the null space of each image is taken
    with its columns reversed (``null_space_mod_p``; the maps after the
    first read rows only until they reach its rank): the vector of a free
    column f is then 1 at f, 0 at the other free columns and nonzero
    elsewhere only at pivots before f, so reversed back the vectors are the
    reduced echelon basis of the image's null space.
    The images of each entry under the phi(m) maps give its power-basis
    numerators mod p (``_vandermonde_inverse``).

    The rank mod p is at most the rank over the field, and a prime that
    keeps the rank and divides no denominator of the reduced basis maps it
    onto the reduced basis mod p.  A prime that does either gives a longer
    basis, or pivots that are later one by one, so its (dimension,
    pivots) key is larger.  At a good prime every map has the rank over
    the field, so the rows read up to that rank span the image of the row
    space; a map that stops short disagrees, and the prime is skipped.
    The primes with the smallest key seen are combined by the Chinese
    remainder theorem and each vector is reconstructed over one
    denominator (``_reconstruct``); a smaller key starts again.  A
    candidate is returned when ``kills(candidate)``, the exact check that
    the rows kill every vector: it has the reduced echelon shape, so its
    vectors are independent, and there are at least as many as the null
    space's dimension, so they are its reduced echelon basis.  A full rank
    mod p proves the null space 0 at once.

    The walk is bounded.  ``bits`` >= log2 H, H a bound on every numerator
    and denominator of the basis (``linalg._hadamard_bits``), so the basis
    is reconstructed, and passes the check, once the combined primes' product
    passes 2 H^2: the walked primes are above 2^e, e two less than the
    first's bit length (29 up to width 4, 27 at 256), so that takes
    ceil((2 bits + 1) / e) good ones.  A prime is bad only if it divides
    den, or the norm of the minor on the pivot columns of r independent
    rows (which is at most H), so at most bits // e + log2(den) / e primes
    are bad.  A walk past the sum of the two raises AssertionError, which
    names the width, the rank and the primes walked: a fault in the images,
    the Vandermonde step or the reconstruction would otherwise hang the
    caller.
    """
    exps = _units(m)
    key = values = modulus = rank = None
    p = _modulus(m, width)[0] + 1   # the walk's first step finds it again
    e = (p - 1).bit_length() - 2
    walk = -(-(2 * bits + 1) // e) + bits // e + den.bit_length() // e
    for _ in range(walk):
        p, r = _prime_and_root(m, p, False)
        if den % p == 0:
            continue
        keys, images, rank = set(), [], None
        for k in exps:
            image = _image_map(p, pow(r, k, p), len(exps))
            basis = null_space_mod_p((image(nums, den)[::-1] for nums in rows),
                                     width, p, rank)
            if not basis:
                return []
            rank = width - len(basis)   # the other maps stop at the first one's rank
            keys.add(tuple(width - 1 - f for f, _ in reversed(basis)))
            images.append([v[::-1] for _, v in reversed(basis)])
        if len(keys) > 1:
            continue   # a bad prime for some of the maps
        pivots = keys.pop()
        if len(exps) == 1:
            new = images[0]
        else:
            inv = _vandermonde_inverse(p, tuple(pow(r, k, p) for k in exps))
            new = [[sum(map(mul, line, entry)) % p for entry in zip(*vecs) for line in inv]
                   for vecs in zip(*images)]
        if key is None or (len(pivots), pivots) < key:
            key, values, modulus = (len(pivots), pivots), new, p
        elif (len(pivots), pivots) == key:
            inv = pow(modulus, -1, p)
            values = [[x + modulus * ((y - x) * inv % p) for x, y in zip(xs, ys)]
                      for xs, ys in zip(values, new)]
            modulus *= p
        else:
            continue
        lifted = []
        for xs in values:
            vec = _reconstruct(xs, modulus)
            if vec is None:
                break
            lifted.append(vec)
        else:
            candidate = [(piv, nums, den) for piv, (nums, den) in zip(pivots, lifted)]
            if kills(candidate):
                return candidate
    raise AssertionError(f"no kernel basis of width {width} (rank {rank} at the last prime) "
                         f"passed the exact check after {walk} primes, down to {p}")


# ---------------------------------------------------------------------------
# factoring over Z (Zassenhaus).  A polynomial is a list of ints, low -> high,
# with no trailing zero, so [] is 0 and len(a) - 1 is the degree.  Mod p and
# mod p^k every divisor is monic, so a division needs no inverse.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a, b) -> list:
    """a b over Z (plain loops: the fastest form at these degrees)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _sub_mod(a, b, q: int) -> list:
    """a - b mod q."""
    return _reduce([x - y for x, y in zip_longest(a, b, fillvalue=0)], q)


def _mul_add(q: int, base, *pairs) -> list:
    """base + the sum of a b over the pairs (a, b), mod q."""
    out = list(base)
    for a, b in pairs:
        if a and b:
            top = len(a) + len(b) - 1
            if top > len(out):
                out += [0] * (top - len(out))
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return _reduce(out, q)


def _reduce(a, q: int) -> list:
    """a mod q."""
    return _trim([x % q for x in a])


def _divmod_monic(a, b, q: int):
    """(quotient, remainder) of a by a monic b, mod q."""
    db = len(b) - 1
    a = list(a)
    quo = [0] * max(len(a) - db, 0)
    for d in range(len(a) - 1, db - 1, -1):
        c = quo[d - db] = a[d] % q
        if c:
            for j in range(db):
                a[d - db + j] -= c * b[j]
    return quo, _reduce(a[:db], q)


def _monic(a, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gcd_mod(a, b, p: int) -> list:
    """The monic gcd of a and b mod a prime p (Euclid); [] if both are 0."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_monic(a, b, p)[1]
    return _monic(a, p) if a else a


def _pow_mod(a, e: int, f, q: int) -> list:
    """a^e mod (f, q), f monic, e >= 1, by squaring from the top bit; a = x
    is multiplied in by a shift."""
    shift = a == [0, 1]
    a = out = _divmod_monic(a, f, q)[1]
    for bit in bin(e)[3:]:
        out = _divmod_monic(_mul(out, out), f, q)[1]
        if bit == "1":
            out = _divmod_monic([0] + out if shift else _mul(out, a), f, q)[1]
    return out


def _derivative(a) -> list:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _primitive(a) -> list:
    """a over its content, with a positive leading coefficient."""
    g = gcd(*a)
    return [x // g for x in a] if a[-1] > 0 else [-x // g for x in a]


def _exact_quotient(a, b) -> Optional[list]:
    """a / b over Z, or None if b does not divide a."""
    db = len(b) - 1
    a, lead = list(a), b[-1]
    quo = [0] * (len(a) - db)
    for d in range(len(a) - 1, db - 1, -1):
        c, r = divmod(a[d], lead)
        if r:
            return None
        quo[d - db] = c
        if c:
            for j in range(db):
                a[d - db + j] -= c * b[j]
    return None if any(a[:db]) else quo


def _gcd_integer(a, b) -> list:
    """The primitive gcd of a and b over Z with a positive lead, for deg a
    >= deg b and b != 0, by the primitive remainder sequence: each
    pseudo-remainder is divided by its content (Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 3.3.1)."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        lead, r = b[-1], list(a)
        while len(r) >= len(b):   # r = lead r - c x^k b drops r's degree
            c, k = r[-1], len(r) - len(b)
            r = [lead * x for x in r]
            for j, y in enumerate(b, k):
                r[j] -= c * y
            _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _squarefree_parts(f) -> list:
    """(g, e) for the squarefree, pairwise coprime, primitive g of positive
    degree with f = prod g^e, f primitive with a positive lead (Yun, "On
    square-free decomposition algorithms", SYMSAC 1976).  Each division is
    exact over Z, by a primitive divisor (Gauss's lemma)."""
    df = _derivative(f)
    a = _gcd_integer(f, df)
    b, c, out, e = _exact_quotient(f, a), _exact_quotient(df, a), [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd_integer(b, d) if d else b
        if len(a) > 1:
            out.append((a, e))
            b, d = _exact_quotient(b, a), _exact_quotient(d, a) if d else d
        c, e = d, e + 1
    return out


def _distinct_degree(f, p: int) -> list:
    """(g, d) for each degree d of the irreducible factors of a monic
    squarefree f mod p, g their product, d = 1, 2, ...: g = gcd(x^(p^d) -
    x, f) once the factors of lower degree are divided out (von zur Gathen
    and Gerhard, Modern Computer Algebra, Algorithm 14.3).  What is left
    when it has no two factors of degree > d is one irreducible factor."""
    out, d, h = [], 0, [0, 1]   # h = x^(p^d) mod f
    while 2 * (d + 1) < len(f):
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_monic(f, g, p)[0]
            h = _divmod_monic(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d: int, p: int) -> list:
    """The monic irreducible factors, all of degree d, of a monic squarefree
    g mod an odd prime p (Cantor and Zassenhaus, Math. Comp. 1981):
    gcd(a^((p^d - 1)/2) - 1, g) splits g for about half of all a of degree
    < deg g.  The trial polynomials a are drawn from a fixed sequence, so
    every run does the same work: their coefficients are the successive
    values of the linear congruential generator of ANSI C's rand, mod p.
    (Low-degree trials, such as x + c, fail far more often: when d > 1
    they see only a subspace of the residues mod g's factors.)  A g that is
    not such a product has a part that no trial splits, so after
    ``_SPLIT_TRIALS`` trials without a split it raises AssertionError: the
    caller is at fault, and an unbounded search would hang."""
    if len(g) - 1 == d:
        return [g]
    e, state = (p ** d - 1) // 2, 1
    for _ in range(_SPLIT_TRIALS):
        a = []
        for _ in range(len(g) - 1):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            a.append((state >> 16) % p)
        h = _gcd_mod(g, _sub_mod(_pow_mod(_trim(a), e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return _equal_degree(h, d, p) + _equal_degree(_divmod_monic(g, h, p)[0], d, p)
    raise AssertionError(f"g = {g} (low -> high) mod p = {p} did not split into factors "
                         f"of degree d = {d} in {_SPLIT_TRIALS} trials")


def _bezout(g, h, p: int):
    """(s, t) with s g + t h = 1 mod p, deg s < deg h and deg t < deg g, for
    coprime monic g and h (the extended Euclidean algorithm)."""
    r0, s0, r1, s1 = g, [1], h, []   # r_i = s_i g mod h
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, s1 = [x * inv % p for x in r1], [x * inv % p for x in s1]
        quo, r = _divmod_monic(r0, r1, p)
        r0, s0, r1, s1 = r1, s1, r, _mul_add(p, s0, ([-x for x in quo], s1))
    inv = pow(r0[0], -1, p)
    s = [x * inv % p for x in s0]
    return s, _divmod_monic(_mul_add(p, [1], ([-x for x in s], g)), h, p)[0]


def _hensel_lift(f, factors, p: int, q: int) -> list:
    """The monic factors mod q = p^(2^k) of a monic f mod q that reduce to
    its pairwise coprime monic factors mod p, in their order, down one
    factor tree: the factors are split in halves, whose products g and h
    are lifted together by quadratic Hensel steps p -> p^2 -> ... -> q
    (Modern Computer Algebra, Algorithm 15.10), and each half is then
    lifted from its lifted product."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g, h = factors[0], factors[half]
    for u in factors[1:half]:
        g = _reduce(_mul(g, u), p)
    for u in factors[half + 1:]:
        h = _reduce(_mul(h, u), p)
    s, t = _bezout(g, h, p)
    m = p
    while m < q:
        m *= m
        e = _mul_add(m, f, ([-x for x in g], h))
        quo, r = _divmod_monic(_mul(s, e), h, m)
        g, h = _mul_add(m, g, (t, e), (quo, g)), _mul_add(m, h, (r, [1]))
        if m < q:   # lift s and t for the next step
            b = _mul_add(m, [-1], (s, g), (t, h))
            c, d = _divmod_monic(_mul(s, b), h, m)
            s = _mul_add(m, s, (d, [-1]))
            t = _mul_add(m, t, ([-x for x in t], b), ([-x for x in c], g))
    return _hensel_lift(g, factors[:half], p, q) + _hensel_lift(h, factors[half:], p, q)


def _zassenhaus(f) -> list:
    """The irreducible factors over Z, primitive with positive leads, of a
    squarefree primitive f of positive degree n with a positive lead
    (Zassenhaus, "On Hensel factorization I", J. Number Theory 1969; Modern
    Computer Algebra, Algorithm 15.19).

    p is the first odd prime that does not divide lead(f) and modulo which
    f stays squarefree, that is, that divides neither lead(f) nor disc(f).
    f's irreducible factors mod p are lifted mod q > 2C, C = binom(n - 1,
    (n - 1) // 2) ||f||_2, and recombined over subsets of increasing size.
    A factor g of f of degree k < n, with lead c, has |g_j| <= binom(k, j)
    M(f) c / lead(f) (M the Mahler measure, at most ||f||_2; Mignotte 1974),
    so b/c g, b the lead of what is left of f, has coefficients of at most
    C: it is b times the product of its lifted factors, mod q in (-q/2,
    q/2].  A subset is kept when the primitive part of that product divides
    what is left of f exactly.  Subsets are tried by size, so a kept one is
    irreducible, and what is left when no subset of at most half the
    factors divides is irreducible.
    """
    n, lead, p = len(f) - 1, f[-1], 1
    while True:
        p += 2
        if _is_prime(p) and lead % p:
            fp = _monic([c % p for c in f], p)
            if _gcd_mod(fp, _reduce(_derivative(fp), p), p) == [1]:
                break
    factors = [u for g, d in _distinct_degree(fp, p) for u in _equal_degree(g, d, p)]
    bound = comb(n - 1, (n - 1) // 2) * (isqrt(sum(c * c for c in f) - 1) + 1)   # ceil ||f||_2
    q = p
    while q <= 2 * bound:
        q *= q
    lifted = _hensel_lift(_reduce([c * pow(lead, -1, q) for c in f], q), factors, p, q)
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [lead]
            for i in subset:
                g = _reduce(_mul(g, lifted[i]), q)
            g = _primitive([x - q if 2 * x > q else x for x in g])
            h = _exact_quotient(f, g)
            if h is not None:
                out.append(g)
                f, lead = h, h[-1]
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def factor_integer(f):
    """(content, factors) of a nonzero integer polynomial f, coefficients
    low -> high: f = content prod g^e over the factors (g, e), each g
    irreducible over Z and primitive with a positive lead, sorted by degree,
    multiplicity and then coefficients high -> low, as sympy's
    ``dup_factor_list`` returns them; content has the sign of f's lead."""
    f = _trim(list(f))
    content = gcd(*f) if f[-1] > 0 else -gcd(*f)
    f = [c // content for c in f]
    j = next(i for i, c in enumerate(f) if c)   # x^j divides f
    factors = [([0, 1], j)] if j else []
    if len(f) - j > 1:
        for part, e in _squarefree_parts(f[j:]):
            factors += [(g, e) for g in _zassenhaus(part)]
    factors.sort(key=lambda t: (len(t[0]), t[1], t[0][::-1]))
    return content, factors
