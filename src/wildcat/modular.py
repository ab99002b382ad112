"""Arithmetic modulo a prime: one prime search, one image map, one echelon.

The modular certificates map Q(zeta_m) to F_p for a prime p = 1 (mod m):
with r a root of the m-th cyclotomic polynomial mod p, zeta_m -> r is a
ring map from Z_(p)[zeta_m] (coefficients with denominators prime to p) onto
F_p.  Norton's test (``algebra._spans_full_mod_p``) works at a small prime,
the kernel bound ``kernel_dim_mod_p`` at the word-size prime of
``_modulus``; both find their prime with ``_prime_and_root``, map rows with
``_image_map`` and eliminate with ``_EchelonModP``.

The echelon works on packed rows: a vector over F_p of width W is one Python
int of W fixed-width slots, each of k 64-bit words (``_pack``), so adding a
multiple of a row is one big-int ``vec += c * row``.  Slots are never
reduced during elimination; they start at most p-1 (a residue) and grow by
at most (p-1)^2 per elimination step, of which there are at most W, and
``_slot_words`` picks k so that p - 1 + W (p-1)^2 fits.  A vector is reduced
mod p once, by one ``array('Q')`` unpack, after its elimination: it is
dependent exactly when every slot is 0 mod p.  At Norton's small prime a
slot is one word.  ``tests/oracles.py`` keeps list-based routes mod p,
reduced at every step, as references: the echelon, the kernel bound, and a
spin of N^2 words that answers the certificate's question at p.
"""

from __future__ import annotations

import sys
from array import array
from bisect import insort
from functools import lru_cache
from operator import mul
from typing import Optional

_MODULUS_BOUND = 1 << 31
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BIG_ENDIAN = sys.byteorder == "big"


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


def _modulus(m: int):
    """(p, r) for the largest prime p < 2^31 with p = 1 (mod m): the
    word-size prime of the kernel bound (``_prime_and_root``)."""
    return _prime_and_root(m, _MODULUS_BOUND, False)


def _image_map(p: int, r: int, phi: int):
    """The ring map zeta_m -> r into F_p, phi = phi(m), on rows in the
    ``_int_row`` layout: ``image(nums, den)`` gives the residues of the
    entries whose phi power-basis numerators each are nums over den, or
    None if p divides den.  den is the lcm of the entries' denominators, so
    p divides it exactly when p divides one of them."""
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


def _slot_words(width: int, p: int) -> int:
    """64-bit words per slot of a packed row of ``width`` slots that starts
    with slots <= p - 1 (a residue) and then takes up to ``width``
    elimination steps, each adding at most (p-1)^2 to a slot
    (``_EchelonModP``)."""
    return -(-(p - 1 + width * (p - 1) ** 2).bit_length() // 64)


def _pack(values, k: int) -> int:
    """One int whose k-word slots hold the values (each < 2^64), slot 0 lowest."""
    words = array("Q", [0]) * (k * len(values))
    words[::k] = array("Q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _residues(vec: int, count: int, k: int, p: int) -> list:
    """The count k-word slots of vec, each reduced mod p."""
    words = array("Q", vec.to_bytes(8 * k * count, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    if k == 1:
        return [x % p for x in words]
    c = pow(2, 64, p)
    slots = words[k - 1::k]
    for t in range(k - 2, -1, -1):   # Horner in 2^64
        slots = [(s * c + w) % p for s, w in zip(slots, words[t::k])]
    return slots


class _EchelonModP:
    """One echelon over F_p of vectors of ``width`` ints, eliminated on
    packed rows (module docstring): eliminating a pivot adds (p - f) times
    its row, f the residue of vec's slot there, so slots only grow.

    ``insert(vec)`` returns the residues of vec's echelon row, 0 before its
    pivot and 1 at it, or None if vec was dependent; ``rows`` holds the
    (pivot, residues) pairs by pivot.
    """

    def __init__(self, p: int, width: int):
        self.p, self.width = p, width
        self.k = _slot_words(width, p)
        self.rows = []
        self._packed = []   # (bit offset of the pivot slot, packed row), by pivot
        self._mask = (1 << 64 * self.k) - 1

    def insert(self, vec) -> Optional[list]:
        p, k, mask = self.p, self.k, self._mask
        packed = _pack([x % p for x in vec], k)
        for shift, row in self._packed:
            f = (packed >> shift & mask) % p
            if f:
                packed += (p - f) * row
        res = _residues(packed, self.width, k, p)
        piv = next((j for j, x in enumerate(res) if x), None)
        if piv is None:
            return None
        inv = pow(res[piv], -1, p)
        row = [x * inv % p for x in res]
        insort(self._packed, (64 * k * piv, _pack(row, k)))
        insort(self.rows, (piv, row))
        return row


def _null_line(rows, n: int, q: int) -> Optional[list]:
    """A vector spanning the null space of the n x n matrix with these rows
    over F_q, or None if that null space is not a line."""
    ech = _EchelonModP(q, n)
    for row in rows:
        ech.insert(row)
    if len(ech.rows) != n - 1:
        return None
    pivots = {piv for piv, _ in ech.rows}
    v = [0] * n
    v[next(j for j in range(n) if j not in pivots)] = 1
    for piv, row in reversed(ech.rows):   # back substitution, pivots high -> low
        v[piv] = -sum(map(mul, row[piv + 1:], v[piv + 1:])) % q
    return v


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
    in the ``_int_row`` layout (``sandwich_rows``), width entries of phi(m)
    numerators each.

    The rows are mapped to F_p by zeta_m -> r (``_image_map``), p the
    word-size prime of ``_modulus``; every integer row has an image, so no
    denominator can stop it.  A minor that is nonzero mod p is the image of
    a nonzero minor, so the kernel mod p is at least as large.  The rows
    are eliminated until the echelon is full, when the kernel mod p is 0.
    """
    p, r = _modulus(m)
    ech = _EchelonModP(p, width)
    image = _image_map(p, r, len(rows[0]) // width if rows else 1)
    for row in rows:
        if len(ech.rows) == width:
            break
        ech.insert(image(row, 1))
    return width - len(ech.rows)
