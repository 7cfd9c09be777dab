"""W_L(F_q) as the Galois ring GR(p^L, e) = (Z/p^L)[u]/(f~).

F_q = F_p[u]/(f) for the stored IRREDUCIBLE polynomial f, and f~ is f with
its coefficients read as integers.  An element of GR(p^L, e) is a tuple of e
integers modulo p^L, the coefficients of 1, u, ..., u^(e-1); for a prime
field it is a 1-tuple.  A Witt vector (a_0, ..., a_{L-1}) is the element
sum_i p^i * T(a_i^(p^-i)), where T(c) = c^(q^(L-1)) for any integer lift of c
is the Teichmuller lift, so Witt coordinates are needed only to read or print
a value.  ``witt`` computes W_N(F_q) here for q > p; det and mat_inv serve the
small matrices of witt.random_sl and witt.mat_inv.

The product ``mul`` and the powers ``power`` are those of ``fields``, which
builds the tables of F_q = GR(p, e) with the same product.
"""

from __future__ import annotations

from .errors import NonUnit
from .fields import mul, power

_TEICH = {}  # (field, L) -> {residue tuple: its Teichmuller lift mod p^L}


def inv(field, a, L):
    """The inverse of the unit a modulo p^L."""
    mod = field.p**L
    if len(a) == 1:
        return (pow(a[0], -1, mod),)
    # Newton: y -> y * (2 - a*y) doubles the number of correct p-adic digits
    y = field.make(a).inv().val
    k = 1
    while k < L:
        k = min(2 * k, L)
        m = field.p**k
        ay = mul(field, a, y, m)
        y = mul(field, y, ((2 - ay[0]) % m,) + tuple(-c % m for c in ay[1:]), m)
    return y


def teichmuller(field, L):
    """{c.val: T(c) modulo p^L} for the q elements c of F_q."""
    key = (field, L)
    table = _TEICH.get(key)
    if table is None:
        if L == 0:  # q^(L - 1) is no integer; T(c) is only read mod p^0 = 1
            table = {c.val: c.val for c in field.elements()}
        else:
            n, mod = field.q ** (L - 1), field.p**L
            table = {c.val: power(field, c.val, n, mod) for c in field.elements()}
        _TEICH[key] = table
    return table


def of_digits(field, coords):
    """The element sum_i p^i * T(a_i^(p^-i)) of GR(p^L, e), L = len(coords)."""
    L = len(coords)
    p, mod = field.p, field.p**L
    lift = teichmuller(field, L)
    acc = [0] * field.e
    for i, c in enumerate(coords):
        if c.is_zero():
            continue
        for _ in range(i):
            c = c.pth_root()
        pi = p**i
        for k, t in enumerate(lift[c.val]):
            acc[k] += pi * t
    return tuple(x % mod for x in acc)


def digits(field, x, L, count):
    """(a_0, ..., a_{count-1}), r with x = sum_{i<count} p^i T(a_i^(p^-i)) + p^count r.

    The a_i are the first Witt coordinates of x in GR(p^L, e); r is returned
    modulo p^(L - count).
    """
    p = field.p
    lift = teichmuller(field, L)
    coords = []
    for i in range(count):
        b = tuple(c % p for c in x)
        x = tuple((c - t) // p for c, t in zip(x, lift[b]))
        coords.append(field.make(b) ** (p**i))
    mod = p ** (L - count)
    return coords, tuple(c % mod for c in x)


def det(field, M, mod):
    """Determinant of a square matrix over GR(p^L, e), mod = p^L, by
    expansion along the first row (desk-scale n); 1 for the empty matrix."""
    if not M:
        return (1,) + (0,) * (field.e - 1)
    acc = (0,) * field.e
    for j, x in enumerate(M[0]):
        term = mul(field, x, det(field, [row[:j] + row[j + 1:] for row in M[1:]], mod), mod)
        acc = tuple((a - t if j % 2 else a + t) % mod for a, t in zip(acc, term))
    return acc


def mat_inv(field, M, L):
    """Inverse of a square matrix over GR(p^L, e): its adjugate over its
    determinant.  NonUnit if the determinant is not a unit."""
    mod, n = field.p**L, len(M)
    d = det(field, M, mod)
    if not any(c % field.p for c in d):
        raise NonUnit("matrix is not invertible over W_N")
    dinv = inv(field, d, L)

    def entry(i, j):  # the (j, i) cofactor over the determinant
        minor = [row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j]
        c = mul(field, det(field, minor, mod), dinv, mod)
        return tuple(-x % mod for x in c) if (i + j) % 2 else c

    return [[entry(i, j) for j in range(n)] for i in range(n)]
