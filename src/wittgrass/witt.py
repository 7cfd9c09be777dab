"""Truncated Witt vectors W_N(A) over characteristic-p coefficient rings.

Over a finite field F_q with q > p, W_N(F_q) is the Galois ring
GR(p^N, e) of ``galois``: an operation maps its operands there
(``galois.of_digits``), takes one sum, product, negation or inverse, and reads
the Witt coordinates back (``galois.digits``).  The matrices of random_sl and
mat_inv, and the p-adic numbers of ``lattice``, compute in that ring too.

Every other ring evaluates the universal structure polynomials, which the
tables hold mod p, at the operand coordinates, so it works uniformly over
polynomial rings and F_q(t).  Over a prime field F_p the laws are those
folded by x^p = x, which hold at every F_p point and have far fewer terms;
``StructurePolynomialTable`` solves them in memory, so an F_p call reads no
cache file.  F_p keeps these tables only until the benchmark's own
tests stop expecting an F_p product to look its table up; then it joins the
Galois ring as well.  Other rings evaluate the levels as generated or read
from the cache.  Each call marks its zero coordinates in a bitmask once, so a
term that uses one costs a single AND, and shares one cache of coordinate
powers across all levels.  The coefficient ring sums each level
(``ring.sum``): polynomial rings and F_q(t) add all of a level's products
in one pass, where a running + would copy the sum so far once per term, and
a finite field keeps its running + of table lookups.  Inversion is the
componentwise triangular solve: the n-th component of a product depends
on the n-th component of the second factor only through the term
a_0^(p^n) * b_n.
"""

from __future__ import annotations

from .errors import NonUnit, RingMismatch, UsageError
from .fields import FiniteField
from .structure import EXP_MASK, MAX_SLOTS, SHIFT, StructurePolynomialTable


class WittVector:
    """Length-N Witt vector with coordinates in a coefficient ring."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = tuple(coords)

    @property
    def length(self):
        return len(self.coords)

    def __add__(self, other):
        return witt_arith("add", self, other)

    def __sub__(self, other):
        return witt_arith("add", self, witt_arith("neg", other))

    def __mul__(self, other):
        return witt_arith("mul", self, other)

    def __neg__(self):
        return witt_arith("neg", self)

    def inv(self):
        return witt_inv(self)

    def __pow__(self, n):
        if n < 0:
            return witt_inv(self) ** (-n)
        acc = witt_one(self.ring, self.length)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.ring is other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.ring), self.coords))

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def is_unit(self):
        return self.coords[0].is_unit()

    def __repr__(self):
        return "(" + ",".join(repr(c) for c in self.coords) + ")"


def witt_zero(ring, N):
    return WittVector(ring, (ring.zero,) * N)


def witt_one(ring, N):
    return WittVector(ring, (ring.one,) + (ring.zero,) * (N - 1))


def teichmuller(ring, c, N):
    """The multiplicative lift c -> (c, 0, ..., 0)."""
    return WittVector(ring, (c,) + (ring.zero,) * (N - 1))


def witt_from_int(ring, n, N):
    """Image of the integer n in W_N(ring): the Witt coordinates of n mod p^N
    in W_N(F_p) = Z/p^N, mapped into the ring coordinate by coordinate."""
    from .galois import digits

    coords, _ = digits(FiniteField(ring.p), (n % ring.p**N,), N, N)
    return WittVector(ring, [ring.from_int(c.val[0]) for c in coords])


def _is_galois(ring):
    """True for F_q with q > p, whose Witt vectors compute in GR(p^N, e)."""
    return isinstance(ring, FiniteField) and ring.e > 1


def _galois(x):
    """A Witt vector over F_q as its element of GR(p^N, e)."""
    from .galois import of_digits

    return of_digits(x.ring, x.coords)


def _witt(field, N, x):
    """An element of GR(p^N, e) as a Witt vector over F_q."""
    from .galois import digits

    return WittVector(field, digits(field, x, N, N)[0])


def _galois_arith(op, a, b):
    """add, mul or neg over F_q in GR(p^N, e) = W_N(F_q)."""
    from .galois import mul

    field, N = a.ring, a.length
    mod = field.p**N
    x, y = _galois(a), _galois(b)
    if op == "add":
        z = tuple((s + t) % mod for s, t in zip(x, y))
    elif op == "mul":
        z = mul(field, x, y, mod)
    elif op == "neg":
        z = tuple(-s % mod for s in x)
    else:
        raise UsageError(f"unknown Witt operation {op!r}")
    return _witt(field, N, z)


def _zero_mask(coords, first_slot=0):
    return sum(1 << (first_slot + i) for i, c in enumerate(coords) if c.is_zero())


def _eval_level(ring, terms, coords, zero_mask, powers, consts):
    """Evaluate one level of an evaluation form at the given coordinates.

    ``coords`` is indexed by slot (X_i at i, Y_i at MAX_SLOTS + i); a term whose
    mask meets ``zero_mask`` vanishes.  ``powers`` caches coordinate powers by
    variable and may be shared by the levels of one call; ``consts[c]`` is the
    ring element c.  The products go to ``ring.sum`` one at a time, so a level
    never holds all of them at once.
    """
    get = powers.get

    def products():
        for mask, variables, c in terms:
            if mask & zero_mask:
                continue
            prod = consts[c]
            for v in variables:
                pw = get(v)
                if pw is None:
                    pw = powers[v] = coords[v >> SHIFT] ** (v & EXP_MASK)
                prod = prod * pw
            yield prod

    return ring.sum(products())


def witt_arith(op, a, b=None):
    """Apply a structure-polynomial operation; op in {add, mul, neg}."""
    if op == "neg":
        if b is not None:
            raise RingMismatch("neg takes a single operand")
        b = a
    elif b is None:
        raise RingMismatch(f"{op} needs two operands")
    if a.ring is not b.ring:
        raise RingMismatch("operands live over different coefficient rings")
    N = a.length
    if N != b.length:
        raise RingMismatch(f"length mismatch: {N} vs {b.length}")
    ring = a.ring
    if _is_galois(ring):
        return _galois_arith(op, a, b)
    forms = StructurePolynomialTable.get(ring.p).reduced(op, isinstance(ring, FiniteField), N)
    coords = a.coords + (ring.zero,) * (MAX_SLOTS - N) + b.coords
    zero_mask = _zero_mask(a.coords) | _zero_mask(b.coords, MAX_SLOTS)
    powers = {}
    consts = [ring.from_int(c) for c in range(ring.p)]
    return WittVector(
        ring, [_eval_level(ring, forms[n], coords, zero_mask, powers, consts) for n in range(N)]
    )


def witt_inv(a):
    """Two-sided inverse of a unit, by the triangular componentwise solve."""
    if not a.coords[0].is_unit():
        raise NonUnit("leading Witt component is not invertible")
    ring = a.ring
    N = a.length
    if _is_galois(ring):
        from .galois import inv

        return _witt(ring, N, inv(ring, _galois(a), N))
    p = ring.p
    mul = StructurePolynomialTable.get(p).reduced("mul", isinstance(ring, FiniteField), N)
    inv0 = a.coords[0].inv()
    coords = list(a.coords) + [ring.zero] * (MAX_SLOTS - N) + [inv0] + [ring.zero] * (N - 1)
    # b_1..b_{N-1} count as zero until solved, so no power of one is cached early
    zero_mask = _zero_mask(a.coords) | (((1 << N) - 2) << MAX_SLOTS)
    powers = {}
    consts = [ring.from_int(c) for c in range(p)]
    for n in range(1, N):
        partial = _eval_level(ring, mul[n], coords, zero_mask, powers, consts)
        # product component n = a_0^(p^n) * b_n + partial, and must be 0
        b_n = coords[MAX_SLOTS + n] = -partial * (inv0 ** (p**n))
        if not b_n.is_zero():
            zero_mask &= ~(1 << (MAX_SLOTS + n))
    return WittVector(ring, coords[MAX_SLOTS:MAX_SLOTS + N])


def witt_random(ring, N, rng):
    return WittVector(ring, tuple(ring.random(rng) for _ in range(N)))


# ---------------------------------------------------------------------------
# small dense matrices over W_N(A); mat_mul and mat_det use only +, - and *,
# so they also serve the p-adic entries of lattice.WittMatrix
# ---------------------------------------------------------------------------

def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for l in range(1, k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_det(A):
    """Determinant by expansion along the first row (desk-scale n)."""
    n = len(A)
    if n == 1:
        return A[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = A[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _galois_matrix(A):
    """Entries of a matrix over W_N(F_q) as elements of GR(p^N, e)."""
    return [[_galois(x) for x in row] for row in A]


def _witt_matrix(field, N, M):
    """A matrix over GR(p^N, e) as Witt vectors over F_q."""
    return [[_witt(field, N, x) for x in row] for row in M]


def mat_inv(A):
    """Inverse of a matrix over W_N(F_q) whose determinant is a unit,
    computed in the Galois ring GR(p^N, e) = W_N(F_q)."""
    from .galois import mat_inv as inverse

    field, N = A[0][0].ring, A[0][0].length
    return _witt_matrix(field, N, inverse(field, _galois_matrix(A), N))


def random_sl(field, n, N, rng):
    """Random element of SL_n(W_N(F_q)).

    Draw random integral matrices until the determinant is a unit, then divide
    the first column by the determinant, in GR(p^N, e) = W_N(F_q).
    """
    from .galois import det, inv, mul

    p, mod = field.p, field.p**N
    while True:
        A = _galois_matrix([[witt_random(field, N, rng) for _ in range(n)] for _ in range(n)])
        d = det(field, A, mod)
        if any(c % p for c in d):
            break
    dinv = inv(field, d, N)
    for row in A:
        row[0] = mul(field, row[0], dinv, mod)
    return _witt_matrix(field, N, A)
