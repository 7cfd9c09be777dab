"""Finite fields F_{p^e} in a fixed polynomial basis.

Elements of F_{p^e} are stored as coefficient tuples over F_p relative to the
basis 1, u, ..., u^{e-1}, where u is a root of a fixed irreducible polynomial
shipped in IRREDUCIBLE below.  The choice is static so that printed literals
like ``u+1`` are stable across runs, and so that p-th roots are computed
deterministically as a |-> a^(p^(e-1)).

This module owns the one product in that basis: ``mul`` multiplies coefficient
tuples modulo any power of p, and ``power`` takes powers with it.  F_q is the
Galois ring GR(p, e), so FiniteField builds its tables with them at modulus p,
and ``galois`` uses them for GR(p^L, e) = W_L(F_q).
"""

from __future__ import annotations

from . import SUPPORTED_PRIMES
from .errors import NonUnit, UsageError

# Irreducible polynomial for (p, e), given by the coefficients of the
# non-leading terms: u^e = -(c_0 + c_1 u + ... + c_{e-1} u^{e-1}).
IRREDUCIBLE = {
    (2, 2): (1, 1),          # u^2 + u + 1
    (2, 3): (1, 1, 0),       # u^3 + u + 1
    (2, 4): (1, 1, 0, 0),    # u^4 + u + 1
    (2, 5): (1, 0, 1, 0, 0),  # u^5 + u^2 + 1
    (3, 2): (1, 0),          # u^2 + 1
    (3, 3): (1, 2, 0),       # u^3 + 2u + 1
    (5, 2): (2, 0),          # u^2 + 2
    (5, 3): (1, 1, 0),       # u^3 + u + 1  (no roots mod 5: 0,2,4,3,4 -> nonzero)
}


def mul(field, a, b, mod):
    """a * b in GR(p^L, e) = (Z/p^L)[u]/(f~), mod = p^L and f~ the stored
    polynomial read over Z: the one product of coefficient tuples, for
    F_q = GR(p, e) and for the Galois rings of ``galois``."""
    e = len(a)
    conv = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    f = IRREDUCIBLE.get((field.p, field.e), ())  # u^e = -sum_i f[i] u^i
    for k in range(2 * e - 2, e - 1, -1):
        c = conv.pop()
        if c:
            for i, t in enumerate(f):
                conv[k - e + i] -= c * t
    return tuple([x % mod for x in conv])


def power(field, a, n, mod):
    """a^n in GR(p^L, e), mod = p^L, for n >= 0: square-and-multiply with ``mul``."""
    acc = (1,) + (0,) * (field.e - 1)
    while n:
        if n & 1:
            acc = mul(field, acc, a, mod)
        a = mul(field, a, a, mod)
        n >>= 1
    return acc


class FFElt:
    """An element of a FiniteField; thin wrapper so arithmetic reads naturally."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, n):
        return self.field.pow(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, FFElt)
            and self.field is other.field
            and self.val == other.val
        )

    def __hash__(self):
        return hash((id(self.field), self.val))

    def is_zero(self):
        return not any(self.val)

    def is_unit(self):
        return any(self.val)

    def inv(self):
        return self.field.inv(self)

    def pth_root(self):
        return self.field.pth_root(self)

    def __repr__(self):
        return self.field.render(self)


class FiniteField:
    """F_{p^e} with decidable equality, enumeration, and p-th roots.

    Instances are cached by (p, e); identity comparison of fields is reliable.
    """

    _cache: dict = {}

    def __new__(cls, p, e=1):
        key = (p, e)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, p, e=1):
        if getattr(self, "_ready", False):
            return
        if p not in SUPPORTED_PRIMES:
            raise UsageError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")
        if e < 1 or (e > 1 and (p, e) not in IRREDUCIBLE):
            raise UsageError(f"no irreducible polynomial stored for F_{p}^{e}")
        self.p = p
        self.e = e
        self.q = p**e
        self._ready = True
        # The field is tiny (q <= 125): intern every element and precompute all
        # tables, with the product of GR(p, e) = F_q, so coefficient arithmetic
        # is dict lookups.
        vals = [tuple(code // p**i % p for i in range(e)) for code in range(self.q)]
        self._intern = intern = {v: FFElt(self, v) for v in vals}
        self._elements = tuple(intern.values())
        self.zero = intern[(0,) * e]
        self.one = intern[(1,) + (0,) * (e - 1)]
        self._add_t = {}
        self._mul_t = {}
        self._neg_t = {}
        self._inv_t = {}
        self._root_t = {}
        for a in vals:
            self._neg_t[a] = intern[tuple(-x % p for x in a)]
            self._root_t[a] = intern[power(self, a, p ** (e - 1), p)]
            if any(a):
                self._inv_t[a] = intern[power(self, a, self.q - 2, p)]
            for b in vals:
                self._add_t[(a, b)] = intern[tuple((x + y) % p for x, y in zip(a, b))]
                self._mul_t[(a, b)] = intern[mul(self, a, b, p)]

    def from_int(self, n):
        return self._intern[(n % self.p,) + (0,) * (self.e - 1)]

    def gen(self):
        if self.e == 1:
            raise UsageError("prime field has no generator u")
        return self._intern[(0, 1) + (0,) * (self.e - 2)]

    def make(self, coeffs):
        c = tuple(coeffs)
        if len(c) != self.e:
            raise UsageError(f"expected {self.e} coefficients, got {len(c)}")
        return self._intern[tuple(x % self.p for x in c)]

    def elements(self):
        """All q elements, interned, in a deterministic order: lexicographic in
        the coefficient tuples read from the top coefficient down."""
        return self._elements

    def random(self, rng):
        return self._intern[tuple(rng.randrange(self.p) for _ in range(self.e))]

    def add(self, a, b):
        return self._add_t[(a.val, b.val)]

    def sum(self, elts):
        """The sum of elements by a running +: each step is one table lookup."""
        add_t = self._add_t
        acc = self.zero
        for a in elts:
            acc = add_t[(acc.val, a.val)]
        return acc

    def sub(self, a, b):
        return self._add_t[(a.val, self._neg_t[b.val].val)]

    def neg(self, a):
        return self._neg_t[a.val]

    def mul(self, a, b):
        return self._mul_t[(a.val, b.val)]

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self._mul_t[(acc.val, base.val)]
            base = self._mul_t[(base.val, base.val)]
            n >>= 1
        return acc

    def inv(self, a):
        try:
            return self._inv_t[a.val]
        except KeyError:
            raise NonUnit("division by zero in finite field") from None

    def pth_root(self, a):
        # Frobenius is a field automorphism of order e; its inverse is x -> x^(p^(e-1)).
        return self._root_t[a.val]

    def render(self, a):
        if self.e == 1:
            return str(a.val[0])
        parts = []
        for k in range(self.e - 1, -1, -1):
            c = a.val[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}u" if k == 1 else f"{head}u^{k}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"


def GF(q):
    """Finite field of order q = p^e for a supported prime p."""
    if q < 2:
        raise UsageError(f"a finite field has at least 2 elements, not {q}")
    for p in SUPPORTED_PRIMES:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise UsageError(f"{q} is not a prime power over {SUPPORTED_PRIMES}")
            return FiniteField(p, e)
    raise UsageError(f"{q} is not a power of a supported prime {SUPPORTED_PRIMES}")
