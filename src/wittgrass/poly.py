"""Sparse multivariate polynomials over an arbitrary coefficient ring.

A PolyRing fixes the coefficient ring, the variable names, a positive integer
weight per variable, and a monomial order.  Orders:

* ``"wdegrevlex"`` — weighted degree first, ties by reverse lexicographic
  comparison (the last variable in which two monomials differ decides, the
  smaller exponent winning).
* ``("elim", k)`` — block order eliminating the first k variables: compare the
  leading block by wdegrevlex, then the tail block.

Polynomial rings double as Witt-vector coefficient rings (they have
characteristic p and decidable equality), which is how generic realization
computations are run: Witt vectors whose coordinates are polynomial variables.
"""

from __future__ import annotations

from math import comb
from operator import add

from .errors import NonUnit, RingMismatch, UsageError

# A power that could have more terms than this is refused before it is taken.
MAX_POWER_TERMS = 100_000


def _power_terms(k, n, p):
    """A bound on the terms of the n-th power of a k-term polynomial: the
    number C(n + k - 1, k - 1) of monomials of degree n in k letters.  Over a
    ring of characteristic p (``p`` not None) a^n is the product over the
    base-p digits d of n of (a^(p^i))^d, and a^(p^i) has k terms, so the bound
    is the product of the C(d + k - 1, k - 1)."""
    if p is None:
        return comb(n + k - 1, k - 1)
    bound = 1
    while n:
        bound *= comb(n % p + k - 1, k - 1)
        n //= p
    return bound


class Polynomial:
    __slots__ = ("ring", "terms", "_lm")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # dict: exponent tuple -> nonzero coefficient
        self._lm = None

    # -- ring element protocol (so W_N(k[x]) works) --

    @property
    def p(self):
        return self.ring.p

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        if len(self.terms) != 1:
            return False
        (exps, c), = self.terms.items()
        return not any(exps) and c.is_unit()

    def inv(self):
        if not self.is_unit():
            raise NonUnit("only constant units are invertible in a polynomial ring")
        (exps, c), = self.terms.items()
        return Polynomial(self.ring, {exps: c.inv()})

    # -- arithmetic --

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1 == len(b):
            # monomial times monomial: one coefficient product, one exponent sum
            (m1, c1), = a.items()
            (m2, c2), = b.items()
            s = c1 * c2
            return Polynomial(self.ring, {} if s.is_zero() else {tuple(map(add, m1, m2)): s})
        if len(a) == 1:
            # monomial times polynomial: pure exponent shift
            (m1, c1), = a.items()
            if not any(m1):
                out = {}
                for m2, c2 in b.items():
                    s = c1 * c2
                    if not s.is_zero():
                        out[m2] = s
                return Polynomial(self.ring, out)
            out = {}
            for m2, c2 in b.items():
                s = c1 * c2
                if not s.is_zero():
                    out[tuple(map(add, m1, m2))] = s
            return Polynomial(self.ring, out)
        out = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                s = get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return self.ring.monomial([e * n for e in m], c**n)
        if n > 1 and self.terms:
            # W_N(k) has characteristic p^N; every other coefficient ring here has p
            p = self.ring.p if getattr(self.ring.coeff, "N", 1) == 1 else None
            terms = _power_terms(len(self.terms), n, p)
            if terms > MAX_POWER_TERMS:
                raise UsageError(
                    f"a power ({len(self.terms)} terms)^{n} may have {terms} terms, beyond "
                    f"the bound of {MAX_POWER_TERMS} on the terms of a power"
                )
        acc = self.ring.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def scale(self, c):
        if c.is_zero():
            return self.ring.zero
        return Polynomial(self.ring, {m: c * x for m, x in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, Polynomial) or other.ring is not self.ring:
            raise RingMismatch("polynomials from different rings")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    # -- order-dependent views --

    def lm(self):
        if self._lm is None:
            if not self.terms:
                return None
            key = self.ring.order_key
            self._lm = max(self.terms, key=key)
        return self._lm

    def lc(self):
        m = self.lm()
        return self.ring.coeff.zero if m is None else self.terms[m]

    def wdeg(self):
        if not self.terms:
            return 0
        w = self.ring.weights
        return max(sum(e * wi for e, wi in zip(m, w)) for m in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        w = self.ring.weights
        degs = {sum(e * wi for e, wi in zip(m, w)) for m in self.terms}
        return len(degs) == 1

    # -- substitution / evaluation --

    def map_into(self, target, var_images):
        """Ring map: variable i -> var_images[i], coefficients unchanged.  The
        images of the terms go to ``target.sum`` one at a time."""
        pow_cache = {}

        def images():
            for m, c in self.terms.items():
                term = target.const(c)
                for i, e in enumerate(m):
                    if not e:
                        continue
                    key = (i, e)
                    pw = pow_cache.get(key)
                    if pw is None:
                        pw = var_images[i] ** e
                        pow_cache[key] = pw
                    term = term * pw
                yield term

        return target.sum(images())

    def evaluate(self, point):
        """Evaluate at coefficient-ring elements; returns a coefficient."""
        R = self.ring.coeff
        acc = R.zero
        pow_cache = {}
        for m, c in self.terms.items():
            val = c
            dead = False
            for i, e in enumerate(m):
                if not e:
                    continue
                base = point[i]
                if base.is_zero():
                    dead = True
                    break
                key = (i, e)
                pw = pow_cache.get(key)
                if pw is None:
                    pw = base**e
                    pow_cache[key] = pw
                val = val * pw
            if not dead:
                acc = acc + val
        return acc

    def __repr__(self):
        return self.ring.render(self)


def _wdegrevlex_key(weights):
    def key(m):
        return (
            sum(e * w for e, w in zip(m, weights)),
            tuple(-e for e in reversed(m)),
        )

    return key


class PolyRing:
    """Polynomial ring context: coefficient ring, names, weights, order.

    Instances are canonicalized on (coefficient ring, names, weights, order),
    so two independently realized maps over the same data share one ring and
    their component polynomials compare syntactically.
    """

    _cache: dict = {}

    def __new__(cls, coeff, names, weights=None, order="wdegrevlex"):
        key = (id(coeff), tuple(names), tuple(weights) if weights else None, repr(order))
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, coeff, names, weights=None, order="wdegrevlex"):
        if getattr(self, "_ready", False):
            return
        self._ready = True
        self.coeff = coeff
        self.names = tuple(names)
        self.weights = tuple(weights) if weights else (1,) * len(self.names)
        if len(self.weights) != len(self.names):
            raise UsageError("one weight per variable required")
        if any(w < 1 for w in self.weights):
            raise UsageError("grading must be positive")
        self.order = order
        if order == "wdegrevlex":
            self.order_key = _wdegrevlex_key(self.weights)
        elif isinstance(order, tuple) and order[0] == "elim":
            k = order[1]
            head = _wdegrevlex_key(self.weights[:k])
            tail = _wdegrevlex_key(self.weights[k:])
            self.order_key = lambda m: (head(m[:k]), tail(m[k:]))
        else:
            raise UsageError(f"unknown monomial order {order!r}")
        self.p = getattr(coeff, "p", None)
        self.zero = Polynomial(self, {})
        nvars = len(self.names)
        self.one = Polynomial(self, {(0,) * nvars: coeff.one})
        self._unit_exps = (0,) * nvars

    def var(self, i):
        exps = [0] * len(self.names)
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.coeff.one})

    def monomial(self, exps, c=None):
        c = self.coeff.one if c is None else c
        if c.is_zero():
            return self.zero
        return Polynomial(self, {tuple(exps): c})

    def const(self, c):
        if c.is_zero():
            return self.zero
        return Polynomial(self, {self._unit_exps: c})

    def sum(self, polys):
        """The sum of polynomials of this ring, added into one dict in one pass
        over their terms; a running + copies the sum so far at every step.  The
        terms come out in the order that a running + leaves them."""
        out = {}
        get = out.get
        for f in polys:
            for m, c in f.terms.items():
                s = get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
        return Polynomial(self, out)

    def from_int(self, n):
        return self.const(self.coeff.from_int(n))

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"unknown variable {name!r}") from None

    def random(self, rng):
        # random *coefficient* constant; used when polynomial rings serve as
        # Witt coefficient rings in randomized identities
        return self.const(self.coeff.random(rng))

    def render(self, f):
        if not f.terms:
            return "0"
        parts = []
        for m in sorted(f.terms, key=self.order_key, reverse=True):
            c = f.terms[m]
            cs = repr(c)
            factors = []
            for name, e in zip(self.names, m):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                parts.append(f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs)
                continue
            body = "*".join(factors)
            if cs == "1":
                parts.append(body)
            elif "+" in cs or "-" in cs[1:] or "*" in cs or "/" in cs:
                parts.append(f"({cs})*{body}")
            else:
                parts.append(f"{cs}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{self.coeff!r}[{','.join(self.names)}]"


def coord_ring(scalar, arity, N):
    """k[x[i,j]] with the module grading deg x[i,j] = p^j."""
    return PolyRing(
        scalar,
        tuple(f"x[{i},{j}]" for i in range(1, arity + 1) for j in range(N)),
        tuple(scalar.p**j for _ in range(arity) for j in range(N)),
    )
