"""Coefficient rings beyond finite fields: F_q[t, 1/t] and F_q(t).

The Laurent ring is a legal coefficient ring for Witt vectors (characteristic
p, decidable equality, computable units) but is not perfect, so Frobenius
sections are refused there.  The rational function field is the coefficient
field of one-parameter families and of the Groebner computations that derive
them.

Univariate polynomials over F_q are plain coefficient tuples (low degree
first) normalized to have no trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

from .errors import NonUnit, NotPerfect, UsageError

# A power that would span more exponents of t than this is refused before it
# is taken: a**n spans n times what a spans, and a power of a non-monomial
# fills that span in either ring, one term or coefficient per exponent.
MAX_POWER_DEGREE = 100_000


def _check_power_size(ring, span, n):
    """Refuse a**n when a spans ``span`` exponents of t beyond its lowest."""
    if span * abs(n) > MAX_POWER_DEGREE:
        raise UsageError(
            f"a power of degree {span} * {abs(n)} in {ring!r} is beyond the bound of "
            f"{MAX_POWER_DEGREE} on the degree of a power"
        )


# ---------------------------------------------------------------------------
# univariate polynomial helpers over a FiniteField
# ---------------------------------------------------------------------------

def utrim(field, coeffs):
    c = list(coeffs)
    while c and c[-1].is_zero():
        c.pop()
    return tuple(c)


def uadd(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(x + y)
    return utrim(field, out)


def uneg(field, a):
    return tuple(-x for x in a)


def umul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return utrim(field, out)


def uscale(field, c, a):
    if c.is_zero():
        return ()
    return utrim(field, tuple(c * x for x in a))


def udivmod(field, a, b):
    """Euclidean division; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inv()
    while len(r) >= len(b):
        if r[-1].is_zero():
            r.pop()
            continue
        c = r[-1] * inv_lead
        s = len(r) - len(b)
        q[s] = q[s] + c
        for i in range(len(b)):
            r[s + i] = r[s + i] - c * b[i]
        r.pop()
    return utrim(field, q), utrim(field, r)


def ugcd(field, a, b):
    while b:
        _, a, b = None, b, udivmod(field, a, b)[1]
    if a:
        a = uscale(field, a[-1].inv(), a)  # monic normalization
    return a


def render_terms(terms):
    """Text of sum c*t^k over the (k, c) pairs, given highest power first."""
    parts = []
    for k, c in terms:
        cs = repr(c)
        need_paren = "+" in cs or "-" in cs[1:]
        if k == 0:
            parts.append(f"({cs})" if need_paren else cs)
            continue
        head = "" if cs == "1" else (f"({cs})*" if need_paren else f"{cs}*")
        parts.append(f"{head}t" if k == 1 else f"{head}t^{k}")
    return "+".join(parts) if parts else "0"


def urender(a):
    return render_terms((k, a[k]) for k in range(len(a) - 1, -1, -1) if not a[k].is_zero())


# ---------------------------------------------------------------------------
# Laurent polynomial ring F_q[t, 1/t]
# ---------------------------------------------------------------------------

class LaurentElt:
    """Element of LaurentRing: canonical sorted tuple of (exponent, coeff)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # tuple of (int exp, FFElt), sorted by exp, no zeros

    def __add__(self, other):
        return self.ring.add(self, other)

    def __sub__(self, other):
        return self.ring.add(self, self.ring.neg(other))

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __pow__(self, n):
        return self.ring.pow(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElt)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ring), self.terms))

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        return len(self.terms) == 1

    def inv(self):
        if len(self.terms) != 1:
            raise NonUnit(f"{self} is not a unit of the Laurent ring")
        k, c = self.terms[0]
        return LaurentElt(self.ring, ((-k, c.inv()),))

    def pth_root(self):
        raise NotPerfect("Laurent polynomial rings are not perfect")

    def __repr__(self):
        return render_terms(reversed(self.terms))


class LaurentRing:
    """F_q[t, 1/t]: characteristic-p coefficient ring, not perfect."""

    _cache: dict = {}

    def __new__(cls, field):
        key = id(field)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, field):
        if getattr(self, "_ready", False):
            return
        self.field = field
        self.p = field.p
        self.is_perfect = False
        self.zero = LaurentElt(self, ())
        self.one = LaurentElt(self, ((0, field.one),))
        self._ready = True

    def from_int(self, n):
        c = self.field.from_int(n)
        return LaurentElt(self, ((0, c),) if not c.is_zero() else ())

    def const(self, c):
        return LaurentElt(self, ((0, c),) if not c.is_zero() else ())

    def monomial(self, k, c=None):
        c = self.field.one if c is None else c
        return LaurentElt(self, ((k, c),) if not c.is_zero() else ())

    def add(self, a, b):
        return self.sum((a, b))

    def sum(self, elts):
        """The sum of elements, added into one dict and sorted once; a running
        + copies and sorts the sum so far at every step."""
        acc = {}
        get = acc.get
        for a in elts:
            for k, c in a.terms:
                s = get(k)
                acc[k] = c if s is None else s + c
        return LaurentElt(self, tuple(sorted((k, c) for k, c in acc.items() if not c.is_zero())))

    def neg(self, a):
        return LaurentElt(self, tuple((k, -c) for k, c in a.terms))

    def mul(self, a, b):
        acc = {}
        for k1, c1 in a.terms:
            for k2, c2 in b.terms:
                k = k1 + k2
                s = acc.get(k)
                s = c1 * c2 if s is None else s + c1 * c2
                if s.is_zero():
                    acc.pop(k, None)
                else:
                    acc[k] = s
        return LaurentElt(self, tuple(sorted(acc.items())))

    def pow(self, a, n):
        if a.terms:
            _check_power_size(self, a.terms[-1][0] - a.terms[0][0], n)
        if n < 0:
            return self.pow(a.inv(), -n)
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def pth_root(self, a):
        raise NotPerfect("Laurent polynomial rings are not perfect")

    def __repr__(self):
        return f"{self.field!r}[t,t^-1]"


# ---------------------------------------------------------------------------
# rational function field F_q(t)
# ---------------------------------------------------------------------------

class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field  # the RationalFunctionField
        self.num = num
        self.den = den

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.add(self, self.field.neg(other))

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, n):
        return self.field.pow(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.field is other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def is_zero(self):
        return not self.num

    def is_unit(self):
        return bool(self.num)

    def inv(self):
        return self.field.inv(self)

    def __repr__(self):
        k = self.field.base
        ns = urender(self.num)
        if self.den == (k.one,):
            return ns
        return f"({ns})/({urender(self.den)})"


class RationalFunctionField:
    """F_q(t), used as the Groebner coefficient field for one-parameter families."""

    _cache: dict = {}

    def __new__(cls, base):
        key = id(base)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, base):
        if getattr(self, "_ready", False):
            return
        self.base = base
        self.p = base.p
        self.is_perfect = False
        self.zero = RatFunc(self, (), (base.one,))
        self.one = RatFunc(self, (base.one,), (base.one,))
        self._ready = True

    def make(self, num, den=None):
        k = self.base
        num = utrim(k, num)
        den = (k.one,) if den is None else utrim(k, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        g = ugcd(k, num, den)
        if len(g) > 1 or (g and not (g[0] == k.one)):
            num = udivmod(k, num, g)[0]
            den = udivmod(k, den, g)[0]
        lead = den[-1]
        if not (lead == k.one):
            il = lead.inv()
            num = uscale(k, il, num)
            den = uscale(k, il, den)
        return RatFunc(self, num, den)

    def from_int(self, n):
        c = self.base.from_int(n)
        return RatFunc(self, ((c,) if not c.is_zero() else ()), (self.base.one,))

    def const(self, c):
        return RatFunc(self, ((c,) if not c.is_zero() else ()), (self.base.one,))

    def t_power(self, k):
        """t^k for any integer k (negative powers give denominators)."""
        kf = self.base
        if k >= 0:
            return RatFunc(self, (kf.zero,) * k + (kf.one,), (kf.one,))
        return RatFunc(self, (kf.one,), (kf.zero,) * (-k) + (kf.one,))

    def add(self, a, b):
        k = self.base
        if a.den == b.den:
            if len(a.den) == 1:  # common monic-constant denominator
                return RatFunc(self, uadd(k, a.num, b.num), a.den)
            return self.make(uadd(k, a.num, b.num), a.den)
        num = uadd(k, umul(k, a.num, b.den), umul(k, b.num, a.den))
        return self.make(num, umul(k, a.den, b.den))

    def sum(self, elts):
        """The sum of elements: the numerators over each denominator are added
        into one coefficient list, and only the sums over distinct
        denominators are added as fractions."""
        k = self.base
        nums = {}  # denominator -> coefficient list of the numerators over it
        for a in elts:
            num = nums.setdefault(a.den, [])
            if len(num) < len(a.num):
                num += [k.zero] * (len(a.num) - len(num))
            for i, c in enumerate(a.num):
                num[i] = num[i] + c
        acc = self.zero
        for den, num in nums.items():
            acc = self.add(acc, self.make(num, den))
        return acc

    def neg(self, a):
        return RatFunc(self, uneg(self.base, a.num), a.den)

    def mul(self, a, b):
        k = self.base
        if len(a.den) == 1 and len(b.den) == 1:
            den = (a.den[0] * b.den[0],)
            num = umul(k, a.num, b.num)
            if den == (k.one,):
                return RatFunc(self, num, den)
            return self.make(num, den)
        return self.make(umul(k, a.num, b.num), umul(k, a.den, b.den))

    def inv(self, a):
        if not a.num:
            raise NonUnit("division by zero in F_q(t)")
        return self.make(a.den, a.num)

    def pow(self, a, n):
        _check_power_size(self, max(len(a.num), len(a.den)) - 1, n)
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def pth_root(self, a):
        raise NotPerfect("F_q(t) is not perfect")

    def __repr__(self):
        return f"{self.base!r}(t)"
