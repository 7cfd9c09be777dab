"""The rational function field F_q(t), the coefficient field of one-parameter
families and of the Groebner computations that derive them.  It is a legal
coefficient ring for Witt vectors (characteristic p, decidable equality,
computable units).

Univariate polynomials over F_q are plain coefficient tuples (low degree
first) normalized to have no trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

from .errors import NonUnit, UsageError

# A power whose numerator or denominator would have a degree beyond this is
# refused before it is taken: a**n has n times the degrees of a, and a
# polynomial is stored densely, one coefficient per exponent of t.
MAX_POWER_DEGREE = 100_000


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


def urender(a):
    """Text of the polynomial a in t, highest power first."""
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c.is_zero():
            continue
        cs = repr(c)
        need_paren = "+" in cs or "-" in cs[1:]
        if k == 0:
            parts.append(f"({cs})" if need_paren else cs)
            continue
        head = "" if cs == "1" else (f"({cs})*" if need_paren else f"{cs}*")
        parts.append(f"{head}t" if k == 1 else f"{head}t^{k}")
    return "+".join(parts) if parts else "0"


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
        degree = max(len(a.num), len(a.den)) - 1
        if degree * abs(n) > MAX_POWER_DEGREE:
            raise UsageError(
                f"a power of degree {degree} * {abs(n)} in {self!r} is beyond the bound of "
                f"{MAX_POWER_DEGREE} on the degree of a power"
            )
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

    def __repr__(self):
        return f"{self.base!r}(t)"
