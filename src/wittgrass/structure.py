"""Universal Witt structure polynomials modulo p.

The addition/multiplication/negation laws of length-N Witt vectors are given
by integer polynomials S_n, M_n, N_n in X_0..X_n, Y_0..Y_n, determined by the
ghost identities

    w_n(S) = w_n(X) + w_n(Y),   w_n(M) = w_n(X) * w_n(Y),   w_n(N) = -w_n(X),

where w_n(Z) = sum_{i<=n} p^i * Z_i^(p^(n-i)).  Every coefficient ring the
laws are evaluated over has characteristic p, so a table holds each level
modulo p only: every stored coefficient is a residue in 1..p-1.

The residues are generated directly.  If a = b (mod p) then a^(p^k) = b^(p^k)
(mod p^(k+1)), so p^i * T_i^(p^(n-i)) mod p^(n+1) depends only on T_i mod p.
Level n is therefore solved triangularly from the stored residues below it:
p^n * T_n = target - sum_{i<n} p^i * T_i^(p^(n-i)) (mod p^(n+1)), each power
taken mod p^(n+1-i).  The right-hand side must be divisible by p^n (any
remainder is a hard internal error), and the quotient mod p is the level.
Given the levels below it, that congruence fixes a level mod p, and the
residue range fixes the level itself; ``verify_ghost`` checks both.

Polynomials here are dicts mapping a packed exponent key to an int
coefficient.  Exponents are packed 16 bits per variable slot; X_i occupies
slot i and Y_i occupies slot MAX_SLOTS + i.  This keeps monomial products a
single integer addition.

Generation cost is governed by the number of monomials of weighted degree p^n
(weights deg X_i = p^i), and nearly all of it goes into the powers
T_i^(p^(n-i)) of lower levels.  Each is taken from T_i itself by repeated
squaring, its coefficients reduced mod p^(n+1-i) after every product, so a
product that is not a square has the small T_i as one factor.
The products of ``add`` are taken by Kronecker substitution (``_kron_mul``)
along a pair of variable slots u, v and a weight w: the terms of each operand
are grouped by their key with the u and v fields cleared and by
s = e_u + w*e_v, each group's coefficients are packed into one integer at
digit e_v, and the product multiplies group by group, one big-integer product
per pair of groups; a square visits each unordered pair once.  The product is
exact for every pair; the pair decides how many terms share a group, and so
how many pairs of groups a product visits.  ``add`` is homogeneous in total
weight, where X0 and Y0 both weigh 1, so it packs (X0, Y0, 1): fixing the
other variables fixes s, and Y0's exponent, up to p^n, leaves the group key.
The largest product of the p = 3 table, T_3^2 * T_3 at level 4, visits
128,935 pairs of groups, against 699,111 with X0 and X1.  The levels of
``mul`` and ``neg`` are small enough that the schoolbook ``ip_mul`` is faster
than any packing.

Over F_p every coordinate satisfies x^p = x, so Witt arithmetic there
evaluates the laws in R_p = Z[X, Y]/(X_j^p - X_j, Y_j^p - Y_j), where a
monomial is folded: each exponent e >= 1 becomes ((e - 1) mod (p - 1)) + 1.
``solve_levels(p, op, N, folded=True)`` runs the whole solve in R_p.  It is
exact there: R_p is a free Z-module, so the ghost identities hold there and
the division by p^n stays exact; the power lemma above holds in every
commutative ring; and folding and reduction mod p^k are ring maps, so they may
be applied after any product.  The levels stay tiny (p = 2 ``add`` level 5: 33
terms, against 4,565 unfolded).  A monomial is a class key (``_ClassKeys``):
on F_p, x^e depends only on whether e >= 1 and on e mod (p - 1), so a key
holds one support bit per slot and, per slot, the class e mod (p - 1) in a
field of log2(p - 1) + 1 bits.  p - 1 is 1, 2 or 4, a power of two, so the
class of a product is the sum of the classes masked to the field's low bits,
and the field's spare top bit takes the carry of that sum, which never reaches
the next field: a product key is ``(k1 + k2) & classes | (k1 | k2) & support``,
a few integer operations in place of a fold.  For p = 2 there is one class,
the key is its support mask and the product an OR.  The ghost target is built
in class keys, and each finished level is decoded once to packed keys with
exponents 1..p-1.  Witt arithmetic over a larger field F_q runs in the Galois
ring of ``galois`` and uses no table.

Generated tables for the other coefficient rings (polynomial rings and
F_q(t)) are cached on disk, one polynomial per line, in the format
``ADD n: <polynomial>``; finite fields never read or write the cache.  Each op
has its own length in the file: a call that needs more levels of an op than
the file holds solves that op's missing levels alone, so a file holds only the
ops calls evaluated, each at the longest length asked for.  Cache writes are
atomic (write a temp file, then rename), so concurrent processes can share a
cache directory.  Writing renders each key as its X half and its Y half, each
through a memo (``render_ip``).  Loading reads the file once and checks every
line head at once: each line names a known op and the next level of it.  The
polynomial after the colon is kept as text and parsed the first time a call
reads that level, so a call that adds never parses the multiplication table.
Parsing checks the syntax: each term has a nonzero integer coefficient spelled
as render_ip spells it, and distinct variables X_i/Y_i with i < MAX_SLOTS and
exponents 1..EXP_MASK, written in slot order, so no token can alias another
monomial.  It checks too that each coefficient is a residue 1..p-1; a file
written before the tables held residues has integer coefficients such as -1
and is refused, not misread.  A bad level is refused when it is first read,
with the file and the line named; before a cache file is rewritten every level
in it is parsed, so corrupt data is refused rather than written back.  Nothing
re-checks the ghost identities; a well-formed but wrong residue is read as it
stands.

The monomial count explodes combinatorially: for p = 5 the level-4 addition
polynomial has more than 10^8 potential terms, and its powers would have to be
taken over all of them, which no desk machine does in reasonable time.
Generation therefore refuses, with TableLimit, any level whose potential
support exceeds TERM_LIMIT = 200,000 monomials (which admits p=2 up to length
6, p=3 up to length 5 and p=5 up to length 4) instead of grinding without hope
of finishing; the message names the op and the longest length in reach, and a
call is refused only for an op it evaluates.  A level solved in R_p has at
most p^v monomials in its v variables, so its support counts as the smaller of
the two; that admits W_8(F_2), whose level 7 has at most 2^16.

This module loads only ``errors`` and the package root, which holds
SUPPORTED_PRIMES, so a cold table set-up compiles no finite-field layer.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import tempfile

from . import _ENV_CACHE, SUPPORTED_PRIMES
from .errors import CacheCorrupt, TableLimit, UsageError

MAX_N = 8
MAX_SLOTS = 8          # one block of variable slots per letter
SHIFT = 16             # bits per exponent field
EXP_MASK = (1 << SHIFT) - 1
_HALF_BITS = SHIFT * MAX_SLOTS  # a key is its X half, then its Y half
_HALF_MASK = (1 << _HALF_BITS) - 1

OPS = ("add", "mul", "neg")
TERM_LIMIT = 200_000  # the largest potential support of a level generated


# ---------------------------------------------------------------------------
# packed-key integer polynomials
# ---------------------------------------------------------------------------

def xvar(i):
    return 1 << (SHIFT * i)


def yvar(i):
    return 1 << (SHIFT * (MAX_SLOTS + i))


def key_exponents(key):
    """Decode a packed key to ((slot, exponent), ...); slot >= MAX_SLOTS is Y."""
    out = []
    slot = 0
    while key:
        e = key & EXP_MASK
        if e:
            out.append((slot, e))
        key >>= SHIFT
        slot += 1
    return tuple(out)


def ip_add_inplace(acc, other, scale=1):
    for k, c in other.items():
        v = acc.get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


def ip_mul(a, b):
    """Schoolbook product of two packed polynomials.

    The reference that the generator's Kronecker product is checked against:
    ``verify_ghost`` re-expands every table with it.
    """
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            v = get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def ip_mod(a, m):
    """a with its coefficients reduced to 0..m-1, the zeros dropped; a copy of a
    if m is None."""
    if m is None:
        return dict(a)
    return {k: r for k, c in a.items() if (r := c % m)}


def ip_pow(a, n, mul=ip_mul, modulus=None):
    """a**n by repeated squaring with the product ``mul``, the coefficients
    reduced mod ``modulus`` after every product unless it is None; a square
    passes one object as both factors, which ``_kron_mul`` takes as its cue to
    square."""
    if n == 0:
        return ip_mod({0: 1}, modulus)
    if n == 1:
        return ip_mod(a, modulus)
    half = ip_pow(a, n // 2, mul, modulus)
    out = ip_mod(mul(half, half), modulus)
    if n & 1:
        out = ip_mod(mul(out, a), modulus)
    return out


def _kron_pack(a, u, v, w, bits, sbits):
    """Group a's terms by (key without slots u and v; e_u + w*e_v), packing each
    group's coefficients into one integer at digit e_v of width ``bits``."""
    ushift, vshift = SHIFT * u, SHIFT * v
    clear = ~(EXP_MASK << ushift | EXP_MASK << vshift)
    groups = {}
    for key, c in a.items():
        ev = key >> vshift & EXP_MASK
        g = (key & clear) << sbits | ((key >> ushift & EXP_MASK) + w * ev)
        groups[g] = groups.get(g, 0) + (c << bits * ev)
    return groups


def _kron_mul(a, b, u, v, w):
    """Product of two packed polynomials by Kronecker substitution; equals ip_mul(a, b).

    Terms are grouped by their other variables and by s = e_u + w*e_v, and
    packed at digit e_v (``_kron_pack``).  Group keys add as monomials
    multiply and a digit is wide enough for any product coefficient, so the
    product is exact for every pair of distinct slots u, v, every w >= 1 and
    every pair of operands whose product's exponents fit their fields, as
    ip_mul needs too.  The choice of (u, v, w) only decides how many terms
    share a group.
    """
    if not a or not b:
        return {}
    # each digit of the product is a coefficient sum bounded by l1(a) * l1(b)
    bits = (sum(map(abs, a.values())) * sum(map(abs, b.values()))).bit_length() + 1
    sbits = ((1 + w) * EXP_MASK).bit_length()  # s of a product monomial fits
    ga = _kron_pack(a, u, v, w, bits, sbits)
    prod = {}
    get = prod.get
    if a is b:  # a square: each unordered pair of groups once
        items = list(ga.items())
        for i, (g1, v1) in enumerate(items):
            g = g1 + g1
            prod[g] = get(g, 0) + v1 * v1
            v1 <<= 1
            for g2, v2 in items[i + 1:]:
                g = g1 + g2
                prod[g] = get(g, 0) + v1 * v2
    else:
        gb = _kron_pack(b, u, v, w, bits, sbits)
        for g1, v1 in ga.items():
            for g2, v2 in gb.items():
                g = g1 + g2
                prod[g] = get(g, 0) + v1 * v2
    ushift, vshift = SHIFT * u, SHIFT * v
    mask, half, smask = (1 << bits) - 1, 1 << (bits - 1), (1 << sbits) - 1
    out = {}
    for g, val in prod.items():
        rest, s = g >> sbits, g & smask
        ev = 0
        while val:
            d = val & mask
            val >>= bits
            if d >= half:  # a negative digit borrows from the next one
                d -= mask + 1
                val += 1
            if d:
                out[rest | ev << vshift | (s - w * ev) << ushift] = d
            ev += 1
    return out


def ghost(p, n, var):
    """w_n as a packed polynomial in one letter block (var = xvar or yvar)."""
    out = {}
    for i in range(n + 1):
        out[var(i) * (p ** (n - i))] = p**i
    return out


# ---------------------------------------------------------------------------
# the quotient R_p = Z[X, Y]/(X_j^p - X_j, Y_j^p - Y_j)
# ---------------------------------------------------------------------------

class _ClassKeys:
    """Class keys: the monomials of R_p as small ints, and their product
    (module docstring).  The class fields of the 2 * MAX_SLOTS slots come
    first, slot i at bit ``width * i``, and the support bits above them, slot
    i at bit ``base + i``; the fields are empty for p = 2."""

    def __init__(self, p):
        self.p = p
        self.width = 0 if p == 2 else (p - 1).bit_length()
        self.base = 2 * MAX_SLOTS * self.width  # the first support bit
        self.classes = sum((p - 2) << (self.width * slot) for slot in range(2 * MAX_SLOTS))
        self.support = ((1 << 2 * MAX_SLOTS) - 1) << self.base

    def encode(self, key):
        """Key of the monomial of the packed ``key``."""
        out = 0
        for slot, e in key_exponents(key):
            out |= 1 << (self.base + slot) | (e % (self.p - 1)) << (self.width * slot)
        return out

    def decode(self, key):
        """The packed key, exponents folded to 1..p-1, of the monomial ``key``."""
        period = self.p - 1
        return sum(
            ((key >> (self.width * slot) & (period - 1)) - 1) % period + 1 << (SHIFT * slot)
            for slot in range(2 * MAX_SLOTS) if key >> (self.base + slot) & 1
        )

    def mul(self, a, b):
        """Product in R_p; a square, one object passed as both factors, visits
        each unordered pair of terms once.  Zero sums are kept, for ``ip_mod``
        to drop."""
        classes, support = self.classes, self.support
        out = {}
        get = out.get
        if a is b:
            items = list(a.items())
            for i, (k1, c1) in enumerate(items):
                k = (k1 + k1) & classes | k1 & support
                out[k] = get(k, 0) + c1 * c1
                c1 <<= 1
                for k2, c2 in items[i + 1:]:
                    k = (k1 + k2) & classes | (k1 | k2) & support
                    out[k] = get(k, 0) + c1 * c2
            return out
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = (k1 + k2) & classes | (k1 | k2) & support
                out[k] = get(k, 0) + c1 * c2
        return out


# ---------------------------------------------------------------------------
# support-size estimates (drive the generation guard)
# ---------------------------------------------------------------------------

def one_sided_count(p, n):
    """Number of monomials in X_0..X_n of weighted degree exactly p^n."""
    deg = p**n
    cnt = [0] * (deg + 1)
    cnt[0] = 1
    for i in range(n + 1):
        w = p**i
        for d in range(w, deg + 1):
            cnt[d] += cnt[d - w]
    return cnt[deg]


def two_sided_count(p, n):
    """Number of monomials in X_0..X_n, Y_0..Y_n of weighted degree exactly p^n."""
    deg = p**n
    cnt = [0] * (deg + 1)
    cnt[0] = 1
    for i in range(n + 1):
        w = p**i
        for _ in range(2):
            for d in range(w, deg + 1):
                cnt[d] += cnt[d - w]
    return cnt[deg]


def level_cost(p, n, op):
    if op == "neg":
        return one_sided_count(p, n)
    if op == "add":
        return two_sided_count(p, n)
    return one_sided_count(p, n) ** 2  # mul: bidegree (p^n, p^n)


# ---------------------------------------------------------------------------
# triangular ghost solve
# ---------------------------------------------------------------------------

def _ghost_target(p, n, op, keys=None):
    """The right-hand side of level n's ghost identity, in packed keys, or in
    the class keys of R_p with ``keys`` (a ``_ClassKeys``)."""
    x, y, mul = ghost(p, n, xvar), ghost(p, n, yvar), ip_mul
    if keys is not None:
        x, y = ({keys.encode(k): c for k, c in g.items()} for g in (x, y))
        mul = keys.mul
    if op == "add":
        return ip_add_inplace(x, y)
    if op == "mul":
        return mul(x, y)
    if op == "neg":
        return {k: -c for k, c in x.items()}
    raise UsageError(f"unknown Witt operation {op!r}")


def _check_limits(p, op, start, N, folded):
    """Raise TableLimit unless levels start..N-1 of the op table are in reach;
    a level solved in R_p (``folded``) has at most p^v monomials in its v
    variables.  The support grows with the level, so the first level beyond
    TERM_LIMIT is also the longest length in reach."""
    if p not in SUPPORTED_PRIMES:
        raise TableLimit(f"prime {p} not supported; supported: {SUPPORTED_PRIMES}")
    if not (1 <= N <= MAX_N):
        raise TableLimit(f"table length {N} outside 1..{MAX_N}")
    for n in range(start, N):
        cost = level_cost(p, n, op)
        if folded:
            cost = min(cost, p ** ((n + 1) * (1 if op == "neg" else 2)))
        if cost > TERM_LIMIT:
            raise TableLimit(
                f"structure table {op} level {n} for p={p} has a potential support of "
                f"{cost} monomials, beyond the limit of {TERM_LIMIT}; this is out of reach "
                f"for exact generation, so use a length N of at most {n}"
            )


def solve_levels(p, op, N, known=None, folded=False):
    """Return levels 0..N-1 of the op table mod p, reusing any known prefix.

    With ``folded``, the levels of the table over F_p, folded into R_p (module
    docstring); the solve runs in R_p on class keys (``_ClassKeys``): a
    monomial keeps, per variable, only whether it occurs and its exponent
    mod p - 1.  As p - 1 is a power of two, a product's classes are the masked
    sum of the factors' classes, exact because each field has a spare bit for
    its carry, and its support the OR of theirs.  The ghost target is built in
    class keys and each level decoded once, to packed keys with exponents
    1..p-1.  ``known`` is a prefix of the levels solved in the same ring,
    unfolded or in R_p, in packed keys.  Raises TableLimit,
    before solving any level, when one of the missing levels has a potential
    monomial support beyond TERM_LIMIT.
    """
    levels = [dict(t) for t in (known or [])][:N]
    _check_limits(p, op, len(levels), N, folded)
    keys = _ClassKeys(p) if folded else None
    if folded:
        levels = [{keys.encode(k): c for k, c in level.items()} for level in levels]
        mul = keys.mul
    elif op == "add":  # X0 and Y0, dense under add's grading (module docstring)
        mul = functools.partial(_kron_mul, u=0, v=MAX_SLOTS, w=1)
    else:
        mul = ip_mul
    for n in range(len(levels), N):
        numerator = _ghost_target(p, n, op, keys)
        for i in range(n):  # from T_i: each product that is not a square has T_i as a factor
            power = ip_pow(levels[i], p ** (n - i), mul, p ** (n + 1 - i))
            ip_add_inplace(numerator, power, scale=-(p**i))
        pn = p**n
        level = {}
        for k, c in numerator.items():
            d, r = divmod(c, pn)
            if r:
                raise ArithmeticError(
                    f"ghost solve failed: coefficient {c} at level {n} not divisible by {pn}"
                )
            if d := d % p:
                level[k] = d
        levels.append(level)
    if folded:
        return [{keys.decode(k): c for k, c in level.items()} for level in levels]
    return levels


def verify_ghost(p, op, levels):
    """True iff every coefficient is a residue 1..p-1 and every level n
    satisfies its ghost congruence

        sum_{i<=n} p^i * T_i^(p^(n-i)) = target  (mod p^(n+1)).

    Given the levels below it, the congruence fixes level n mod p and the
    residue range fixes it outright.  The schoolbook reference the generator
    is checked against: it multiplies with ``ip_mul``, not with the Kronecker
    products that ``solve_levels`` uses, and takes each power from the one a
    level below, as (T^(p^(k-1)) mod p^k)^p = T^(p^k) mod p^(k+1).
    """
    if not all(0 < c < p for level in levels for c in level.values()):
        return False
    powers = []  # at level n: T_i^(p^(n-i)) mod p^(n+1-i), for i = 0..n
    for n, level in enumerate(levels):
        powers = [ip_pow(t, p, ip_mul, p ** (n + 1 - i)) for i, t in enumerate(powers)]
        powers.append(level)
        acc = {}
        for i, t in enumerate(powers):
            ip_add_inplace(acc, t, scale=p**i)
        if ip_mod(acc, p ** (n + 1)) != ip_mod(_ghost_target(p, n, op), p ** (n + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# text format and disk cache
# ---------------------------------------------------------------------------

class _HalfText(dict):
    """Memo: one half of a packed key -> its text, e.g. ``*X1*X3^2``."""

    def __init__(self, letter):
        super().__init__()
        self.letter = letter

    def __missing__(self, half):
        letter = self.letter
        text = self[half] = "".join(
            f"*{letter}{i}^{e}" if e > 1 else f"*{letter}{i}" for i, e in key_exponents(half)
        )
        return text


def render_ip(poly):
    """Text of an integer polynomial: terms ``c*X0^2*Y1`` in key order, joined by " + ".

    Each key is rendered as its X half then its Y half, each through a memo
    that lives for one call: the halves repeat far more than the keys.
    """
    if not poly:
        return "0"
    xs, ys = _HalfText("X"), _HalfText("Y")
    return " + ".join(
        [f"{poly[key]}{xs[key & _HALF_MASK]}{ys[key >> _HALF_BITS]}" for key in sorted(poly)]
    )


# The patterns are compiled at their first use, through the cache of ``re``:
# a process that only generates tables parses nothing.
_NOT_SPACE = b"0123456789-*XY^+"  # every character render_ip writes but the space
# a coefficient after the first that int() reads but render_ip never writes:
# signed "+", or with a leading zero (zero itself included)
_BAD_COEFFICIENT = r"\+ [+0]|\+ -0"
_TOKEN = r"([XY])(0|[1-9][0-9]*)(?:\^([1-9][0-9]*))?"
# variable token (``X1``, ``Y0^3``) -> (packed exponent, lowest key of its slot);
# a memo of _token, which validates each distinct token once, when first seen
_TOKENS = {}


def _token(tok):
    m = re.fullmatch(_TOKEN, tok)
    if m is None:
        raise CacheCorrupt(f"bad variable token {tok!r}")
    letter, index, es = m.groups()
    i, e = int(index), int(es or 1)
    if i >= MAX_SLOTS or e > EXP_MASK:
        raise CacheCorrupt(f"variable token {tok!r} outside the packed key range")
    slot = i + (MAX_SLOTS if letter == "Y" else 0)
    hit = _TOKENS[tok] = (e << (SHIFT * slot), 1 << (SHIFT * slot))
    return hit


def parse_ip(text):
    """Inverse of render_ip.

    Raises CacheCorrupt on a malformed term, a space other than those of the
    " + " separators, a coefficient spelled as render_ip never spells one
    (``+1``, ``01``, ``1_0``, zero), a variable outside the packed key range,
    variables repeated or out of slot order within a term, and a repeated
    monomial; render_ip writes none of these.  The spaces, characters and
    coefficient spellings are checked by scans of the whole text.
    """
    if text == "0":
        return {}
    parts = text.split(" + ")
    # one scan checks the characters and the spaces: all that may be left is
    # the two spaces of each separator
    if text.encode("ascii", "replace").translate(None, _NOT_SPACE) != b" " * (2 * len(parts) - 2):
        raise CacheCorrupt("a character, or a space outside a ' + ' separator")
    if text.startswith(("+", "0", "-0")) or re.search(_BAD_COEFFICIENT, text):
        raise CacheCorrupt("a coefficient signed '+' or with a leading zero")
    poly = {}
    token = _TOKENS.get
    for part in parts:
        bits = part.split("*")
        try:
            c = int(bits[0])
        except ValueError as exc:
            raise CacheCorrupt(f"bad coefficient in {part!r}") from exc
        key = 0
        for tok in bits[1:]:
            exp, floor = token(tok) or _token(tok)
            if floor <= key:  # a slot at or below one already read
                raise CacheCorrupt(f"variables repeated or out of order in {part!r}")
            key += exp
        poly[key] = c
    if len(poly) != len(parts):
        raise CacheCorrupt("a repeated monomial")
    return poly


def resolve_cache_dir(explicit=None):
    if explicit:
        return explicit
    env = os.environ.get(_ENV_CACHE)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "wittgrass")


def _cache_path(cache_dir, p):
    return os.path.join(cache_dir, f"structure_p{p}.txt")


def _corrupt(path, problem):
    return CacheCorrupt(f"structure cache {path}, {problem}; delete the file to regenerate it")


def load_cache(p, cache_dir):
    """Read the cache file of prime p; returns {op: [level text, ...]} (may be empty).

    Every line head is checked here; the polynomials stay text, for
    ``parse_level`` to parse when they are first read.
    """
    path = _cache_path(cache_dir, p)
    tables = {op: [] for op in OPS}
    if not os.path.exists(path):
        return tables
    with open(path, "r", encoding="ascii") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")  # the body is kept as written, spaces and all
                if not line or line.startswith("#"):
                    continue
                try:
                    head, _, body = line.partition(": ")
                    opname, ns = head.split()
                    n = int(ns)
                except ValueError:
                    raise _corrupt(path, f"line {lineno}: malformed line {line[:60]!r}") from None
                op = opname.lower()
                if op not in tables:
                    raise _corrupt(path, f"line {lineno}: unknown op {opname!r}")
                if n != len(tables[op]):
                    raise _corrupt(path, f"line {lineno}: {opname} levels out of order")
                tables[op].append(body)
        except UnicodeDecodeError:
            raise _corrupt(path, "a byte that is not ASCII") from None
    return tables


def parse_level(path, p, op, n, text):
    """parse_ip of level n of op, read from the cache file of prime p at path;
    every coefficient must be a residue 1..p-1."""
    line = f"line {op.upper()} {n}"
    try:
        level = parse_ip(text)
    except CacheCorrupt as exc:
        raise _corrupt(path, f"{line}: {exc}") from None
    for c in level.values():
        if not 0 < c < p:
            raise _corrupt(
                path,
                f"{line}: coefficient {c} is not a residue 1..{p - 1}; files with such "
                f"coefficients predate residue tables",
            )
    return level


def write_cache(p, cache_dir, tables):
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, p)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".structure_p{p}.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(f"# wittgrass structure polynomials, p={p}\n")
            for op in OPS:
                for n, poly in enumerate(tables[op]):
                    fh.write(f"{op.upper()} {n}: {render_ip(poly)}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# the table object used by Witt arithmetic
# ---------------------------------------------------------------------------

def _decode_half(half, first):
    """(mask, variables) of one half of a packed key whose first slot is ``first``."""
    fields = key_exponents(half)
    return (sum(1 << (first + slot) for slot, _ in fields),
            tuple((first + slot) << SHIFT | e for slot, e in fields))


def _evaluation_form(level):
    """A level as Witt arithmetic evaluates it: per term, ``(mask, variables,
    coefficient)``, ``variables`` a tuple of ``slot << SHIFT | exponent`` for
    the variables the term uses and ``mask`` with bit ``slot`` set for each.
    Each key is decoded as its X half and its Y half, each through a memo."""
    xs, ys = {}, {}
    form = []
    for key, c in level.items():
        x, y = key & _HALF_MASK, key >> _HALF_BITS
        xmask, xvars = xs.get(x) or xs.setdefault(x, _decode_half(x, 0))
        ymask, yvars = ys.get(y) or ys.setdefault(y, _decode_half(y, MAX_SLOTS))
        form.append((xmask | ymask, xvars + yvars, c))
    return form


class StructurePolynomialTable:
    """Structure polynomials mod p for the prime p, and their evaluation forms.

    ``levels(op, N)`` gives the levels 0..N-1 of op, each a packed polynomial
    with coefficients in 1..p-1.  ``reduced(op, folded, N)`` gives them in the
    form Witt arithmetic evaluates (``_evaluation_form``), the coefficients in
    1..p-1.

    Unfolded, the form is the level itself, valid over every ring of
    characteristic p (polynomial rings, F_q(t)).  Folded, for the prime field
    F_p, the forms are those of the levels folded into R_p, which
    ``solve_levels(p, op, N, folded=True)`` solves in memory (module
    docstring): exact at F_p points and far smaller (p = 3 ``add`` level 4:
    49,278 terms, 470 over F_3).  So an F_p call reads no file, parses nothing
    and writes nothing, and no edit of the cache file changes its result.

    The handle is per prime and cache directory, and ``get`` reads nothing.
    The first ``levels`` call reads the cache file once.  Each op is then a
    prefix list of its own, which grows by itself: a level read from the file
    stays text until a call first reads it, then is parsed (``parse_level``)
    in place, and each evaluation form is kept once built.  So ``greenberg
    realize --N 3 --map "T1+T2"``, which evaluates add and mul, parses three
    lines of each whatever else the file holds.  A call that needs more
    levels of op than the file holds checks TableLimit for op alone, solves
    only op's missing levels and rewrites the file, every level in it parsed
    first; the other ops keep the lengths the file gave them.
    """

    _registry: dict = {}

    def __init__(self, p, cache_dir):
        self.p = p
        self.cache_dir = cache_dir
        self.path = _cache_path(cache_dir, p)
        # op -> each level of the file: its text until first read, then parsed
        self._levels = None
        self._forms = {}  # (op, folded) -> evaluation forms, a prefix of the table

    def _parsed(self, op, N):
        """Levels 0..N-1 of op, each parsed at its first read."""
        levels = self._levels[op]
        for n in range(N):
            if isinstance(levels[n], str):
                levels[n] = parse_level(self.path, self.p, op, n, levels[n])
        return levels[:N]

    def levels(self, op, N):
        if self._levels is None:
            try:
                self._levels = load_cache(self.p, self.cache_dir)
            except OSError:
                self._levels = {o: [] for o in OPS}
        table = self._levels
        if len(table[op]) < N:
            _check_limits(self.p, op, len(table[op]), N, folded=False)
            # the file is rewritten whole, so every level in it is parsed
            # first: corrupt data is refused, never written back
            for o in OPS:
                self._parsed(o, len(table[o]))
            table[op] = solve_levels(self.p, op, N, known=table[op])
            try:
                write_cache(self.p, self.cache_dir, table)
            except OSError as exc:  # the cache is an optimization; carry on in memory
                print(f"wittgrass: could not write structure cache {self.path}: {exc}",
                      file=sys.stderr)
        return self._parsed(op, N)

    def reduced(self, op, folded, N):
        """Evaluation forms of op, folded into R_p or not; the first N entries
        are those of levels 0..N-1."""
        form = self._forms.setdefault((op, folded), [])
        if len(form) < N:
            levels = solve_levels(self.p, op, N, folded=True) if folded else self.levels(op, N)
            form += map(_evaluation_form, levels[len(form):])
        return form

    @classmethod
    def get(cls, p, cache_dir=None):
        """The table of prime p and the cache directory; reads nothing."""
        key = (p, resolve_cache_dir(cache_dir))
        table = cls._registry.get(key)
        if table is None:
            table = cls._registry[key] = cls(*key)
        return table

    @classmethod
    def drop_registry(cls):
        cls._registry.clear()


def gen_structure_polys(p, N, op, cache_dir=None):
    """Levels 0..N-1 of the requested operation table, with coefficients in 1..p-1."""
    if op not in OPS:
        raise UsageError(f"op must be add, mul or neg, not {op!r}")
    return StructurePolynomialTable.get(p, cache_dir=cache_dir).levels(op, N)
