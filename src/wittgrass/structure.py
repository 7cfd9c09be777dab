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

Generated tables are cached on disk, one polynomial per line, in the format
``ADD n: <polynomial>``.  Cache writes are atomic (write a temp file, then
rename), so concurrent processes can share a cache directory.  Loading reads
the file once and checks every line head at once: each line names a known op
and the next level of it.  The polynomial after the colon is kept as text and
parsed the first time a call reads that level, so a call that adds never
parses the multiplication table.  Parsing checks the syntax: each term has a
nonzero integer coefficient spelled as render_ip spells it, and distinct
variables X_i/Y_i with i < MAX_SLOTS and exponents 1..EXP_MASK, written in
slot order, so no token can alias another monomial.  It checks too that each
coefficient is a residue 1..p-1; a file written before the tables held
residues has integer coefficients such as -1 and is refused, not misread.  A
bad level is refused when it is first read, with the file and the line named;
before a cache file is rewritten every level in it is parsed, so corrupt data
is refused rather than written back.  Nothing re-checks the ghost identities;
a well-formed but wrong residue is read as it stands.

Generation cost is governed by the number of monomials of weighted degree p^n
(weights deg X_i = p^i), and nearly all of it goes into the powers
T_i^(p^(n-i)) of lower levels.  Each is taken from T_i itself by repeated
squaring, its coefficients reduced mod p^(n+1-i) after every product, so a
product that is not a square has the small T_i as one factor.
Products are taken by Kronecker substitution (``_kron_mul``) along a pair of
variable slots u, v and a weight w: the terms of each operand are grouped by
their key with the u and v fields cleared and by s = e_u + w*e_v, each group's
coefficients are packed into one integer at digit e_v, and the product
multiplies group by group, one big-integer product per pair of groups; a
square visits each unordered pair once.  The product is exact for every pair;
the pair decides how many terms share a group, and so how many pairs of groups
a product visits.  ``solve_levels`` packs the pair each op's grading makes
dense: if v weighs w times u under the grading that makes the levels
homogeneous, fixing the other variables fixes s, and a group holds every power
of v its terms use.  ``add`` is homogeneous in total weight, where X0 and Y0
both weigh 1, so it packs (X0, Y0, 1) and Y0's exponent, up to p^n, leaves the
group key: the largest product of the p = 3 table, T_3^2 * T_3 at level 4,
visits 128,935 pairs of groups, against 699,111 with X0 and X1.
``mul`` is bihomogeneous, X0 and Y0 in different blocks, so X0 and Y0 would
leave one term per group; it packs (X0, X1, p), X1 weighing p under the
X-block weight, and so does ``neg``, which has no Y.

Writing a table renders each key as its X half and its Y half, each through a
memo (``render_ip``).

The monomial count explodes combinatorially: for p = 5 the level-4 addition
polynomial has more than 10^8 potential terms, and its powers would have to
be taken over all of them, which no desk machine does in reasonable time.
Generation therefore refuses, with TableLimit, any level whose potential
support exceeds a configurable bound (default 200,000 monomials, which admits
p=2 up to length 6, p=3 up to length 5 and p=5 up to length 4) instead of
grinding without hope of finishing.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import tempfile

from . import _ENV_CACHE
from .errors import CacheCorrupt, TableLimit, UsageError
from .fields import SUPPORTED_PRIMES

MAX_N = 8
MAX_SLOTS = 8          # one block of variable slots per letter
SHIFT = 16             # bits per exponent field
EXP_MASK = (1 << SHIFT) - 1

OPS = ("add", "mul", "neg")
DEFAULT_TERM_LIMIT = 200_000
_ENV_LIMIT = "WITTGRASS_TABLE_LIMIT"


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


def term_limit():
    raw = os.environ.get(_ENV_LIMIT)
    if not raw:
        return DEFAULT_TERM_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise UsageError(f"{_ENV_LIMIT} must be an integer, not {raw!r}") from None
    if limit < 1:
        raise UsageError(f"{_ENV_LIMIT} must be a positive integer, not {raw!r}")
    return limit


# ---------------------------------------------------------------------------
# triangular ghost solve
# ---------------------------------------------------------------------------

def _ghost_target(p, n, op):
    if op == "add":
        out = ghost(p, n, xvar)
        ip_add_inplace(out, ghost(p, n, yvar))
        return out
    if op == "mul":
        return ip_mul(ghost(p, n, xvar), ghost(p, n, yvar))
    if op == "neg":
        out = ghost(p, n, xvar)
        return {k: -c for k, c in out.items()}
    raise UsageError(f"unknown Witt operation {op!r}")


def _check_limits(p, op, start, N):
    """Raise TableLimit unless levels start..N-1 of the op table are in reach."""
    if p not in SUPPORTED_PRIMES:
        raise TableLimit(f"prime {p} not supported; supported: {SUPPORTED_PRIMES}")
    if not (1 <= N <= MAX_N):
        raise TableLimit(f"table length {N} outside 1..{MAX_N}")
    limit = term_limit()
    for n in range(start, N):
        cost = level_cost(p, n, op)
        if cost > limit:
            raise TableLimit(
                f"structure table {op} level {n} for p={p} has a potential support of "
                f"{cost} monomials, beyond the limit of {limit}; this is out of reach "
                f"for exact generation (set {_ENV_LIMIT} to override at your own risk)"
            )


def solve_levels(p, op, N, known=None):
    """Return levels 0..N-1 of the op table mod p, reusing any known prefix.

    Raises TableLimit, before solving any level, when one of the missing
    levels has a potential monomial support beyond the configured bound.
    """
    levels = [dict(t) for t in (known or [])][:N]
    _check_limits(p, op, len(levels), N)
    # the slot pair and weight that op's grading makes dense (module docstring)
    u, v, w = (0, MAX_SLOTS, 1) if op == "add" else (0, 1, p)
    mul = functools.partial(_kron_mul, u=u, v=v, w=w)
    for n in range(len(levels), N):
        numerator = _ghost_target(p, n, op)
        for i in range(n):  # from T_i: each product that is not a square has T_i as a factor
            power = ip_pow(levels[i], p ** (n - i), mul, p ** (n + 1 - i))
            ip_add_inplace(numerator, power, scale=-(p**i))
        q = p**n
        level = {}
        for k, c in numerator.items():
            d, r = divmod(c, q)
            if r:
                raise ArithmeticError(
                    f"ghost solve failed: coefficient {c} at level {n} not divisible by {q}"
                )
            if d := d % p:
                level[k] = d
        levels.append(level)
    return levels


def verify_ghost(p, op, levels):
    """True iff every coefficient is a residue 1..p-1 and every level n
    satisfies its ghost congruence

        sum_{i<=n} p^i * T_i^(p^(n-i)) = target  (mod p^(n+1)).

    Given the levels below it, the congruence fixes level n mod p and the
    residue range fixes it outright.  The schoolbook reference the generator is
    checked against: it multiplies with ``ip_mul``, not with the Kronecker
    product that ``solve_levels`` uses, and takes each power from the one a
    level below, as (T^(p^(k-1)) mod p^k)^p = T^(p^k) mod p^(k+1).
    """
    if not all(0 < c < p for level in levels for c in level.values()):
        return False
    powers = []  # at level n: T_i^(p^(n-i)) mod p^(n+1-i), for i = 0..n
    for n, level in enumerate(levels):
        powers = [ip_pow(t, p, modulus=p ** (n + 1 - i)) for i, t in enumerate(powers)]
        powers.append(level)
        acc = {}
        for i, t in enumerate(powers):
            ip_add_inplace(acc, t, scale=p**i)
        if ip_mod(acc, p ** (n + 1)) != ip_mod(_ghost_target(p, n, op), p ** (n + 1)):
            return False
    return True


def check_triangular(levels, op):
    """Each level-n polynomial may only mention X_i, Y_i with i <= n."""
    for n, poly in enumerate(levels):
        for key in poly:
            for slot, _ in key_exponents(key):
                if slot % MAX_SLOTS > n:
                    return False
                if op == "neg" and slot >= MAX_SLOTS:
                    return False
    return True


# ---------------------------------------------------------------------------
# text format and disk cache
# ---------------------------------------------------------------------------

_HALF_BITS = SHIFT * MAX_SLOTS  # a key is its X half, then its Y half
_HALF_MASK = (1 << _HALF_BITS) - 1


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

class _FoldedHalves(dict):
    """Memo: one half of a packed key -> that half folded by x^q = x."""

    def __init__(self, q):
        super().__init__()
        self.period = q - 1

    def __missing__(self, half):
        folded = shift = 0
        rest = half
        while rest:
            e = rest & EXP_MASK
            if e:
                folded |= ((e - 1) % self.period + 1) << shift
            rest >>= SHIFT
            shift += SHIFT
        self[half] = folded
        return folded


class StructurePolynomialTable:
    """Structure polynomials mod p for the prime p, and their evaluation forms.

    ``levels(op, N)`` gives the levels 0..N-1 of op, each a packed polynomial
    with coefficients in 1..p-1.  ``reduced(op, q, N)`` gives them in the form
    Witt arithmetic evaluates: per level, a list of ``(mask, variables,
    coefficient)`` terms.  ``variables`` is a tuple of ``slot << SHIFT |
    exponent`` for the variables the term uses, ``mask`` has bit ``slot`` set
    for each of them, and the coefficient lies in 1..p-1.  N None means every
    level of the table.

    With ``q`` None the form is the level itself, valid over every ring of
    characteristic p (polynomial rings, Laurent rings, F_q(t)).  For a finite
    field F_q the form is folded by x^q = x, which holds for every coordinate:
    each exponent e >= 1 becomes ((e - 1) mod (q - 1)) + 1 and terms that then
    share a monomial are merged, their coefficients summed mod p.  Evaluation
    at F_q points is unchanged, and the folded levels are far smaller (p = 3
    ``add`` level 4: 49,278 terms, 470 over F_3).

    The unit of work is one level of one op, and each stage is a prefix list
    per op that grows on demand: a level read from the cache file stays text
    until a call first reads it, then is parsed (``parse_level``) and folded
    once per q (``_fold``), and each result is kept.  So ``witt add --N 3``
    parses three lines of the file whatever else it holds.  The fold takes
    each key as its X half and its Y half and folds each half once per level,
    through a memo: the halves repeat far more than the keys (p = 3 ``add``
    level 4: 49,278 keys, 4,373 distinct halves).  Only the merged monomials
    are decoded.  Loading and generation fold nothing; generated levels are
    kept parsed.

    A table of length N serves every length up to N.  There is one table per
    prime and cache directory, holding every level the cache file holds and at
    least the lengths asked for; ``path`` names the file in error messages.
    """

    _registry: dict = {}

    def __init__(self, p, N, bodies, path=None, levels=None):
        self.p = p
        self.N = N
        self.path = path
        self._bodies = {op: bodies[op][:N] for op in OPS}  # the text of each level
        # op -> the parsed levels, a prefix of the table
        self._levels = {op: list(levels[op][:N]) if levels else [] for op in OPS}
        self._forms = {}  # (op, q) -> evaluation forms, a prefix of the table

    def _fold(self, level, q):
        """Evaluation form of one level, folded by x^q = x unless q is None."""
        if q is not None:
            halves = _FoldedHalves(q)
            merged = {}
            for key, c in level.items():
                folded = halves[key & _HALF_MASK] | halves[key >> _HALF_BITS] << _HALF_BITS
                merged[folded] = merged.get(folded, 0) + c
            level = merged
        p = self.p
        form = []
        for key, c in level.items():
            if cp := c % p:
                variables = []
                mask = slot = 0
                while key:
                    e = key & EXP_MASK
                    if e:
                        variables.append(slot << SHIFT | e)
                        mask |= 1 << slot
                    key >>= SHIFT
                    slot += 1
                form.append((mask, tuple(variables), cp))
        return form

    def levels(self, op, N=None):
        N = self.N if N is None else N
        parsed, bodies = self._levels[op], self._bodies[op]
        while len(parsed) < N:
            n = len(parsed)
            parsed.append(parse_level(self.path, self.p, op, n, bodies[n]))
        return parsed[:N]

    def reduced(self, op, q=None, N=None):
        """Evaluation forms of op; the first N entries are those of levels 0..N-1."""
        N = self.N if N is None else N
        form = self._forms.get((op, q))
        if form is None:
            form = self._forms[(op, q)] = []
        if len(form) < N:
            form += [self._fold(level, q) for level in self.levels(op, N)[len(form):]]
        return form

    @classmethod
    def get(cls, p, N, cache_dir=None):
        cdir = resolve_cache_dir(cache_dir)
        key = (p, cdir)
        hit = cls._registry.get(key)
        if hit is not None and hit.N >= N:
            return hit
        path = _cache_path(cdir, p)
        try:
            bodies = load_cache(p, cdir)
        except OSError:
            bodies = {op: [] for op in OPS}
        length = max(N, min(len(bodies[op]) for op in OPS))
        missing = [op for op in OPS if len(bodies[op]) < length]
        levels = None
        if missing:
            for op in missing:  # refuse before solving any op
                _check_limits(p, op, len(bodies[op]), length)
            # the file is rewritten whole, so every level in it is parsed
            # first: corrupt data is refused, never written back
            levels = {
                op: [parse_level(path, p, op, n, text) for n, text in enumerate(bodies[op])]
                for op in OPS
            }
            for op in missing:
                levels[op] = solve_levels(p, op, length, known=levels[op])
            try:
                write_cache(p, cdir, levels)
            except OSError as exc:  # the cache is an optimization; carry on in memory
                print(f"wittgrass: could not write structure cache {path}: {exc}", file=sys.stderr)
        table = cls(p, length, bodies, path, levels)
        cls._registry[key] = table
        return table

    @classmethod
    def drop_registry(cls):
        cls._registry.clear()


def gen_structure_polys(p, N, op, cache_dir=None):
    """Levels 0..N-1 of the requested operation table, with coefficients in 1..p-1."""
    if op not in OPS:
        raise UsageError(f"op must be add, mul or neg, not {op!r}")
    return StructurePolynomialTable.get(p, N, cache_dir=cache_dir).levels(op, N)
