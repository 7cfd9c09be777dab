"""Universal Witt structure polynomials, generated exactly over the integers.

The addition/multiplication/negation laws of length-N Witt vectors are given
by integer polynomials S_n, M_n, N_n in X_0..X_n, Y_0..Y_n, determined by the
ghost identities

    w_n(S) = w_n(X) + w_n(Y),   w_n(M) = w_n(X) * w_n(Y),   w_n(N) = -w_n(X),

where w_n(Z) = sum_{i<=n} p^i * Z_i^(p^(n-i)).  Each level is solved
triangularly: the level-n polynomial is (target - sum of lower-level ghost
contributions) / p^n, and the division must be exact over Z (any remainder is
a hard internal error).

Integer polynomials here are dicts mapping a packed exponent key to an int
coefficient.  Exponents are packed 16 bits per variable slot; X_i occupies
slot i and Y_i occupies slot MAX_SLOTS + i.  This keeps monomial products a
single integer addition.

Generated tables are cached on disk, one polynomial per line, in the format
``ADD n: <integer polynomial>``.  Cache writes are atomic (write a temp file,
then rename), so concurrent processes can share a cache directory.  Loading
reads the file once and checks every line head at once: each line names a
known op and the next level of it.  The polynomial after the colon is kept as
text and parsed the first time a call reads that level, so a call that adds
never parses the multiplication table.  Parsing checks the syntax only: each
term has a nonzero integer coefficient and distinct variables X_i/Y_i with
i < MAX_SLOTS and exponents 1..EXP_MASK, written in slot order, so no token can
alias another monomial.  A bad level is refused when it is first read, with
the file and the line named; before a cache file is rewritten every level in
it is parsed, so corrupt data is refused rather than written back.  Nothing
re-checks the ghost identities; a well-formed but wrong coefficient is read as
it stands.

Generation cost is governed by the number of monomials of weighted degree p^n
(weights deg X_i = p^i), and nearly all of it goes into the p-th powers of
lower levels.  Those are taken by Kronecker substitution (``_kron_mul``): the
terms of each operand are grouped by their key with the X0 and X1 fields
cleared and by s = e0 + w*e1, each group's coefficients are packed into one
integer at digit e1, and the product multiplies group by group, one big-integer
product per pair of groups.  With w = p the groups are dense: X1 weighs p times
X0 under the grading that makes the levels homogeneous (total weight for add,
X-block weight for mul and neg), so fixing the other variables fixes s and a
group holds every power of X1 its terms use, 2 to 10 terms in practice.

The monomial count explodes combinatorially: for p = 5 the level-4 addition
polynomial already has more than 10^8 potential terms with coefficients of
hundreds of digits, which no desk machine materializes in reasonable time.
Generation therefore refuses, with TableLimit, any level whose potential
support exceeds a configurable bound (default 200,000 monomials, which admits
p=2 up to length 6, p=3 up to length 5 and p=5 up to length 4) instead of
grinding without hope of finishing.
"""

from __future__ import annotations

import functools
import os
import re
import struct
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


def ip_pow(a, n, mul=ip_mul):
    """a**n by repeated squaring with the product ``mul``."""
    if n == 0:
        return {0: 1}
    if n == 1:
        return dict(a)
    half = ip_pow(a, n // 2, mul)
    out = mul(half, half)
    if n & 1:
        out = mul(out, a)
    return out


_LOW2 = 2 * SHIFT  # the X0 and X1 fields


def _kron_pack(a, w, bits, sbits):
    """Group a's terms by (key without X0, X1; e0 + w*e1), packing each group's
    coefficients into one integer at digit e1 of width ``bits``."""
    groups = {}
    for key, c in a.items():
        e1 = key >> SHIFT & EXP_MASK
        g = (key >> _LOW2) << sbits | ((key & EXP_MASK) + w * e1)
        groups[g] = groups.get(g, 0) + (c << bits * e1)
    return groups


def _kron_mul(a, b, w):
    """Product of two packed polynomials by Kronecker substitution; equals ip_mul(a, b).

    Group keys add as monomials multiply and a digit is wide enough for any
    product coefficient, so the product is exact for every w >= 1 and every
    pair whose product's exponents fit their fields, as ip_mul needs too.  The
    choice of w only decides how many terms share a group.
    """
    if not a or not b:
        return {}
    # each digit of the product is a coefficient sum bounded by l1(a) * l1(b)
    bits = (sum(map(abs, a.values())) * sum(map(abs, b.values()))).bit_length() + 1
    sbits = ((1 + w) * EXP_MASK).bit_length()  # s of a product monomial fits
    ga, gb = _kron_pack(a, w, bits, sbits), _kron_pack(b, w, bits, sbits)
    prod = {}
    get = prod.get
    for g1, v1 in ga.items():
        for g2, v2 in gb.items():
            g = g1 + g2
            prod[g] = get(g, 0) + v1 * v2
    mask, half, smask = (1 << bits) - 1, 1 << (bits - 1), (1 << sbits) - 1
    out = {}
    for g, v in prod.items():
        rest, s = (g >> sbits) << _LOW2, g & smask
        e1 = 0
        while v:
            d = v & mask
            v >>= bits
            if d >= half:  # a negative digit borrows from the next one
                d -= mask + 1
                v += 1
            if d:
                out[rest | e1 << SHIFT | (s - w * e1)] = d
            e1 += 1
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
    """Return levels 0..N-1 of the op table, reusing any known prefix.

    Raises TableLimit, before solving any level, when one of the missing
    levels has a potential monomial support beyond the configured bound.
    """
    levels = [dict(t) for t in (known or [])][:N]
    _check_limits(p, op, len(levels), N)
    mul = functools.partial(_kron_mul, w=p)
    # pow_cache[i] holds T_i^(p^(n-1-i)) while processing level n
    pow_cache = {}
    for n in range(len(levels), N):
        numerator = _ghost_target(p, n, op)
        for i in range(n):
            prev = pow_cache.get(i)
            if prev is None:
                prev = ip_pow(levels[i], p ** (n - 1 - i), mul)
            cur = ip_pow(prev, p, mul)
            pow_cache[i] = cur
            ip_add_inplace(numerator, cur, scale=-(p**i))
        q = p**n
        level = {}
        for k, c in numerator.items():
            d, r = divmod(c, q)
            if r:
                raise ArithmeticError(
                    f"ghost solve failed: coefficient {c} at level {n} not divisible by {q}"
                )
            level[k] = d
        levels.append(level)
    return levels


def verify_ghost(p, op, levels):
    """Re-expand the ghost identity for every level; True iff all hold exactly.

    The schoolbook reference the generator is checked against: it
    re-multiplies everything out with ``ip_mul``, not with the Kronecker
    product that ``solve_levels`` uses, and compares to the closed-form targets.
    """
    pow_cache = {}
    for n in range(len(levels)):
        acc = {}
        for i in range(n + 1):
            if i == n:
                cur = dict(levels[i])
            else:
                prev = pow_cache.get(i)
                if prev is None:
                    prev = dict(levels[i])
                cur = ip_pow(prev, p)
            pow_cache[i] = cur
            ip_add_inplace(acc, cur, scale=p**i)
        if acc != _ghost_target(p, n, op):
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

_NAMES = tuple(f"X{i}" for i in range(MAX_SLOTS)) + tuple(f"Y{i}" for i in range(MAX_SLOTS))
_FIELDS = struct.Struct(f"<{2 * MAX_SLOTS}H")  # a key's exponent fields, in slot order


def render_ip(poly):
    if not poly:
        return "0"
    parts = []
    for key in sorted(poly):
        bits = [str(poly[key])]
        for name, e in zip(_NAMES, _FIELDS.unpack(key.to_bytes(_FIELDS.size, "little"))):
            if e:
                bits.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(bits))
    return " + ".join(parts)


_TOKEN = re.compile(r"([XY])(0|[1-9][0-9]*)(?:\^([1-9][0-9]*))?")
# variable token (``X1``, ``Y0^3``) -> (packed exponent, lowest key of its slot);
# a memo of _token, which validates each distinct token once, when first seen
_TOKENS = {}


def _token(tok):
    m = _TOKEN.fullmatch(tok)
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

    Raises CacheCorrupt on a malformed term, a zero coefficient, a variable
    outside the packed key range, variables repeated or out of slot order
    within a term, and a repeated monomial; render_ip writes none of these.
    """
    text = text.strip()
    if text == "0":
        return {}
    poly = {}
    token = _TOKENS.get
    for part in text.split(" + "):
        bits = part.split("*")
        try:
            c = int(bits[0])
        except ValueError as exc:
            raise CacheCorrupt(f"bad coefficient in {part!r}") from exc
        if not c:
            raise CacheCorrupt(f"zero coefficient in {part!r}")
        key = 0
        for tok in bits[1:]:
            exp, floor = token(tok) or _token(tok)
            if floor <= key:  # a slot at or below one already read
                raise CacheCorrupt(f"variables repeated or out of order in {part!r}")
            key += exp
        if key in poly:
            raise CacheCorrupt(f"repeated monomial in {part!r}")
        poly[key] = c
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
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    head, _, body = line.partition(":")
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


def parse_level(path, op, n, text):
    """parse_ip of level n of op, read from the cache file at path."""
    try:
        return parse_ip(text)
    except CacheCorrupt as exc:
        raise _corrupt(path, f"line {op.upper()} {n}: {exc}") from None


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

_HALF_BITS = SHIFT * MAX_SLOTS  # a key is its X half, then its Y half
_HALF_MASK = (1 << _HALF_BITS) - 1


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
    """Integer structure polynomials for the prime p plus mod-p evaluation forms.

    ``levels(op, N)`` gives the exact integer levels 0..N-1 of op.
    ``reduced(op, q, N)`` gives their mod-p reductions in the form Witt
    arithmetic evaluates: per level, a list of ``(mask, variables,
    coefficient)`` terms.  ``variables`` is a tuple of ``slot << SHIFT |
    exponent`` for the variables the term uses, ``mask`` has bit ``slot`` set
    for each of them, and the coefficient lies in 1..p-1.  N None means every
    level of the table.

    With ``q`` None the form is the plain reduction, valid over every ring of
    characteristic p (polynomial rings, Laurent rings, F_q(t)).  For a finite
    field F_q the form is folded by x^q = x, which holds for every coordinate:
    each exponent e >= 1 becomes ((e - 1) mod (q - 1)) + 1 and terms that then
    share a monomial are merged, their coefficients summed mod p.  Evaluation
    at F_q points is unchanged, and the folded levels are far smaller (p = 3
    ``add`` level 4: 49,278 terms, 470 over F_3).

    The unit of work is one level of one op, and each stage is a prefix list
    per op that grows on demand: a level read from the cache file stays text
    until a call first reads it, then is parsed (``parse_level``), reduced mod
    p (``_reduce``, which serves every q) and folded once per q (``_fold``),
    and each result is kept.  So ``witt add --N 3`` parses three lines of the
    file whatever else it holds.  The fold takes each key as its X half and
    its Y half and folds each half once per level, through a memo: the halves
    repeat far more than the keys (p = 3 ``add`` level 4: 49,278 keys, 4,373
    distinct halves).  Only the merged monomials are decoded.  Loading and
    generation reduce nothing; generated levels are kept parsed.

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
        # op -> the parsed, then the reduced levels; both prefixes of the table
        self._levels = {op: list(levels[op][:N]) if levels else [] for op in OPS}
        self._reduced = {op: [] for op in OPS}
        self._forms = {}  # (op, q) -> evaluation forms, a prefix of the table

    def _reduce(self, poly):
        p = self.p
        return [(key, cp) for key, c in poly.items() if (cp := c % p)]

    def _fold(self, level, q):
        """Evaluation form of one reduced level, folded by x^q = x unless q is None."""
        if q is not None:
            halves = _FoldedHalves(q)
            merged = {}
            for key, c in level:
                folded = halves[key & _HALF_MASK] | halves[key >> _HALF_BITS] << _HALF_BITS
                merged[folded] = merged.get(folded, 0) + c
            level = merged.items()
        p = self.p
        form = []
        for key, c in level:
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
            parsed.append(parse_level(self.path, op, n, bodies[n]))
        return parsed[:N]

    def reduced(self, op, q=None, N=None):
        """Evaluation forms of op; the first N entries are those of levels 0..N-1."""
        N = self.N if N is None else N
        form = self._forms.get((op, q))
        if form is None:
            form = self._forms[(op, q)] = []
        if len(form) < N:
            red = self._reduced[op]
            if len(red) < N:
                red += [self._reduce(t) for t in self.levels(op, N)[len(red):]]
            form += [self._fold(level, q) for level in red[len(form):N]]
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
                op: [parse_level(path, op, n, text) for n, text in enumerate(bodies[op])]
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
    """Levels 0..N-1 of the requested operation table (exact integer polys)."""
    if op not in OPS:
        raise UsageError(f"op must be add, mul or neg, not {op!r}")
    return StructurePolynomialTable.get(p, N, cache_dir=cache_dir).levels(op, N)
