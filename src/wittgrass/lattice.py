"""Precision-tracked arithmetic in W(F_q)[1/p] and the lattice toolbox.

A PadicWittNumber is p^shift times a truncated Witt mantissa over a finite
field; its absolute precision is shift + len(mantissa).  Every value is
normalized: the mantissa is empty (zero at that precision) or its leading
coordinate is nonzero, so shift is the valuation.  The constructor strips
leading zeros with p-th roots, (0, a_1, a_2, ...) = p*(a_1^(1/p), a_2^(1/p),
...), which the perfect field F_q allows; alignment to a smaller shift uses
p*(a_0, a_1, ...) = (0, a_0^p, a_1^p, ...).

On top of that: Smith normal form over the discrete valuation ring W(F_q)
at finite precision, Schubert-cell classification, the dominance order and
first-column basis normalization.

Lattices rest on one routine, column_reduce, which brings generating columns
to the reduced column Hermite form: pivots exactly p^a_i, zeros above them,
and each entry below the pivot of row i cut to its digits below a_i.  That
form is finite and unique, so it is the identity of a lattice (no window or
precision enters it), the basis lattice_from_columns builds, and the object
enumerate_lattices walks to list the special lattices of a symmetric window.
"""

from __future__ import annotations

import itertools

from .errors import (
    DetValuationMismatch,
    NotDominant,
    PrecisionLoss,
    RingMismatch,
    SizeGuard,
    UsageError,
    ZeroAtPrecision,
)
from .fields import GF
from .witt import WittVector, mat_det, mat_mul, witt_arith, witt_inv

# Hermite forms enumerate_lattices may visit; each costs a reduction and a
# Smith form at precision 2*window + n.
ENUM_GUARD = 1 << 20


class PadicWittNumber:
    """p^shift * mantissa at absolute precision shift + len(mantissa).

    The mantissa is empty (zero modulo p^abs_prec) or has a nonzero leading
    coordinate, so shift is the valuation.
    """

    __slots__ = ("ring", "shift", "mantissa")

    def __init__(self, ring, shift, mantissa):
        self.ring = ring
        coords = tuple(mantissa)
        while coords and coords[0].is_zero():
            shift += 1
            coords = tuple(c.pth_root() for c in coords[1:])
        self.shift = shift
        self.mantissa = coords

    # -- bookkeeping --

    @property
    def abs_prec(self):
        return self.shift + len(self.mantissa)

    def is_zero(self):
        return not self.mantissa

    def val(self):
        if not self.mantissa:
            raise ZeroAtPrecision(f"zero modulo p^{self.abs_prec}")
        return self.shift

    def val_or_none(self):
        return self.shift if self.mantissa else None

    # -- alignment --

    def aligned_mantissa(self, shift, length):
        """Coordinates of this value viewed at the given lower shift."""
        k = self.shift - shift
        if k < 0:
            raise PrecisionLoss("cannot align to a larger shift without roots")
        q = self.ring.p**k
        coords = [self.ring.zero] * k + [c**q for c in self.mantissa]
        if len(coords) < length:
            raise PrecisionLoss("not enough digits to align")
        return tuple(coords[:length])

    # -- arithmetic --

    def truncate_abs(self, a):
        """This value known only modulo p^a."""
        if a >= self.abs_prec:
            return self
        if a <= self.shift:
            return PadicWittNumber(self.ring, a, ())
        return PadicWittNumber(self.ring, self.shift, self.mantissa[: a - self.shift])

    def __add__(self, other):
        self._like(other)
        prec = min(self.abs_prec, other.abs_prec)
        if self.is_zero():
            return other.truncate_abs(prec)
        if other.is_zero():
            return self.truncate_abs(prec)
        s = min(self.shift, other.shift)
        L = prec - s
        if L <= 0:
            raise PrecisionLoss("sum has no provable digits")
        a = WittVector(self.ring, self.aligned_mantissa(s, L))
        b = WittVector(self.ring, other.aligned_mantissa(s, L))
        return PadicWittNumber(self.ring, s, (a + b).coords)

    def __neg__(self):
        if not self.mantissa:
            return self
        m = witt_arith("neg", WittVector(self.ring, self.mantissa))
        return PadicWittNumber(self.ring, self.shift, m.coords)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._like(other)
        if self.is_zero() or other.is_zero():
            prec = min(
                self.abs_prec + other.shift,
                other.abs_prec + self.shift,
            )
            return PadicWittNumber(self.ring, prec, ())
        L = min(len(self.mantissa), len(other.mantissa))
        a = WittVector(self.ring, self.mantissa[:L])
        b = WittVector(self.ring, other.mantissa[:L])
        return PadicWittNumber(self.ring, self.shift + other.shift, (a * b).coords)

    def inv(self):
        if self.is_zero():
            raise ZeroAtPrecision("cannot invert a value that vanishes at precision")
        m = witt_inv(WittVector(self.ring, self.mantissa))
        return PadicWittNumber(self.ring, -self.shift, m.coords)

    def __truediv__(self, other):
        return self * other.inv()

    def unit_part(self):
        """The mantissa as an exact integral value (shift zero)."""
        return PadicWittNumber(self.ring, 0, self.mantissa)

    def p_times(self, k):
        """Multiply by p^k; k may be negative."""
        return PadicWittNumber(self.ring, self.shift + k, self.mantissa)

    def eq_at_precision(self, other):
        return (self - other).is_zero()

    def split(self, k):
        """(low, high) with self = low + p^k * high; low has digits < k only.

        Exact, with no Witt arithmetic: a Witt vector is the sum of its
        digits, (a_0, ..., a_{L-1}) = (a_0, ..., a_{m-1}, 0, ...) +
        (0, ..., 0, a_m, ..., a_{L-1}), so high is the tail behind m zeros.
        """
        m = max(0, min(k - self.shift, len(self.mantissa)))
        tail = (self.ring.zero,) * m + self.mantissa[m:]
        return self.truncate_abs(k), PadicWittNumber(self.ring, self.shift - k, tail)

    def _like(self, other):
        if self.ring is not other.ring:
            raise RingMismatch("operands over different coefficient rings")

    def __eq__(self, other):
        return (
            isinstance(other, PadicWittNumber)
            and self.ring is other.ring
            and self.shift == other.shift
            and self.mantissa == other.mantissa
        )

    def __hash__(self):
        return hash((id(self.ring), self.shift, self.mantissa))

    def __repr__(self):
        body = "(" + ",".join(repr(c) for c in self.mantissa) + ")"
        if self.shift:
            return f"p^{self.shift}*{body}"
        return body


def padic_from_witt(w, shift=0):
    return PadicWittNumber(w.ring, shift, w.coords)


def padic_p_power(ring, k, prec):
    return PadicWittNumber(ring, k, (ring.one,) + (ring.zero,) * (prec - 1))


def padic_zero(ring, abs_prec):
    return PadicWittNumber(ring, abs_prec, ())


# ---------------------------------------------------------------------------
# matrices of PadicWittNumbers
# ---------------------------------------------------------------------------

class WittMatrix:
    """Square matrix over W(F_q)[1/p] at a common working precision."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = [list(row) for row in entries]

    @property
    def n(self):
        return len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    @classmethod
    def identity(cls, ring, n, prec):
        one = padic_p_power(ring, 0, prec)
        zero = padic_zero(ring, prec)
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_witt_rows(cls, rows, prec=None, pad=None):
        """Lift a matrix of integral WittVectors, zero-padded to `prec` digits.

        `pad` optionally supplies the padding digits: pad(i, j, level) is used
        for levels >= the vectors' native length (the default pads zeros).
        """
        ring = rows[0][0].ring
        ents = []
        for i, row in enumerate(rows):
            out = []
            for j, w in enumerate(row):
                coords = list(w.coords)
                if prec is not None:
                    while len(coords) < prec:
                        coords.append(
                            pad(i, j, len(coords)) if pad is not None else ring.zero
                        )
                out.append(PadicWittNumber(ring, 0, coords))
            ents.append(out)
        return cls(ring, ents)

    def p_times(self, k):
        return WittMatrix(
            self.ring, [[x.p_times(k) for x in row] for row in self.entries]
        )

    def mul(self, other):
        return WittMatrix(self.ring, mat_mul(self.entries, other.entries))

    def det(self):
        return mat_det(self.entries)

    def eq_at_precision(self, other):
        return all(
            self.entries[i][j].eq_at_precision(other.entries[i][j])
            for i in range(self.n)
            for j in range(self.n)
        )

    def copy(self):
        return WittMatrix(self.ring, self.entries)

    def __repr__(self):
        return "\n".join(
            "[" + ", ".join(repr(x) for x in row) + "]" for row in self.entries
        )


# ---------------------------------------------------------------------------
# Smith normal form over W(F_q) at precision
# ---------------------------------------------------------------------------

def _min_val_position(W, start):
    best = None
    best_val = None
    n = W.n
    for i in range(start, n):
        for j in range(start, n):
            v = W.entries[i][j].val_or_none()
            if v is None:
                continue
            if best_val is None or v < best_val:
                best, best_val = (i, j), v
    if best is None:
        raise PrecisionLoss("no pivot distinguishable from zero at this precision")
    return best, best_val


def smith_normal_form(A):
    """U, mu, V with U * diag(p^mu) * V = A at precision, mu decreasing.

    U and V are integrally invertible (products of swaps, unit scalings and
    integral transvections).  Pivoting picks the entry of minimal valuation,
    ties broken row-major.
    """
    n = A.n
    ring = A.ring
    prec = max(e.abs_prec for row in A.entries for e in row)
    W = A.copy()
    U = WittMatrix.identity(ring, n, prec)
    V = WittMatrix.identity(ring, n, prec)
    exps = []
    for k in range(n):
        (pi, pj), mu = _min_val_position(W, k)
        if pi != k:
            W.entries[k], W.entries[pi] = W.entries[pi], W.entries[k]
            for r in range(n):  # U: swap columns k, pi
                U.entries[r][k], U.entries[r][pi] = U.entries[r][pi], U.entries[r][k]
        if pj != k:
            for r in range(n):
                W.entries[r][k], W.entries[r][pj] = W.entries[r][pj], W.entries[r][k]
            V.entries[k], V.entries[pj] = V.entries[pj], V.entries[k]
        pivot = W.entries[k][k]
        unit = pivot.unit_part()  # pivot = p^mu * unit
        uinv = unit.inv()
        W.entries[k] = [x * uinv for x in W.entries[k]]
        for r in range(n):  # U: column k picks up the unit
            U.entries[r][k] = U.entries[r][k] * unit
        pivot = W.entries[k][k]
        for i in range(n):
            if i == k:
                continue
            e = W.entries[i][k]
            if e.is_zero():
                continue
            factor = e / pivot  # integral: val(e) >= mu
            W.entries[i] = [
                x - factor * y for x, y in zip(W.entries[i], W.entries[k])
            ]
            for r in range(n):  # U: col k += factor * col i
                U.entries[r][k] = U.entries[r][k] + factor * U.entries[r][i]
        for j in range(n):
            if j == k:
                continue
            e = W.entries[k][j]
            if e.is_zero():
                continue
            factor = e / pivot
            for r in range(n):
                W.entries[r][j] = W.entries[r][j] - factor * W.entries[r][k]
            # V: row k += factor * row j
            V.entries[k] = [
                x + factor * y for x, y in zip(V.entries[k], V.entries[j])
            ]
        exps.append(mu)
    # re-sort decreasing via the reversal permutation
    order = sorted(range(n), key=lambda i: exps[i], reverse=True)
    Uo = WittMatrix(ring, [[U.entries[r][order[c]] for c in range(n)] for r in range(n)])
    Vo = WittMatrix(ring, [list(V.entries[order[r]]) for r in range(n)])
    return Uo, tuple(exps[i] for i in order), Vo


def diag_p_matrix(ring, exps, prec):
    n = len(exps)
    zprec = prec + max(list(exps) + [0])
    ents = [
        [
            padic_p_power(ring, exps[i], prec) if i == j else padic_zero(ring, zprec)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return WittMatrix(ring, ents)


def classify_cell(g):
    """Dominant cocharacter of the lattice spanned by the columns of g."""
    _, mu, _ = smith_normal_form(g)
    if sum(mu) != 0:
        raise DetValuationMismatch(
            f"elementary divisor exponents {mu} do not sum to zero; "
            "classify_cell expects a determinant-one basis"
        )
    return mu


def dominant_or_raise(lam):
    if sum(lam) != 0 or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise NotDominant(f"{lam} is not a dominant cocharacter")


def bruhat_leq(lam, mu):
    """Dominance order: all partial sums of lam bounded by those of mu."""
    dominant_or_raise(lam)
    dominant_or_raise(mu)
    if len(lam) != len(mu):
        raise NotDominant("cocharacters of different rank")
    acc_l = acc_m = 0
    for a, b in zip(lam, mu):
        acc_l += a
        acc_m += b
        if acc_l > acc_m:
            return False
    return True


def stabilizes_standard(g):
    """True iff g fixes the standard lattice: all of g, g^{-1} integral."""
    return all(v == 0 for v in classify_cell(g))


def normalize_basis(M, big_lambda, prec=None, pad=None):
    """Turn an integral basis with det valuation big_lambda into a det-1 basis.

    M is a matrix of WittVectors over W_N(F_q).  The entries are zero-padded
    to the working precision, the matrix is divided by p^(big_lambda/n), and
    the first column is divided by the (unit) determinant.  By the geometric
    series perturbation bound the classified cell does not depend on the
    padding digits.
    """
    n = len(M)
    if big_lambda % n:
        raise DetValuationMismatch(
            f"det valuation {big_lambda} is not a multiple of the rank {n}"
        )
    N = M[0][0].length
    prec = prec if prec is not None else N + big_lambda + 2
    A = WittMatrix.from_witt_rows(M, prec=prec, pad=pad)
    d = A.det()
    dval = d.val_or_none()
    if dval != big_lambda:
        raise DetValuationMismatch(
            f"determinant valuation is {dval}, expected {big_lambda}"
        )
    g = A.p_times(-(big_lambda // n))
    u = g.det()  # a unit at precision
    uinv = u.inv()
    for i in range(n):
        g.entries[i][0] = g.entries[i][0] * uinv
    return g


# ---------------------------------------------------------------------------
# lattices: the reduced column Hermite form, identity, enumeration
# ---------------------------------------------------------------------------

def column_reduce(columns, n):
    """Reduced column Hermite form of the lattice spanned by `columns`.

    Returns (exps, basis): n columns, column i with entry exactly p^exps[i] in
    row i and zeros above it, each entry below the pivot of row i reduced to
    its digits below exps[i].  Generators beyond a basis reduce to zero and
    are dropped.  Raises PrecisionLoss when a row has no visible pivot, or
    when an entry is not known far enough to decide its row's pivot or its
    digits below that pivot.
    """
    rest = [list(c) for c in columns]
    basis = []
    exps = []
    for row in range(n):
        best = a = None
        for idx, c in enumerate(rest):
            v = c[row].val_or_none()
            if v is not None and (a is None or v < a):
                best, a = idx, v
        if best is None:
            raise PrecisionLoss(f"no pivot in row {row} at this precision")
        piv = rest.pop(best)
        uinv = piv[row].unit_part().inv()
        piv = [x * uinv for x in piv]
        for c in rest:
            if c[row].is_zero():
                if c[row].abs_prec < a:
                    raise PrecisionLoss(f"row {row} is not known down to its pivot p^{a}")
                continue
            factor = c[row] / piv[row]
            for r in range(row, n):
                c[r] = c[r] - factor * piv[r]
        for c in basis:
            low, high = c[row].split(a)
            if low.abs_prec < a:
                raise PrecisionLoss(f"digits below the pivot p^{a} of row {row} are not known")
            if high.is_zero():
                continue
            for r in range(row, n):
                c[r] = c[r] - high * piv[r]
        basis.append(piv)
        exps.append(a)
    return tuple(exps), basis


class Lattice:
    """A lattice in W(F_q)[1/p]^n given by a square column basis."""

    def __init__(self, basis):
        self.basis = basis  # WittMatrix, columns span L
        self._canon = None

    @property
    def n(self):
        return self.basis.n

    def cell(self):
        _, mu, _ = smith_normal_form(self.basis)
        return mu

    def canonical_key(self):
        """(n, pivot exponents, digits below the pivots) of the reduced column
        Hermite form: equal exactly for equal lattices, whatever the basis and
        its precision.  Raises PrecisionLoss when those digits are not known."""
        if self._canon is None:
            n = self.n
            ents = self.basis.entries
            exps, basis = column_reduce(
                [[ents[i][j] for i in range(n)] for j in range(n)], n
            )
            digits = tuple(
                basis[j][i].truncate_abs(exps[i]) for i in range(n) for j in range(i)
            )
            self._canon = (n, exps, digits)
        return self._canon

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Lattice(cell={self.cell()})\n{self.basis!r}"


def lattice_from_columns(columns, n, shift, ring):
    """The lattice p^-shift M, M spanned by the integral columns."""
    _, basis = column_reduce(columns, n)
    mat = WittMatrix(ring, [[basis[j][i] for j in range(n)] for i in range(n)])
    return Lattice(mat.p_times(-shift))


def _hermite_exponents(n, window):
    """Pivot exponents of the Hermite forms of p^window L for special L in the
    window: n integers in [0, 2*window] summing to n*window."""
    top = 2 * window
    for head in itertools.product(range(top + 1), repeat=n - 1):
        last = n * window - sum(head)
        if 0 <= last <= top:
            yield head + (last,)


def enumerate_lattices(n, q, window):
    """All special lattices with p^window W^n <= L <= p^-window W^n.

    Walks the reduced column Hermite forms of M = p^window L directly: every
    pivot exponent vector b of _hermite_exponents and every residue mod p^b_i
    below the pivot of row i, each form a distinct lattice.  M lies in the
    window when it contains p^(2*window) W^n (Smith exponents mu_1 <=
    2*window); exactly then appending the columns of that sublattice leaves
    a cell summing to zero.  The forms are counted against ENUM_GUARD, in
    closed form, before any Witt arithmetic.  Returns (Lattice, cell) pairs.
    """
    if n < 1 or window < 0:
        raise UsageError("lattice enumeration needs n >= 1 and window >= 0")
    field = GF(q)
    forms = 0
    for exps in _hermite_exponents(n, window):
        forms += q ** sum(i * b for i, b in enumerate(exps))
        if forms > ENUM_GUARD:
            raise SizeGuard(
                f"n={n}, q={q}, window={window} has more than {ENUM_GUARD} "
                "Hermite forms to visit; lower the window, n or q"
            )
    # digits enough to find pivots up to p^(2w) and the digits below them
    prec = 2 * window + n
    pad = (field.zero,) * prec

    def lift(coords):
        return PadicWittNumber(field, 0, coords + pad[len(coords):])

    elems = field.elements()
    zero = lift(())
    top = 2 * window
    kernel = [  # the columns of p^(2w) W^n, appended to every form
        [padic_p_power(field, top, prec) if i == j else padic_zero(field, prec + top)
         for i in range(n)]
        for j in range(n)
    ]
    below = [(i, j) for i in range(n) for j in range(i)]
    out = []
    for exps in _hermite_exponents(n, window):
        pivots = [lift((field.zero,) * b + (field.one,)) for b in exps]
        residues = [itertools.product(elems, repeat=exps[i]) for i, _ in below]
        for digits in itertools.product(*residues):
            cols = [[pivots[j] if i == j else zero for i in range(n)] for j in range(n)]
            for (i, j), r in zip(below, digits):
                cols[j][i] = lift(r)
            lat = lattice_from_columns(cols + kernel, n, window, field)
            mu = lat.cell()
            if sum(mu) == 0:
                out.append((lat, mu))
    return out
