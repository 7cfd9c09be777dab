"""Precision-tracked arithmetic in W(F_q)[1/p] and the lattice toolbox.

A PadicWittNumber is p^shift times a unit of the Galois ring
GR(p^length, e) = W_length(F_q) (see ``galois``), known modulo
p^(shift + length), its absolute precision; a number known to be zero at its
precision has length 0.  Arithmetic is integer arithmetic on the e
coordinates of the unit, and the valuation is the p-adic valuation of those
integers.  Witt coordinates appear only at the edges: numbers are built from
them (parsing, the candidate points of grassmann.points_lattice) and printed
as them (the ``mantissa``).

On top of that: Smith normal form over the discrete valuation ring W(F_q)
at finite precision, Schubert-cell classification, the dominance order and
first-column basis normalization.

Lattices rest on one routine, column_reduce, which brings generating columns
to the reduced column Hermite form: pivots exactly p^a_i, zeros above them,
and each entry below the pivot of row i cut to its Teichmuller digits below
a_i.  That form is finite and unique, so it is the identity of a lattice (no
window or precision enters it) and the basis lattice_from_columns builds.
enumerate_lattices lists the special lattices of a symmetric window by
writing those forms down directly, each form its own basis.  CellTable
counts those lattices per cell, next to the independent z-adic count of
``zadic``.
"""

from __future__ import annotations

import itertools
from math import gcd

from . import galois
from .errors import (
    DetValuationMismatch,
    NotDominant,
    PrecisionLoss,
    RingMismatch,
    SizeGuard,
    UsageError,
    ZeroAtPrecision,
    dominant_or_raise,
)
from .fields import GF

__all__ = [
    "CellTable", "Lattice", "PadicWittNumber", "WittMatrix", "bruhat_leq", "classify_cell",
    "column_reduce", "diag_p_matrix", "dominant_or_raise", "enumerate_lattices",
    "lattice_from_columns", "normalize_basis", "padic_from_witt", "padic_p_power",
    "padic_zero", "smith_normal_form", "witt_cell_table", "zadic_cell_table",
]


def __getattr__(name):
    # witt_arith is read by perfbench's test_tracer_wraps_every_importing_module
    # (ROADMAP item 1); resolved here so that lattice does not load witt
    if name == "witt_arith":
        from .witt import witt_arith

        return witt_arith
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Hermite forms enumerate_lattices may visit; each costs one Smith form at
# precision max(2*window + n, n*window + 1).
ENUM_GUARD = 1 << 20


def _number(ring, shift, length, value):
    x = object.__new__(PadicWittNumber)
    x.ring, x.shift, x.length, x.value = ring, shift, length, value
    return x


def _normal(ring, shift, length, value):
    """p^shift * value modulo p^(shift + length), value reduced modulo
    p^length, with the power of p that divides value moved into the shift."""
    g = gcd(*value)
    if not g:
        return _number(ring, shift + length, 0, value)
    p = ring.p
    k = 0
    while g % p == 0:
        g //= p
        k += 1
    if k:
        pk = p**k
        value = tuple(c // pk for c in value)
    return _number(ring, shift + k, length - k, value)


class PadicWittNumber:
    """p^shift * value at absolute precision shift + length.

    value is a unit of GR(p^length, e) reduced modulo p^length, or, with
    length 0, zero: shift is the valuation.  PadicWittNumber(ring, shift,
    coords) reads a Witt vector: p^shift * (coords), known modulo
    p^(shift + len(coords)).
    """

    __slots__ = ("ring", "shift", "length", "value")

    def __new__(cls, ring, shift, coords):
        coords = tuple(coords)
        return _normal(ring, shift, len(coords), galois.of_digits(ring, coords))

    # -- bookkeeping --

    @property
    def abs_prec(self):
        return self.shift + self.length

    @property
    def mantissa(self):
        """The Witt coordinates of the unit, or () for zero."""
        return tuple(galois.digits(self.ring, self.value, self.length, self.length)[0])

    def is_zero(self):
        return not self.length

    def val(self):
        if not self.length:
            raise ZeroAtPrecision(f"zero modulo p^{self.abs_prec}")
        return self.shift

    def val_or_none(self):
        return self.shift if self.length else None

    # -- arithmetic --

    def truncate_abs(self, a):
        """This value known only modulo p^a."""
        if a >= self.shift + self.length:
            return self
        if a <= self.shift:
            return _number(self.ring, a, 0, (0,) * len(self.value))
        L = a - self.shift
        mod = self.ring.p**L
        return _number(self.ring, self.shift, L, tuple(c % mod for c in self.value))

    def __add__(self, other):
        self._like(other)
        prec = min(self.shift + self.length, other.shift + other.length)
        if not self.length:
            return other.truncate_abs(prec)
        if not other.length:
            return self.truncate_abs(prec)
        s = min(self.shift, other.shift)
        L = prec - s
        if L <= 0:
            raise PrecisionLoss("sum has no provable digits")
        p = self.ring.p
        mod = p**L
        a, b = p ** (self.shift - s), p ** (other.shift - s)
        value = tuple((x * a + y * b) % mod for x, y in zip(self.value, other.value))
        return _normal(self.ring, s, L, value)

    def __neg__(self):
        if not self.length:
            return self
        mod = self.ring.p**self.length
        return _number(self.ring, self.shift, self.length, tuple(-c % mod for c in self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._like(other)
        # known modulo p^(shift sum + shorter length); a zero factor has length 0
        L = min(self.length, other.length)
        if not L:
            return _number(self.ring, self.shift + other.shift, 0, (0,) * len(self.value))
        value = galois.mul(self.ring, self.value, other.value, self.ring.p**L)
        return _number(self.ring, self.shift + other.shift, L, value)

    def inv(self):
        if not self.length:
            raise ZeroAtPrecision("cannot invert a value that vanishes at precision")
        value = galois.inv(self.ring, self.value, self.length)
        return _number(self.ring, -self.shift, self.length, value)

    def __truediv__(self, other):
        return self * other.inv()

    def div_p_power(self, k, length):
        """self / p^k for p^k known to length >= 1 digits, by a shift: the
        value, shift and length of self / padic_p_power(ring, k, length)."""
        return self.truncate_abs(self.shift + length).p_times(-k)

    def unit_part(self):
        """The unit as an exact integral value (shift zero)."""
        return _number(self.ring, 0, self.length, self.value)

    def p_times(self, k):
        """Multiply by p^k; k may be negative."""
        return _number(self.ring, self.shift + k, self.length, self.value)

    def eq_at_precision(self, other):
        return (self - other).is_zero()

    def split(self, k):
        """(low, high) with self = low + p^k * high; low has digits < k only.

        The digits are Teichmuller digits, the Witt coordinates read as
        self = sum_i p^(shift+i) * T(a_i^(p^-i)): low keeps the first m of
        them, and high is the rest, exactly.
        """
        m = max(0, min(k - self.shift, self.length))
        _, rest = galois.digits(self.ring, self.value, self.length, m)
        high = _normal(self.ring, self.shift - k + m, self.length - m, rest)
        return self.truncate_abs(k), high

    def _like(self, other):
        if self.ring is not other.ring:
            raise RingMismatch("operands over different coefficient rings")

    def __eq__(self, other):
        return (
            isinstance(other, PadicWittNumber)
            and self.ring is other.ring
            and self.shift == other.shift
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self):
        return hash((id(self.ring), self.shift, self.length, self.value))

    def __repr__(self):
        body = "(" + ",".join(repr(c) for c in self.mantissa) + ")"
        if self.shift:
            return f"p^{self.shift}*{body}"
        return body


def padic_from_witt(w, shift=0):
    return PadicWittNumber(w.ring, shift, w.coords)


def padic_p_power(ring, k, prec):
    """p^k known to at least one digit: to prec digits when prec >= 1."""
    return _number(ring, k, max(prec, 1), (1,) + (0,) * (ring.e - 1))


def padic_zero(ring, abs_prec):
    return _number(ring, abs_prec, 0, (0,) * ring.e)


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
        from .witt import mat_mul

        return WittMatrix(self.ring, mat_mul(self.entries, other.entries))

    def det(self):
        from .witt import mat_det

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
        pivot = W.entries[k][k]  # p^mu * 1
        for i in range(n):
            if i == k:
                continue
            e = W.entries[i][k]
            if e.is_zero():
                continue
            factor = e.div_p_power(mu, pivot.length)  # integral: val(e) >= mu
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
            factor = e.div_p_power(mu, pivot.length)
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
        piv = [x * uinv for x in piv]  # piv[row] is p^a * 1
        for c in rest:
            if c[row].is_zero():
                if c[row].abs_prec < a:
                    raise PrecisionLoss(f"row {row} is not known down to its pivot p^{a}")
                continue
            factor = c[row].div_p_power(a, piv[row].length)
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

    Walks the reduced column Hermite forms of M = p^window L: every pivot
    exponent vector b of _hermite_exponents and every residue mod p^b_i below
    the pivot of row i.  Each form is its own lattice, distinct from the
    others, and its one Smith form gives the cell.  The pivots make the cell
    sum to zero, and M lies in the window, i.e. contains p^(2*window) W^n,
    exactly when mu_1 <= window; the form is kept iff so.  The forms are
    counted against ENUM_GUARD, in closed form, before any Witt arithmetic.
    Returns (Lattice, cell) pairs.
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
    # 2w + n digits find pivots to p^(2w); a Smith exponent of M reaches n*w
    prec = max(2 * window + n, n * window + 1)
    pad = (field.zero,) * prec
    elems = field.elements()
    zero = padic_zero(field, prec)
    below = [(i, j) for i in range(n) for j in range(i)]
    out = []
    for exps in _hermite_exponents(n, window):
        pivots = [padic_p_power(field, b, prec - b) for b in exps]
        residues = [
            [PadicWittNumber(field, 0, r + pad[b:]) for r in itertools.product(elems, repeat=b)]
            for b in (exps[i] for i, _ in below)
        ]
        for entries in itertools.product(*residues):
            rows = [[pivots[i] if i == j else zero for j in range(n)] for i in range(n)]
            for (i, j), x in zip(below, entries):
                rows[i][j] = x
            lat = Lattice(WittMatrix(field, rows).p_times(-window))
            mu = lat.cell()
            if mu[0] <= window:
                out.append((lat, mu))
    return out


# ---------------------------------------------------------------------------
# cell tables: the Witt enumeration and the independent z-adic count
# ---------------------------------------------------------------------------

class CellTable:
    """Counts of special lattices per dominant cocharacter in a window."""

    def __init__(self, counts, n, q, window, provenance):
        self.counts = dict(counts)
        self.n = n
        self.q = q
        self.window = window
        self.provenance = provenance

    @property
    def total(self):
        return sum(self.counts.values())

    def same_counts(self, other):
        return self.counts == other.counts

    def as_dict(self):
        return {
            "n": self.n,
            "q": self.q,
            "window": self.window,
            "provenance": self.provenance,
            "total": self.total,
            "cells": [
                {"lambda": list(cell), "count": self.counts[cell]}
                for cell in sorted(self.counts)
            ],
        }

    def __repr__(self):
        cells = ", ".join(
            f"({','.join(map(str, c))}): {v}" for c, v in sorted(self.counts.items())
        )
        return f"{{{cells}}}"


def witt_cell_table(n, q, window):
    counts = {}
    for _, cell in enumerate_lattices(n, q, window):
        counts[cell] = counts.get(cell, 0) + 1
    return CellTable(counts, n, q, window, "witt")


def zadic_cell_table(n, q, window):
    from .zadic import zadic_oracle

    return CellTable(zadic_oracle(n, q, window), n, q, window, "z-adic")
