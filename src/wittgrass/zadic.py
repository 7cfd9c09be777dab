"""Function-field oracle: special lattices over F_q[[z]] in a finite window.

This is the cross-validation path for the Witt-vector lattice enumeration.  It
walks the column Hermite forms of z^w L, as lattice.enumerate_lattices does on
the Witt side, but what decides each form stays independent: its own
arithmetic for truncated power series over a prime field (plain integer
tuples mod q) and its own elementary divisors by valuation pivoting, sharing
no code with the Witt machinery.  If both enumerations have a bug, they would
have to have it independently.  A brute-force reference, a breadth-first
search over every submodule, lives in tests/test_grassmann.py.
"""

from __future__ import annotations

import itertools

from .errors import SizeGuard, UsageError

ENUM_GUARD = 1 << 20


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


class SeriesRing:
    """F_q[z]/(z^P) for prime q; elements are int tuples of length P."""

    def __init__(self, q, P):
        if not _is_prime(q):
            raise UsageError(
                f"the z-adic oracle supports prime field sizes only, not {q}"
            )
        self.q = q
        self.P = P

    def sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def mul(self, a, b):
        q, P = self.q, self.P
        out = [0] * P
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j < P and y:
                        out[i + j] = (out[i + j] + x * y) % q
        return tuple(out)

    def val(self, a):
        """z-adic valuation; None when a is zero in the quotient."""
        for i, c in enumerate(a):
            if c:
                return i
        return None

    def inv(self, a):
        """Inverse of a unit (nonzero constant term), by series recursion."""
        q, P = self.q, self.P
        c0 = pow(a[0], q - 2, q)
        out = [c0] + [0] * (P - 1)
        for k in range(1, P):
            s = 0
            for i in range(1, k + 1):
                s = (s + a[i] * out[k - i]) % q
            out[k] = (-c0 * s) % q
        return tuple(out)


def _elementary_divisors(ring, columns, n):
    """Valuation exponents of the span of the columns (plus z^P times the
    standard vectors), by global minimal-valuation pivoting."""
    P = ring.P
    work = [list(col) for col in columns]
    exps = []
    rows_done = set()
    cols_alive = list(range(len(work)))
    for _ in range(n):
        piv = None
        piv_val = None
        for ci in cols_alive:
            for r in range(n):
                if r in rows_done:
                    continue
                v = ring.val(work[ci][r])
                if v is None:
                    continue
                if piv_val is None or v < piv_val:
                    piv, piv_val = (ci, r), v
        if piv is None:
            exps.append(P)
            # a row with no pivot is covered by the forced z^P sublattice
            for r in range(n):
                if r not in rows_done:
                    rows_done.add(r)
                    break
            continue
        ci, r = piv
        rows_done.add(r)
        cols_alive.remove(ci)
        # normalize the pivot column so its row-r entry is exactly z^piv_val
        unit = tuple(work[ci][r][piv_val:]) + (0,) * piv_val
        uinv = ring.inv(unit)
        pcol = [ring.mul(uinv, x) for x in work[ci]]
        for cj in cols_alive:
            e = work[cj][r]
            if ring.val(e) is None:
                continue
            # factor = e / z^piv_val (integral since piv_val is minimal)
            factor = tuple(e[piv_val:]) + (0,) * piv_val
            for rr in range(n):
                work[cj][rr] = ring.sub(work[cj][rr], ring.mul(factor, pcol[rr]))
        exps.append(min(piv_val, P))
    return sorted(exps, reverse=True)


def _hermite_exponents(n, window):
    """Pivot exponents of the Hermite forms of z^window L for special L in the
    window: n integers in [0, 2*window] summing to n*window."""
    top = 2 * window
    for head in itertools.product(range(top + 1), repeat=n - 1):
        last = n * window - sum(head)
        if 0 <= last <= top:
            yield head + (last,)


def zadic_oracle(n, q, window):
    """Cell counts of special z-adic lattices in the symmetric window.

    Returns a dict mapping dominant cocharacters to the number of lattices L
    with z^window R^n <= L <= z^-window R^n of that elementary divisor type,
    over R = F_q[[z]].  Walks the column Hermite forms of M = z^window L: pivot
    z^b_i on the diagonal, below it in row i any polynomial of degree < b_i.
    A form is kept iff its elementary divisors sum to n*window, which is
    exactly when M contains z^(2*window) R^n; each lattice is one form.
    """
    if n < 1 or window < 0:
        raise UsageError("the z-adic oracle needs n >= 1 and window >= 0")
    P = 2 * window
    ring = SeriesRing(q, P)
    forms = 0
    for exps in _hermite_exponents(n, window):
        forms += q ** sum(i * b for i, b in enumerate(exps))
        if forms > ENUM_GUARD:
            raise SizeGuard(
                f"n={n}, q={q}, window={window} has more than {ENUM_GUARD} "
                "Hermite forms to visit; lower the window, n or q"
            )

    def poly(coeffs):
        return tuple(coeffs) + (0,) * (P - len(coeffs))

    below = [(i, j) for i in range(n) for j in range(i)]
    counts = {}
    for exps in _hermite_exponents(n, window):
        residues = [itertools.product(range(q), repeat=exps[i]) for i, _ in below]
        for digits in itertools.product(*residues):
            cols = [[poly(()) for _ in range(n)] for _ in range(n)]
            for j, b in enumerate(exps):  # z^b; z^P is zero in the quotient
                cols[j][j] = tuple(int(k == b) for k in range(P))
            for (i, j), r in zip(below, digits):
                cols[j][i] = poly(r)
            mu = _elementary_divisors(ring, cols, n)
            if sum(mu) == n * window:
                cell = tuple(m - window for m in mu)
                counts[cell] = counts.get(cell, 0) + 1
    return counts
