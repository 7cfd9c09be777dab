"""Coordinate-wise (Greenberg) realization of polynomial data over W_N(k).

A polynomial map P: A^d -> A^e over W_N(k) is a list of ordinary
``Polynomial``s in T1..Td whose coefficient ring is W_N(k) (``witt_poly_ring``).
It becomes a polynomial map of affine k-spaces of dimensions dN and eN by
evaluation at the generic point: substitute for each T_l the generic vector
(x[l,0], ..., x[l,N-1]) and read off the Witt components of the result, each a
polynomial over k in the x[l,m].  The evaluation runs the ordinary Witt
arithmetic over the polynomial coefficient ring k[x[l,m]], one term of P at a
time.

Everything in this module is a pure syntactic transformation; no Groebner
machinery, no normalization beyond sparse canonical form.
"""

from __future__ import annotations

import re

from .errors import NonUnit, RingMismatch, UsageError
from .poly import PolyRing, Polynomial, coord_ring
from .witt import (
    WittVector,
    mat_det,
    teichmuller,
    witt_from_int,
    witt_one,
    witt_zero,
)


# Witt polynomial maps are read in at most this many variables, so that a
# mistyped index cannot build a coordinate ring of millions of variables.
MAX_ARITY = 16


class WittRing:
    """W_N(k) as the coefficient ring of a ``PolyRing``.

    It offers what a polynomial ring asks of its coefficients: ``p``, ``zero``,
    ``one`` and ``from_int``.  There is one instance per (k, N), so polynomial
    rings over the same W_N(k) are shared.
    """

    _cache: dict = {}

    def __new__(cls, scalar, N):
        key = (id(scalar), N)
        self = cls._cache.get(key)
        if self is None:
            self = cls._cache[key] = super().__new__(cls)
            self.scalar = scalar
            self.N = N
            self.p = scalar.p
            self.zero = witt_zero(scalar, N)
            self.one = witt_one(scalar, N)
        return self

    def from_int(self, n):
        return witt_from_int(self.scalar, n, self.N)

    def __repr__(self):
        return f"W_{self.N}({self.scalar!r})"


def witt_poly_ring(scalar, N, arity):
    """W_N(scalar)[T1..T_arity], the home of Witt polynomial maps."""
    return PolyRing(WittRing(scalar, N), tuple(f"T{l}" for l in range(1, arity + 1)))


class RealizedMap:
    """Polynomial map (A_k^N)^d -> (A_k^N)^e given by component polynomials.

    components[i][j] is the (i, j) coordinate polynomial in the source ring
    k[x[l,m] : 1 <= l <= d, 0 <= m < N].
    """

    def __init__(self, ring, source_arity, components):
        self.ring = ring
        self.source_arity = source_arity
        self.components = components

    def flat_components(self):
        return [q for row in self.components for q in row]

    def apply_point(self, vectors):
        """Point map: Witt vectors (over the scalar ring) in, Witt vectors out."""
        scalar = self.ring.coeff
        coords = [c for v in vectors for c in v.coords]
        out = []
        for row in self.components:
            vals = [q.evaluate(coords) for q in row]
            out.append(WittVector(scalar, vals))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RealizedMap)
            and self.components == other.components
        )

    def __repr__(self):
        lines = []
        for i, row in enumerate(self.components, start=1):
            for j, q in enumerate(row):
                lines.append(f"COMP {i} {j}: {q!r}")
        return "\n".join(lines)


class RealizedIdeal:
    """Generators over k of the coordinate-wise realization of a Witt ideal."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = generators

    def __repr__(self):
        return "\n".join(f"GEN {i}: {g!r}" for i, g in enumerate(self.generators))


def generic_vectors(scalar, arity, N):
    """Witt vectors of polynomial variables: the universal point of A^arity."""
    ring = coord_ring(scalar, arity, N)
    vecs = []
    for l in range(arity):
        coords = [ring.var(l * N + m) for m in range(N)]
        vecs.append(WittVector(ring, coords))
    return ring, vecs


def realize_poly_map(polys):
    """Realize the map A^d -> A^e given by polynomials in W_N(k)[T1..Td].

    Each polynomial is evaluated at the generic point term by term: the
    coefficient as a constant vector over k[x], times the generic vectors one
    factor at a time.  Sums are never multiplied over k[x], where products of
    sums grow fast; the polynomial is already expanded over W_N(k).
    """
    if not polys:
        raise UsageError("empty polynomial map")
    R = polys[0].ring
    if any(P.ring is not R for P in polys):
        raise RingMismatch("map components over different rings")
    W, arity = R.coeff, len(R.names)
    ring, vecs = generic_vectors(W.scalar, arity, W.N)
    components = []
    for P in polys:
        acc = witt_zero(ring, W.N)
        for m, c in P.terms.items():
            term = WittVector(ring, [ring.const(x) for x in c.coords])
            for l, e in enumerate(m):
                for _ in range(e):
                    term = term * vecs[l]
            acc = acc + term
        components.append(list(acc.coords))
    return RealizedMap(ring, arity, components)


def realize_ideal(gens):
    """All Witt components of all generators; identically-zero ones dropped."""
    rmap = realize_poly_map(gens)
    out = [q for q in rmap.flat_components() if not q.is_zero()]
    return RealizedIdeal(rmap.ring, out)


def realize_action(g):
    """Realize v -> g.v on A^n for an invertible n x n matrix g over W_N(k).

    The returned map substitutes for x[i,j] the j-th Witt component of the
    i-th entry of g.x at the generic point.  For the induced left action on
    ideals, compose with matrix inversion first (see hilbert.act_on_ideal).
    g is invertible exactly when its residue matrix over k is, since the first
    Witt coordinate W_N(k) -> k is a ring map.
    """
    if not mat_det([[x.coords[0] for x in row] for row in g]).is_unit():
        raise NonUnit("realize_action needs an invertible matrix")
    n = len(g)
    R = witt_poly_ring(g[0][0].ring, g[0][0].length, n)
    unit = [tuple(int(k == l) for k in range(n)) for l in range(n)]
    return realize_poly_map(
        [Polynomial(R, {unit[l]: c for l, c in enumerate(row) if not c.is_zero()}) for row in g]
    )


def parse_witt_map(text, scalar, N):
    """Parse ``"T1*T2-1; T1+T2"`` into polynomials over W_N(scalar).

    The arity is the largest T-index that occurs, at most MAX_ARITY.  Over
    F_q with q > p, ``u`` is the Teichmueller lift of the generator of F_q.
    """
    from .textio import parse_expression

    parts = [part.strip() for part in text.split(";") if part.strip()]
    if not parts:
        raise UsageError("empty map text")
    found = re.findall(r"T([0-9]+)", text)
    # the length test comes first: int() refuses very long digit strings
    if any(len(i) > 4 or int(i) > MAX_ARITY for i in found):
        raise UsageError(f"Witt maps take at most {MAX_ARITY} variables, T1..T{MAX_ARITY}")
    arity = max([1] + [int(i) for i in found])
    R = witt_poly_ring(scalar, N, arity)
    u = R.const(teichmuller(scalar, scalar.gen(), N)) if scalar.e > 1 else None

    def resolve(name, indices):
        var = re.fullmatch(r"T([0-9]+)", name)
        if indices is None and var:
            l = int(var[1])
            if not (1 <= l <= arity):
                raise UsageError(f"variable {name} outside arity {arity}")
            return R.var(l - 1)
        if indices is None and name == "u" and u is not None:
            return u
        raise UsageError(f"unknown symbol {name!r} in Witt polynomial")

    return [parse_expression(R, part, resolve) for part in parts]
