"""Coordinate-wise realization of polynomial data over W_N(k).

A polynomial map P: A^d -> A^e over W_N(k) becomes a polynomial map of affine
k-spaces of dimensions dN and eN: substitute for each Witt-level variable T_l
the generic vector (x[l,0], ..., x[l,N-1]) and read off the Witt components of
the result, each a polynomial over k in the x[l,m].  Those component
polynomials are computed here by running the ordinary Witt arithmetic over the
polynomial coefficient ring k[x[l,m]].

Everything in this module is a pure syntactic transformation; no Groebner
machinery, no normalization beyond sparse canonical form.
"""

from __future__ import annotations

import re

from .errors import NonUnit, NotPerfect, RingMismatch, UsageError
from .poly import PolyRing, parse_expression
from .witt import (
    WittVector,
    mat_det,
    teichmuller,
    witt_from_int,
    witt_one,
    witt_zero,
)


def coord_names(arity, N, letter="x"):
    return tuple(f"{letter}[{i},{j}]" for i in range(1, arity + 1) for j in range(N))


def coord_weights(arity, N, p):
    return tuple(p**j for _ in range(arity) for j in range(N))


def coord_ring(scalar, arity, N, letter="x"):
    """k[x[i,j]] with the module grading deg x[i,j] = p^j."""
    return PolyRing(
        scalar,
        coord_names(arity, N, letter),
        coord_weights(arity, N, scalar.p),
    )


class WittPolynomial:
    """Polynomial in T_1..T_d with constant Witt-vector coefficients."""

    __slots__ = ("scalar", "N", "arity", "terms")

    def __init__(self, scalar, N, arity, terms=None):
        self.scalar = scalar
        self.N = N
        self.arity = arity
        self.terms = dict(terms or {})

    @classmethod
    def variable(cls, scalar, N, arity, l):
        exps = [0] * arity
        exps[l] = 1
        return cls(scalar, N, arity, {tuple(exps): witt_one(scalar, N)})

    @classmethod
    def constant(cls, c, arity):
        if c.is_zero():
            return cls(c.ring, c.length, arity, {})
        return cls(c.ring, c.length, arity, {(0,) * arity: c})

    def _like(self, other):
        if (
            self.scalar is not other.scalar
            or self.N != other.N
            or self.arity != other.arity
        ):
            raise RingMismatch("Witt polynomials from different contexts")

    def __add__(self, other):
        self._like(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return WittPolynomial(self.scalar, self.N, self.arity, out)

    def __neg__(self):
        return WittPolynomial(
            self.scalar, self.N, self.arity, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._like(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return WittPolynomial(self.scalar, self.N, self.arity, out)

    def __pow__(self, n):
        acc = WittPolynomial.constant(witt_one(self.scalar, self.N), self.arity)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def evaluate(self, points):
        """Evaluate at Witt vectors over any ring of the same characteristic."""
        ring = points[0].ring
        N = points[0].length
        acc = witt_zero(ring, N)
        for m, c in self.terms.items():
            term = WittVector(ring, tuple(_lift_coords(c, ring, N)))
            for l, e in enumerate(m):
                for _ in range(e):
                    term = term * points[l]
            acc = acc + term
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            factors = []
            for l, e in enumerate(m):
                if e:
                    nm = f"T{l + 1}"
                    factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors)
            parts.append(f"{c!r}*{body}" if body else repr(c))
        return " + ".join(parts)


def _lift_coords(c, ring, N):
    # lift coefficient coordinates of a constant Witt vector into `ring`
    for coord in c.coords[:N]:
        if coord.is_zero():
            yield ring.zero
        elif hasattr(ring, "const"):
            yield ring.const(coord)
        else:
            yield coord


class RealizedMap:
    """Polynomial map (A_k^N)^d -> (A_k^N)^e given by component polynomials.

    components[i][j] is the (i, j) coordinate polynomial in the source ring
    k[x[l,m] : 1 <= l <= d, 0 <= m < N].
    """

    def __init__(self, ring, source_arity, target_arity, N, components):
        self.ring = ring
        self.source_arity = source_arity
        self.target_arity = target_arity
        self.N = N
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

    def compose(self, inner):
        """self after inner (source of self = target of inner)."""
        if inner.target_arity != self.source_arity or inner.N != self.N:
            raise RingMismatch("maps do not compose")
        images = inner.flat_components()
        comps = [
            [q.map_into(inner.ring, images) for q in row] for row in self.components
        ]
        return RealizedMap(inner.ring, inner.source_arity, self.target_arity, self.N, comps)

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

    def __init__(self, ring, generators, arity, N):
        self.ring = ring
        self.generators = generators
        self.arity = arity
        self.N = N

    def __repr__(self):
        return "\n".join(f"GEN {i}: {g!r}" for i, g in enumerate(self.generators))


def generic_vectors(scalar, arity, N, ring=None):
    """Witt vectors of polynomial variables: the universal point of A^arity."""
    ring = ring or coord_ring(scalar, arity, N)
    vecs = []
    for l in range(arity):
        coords = [ring.var(l * N + m) for m in range(N)]
        vecs.append(WittVector(ring, coords))
    return ring, vecs


def realize_poly_map(polys, N=None):
    """Realize the map A^d -> A^e defined by the given Witt polynomials."""
    if not polys:
        raise UsageError("empty polynomial map")
    scalar = polys[0].scalar
    arity = polys[0].arity
    N = N or polys[0].N
    for P in polys:
        if P.scalar is not scalar or P.arity != arity:
            raise RingMismatch("map components over different contexts")
        if P.N != N:
            raise RingMismatch(f"length mismatch: {P.N} vs {N}")
    ring, vecs = generic_vectors(scalar, arity, N)
    components = []
    for P in polys:
        val = P.evaluate(vecs)
        components.append(list(val.coords))
    return RealizedMap(ring, arity, len(polys), N, components)


def realize_ideal(gens, N=None):
    """All Witt components of all generators; identically-zero ones dropped."""
    rmap = realize_poly_map(gens, N)
    out = [q for q in rmap.flat_components() if not q.is_zero()]
    return RealizedIdeal(rmap.ring, out, rmap.source_arity, rmap.N)


def localized_transition(N, scalar, arity=1):
    """The realized multiplication-by-p on A^arity: x[i,j] -> x[i,j-1]^p.

    As a point map this sends (a_0, ..., a_{N-1}) to (0, a_0^p, ...); it is
    the transition map of the shifted models of W[1/p]-affine space.
    """
    if not scalar.is_perfect:
        raise NotPerfect("localized transition maps need a perfect scalar ring")
    ring = coord_ring(scalar, arity, N)
    p = scalar.p
    comps = []
    for i in range(arity):
        row = [ring.zero]
        for j in range(1, N):
            row.append(ring.var(i * N + (j - 1)) ** p)
        comps.append(row)
    return RealizedMap(ring, arity, arity, N, comps)


def realize_action(g, n=None):
    """Realize v -> g.v on A^n for an invertible matrix g over W_N(k).

    The returned map substitutes for x[i,j] the j-th Witt component of the
    i-th entry of g.x at the generic point.  For the induced left action on
    ideals, compose with matrix inversion first (see hilbert.act_on_ideal).
    """
    n = n or len(g)
    d = mat_det(g)
    if not d.is_unit():
        raise NonUnit("realize_action needs an invertible matrix")
    scalar = g[0][0].ring
    N = g[0][0].length
    polys = []
    for i in range(n):
        P = None
        for l in range(n):
            term = WittPolynomial.constant(g[i][l], n) * WittPolynomial.variable(
                scalar, N, n, l
            )
            P = term if P is None else P + term
        polys.append(P)
    return realize_poly_map(polys, N)


# ---------------------------------------------------------------------------
# parsing Witt polynomial maps (CLI surface)
# ---------------------------------------------------------------------------

class _WittPolyAlgebra:
    def __init__(self, scalar, N, arity):
        self.scalar = scalar
        self.N = N
        self.arity = arity

    def from_int(self, nval):
        return WittPolynomial.constant(
            witt_from_int(self.scalar, nval, self.N), self.arity
        )

    def atom(self, name, indices):
        if indices is None and name.startswith("T") and name[1:].isdigit():
            l = int(name[1:])
            if not (1 <= l <= self.arity):
                raise UsageError(f"variable {name} outside arity {self.arity}")
            return ("var", l - 1)
        if indices is None and name == "u" and self.scalar.e > 1:
            return ("coeff", teichmuller(self.scalar, self.scalar.gen(), self.N))
        raise UsageError(f"unknown symbol {name!r} in Witt polynomial")

    def var(self, l):
        return WittPolynomial.variable(self.scalar, self.N, self.arity, l)

    def const(self, c):
        return WittPolynomial.constant(c, self.arity)

    def pow_coeff(self, c, nval):
        raise UsageError("negative powers are not defined in W_N")


def parse_witt_map(text, scalar, N):
    """Parse ``"T1*T2-1; T1+T2"`` into a list of WittPolynomials.

    The arity is the largest T-index that occurs.
    """
    parts = [part.strip() for part in text.split(";") if part.strip()]
    if not parts:
        raise UsageError("empty map text")
    arity = 1
    for m in re.finditer(r"T(\d+)", text):
        arity = max(arity, int(m.group(1)))
    algebra = _WittPolyAlgebra(scalar, N, arity)
    return [parse_expression(part, algebra) for part in parts]
