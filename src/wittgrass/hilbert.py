"""Graded ideals for the p-power weighted module grading, and their invariants.

The ambient ring is k[x[i,j] : 1 <= i <= n, 0 <= j < N] with deg x[i,j] = p^j,
the grading that makes the realized W_N-module operations on affine nN-space
graded.  This module owns multigraded Hilbert functions, the submodule-scheme
stability test, the realized group action on ideals, and flat limits of
one-parameter families.  It borrows the rest: Groebner bases from
``groebner``, and the comorphisms of the module operations from ordinary Witt
arithmetic on generic vectors (``greenberg.generic_vectors``).

Flat limits are exact: the limit at t = 0 of a family J over F_q(t) is the
saturation J : t^inf with t set to 0, read off one Groebner basis in which
1 - s*t is adjoined and s eliminated.  The limit Hilbert function equals the
generic one, which the tests cross-check two independent ways:
``hilbert_function`` counts the standard monomials of the leading-term ideal
from its Hilbert series, without listing them, and ``hilbert_function_linalg``
takes ranks of the degree slices, with no Groebner basis.  One slice builder and one elimination pass make that
rank-based reference.

Loading this module loads only the Groebner stack (groebner, poly); greenberg,
witt and rings are imported by the functions that use them, so a Hilbert
function costs no Witt arithmetic to load.
"""

from __future__ import annotations

from .errors import UsageError, WindowTooSmall, dominant_or_raise
from .groebner import buchberger, ideal_contains, ideal_equal
from .poly import PolyRing, Polynomial, coord_ring


def __getattr__(name):
    # realize_action is read by perfbench's test_tracer_wraps_every_importing_module
    # (ROADMAP item 1); resolved here so that hilbert does not load greenberg
    if name == "realize_action":
        from .greenberg import realize_action

        return realize_action
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ambient_ring(field, n, N):
    return coord_ring(field, n, N)


def var_index(n, N, i, j):
    """Index of x[i,j] (i is 1-based as displayed, j is the Witt level)."""
    if not (1 <= i <= n and 0 <= j < N):
        raise UsageError(f"x[{i},{j}] outside the ambient {n} x {N} grid")
    return (i - 1) * N + j


class GradedIdeal:
    """Homogeneous ideal in the weighted coordinate ring of W_N^n."""

    def __init__(self, ring, n, N, generators):
        self.ring = ring
        self.n = n
        self.N = N
        self.generators = [g for g in generators if not g.is_zero()]
        for g in self.generators:
            if not g.is_homogeneous():
                raise UsageError(f"generator {g!r} is not homogeneous for the grading")
        self._gb = None

    @property
    def p(self):
        return self.ring.coeff.p

    def basis(self):
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    def __eq__(self, other):
        return (
            isinstance(other, GradedIdeal)
            and self.ring is other.ring
            and ideal_equal(self.basis(), other.basis())
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.basis())))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"<ideal ({gens})>"


def ideal_for_window(field, lam, N, window):
    """Ideal of the lattice diag(p^(lam_i + window)) W^n inside W_N^n.

    Generators x[i,j] for j < lam_i + window; requires lam_i + window >= 0 and
    N >= max exponent.
    """
    n = len(lam)
    exps = [l + window for l in lam]
    if any(e < 0 for e in exps):
        raise WindowTooSmall(f"window {window} too small for {lam}")
    if N < max(exps):
        raise WindowTooSmall(f"length {N} cannot hold exponents {exps}")
    ring = ambient_ring(field, n, N)
    gens = [
        ring.var(var_index(n, N, i, j))
        for i in range(1, n + 1)
        for j in range(exps[i - 1])
    ]
    return GradedIdeal(ring, n, N, gens)


def ideal_I_lambda(field, lam, N, allow_tight_window=False):
    """The coordinate ideal of the cocharacter lattice at its natural window.

    Kills x[i,j] for j < lam_i - lam_n.  The truncation must satisfy
    N > lam_1 - lam_n; pass allow_tight_window=True to permit equality, which
    kills every level of the first coordinate block.
    """
    dominant_or_raise(lam)
    tilde1 = lam[0] - lam[-1]
    least = tilde1 if allow_tight_window else tilde1 + 1
    if N < least:
        tight = "" if allow_tight_window else f", or {tilde1} with --tight"
        raise WindowTooSmall(
            f"truncation length --N {N} is too small for cocharacter {lam}: "
            f"the least --N is {least}{tight}"
        )
    return ideal_for_window(field, lam, N, -lam[-1])


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def monomials_of_weight(ring, a):
    """All exponent tuples of weighted degree exactly a."""
    weights = ring.weights
    nvars = len(weights)
    out = []
    exps = [0] * nvars

    def rec(idx, rem):
        if idx == nvars:
            if rem == 0:
                out.append(tuple(exps))
            return
        w = weights[idx]
        if idx == nvars - 1:
            if rem % w == 0:
                exps[idx] = rem // w
                out.append(tuple(exps))
                exps[idx] = 0
            return
        for e in range(rem // w + 1):
            exps[idx] = e
            rec(idx + 1, rem - e * w)
        exps[idx] = 0

    rec(0, a)
    return out


def default_bound(p, N):
    return 4 * p ** (N - 1)


class HilbertFunction:
    """Degree-indexed ranks h(0..bound) of the graded quotient."""

    def __init__(self, values):
        self.values = list(values)

    def __getitem__(self, a):
        return self.values[a]

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return isinstance(other, HilbertFunction) and self.values == other.values

    def __repr__(self):
        return ",".join(str(v) for v in self.values)


def hilbert_function(I, bound):
    """h(a) = number of weight-a monomials outside the leading-term ideal.

    Counted, not listed: the Hilbert series of the leading-term ideal is
    K(t) / prod_w (1 - t^w) over the variable weights w, with the numerator
    K from ``_numerator``; dividing by each 1 - t^w is a running prefix sum.
    """
    weights = I.ring.weights
    h = _numerator([g.lm() for g in I.basis()], weights, bound)
    for w in weights:
        for a in range(w, bound + 1):
            h[a] += h[a - w]
    return HilbertFunction(h)


def _numerator(monomials, weights, bound):
    """Coefficients 0..bound of the numerator K(t) of the Hilbert series of
    k[x] modulo the monomial ideal generated by ``monomials``.

    Colon recursion (Bayer-Stillman): K(M) = K(M') - t^deg(m) K(M' : m) with
    M' = M without m.  A generator coprime to all the others only contributes
    the factor 1 - t^deg(m), so no ideal means K = 1, and the constant
    monomial (coprime to everything, degree 0) gives K = 0.  Generators of
    degree above the bound cannot change the coefficients kept.
    """
    def deg(m):
        return sum(e * w for e, w in zip(m, weights))

    gens = sorted({m for m in monomials if deg(m) <= bound})
    gens = [
        m for m in gens
        if not any(g != m and all(x <= y for x, y in zip(g, m)) for g in gens)
    ]
    supports = [{i for i, e in enumerate(m) if e} for m in gens]
    tangled = [
        m for m, s in zip(gens, supports)
        if any(o is not s and s & o for o in supports)
    ]
    if tangled:
        # splitting on the heaviest generator leaves the shortest colon series
        m = max(tangled, key=deg)
        rest = [g for g in tangled if g != m]
        d = deg(m)
        K = _numerator(rest, weights, bound)
        colon = [tuple(max(x - y, 0) for x, y in zip(g, m)) for g in rest]
        for a, c in enumerate(_numerator(colon, weights, bound - d)):
            K[a + d] -= c
    else:
        K = [1] + [0] * bound
    for m in gens:
        if m not in tangled:
            d = deg(m)
            for a in range(bound, d - 1, -1):
                K[a] -= K[a - d]
    return K


def hilbert_function_linalg(I, bound):
    """Rank-based Hilbert function, independent of any Groebner computation.

    The degree-a piece of the ideal is spanned by monomial multiples of the
    generators; h(a) is the slice dimension minus the rank of that span.
    """
    values = []
    for a in range(bound + 1):
        monos, rows = _slice_rows(I, a)
        values.append(len(monos) - len(_independent(rows)))
    return HilbertFunction(values)


def _slice_rows(I, a):
    """The weight-a monomials, and the monomial multiples of the generators
    that land in weight a as coefficient rows in that monomial basis."""
    zero = I.ring.coeff.zero
    monos = monomials_of_weight(I.ring, a)
    pos = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in I.generators:
        d = g.wdeg()
        if d > a:
            continue
        for m in monomials_of_weight(I.ring, a - d):
            vec = [zero] * len(monos)
            for gm, c in g.terms.items():
                k = pos[tuple(x + y for x, y in zip(m, gm))]
                vec[k] = vec[k] + c
            rows.append(vec)
    return monos, rows


def _independent(rows):
    """The rows, in order, that are independent of the rows kept before them;
    one incremental echelon pass.

    Each echelon row is zero at the pivots of the rows before it, so reducing
    a candidate against the echelon rows in order clears every pivot.
    """
    echelon = []  # (pivot column, row scaled to 1 at the pivot)

    def absorb(row):
        vec = list(row)
        for col, ech in echelon:
            c = vec[col]
            if not c.is_zero():
                vec = [x - c * y for x, y in zip(vec, ech)]
        col = next((k for k, x in enumerate(vec) if not x.is_zero()), None)
        if col is None:
            return False
        inv = vec[col].inv()
        echelon.append((col, [x * inv for x in vec]))
        return True

    return [row for row in rows if absorb(row)]


# ---------------------------------------------------------------------------
# module stability (the lattice-scheme condition)
# ---------------------------------------------------------------------------

def _coords(vectors):
    return [c for v in vectors for c in v.coords]


def _lands_in(gens, ring, images, gb):
    """Does every generator, its variables sent to ``images``, lie in (gb)?"""
    return all(ideal_contains(gb, g.map_into(ring, images)) for g in gens)


def is_module_stable(I):
    """Is V(I) stable under the realized W_N-module operations?

    The comorphisms are Witt arithmetic on generic vectors, whose coordinates
    are polynomial variables (``greenberg.generic_vectors``, the point at which
    ``greenberg.realize_poly_map`` evaluates a Witt map).  Checks, for every
    generator: the addition comorphism (y + z) lands in I(y) + I(z) in the
    doubled coordinate ring; the generic-scalar comorphism (s * x) lands in
    the extension of I by the scalar coordinates.  Negation needs no check of
    its own: setting s to the coordinates of -1 in W_N(F_p) maps that
    extension onto I and s * x onto -x, because Witt polynomials commute with
    ring maps.  The zero section is automatic for homogeneous ideals under a
    positive grading.
    """
    from .greenberg import generic_vectors

    n, N = I.n, I.N
    field = I.ring.coeff
    gb = I.basis()

    # Groebner bases of ideals in disjoint variable blocks stay Groebner, and
    # so does their union (coprime leading terms).
    doubled, yz = generic_vectors(field, 2 * n, N)
    ys, zs = yz[:n], yz[n:]
    doubled_gb = [g.map_into(doubled, _coords(ys)) for g in gb]
    doubled_gb += [g.map_into(doubled, _coords(zs)) for g in gb]
    sums = _coords(y + z for y, z in zip(ys, zs))
    if not _lands_in(I.generators, doubled, sums, doubled_gb):
        return False

    # extension of I: the lifted basis is still a Groebner basis because the
    # scalar block sits in front and the order restricts to the old one
    scal, sx = generic_vectors(field, n + 1, N)
    s, xs = sx[0], sx[1:]
    scal_gb = [g.map_into(scal, _coords(xs)) for g in gb]
    return _lands_in(I.generators, scal, _coords(s * x for x in xs), scal_gb)


def act_on_ideal(g, I):
    """Left action of g in GL_n(W_N(k)) on the ideal: substitute g^{-1}.x."""
    from .greenberg import realize_action
    from .witt import mat_inv

    ginv = mat_inv(g)
    rmap = realize_action(ginv)
    if rmap.ring is not I.ring:
        raise UsageError("action realized over a different ambient ring")
    images = rmap.flat_components()
    gens = [f.map_into(I.ring, images) for f in I.generators]
    return GradedIdeal(I.ring, I.n, I.N, gens)


# ---------------------------------------------------------------------------
# flat limits of one-parameter families
# ---------------------------------------------------------------------------

def family_ring(field, n, N):
    """Coordinate ring of W_N^n over the rational function field F_q(t)."""
    from .rings import RationalFunctionField

    return coord_ring(RationalFunctionField(field), n, N)


def _cleared(g, st):
    """g times the lcm of its coefficient denominators, in F_q[s, t][x]."""
    from .rings import udivmod, ugcd, umul

    K = g.ring.coeff
    k = K.base
    lcm = (k.one,)
    for c in g.terms.values():
        lcm = umul(k, lcm, udivmod(k, c.den, ugcd(k, lcm, c.den))[0])
    L = K.make(lcm)
    terms = {}
    for m, c in g.terms.items():
        for e, a in enumerate((c * L).num):
            if not a.is_zero():
                terms[(0, e) + m] = a
    return Polynomial(st, terms)


def flat_limit(family):
    """Fiber at t = 0 of the t-saturation of a homogeneous family.

    ``family`` is a GradedIdeal over F_q(t).  Its generators, cleared of
    denominators into F_q[s, t][x], and 1 - s*t have a Groebner basis for an
    order eliminating s; the basis elements free of s generate J : t^inf, and
    setting t = 0 in them gives the limit, returned by its reduced basis.
    """
    n, N = family.n, family.N
    ring = ambient_ring(family.ring.coeff.base, n, N)
    st = PolyRing(ring.coeff, ("s", "t") + ring.names, (1, 1) + ring.weights, ("elim", 1))
    gens = [_cleared(g, st) for g in family.generators]
    gb = buchberger([st.one - st.var(0) * st.var(1)] + gens)
    at_zero = [ring.zero, ring.zero] + [ring.var(k) for k in range(len(ring.names))]
    sat = [g.map_into(ring, at_zero) for g in gb if not any(m[0] for m in g.terms)]
    return GradedIdeal(ring, n, N, buchberger(sat))
