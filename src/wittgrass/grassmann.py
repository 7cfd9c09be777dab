"""Grassmannian-level checks: the point-level shadow of the ideal-to-lattice
map, and the image/surjectivity report.

points_lattice enumerates the F_q points of a module-stable subscheme of
W_N^n and lifts the point set to the lattice it spans in the appropriate
window; the set is a submodule exactly when it is as large as that span, so
one count checks closure under the module operations.

ideal_points finds those points by walking the Witt levels, not by testing
all q^(nN) candidates: it extends partial points one level at a time and
keeps those on which the generators of that level vanish.  The ideals are
weighted-homogeneous with deg x[i,j] = p^j, so low-weight generators use only
low levels and prune early.  The guard, POINTS_GUARD, is counted as the walk
goes: a level that would test more candidates than it is refused, because
the work depends on how many partial points survive, which no bound known in
advance measures.
"""

from __future__ import annotations

import itertools
import random

from .errors import NotStable, SizeGuard, UsageError
from .fields import GF
from .greenberg import realize_action
from .hilbert import (
    GradedIdeal,
    act_on_ideal,
    ambient_ring,
    flat_limit,
    ideal_I_lambda,
    is_module_stable,
    var_index,
)
from .lattice import (
    PadicWittNumber,
    bruhat_leq,
    dominant_or_raise,
    lattice_from_columns,
    padic_p_power,
    padic_zero,
)
from .witt import teichmuller, witt_from_int, random_sl

# Candidates the point walk may test at one Witt level: partial points times
# the q^n values of the next level.  It also bounds the point count.
POINTS_GUARD = 1 << 20


def ideal_points(I):
    """The F_q points of V(I) in W_N(F_q)^n, as coordinate tuples in the
    variable order x[1,0], ..., x[1,N-1], x[2,0], ...

    The walk sets one Witt level j at a time for all n vectors, q^n values a
    level, and keeps a partial point only if it satisfies every generator
    whose highest level is j; each generator is checked once all its
    variables are set, so the result is exact for any generating set.
    SizeGuard when a level would test more than POINTS_GUARD candidates.
    """
    field, n, N = I.ring.coeff, I.n, I.N
    buckets = [[] for _ in range(N)]
    for g in I.generators:
        top = max((k % N for m in g.terms for k, e in enumerate(m) if e), default=0)
        buckets[top].append(g)
    values = list(itertools.product(field.elements(), repeat=n))
    partial = [[field.zero] * (n * N)]
    for j, bucket in enumerate(buckets):
        if len(partial) * len(values) > POINTS_GUARD:
            raise SizeGuard(
                f"the point walk would test {len(partial)} x {field.q}^{n} candidates at "
                f"Witt level {j}, beyond the guard {POINTS_GUARD}: lower q = {field.q}, "
                f"n = {n} or N = {N} (grass image takes N = lambda_1 - lambda_n + 1, so "
                "pass a smaller --q or --lambda)"
            )
        extended = []
        for point in partial:
            for level in values:
                cand = point[:]
                cand[j::N] = level
                if all(g.evaluate(cand).is_zero() for g in bucket):
                    extended.append(cand)
        partial = extended
    return [tuple(point) for point in partial]


def points_lattice(I, shift=0):
    """Lattice spanned by the F_q points of V(I) in W_N(F_q)^n, unshifted.

    The points are lifted to the lattice M they generate together with
    p^N W^n, and M is divided by p^shift.  The point set S is a
    W_N(F_q)-submodule exactly when it equals its span M / p^N W^n, which has
    q^(nN - sum a_i) elements for the pivot exponents a_i of M; so
    |S| = q^(nN - sum a_i) is the exact test, and NotStable is raised when it
    fails.
    """
    field = I.ring.coeff
    n, N = I.n, I.N
    points = ideal_points(I)
    # one digit beyond the kernel level N, the deepest pivot the reduction meets
    pad = (field.zero,)
    origin = (field.zero,) * (n * N)
    lifts = {}  # a vector recurs in many points; each distinct one is lifted once
    columns = []
    for coords in points:
        if coords != origin:
            col = []
            for i in range(n):
                v = coords[i * N:(i + 1) * N]
                x = lifts.get(v)
                if x is None:
                    x = lifts[v] = PadicWittNumber(field, 0, v + pad)
                col.append(x)
            columns.append(col)
    for row in range(n):  # the kernel of reduction: p^N W^n
        col = [padic_zero(field, N + 1) for _ in range(n)]
        col[row] = padic_p_power(field, N, N + 1)
        columns.append(col)
    lat = lattice_from_columns(columns, n, shift, field)
    # the pivots of the reduced basis are p^(a_i - shift)
    colength = sum(lat.basis[i, i].val() + shift for i in range(n))
    if len(points) != field.q ** (n * N - colength):
        raise NotStable("the points of V(I) are not a W_N(F_q)-submodule")
    return lat


# ---------------------------------------------------------------------------
# degeneration families as ideals over F_q(t)
# ---------------------------------------------------------------------------

def degeneration_family_ideal(field, e, d, N):
    """Ideal over F_q(t) of the family lattice with columns
    c1 = (p^(e-1-d), 0) and c2 = ([t^2], p) inside W_N^2 (the window -d
    shifted model).

    The matrix h = [[p, -[t^2]], [1, 0]] has the unit determinant [t^2] and
    maps the family lattice onto diag(p^(e-d), 1) W^2, so the lattice is the
    set of x with p x1 - [t^2] x2 in p^(e-d) W: its ideal is the first e - d
    Witt coordinates of that entry of the realized action of h.  This is the
    ideal that eliminating the parametrization (x, y) -> x c1 + y c2 gives:
    both are prime (one the kernel of a map into a polynomial ring, the other
    a linear ideal moved by an automorphism), and both have the same points
    over an algebraic closure of F_q(t).
    """
    if e <= d:
        raise UsageError("family needs e > d")
    from .rings import RationalFunctionField

    K = RationalFunctionField(field)
    t2 = witt_from_int(K, -1, N) * teichmuller(K, K.t_power(2), N)
    h = [[witt_from_int(K, field.p, N), t2], [witt_from_int(K, 1, N), witt_from_int(K, 0, N)]]
    rmap = realize_action(h)
    return GradedIdeal(rmap.ring, 2, N, rmap.components[0][:e - d])


# ---------------------------------------------------------------------------
# the image report
# ---------------------------------------------------------------------------

def image_check(lam, q=2, samples=20, seed=7):
    """Sample the ideal-to-lattice map over the orbit and its degenerations.

    Reports the observed cells of (a) random orbit images of the cocharacter
    ideal and (b) flat limits of the one-parameter families, checks that every
    observed cell is dominance-below lam, and counts distinct module-stable
    ideals that map to the standard lattice.
    """
    dominant_or_raise(lam)
    if samples < 0:
        raise UsageError(f"the number of samples cannot be negative, not {samples}")
    n = len(lam)
    tilde1 = lam[0] - lam[-1]
    big_lambda = -n * lam[-1]
    if big_lambda > 4:
        raise SizeGuard(
            f"image_check is desk scale: --lambda {','.join(map(str, lam))} has "
            f"n*|lambda_n| = {big_lambda}, above the bound 4; pick a --lambda with "
            "n*|lambda_n| <= 4"
        )
    field = GF(q)
    N = tilde1 + 1
    rng = random.Random(seed)
    window = -lam[-1]

    observed = {}
    realized = {}

    def note(cell, how):
        observed[cell] = observed.get(cell, 0) + 1
        realized.setdefault(cell, how)

    I = ideal_I_lambda(field, lam, N)
    if not is_module_stable(I):
        raise NotStable(f"the cocharacter ideal of {lam} is not module-stable")
    base = points_lattice(I, shift=window)
    note(base.cell(), "cocharacter ideal")

    for _ in range(samples):
        g = random_sl(field, n, N, rng)
        lat = points_lattice(act_on_ideal(g, I), shift=window)
        note(lat.cell(), "orbit image")

    stable_to_standard = set()
    # The explicit degeneration family is priced for the smallest cell; for
    # larger cocharacters the report covers the open orbit by sampling only.
    if lam == (1, -1):
        limit = flat_limit(degeneration_family_ideal(field, lam[0], lam[1], N=N))
        candidates = [(limit, "flat limit of the degeneration family")]
        # the boundary ideals x[1,0] + a x[2,0], x[2,0]^p (window 1 data)
        ring = ambient_ring(field, 2, N)
        for a in field.elements():
            g1 = ring.var(var_index(2, N, 1, 0)) + ring.var(
                var_index(2, N, 2, 0)
            ).scale(a)
            g2 = ring.var(var_index(2, N, 2, 0)) ** field.p
            candidates.append((GradedIdeal(ring, 2, N, [g1, g2]), "boundary ideal"))
        for J, how in candidates:
            if not is_module_stable(J):
                continue
            cell = points_lattice(J, shift=window).cell()
            note(cell, how)
            if cell == tuple([0] * n):  # the one lattice of this cell is W^n
                stable_to_standard.add(J)

    bruhat_ok = all(bruhat_leq(cell, lam) for cell in observed)
    return {
        "lambda": list(lam),
        "q": q,
        "seed": seed,
        "samples": samples,
        "observed": {cell: observed[cell] for cell in sorted(observed)},
        "realized": {cell: realized[cell] for cell in sorted(realized)},
        "bruhat_ok": bruhat_ok,
        "standard_fiber_ideals": len(stable_to_standard),
    }
