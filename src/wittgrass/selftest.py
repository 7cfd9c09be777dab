"""Self-contained invariant suite behind ``wittgrass selftest``.

Each check is a named callable returning None (pass) or raising; the driver
prints one PASS/FAIL line per property, with the check's duration, and reports
overall success.  Checks run at fixed desk-scale parameters with fixed seeds,
so the verdicts are stable; only the durations vary.
"""

from __future__ import annotations

import os
import random
import tempfile
import time

from .errors import CacheCorrupt, WittgrassError
from .fields import GF
from . import structure
from .greenberg import localized_transition, realize_poly_map, witt_poly_ring
from .grassmann import degeneration_family_ideal, image_check, points_lattice
from .hilbert import (
    GradedIdeal,
    act_on_ideal,
    ambient_ring,
    flat_limit,
    hilbert_function,
    hilbert_function_linalg,
    ideal_I_lambda,
    is_module_stable,
)
from .lattice import (
    WittMatrix,
    classify_cell,
    diag_p_matrix,
    normalize_basis,
    padic_from_witt,
    smith_normal_form,
    witt_cell_table,
    zadic_cell_table,
)
from .rings import RationalFunctionField
from .witt import (
    WittVector,
    frobenius,
    p_shift,
    random_sl,
    verschiebung,
    witt_arith,
    witt_from_int,
    witt_inv,
    witt_random,
)


def _require(ok, detail="check failed"):
    """Raise unless ok: an ``assert`` would vanish under ``python -O``."""
    if not ok:
        raise WittgrassError(str(detail))


def check_ghost_identities():
    for p, N in ((2, 4), (3, 3), (5, 3)):
        for op in ("add", "mul", "neg"):
            levels = structure.solve_levels(p, op, N)
            if not structure.verify_ghost(p, op, levels):
                raise WittgrassError(f"ghost identity failed for p={p} {op}")
            if not structure.check_triangular(levels, op):
                raise WittgrassError(f"triangularity failed for p={p} {op}")


def check_ring_axioms():
    rng = random.Random(11)
    for q in (2, 4, 9):
        F = GF(q)
        for _ in range(60):
            x, y, z = (witt_random(F, 3, rng) for _ in range(3))
            _require((x + y) + z == x + (y + z))
            _require(x * (y + z) == x * y + x * z)
            _require(x * y == y * x)
            _require(x + (-x) == witt_arith("mul", witt_from_int(F, 0, 3), x))


def check_inversion():
    rng = random.Random(12)
    F = GF(9)
    one = witt_from_int(F, 1, 3)
    for _ in range(60):
        a = witt_random(F, 3, rng)
        if not a.is_unit():
            continue
        _require(a * witt_inv(a) == one)
        _require(witt_inv(a) * a == one)


def check_folded_tables():
    """F_4 computes in the Galois ring and F_3 on tables folded into R_3; both
    against the unfolded tables over F_q(t), which is no finite field."""
    rng = random.Random(18)
    for F in (GF(4), GF(3)):
        K = RationalFunctionField(F)

        def lift(v):
            return WittVector(K, tuple(K.const(c) for c in v.coords))

        for _ in range(40):
            x, y = witt_random(F, 3, rng), witt_random(F, 3, rng)
            _require(lift(x + y) == lift(x) + lift(y))
            _require(lift(x * y) == lift(x) * lift(y))
            _require(lift(-x) == -lift(x))
            if x.is_unit():
                _require(lift(witt_inv(x)) == witt_inv(lift(x)))


def check_shift_operators():
    rng = random.Random(13)
    F = GF(4)
    p_const = witt_from_int(F, 2, 3)
    for _ in range(40):
        a = witt_random(F, 3, rng)
        _require(frobenius(verschiebung(a)) == p_const * a)
        _require(p_shift(a) == p_const * a)


def check_realized_determinant():
    rng = random.Random(14)
    F = GF(4)
    R = witt_poly_ring(F, 2, 4)
    det = R.var(0) * R.var(3) - R.var(1) * R.var(2)
    rd = realize_poly_map([det])
    for _ in range(25):
        pts = [witt_random(F, 2, rng) for _ in range(4)]
        _require(rd.apply_point(pts)[0] == pts[0] * pts[3] - pts[1] * pts[2])


def check_transition_composition():
    F = GF(2)
    lt = localized_transition(3, F)
    twice = lt.compose(lt)
    R = witt_poly_ring(F, 3, 1)
    p2 = realize_poly_map([R.from_int(4) * R.var(0)])
    _require(twice.components == p2.components)


def check_snf_reconstruction():
    rng = random.Random(15)
    F = GF(4)
    prec = 6  # working precision >= 2*max exponent + 2
    for _ in range(20):
        k = rng.randrange(0, 3)
        mus = [k, -k]
        u = random_sl(F, 2, 4, rng)
        v = random_sl(F, 2, 4, rng)
        D = diag_p_matrix(F, mus, prec)
        lift = lambda w: padic_from_witt(  # zero-padded lift of W_4 entries
            type(w)(w.ring, w.coords + (F.zero,) * (prec - len(w.coords)))
        )
        U = WittMatrix(F, [[lift(x) for x in row] for row in u])
        V = WittMatrix(F, [[lift(x) for x in row] for row in v])
        A = U.mul(D).mul(V)
        Uo, mu, Vo = smith_normal_form(A)
        _require(list(mu) == mus, (mu, mus))
        recon = Uo.mul(diag_p_matrix(F, mu, prec)).mul(Vo)
        _require(recon.eq_at_precision(A))


def check_perturbation():
    rng = random.Random(16)
    F = GF(2)
    N = 4
    for _ in range(20):
        g = random_sl(F, 2, N, rng)
        M = [[witt_from_int(F, 4, N) * row[0], row[1]] for row in g]
        base = normalize_basis(M, 2, prec=N + 2)
        other = normalize_basis(M, 2, prec=N + 2, pad=lambda i, j, level: F.random(rng))
        _require(classify_cell(base) == classify_cell(other))


def check_hilbert_values():
    F = GF(2)
    I = ideal_I_lambda(F, (1, -1), 3)
    hf = hilbert_function(I, 4)
    _require(hf.values == [1, 1, 2, 2, 5], hf.values)
    _require(hilbert_function_linalg(I, 4).values == [1, 1, 2, 2, 5])


def check_stability_suite():
    F = GF(2)
    I = ideal_I_lambda(F, (1, -1), 3)
    _require(is_module_stable(I))
    ring = ambient_ring(F, 1, 2)
    _require(not is_module_stable(GradedIdeal(ring, 1, 2, [ring.var(1)])))


def check_orbit_invariance():
    rng = random.Random(17)
    F = GF(2)
    I = ideal_I_lambda(F, (1, -1), 3)
    h0 = hilbert_function(I, 6)
    for _ in range(8):
        g = random_sl(F, 2, 3, rng)
        J = act_on_ideal(g, I)
        _require(hilbert_function(J, 6) == h0)
        _require(is_module_stable(J))


def check_flat_limit():
    F = GF(2)
    fam = degeneration_family_ideal(F, 1, -1, N=2)
    limit = flat_limit(fam)
    ring = ambient_ring(F, 2, 2)
    expected = GradedIdeal(
        ring, 2, 2, [ring.var(2), ring.var(0) ** 2]
    )  # x[2,0], x[1,0]^2
    _require(limit == expected)
    _require(is_module_stable(limit))
    # the limit is exact, with no degree bound: x[2,0], x[1,0]^2, x[1,1]^2, x[1,2]^2
    limit = flat_limit(degeneration_family_ideal(F, 2, -2, N=4))
    ring = ambient_ring(F, 2, 4)
    expected = GradedIdeal(ring, 2, 4, [ring.var(4)] + [ring.var(j) ** 2 for j in range(3)])
    _require(limit == expected)
    _require(is_module_stable(limit))


def check_cell_tables():
    wt = witt_cell_table(2, 2, 1)
    zt = zadic_cell_table(2, 2, 1)
    _require(wt.same_counts(zt), (wt, zt))
    _require(wt.counts[(0, 0)] == 1)


def check_points_lattice():
    F = GF(2)
    I = ideal_I_lambda(F, (1, -1), 3)
    lat = points_lattice(I, shift=1)
    _require(lat.cell() == (1, -1))


def check_image_report():
    rep = image_check((1, -1), q=2, samples=6, seed=7)
    _require(set(rep["observed"]) <= {(1, -1), (0, 0)})
    _require(rep["bruhat_ok"])
    _require(rep["standard_fiber_ideals"] >= 2)


def check_cache_roundtrip():
    def read_add(tmp):  # a level is parsed when first read
        return structure.StructurePolynomialTable(2, tmp).levels("add", 3)

    with tempfile.TemporaryDirectory() as tmp:
        levels = structure.solve_levels(2, "add", 3)
        structure.write_cache(
            2, tmp, {"add": levels, "mul": [], "neg": []}
        )
        _require(read_add(tmp) == levels)
        path = os.path.join(tmp, "structure_p2.txt")
        with open(path, "w") as fh:
            fh.write("ADD 0: this is not a polynomial\n")
        try:
            read_add(tmp)
        except CacheCorrupt:
            pass
        else:
            raise WittgrassError("corrupt cache was not detected")
        os.unlink(path)
        regenerated = structure.solve_levels(2, "add", 3)
        _require(regenerated == levels)


CHECKS = [
    ("structure ghost identities (quick grid)", check_ghost_identities),
    ("witt ring axioms", check_ring_axioms),
    ("witt inversion", check_inversion),
    ("folded F_q tables agree with unfolded ones", check_folded_tables),
    ("frobenius/verschiebung vs p", check_shift_operators),
    ("realized determinant evaluation", check_realized_determinant),
    ("localized transition composition", check_transition_composition),
    ("smith normal form reconstruction", check_snf_reconstruction),
    ("padding perturbation invariance", check_perturbation),
    ("hilbert function values", check_hilbert_values),
    ("module stability", check_stability_suite),
    ("orbit invariance of hilbert functions", check_orbit_invariance),
    ("flat limit of the degeneration family", check_flat_limit),
    ("witt vs z-adic cell tables", check_cell_tables),
    ("points-to-lattice classification", check_points_lattice),
    ("image report", check_image_report),
    ("table cache round trip", check_cache_roundtrip),
]

QUICK_SKIP = {
    "smith normal form reconstruction",
    "witt vs z-adic cell tables",
    "image report",
}


def run_selftest(quick=False, out=print):
    failures = 0
    for name, fn in CHECKS:
        if quick and name in QUICK_SKIP:
            out(f"SKIP {name}")
            continue
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # report and continue
            failures += 1
            out(f"FAIL {name} ({time.perf_counter() - start:.2f} s): {exc}")
        else:
            out(f"PASS {name} ({time.perf_counter() - start:.2f} s)")
    return failures
