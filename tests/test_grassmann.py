"""Cell decompositions, the point-level ideal-to-lattice map, image reports."""

import itertools
import random

import pytest

from wittgrass.errors import NotStable, SizeGuard, UsageError
from wittgrass.fields import GF
from wittgrass import grassmann
from wittgrass.grassmann import (
    degeneration_family_ideal,
    ideal_points,
    image_check,
    points_lattice,
)
from wittgrass.groebner import buchberger
from wittgrass.hilbert import (
    GradedIdeal,
    act_on_ideal,
    ambient_ring,
    family_ring,
    flat_limit,
    hilbert_function,
    ideal_I_lambda,
    is_module_stable,
)
from wittgrass import zadic
from wittgrass.lattice import Lattice, diag_p_matrix, witt_cell_table, zadic_cell_table
from wittgrass.poly import PolyRing
from wittgrass.rings import RationalFunctionField
from wittgrass.witt import WittVector, random_sl, teichmuller, witt_from_int
from wittgrass.zadic import zadic_oracle

F2 = GF(2)
F4 = GF(4)


def diagonal_lattice(field, lam, prec=6):
    """The lattice with basis diag(p^lam_1, ..., p^lam_n)."""
    return Lattice(diag_p_matrix(field, lam, prec))


# -- points_lattice -------------------------------------------------------------

def test_zero_ideal_gives_standard_lattice():
    R = ambient_ring(F2, 2, 2)
    I = GradedIdeal(R, 2, 2, [])
    lat = points_lattice(I, shift=0)
    assert lat.cell() == (0, 0)
    assert lat == diagonal_lattice(F2, (0, 0))


def test_cocharacter_ideal_maps_to_its_diagonal_lattice():
    I = ideal_I_lambda(F2, (1, -1), 3)
    lat = points_lattice(I, shift=1)
    assert lat.cell() == (1, -1)
    assert lat == diagonal_lattice(F2, (1, -1))


def test_points_lattice_spans_only_the_points_and_the_kernel():
    # at shift 0 the points of I_(1,-1) span p^2 W + W, not all of W^2
    assert points_lattice(ideal_I_lambda(F2, (1, -1), 3), shift=0).cell() == (2, 0)
    I = ideal_I_lambda(F2, (2, -1, -1), 4)
    lat = points_lattice(I, shift=1)
    assert lat.cell() == (2, -1, -1)


def test_swapped_coordinate_ideal_same_cell_other_lattice():
    R = ambient_ring(F2, 2, 2)
    I = GradedIdeal(R, 2, 2, [R.var(2), R.var(3)])  # second block killed
    lat = points_lattice(I, shift=1)
    assert lat.cell() == (1, -1)
    assert lat != diagonal_lattice(F2, (1, -1))


def test_boundary_ideals_map_to_standard_over_f4():
    R = ambient_ring(F4, 2, 2)
    expected = diagonal_lattice(F4, (0, 0))
    for a in F4.elements():
        J = GradedIdeal(R, 2, 2, [R.var(0) + R.var(2).scale(a), R.var(2) ** 2])
        lat = points_lattice(J, shift=1)
        assert lat.cell() == (0, 0)
        assert lat == expected


def test_points_lattice_rejects_unstable():
    R = ambient_ring(F2, 1, 2)
    bad = GradedIdeal(R, 1, 2, [R.var(1)])
    with pytest.raises(NotStable):
        points_lattice(bad, shift=0)


def brute_force_points(I):
    """The oracle for ideal_points: every one of the q^(nN) candidate points,
    tested against every generator."""
    field, n, N = I.ring.coeff, I.n, I.N
    return [
        coords
        for coords in itertools.product(field.elements(), repeat=n * N)
        if all(g.evaluate(list(coords)).is_zero() for g in I.generators)
    ]


def _is_submodule(I):
    """Brute-force reference: the F_q points of V(I) are nonempty and closed
    under Witt addition and the W_N(F_q) scalar action."""
    field, n, N = I.ring.coeff, I.n, I.N
    points = {
        tuple(WittVector(field, c[i * N:(i + 1) * N]) for i in range(n))
        for c in brute_force_points(I)
    }
    scalars = [WittVector(field, c) for c in itertools.product(field.elements(), repeat=N)]
    return (
        bool(points)
        and all(tuple(x + y for x, y in zip(a, b)) in points for a in points for b in points)
        and all(tuple(s * x for x in a) in points for s in scalars for a in points)
    )


def _closure_cases():
    """(ideal, whether its points form a submodule) over several (q, n, N)."""
    cases = []
    for field in (F2, GF(3), F4):
        R = ambient_ring(field, 1, 2)
        x0, x1 = R.var(0), R.var(1)
        cases += [
            # points 0 and T(F_q); over F_2, (1,0) + (1,0) = (0,1)
            (GradedIdeal(R, 1, 2, [x1]), False),
            (GradedIdeal(R, 1, 2, [x0]), True),  # pW
            (GradedIdeal(R, 1, 2, [x0 ** field.p - x1]), False),
        ]
    R = ambient_ring(F2, 2, 2)
    x = [R.var(k) for k in range(4)]  # x[1,0], x[1,1], x[2,0], x[2,1]
    cases += [
        (GradedIdeal(R, 2, 2, []), True),
        (GradedIdeal(R, 2, 2, [x[2], x[3]]), True),
        (GradedIdeal(R, 2, 2, [x[0] + x[2]]), True),  # u = v mod p
        (GradedIdeal(R, 2, 2, [x[0] * x[2]]), False),  # union of two submodules
        (GradedIdeal(R, 2, 2, [x[1], x[3]]), False),
    ]
    rng = random.Random(11)
    for field in (F2, GF(3)):
        I = ideal_I_lambda(field, (1, -1), 3)
        cases += [(I, True), (act_on_ideal(random_sl(field, 2, 3, rng), I), True)]
    return cases


def test_points_lattice_count_matches_brute_force_closure():
    for I, closed in _closure_cases():
        assert _is_submodule(I) is closed, I
        if closed:
            points_lattice(I, shift=0)
        else:
            with pytest.raises(NotStable):
                points_lattice(I, shift=0)


def test_points_guard_names_the_parameters_to_lower():
    I = GradedIdeal(ambient_ring(F2, 3, 7), 3, 7, [])
    with pytest.raises(SizeGuard, match="lower q = 2, n = 3 or N = 7") as exc:
        points_lattice(I, shift=0)
    assert "--q" in str(exc.value) and "--lambda" in str(exc.value)


def _assert_walk_is_brute_force(I):
    walked = ideal_points(I)
    assert len(set(walked)) == len(walked)
    assert set(walked) == set(brute_force_points(I))


def _image_or_not_stable(I, shift):
    try:
        return points_lattice(I, shift=shift)
    except NotStable:
        return NotStable


def _walk_cases(lam, q):
    """The cocharacter ideal of lam over F_q and two of its orbit images."""
    field, N = GF(q), lam[0] - lam[-1] + 1
    rng = random.Random(q)
    I = ideal_I_lambda(field, lam, N)
    return [I] + [act_on_ideal(random_sl(field, len(lam), N, rng), I) for _ in range(2)]


@pytest.mark.parametrize("lam, q", [
    ((1, -1), 2), ((1, -1), 3), ((1, -1), 4), ((1, -1), 5), ((2, -2), 2), ((1, 0, -1), 2),
])
def test_level_walk_matches_brute_force_on_orbit_images(monkeypatch, lam, q):
    ideals = _walk_cases(lam, q)
    for I in ideals:
        _assert_walk_is_brute_force(I)
    images = [_image_or_not_stable(I, -lam[-1]) for I in ideals]
    monkeypatch.setattr(grassmann, "ideal_points", brute_force_points)
    assert images == [_image_or_not_stable(I, -lam[-1]) for I in ideals]


def test_level_walk_matches_brute_force_on_non_closed_ideals(monkeypatch):
    ideals = [I for I, closed in _closure_cases() if not closed]
    for I in ideals:
        _assert_walk_is_brute_force(I)
    assert all(_image_or_not_stable(I, 0) is NotStable for I in ideals)
    monkeypatch.setattr(grassmann, "ideal_points", brute_force_points)
    assert all(_image_or_not_stable(I, 0) is NotStable for I in ideals)


def test_the_guard_counts_the_walk_not_the_candidates():
    # q^(nN) = 4^12 candidates, far past the guard, but the walk tests 16 per
    # level: only x[1,5] is free, so the points are p^5 T(F_4) x {0}
    R = ambient_ring(F4, 2, 6)
    I = GradedIdeal(R, 2, 6, [R.var(k) for k in range(12) if k != 5])
    assert F4.q ** (2 * 6) > grassmann.POINTS_GUARD
    assert len(ideal_points(I)) == 4
    assert points_lattice(I, shift=0).cell() == (6, 5)


# -- cell tables ------------------------------------------------------------------

def test_tables_window_zero():
    wt = witt_cell_table(2, 2, 0)
    assert wt.counts == {(0, 0): 1}
    assert zadic_oracle(2, 2, 0) == {(0, 0): 1}


@pytest.mark.parametrize("q", [2, 3])
def test_witt_and_zadic_tables_agree(q):
    wt = witt_cell_table(2, q, 1)
    zt = zadic_cell_table(2, q, 1)
    assert wt.same_counts(zt)
    assert set(wt.counts) == {(0, 0), (1, -1)}
    assert wt.counts[(0, 0)] == 1
    assert wt.counts[(1, -1)] == q * q + q
    assert wt.total == zt.total


def test_zadic_rejects_prime_powers():
    with pytest.raises(UsageError):
        zadic_oracle(2, 4, 1)


def test_zadic_guard():
    with pytest.raises(SizeGuard):
        zadic_oracle(3, 5, 2)


def test_zadic_guard_fires_before_any_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("elementary divisors computed before the guard")

    monkeypatch.setattr(zadic, "_elementary_divisors", refuse)
    with pytest.raises(SizeGuard, match="lower the window, n or q"):
        zadic_oracle(3, 5, 2)


def submodule_cells(n, q, window):
    """Cell counts by brute force: breadth-first search over every submodule S
    of (F_q[z]/z^P)^n, P = 2*window, for prime q.  S is special iff
    |S| = q^(n*window); its elementary divisors mu come from the sizes
    |z^k S| = q^(sum_i max(0, P - mu_i - k)), with no pivoting."""
    P = 2 * window
    zero = (0,) * (n * P)  # entry i, coefficient of z^k at index i*P + k

    def add(a, b):
        return tuple((x + y) % q for x, y in zip(a, b))

    def times_z(v):
        return tuple(0 if k % P == 0 else v[k - 1] for k in range(n * P))

    def log_q(size):
        e = 0
        while size > 1:
            size //= q
            e += 1
        return e

    def span(S, v):
        out = set(S)
        while v != zero:
            multiples = [zero]
            for _ in range(q - 1):
                multiples.append(add(multiples[-1], v))
            out = {add(s, m) for s in out for m in multiples}
            v = times_z(v)
        return frozenset(out)

    vectors = list(itertools.product(range(q), repeat=n * P))
    start = frozenset([zero])
    seen, queue, counts = {start}, [start], {}
    while queue:
        S = queue.pop()
        for v in vectors:
            if v not in S:
                T = span(S, v)
                if T not in seen:
                    seen.add(T)
                    queue.append(T)
        if log_q(len(S)) != n * window:
            continue
        dims, image = [], S
        for _ in range(P + 1):
            dims.append(log_q(len(image)))
            image = {times_z(v) for v in image}
        # dims[k] - dims[k+1] rows have mu_i < P - k
        below = [0] + [dims[P - m] - dims[P - m + 1] for m in range(1, P + 1)] + [n]
        mu = [m for m in range(P, -1, -1) for _ in range(below[m + 1] - below[m])]
        cell = tuple(m - window for m in mu)
        counts[cell] = counts.get(cell, 0) + 1
    return counts


@pytest.mark.parametrize("n,q,window", [(2, 2, 1), (2, 3, 1), (3, 2, 1)])
def test_zadic_oracle_matches_submodule_search(n, q, window):
    assert zadic_oracle(n, q, window) == submodule_cells(n, q, window)


# -- non-injectivity ---------------------------------------------------------------

def test_distinct_stable_ideals_over_standard_lattice():
    R = ambient_ring(F2, 2, 2)
    witnesses = []
    for a in F2.elements():
        witnesses.append(
            GradedIdeal(R, 2, 2, [R.var(0) + R.var(2).scale(a), R.var(2) ** 2])
        )
    witnesses.append(GradedIdeal(R, 2, 2, [R.var(2), R.var(0) ** 2]))
    keys = set()
    h = hilbert_function(witnesses[0], 8)
    for J in witnesses:
        assert is_module_stable(J)
        assert hilbert_function(J, 8) == h
        lat = points_lattice(J, shift=1)
        assert lat.cell() == (0, 0)
        keys.add(lat.canonical_key())
    assert len(keys) == 1  # one lattice downstairs
    assert len({J for J in witnesses}) == 3  # several ideals upstairs


# -- the degeneration family and the image report ------------------------------------

def test_family_ideal_generators():
    fam = degeneration_family_ideal(F2, 1, -1, N=2)
    K = fam.ring
    KK = K.coeff
    t4 = K.const(KK.t_power(4))
    assert fam == GradedIdeal(
        K, 2, 2, [K.var(2), K.var(0) ** 2 + t4 * K.var(3)]
    )


def eliminated_family_ideal(field, e, d, N):
    """The family ideal by elimination, the reference for the builder: the
    span of the columns c1 = (p^(e-1-d), 0) and c2 = ([t^2], p) is the image
    of (w1, w2) -> w1 c1 + w2 c2, and a block order eliminating the w's
    projects the graph ideal onto the coordinate block."""
    K = RationalFunctionField(field)
    p = field.p
    nparams = 2 * N
    names = tuple(f"w[{l},{j}]" for l in range(1, 3) for j in range(N))
    names += tuple(f"x[{i},{j}]" for i in range(1, 3) for j in range(N))
    weights = tuple(p**j for _ in range(2) for j in range(N)) * 2
    elim = PolyRing(K, names, weights, order=("elim", nparams))
    w1, w2 = (WittVector(elim, [elim.var(l * N + j) for j in range(N)]) for l in range(2))
    t2 = teichmuller(elim, elim.const(K.t_power(2)), N)
    v1 = witt_from_int(elim, p ** (e - 1 - d), N) * w1 + t2 * w2
    v2 = witt_from_int(elim, p, N) * w2
    graph = [
        elim.var(nparams + i * N + j) - v.coords[j]
        for i, v in enumerate((v1, v2))
        for j in range(N)
    ]
    fam = family_ring(field, 2, N)
    to_x = [fam.zero] * nparams + [fam.var(k) for k in range(2 * N)]
    coordinate_only = [g for g in buchberger(graph) if not any(any(m[:nparams]) for m in g.terms)]
    return GradedIdeal(fam, 2, N, [g.map_into(fam, to_x) for g in coordinate_only])


# (e, d, N, q): (1,-1) over several fields and lengths, (2,-2), and two with e - d > N
FAMILY_GRID = [(1, -1, 3, q) for q in (2, 3, 4, 5, 9)] + [
    (1, -1, 2, 2), (1, -1, 4, 2), (2, -2, 4, 2), (2, -2, 5, 3), (2, -1, 2, 2), (3, -2, 4, 2),
]


@pytest.mark.parametrize("e, d, N, q", FAMILY_GRID)
def test_family_ideal_matches_the_elimination(e, d, N, q):
    field = GF(q)
    fam = degeneration_family_ideal(field, e, d, N)
    reference = eliminated_family_ideal(field, e, d, N)
    assert fam == reference
    assert flat_limit(fam).generators == flat_limit(reference).generators


def test_family_flat_limit_reaches_lower_cell():
    fam = degeneration_family_ideal(F2, 1, -1, N=2)
    limit = flat_limit(fam)
    lat = points_lattice(limit, shift=1)
    assert lat.cell() == (0, 0)


def test_flat_limit_of_the_2_2_family_is_exact():
    limit = flat_limit(degeneration_family_ideal(F2, 2, -2, N=4))
    R = ambient_ring(F2, 2, 4)
    # x[2,0], x[1,0]^2, x[1,1]^2, x[1,2]^2
    assert limit == GradedIdeal(R, 2, 4, [R.var(4)] + [R.var(j) ** 2 for j in range(3)])
    assert is_module_stable(limit)


def test_image_check_trivial_cell():
    rep = image_check((0, 0), q=2, samples=4, seed=1)
    assert set(rep["observed"]) == {(0, 0)}
    assert rep["bruhat_ok"]


def test_image_check_minuscule():
    rep = image_check((1, -1), q=2, samples=12, seed=7)
    assert set(rep["observed"]) == {(1, -1), (0, 0)}
    assert rep["bruhat_ok"]
    assert rep["standard_fiber_ideals"] >= 2
    assert (1, -1) in rep["realized"] and (0, 0) in rep["realized"]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_image_check_finds_the_whole_standard_fiber_of_1_1(q):
    # the flat limit of the family and the q boundary ideals: q + 1 distinct
    # stable ideals, each mapping to the standard lattice
    rep = image_check((1, -1), q=q, samples=2)
    assert rep["standard_fiber_ideals"] == q + 1
    assert rep["observed"][(0, 0)] == q + 1


def test_image_check_bigger_cell_subset():
    rep = image_check((2, -2), q=2, samples=5, seed=2)
    assert set(rep["observed"]) <= {(2, -2), (1, -1), (0, 0)}
    assert rep["bruhat_ok"]


@pytest.mark.parametrize("lam, size", [((3, -3), 6), ((2, 1, -3), 9)])
def test_image_check_guard_names_lambda_and_bound(lam, size):
    text = ",".join(map(str, lam))
    with pytest.raises(SizeGuard, match=rf"--lambda {text} has n\*\|lambda_n\| = {size}, above the bound 4"):
        image_check(lam, q=2, samples=0)


def test_image_check_determinism():
    a = image_check((1, -1), q=2, samples=6, seed=3)
    b = image_check((1, -1), q=2, samples=6, seed=3)
    assert a == b


def test_orbit_images_stay_in_cell():
    rng = random.Random(40)
    I = ideal_I_lambda(F2, (1, -1), 3)
    for _ in range(10):
        g = random_sl(F2, 2, 3, rng)
        lat = points_lattice(act_on_ideal(g, I), shift=1)
        assert lat.cell() == (1, -1)
