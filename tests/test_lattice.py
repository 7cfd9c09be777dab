"""p-adic numbers over F_q, Smith forms, cells, basis normalization, and the
lattice enumeration against closed-form counts, against the two-step
construction it replaced, and under the Frobenius of F_q.

The degeneration family is checked in its ideal form, through its flat
limit, in test_grassmann.py.
"""

import itertools
import random
from fractions import Fraction

import pytest

from wittgrass import lattice, zadic
from wittgrass.errors import (
    DetValuationMismatch,
    NotDominant,
    PrecisionLoss,
    SizeGuard,
    UsageError,
    ZeroAtPrecision,
)
from wittgrass.fields import GF
from wittgrass.grassmann import points_lattice
from wittgrass.hilbert import GradedIdeal, act_on_ideal, ambient_ring, ideal_I_lambda
from wittgrass.lattice import (
    Lattice,
    PadicWittNumber,
    WittMatrix,
    bruhat_leq,
    classify_cell,
    diag_p_matrix,
    enumerate_lattices,
    lattice_from_columns,
    normalize_basis,
    padic_from_witt,
    padic_p_power,
    padic_zero,
    smith_normal_form,
    witt_cell_table,
)
from wittgrass.poly import Polynomial
from wittgrass.witt import random_sl, teichmuller, witt_from_int, witt_inv, witt_random
from wittgrass.zadic import zadic_oracle

F2 = GF(2)
F4 = GF(4)


def lift(field, w, prec):
    return PadicWittNumber(field, 0, w.coords + (field.zero,) * (prec - len(w.coords)))


def one_at(field, k, prec):
    return padic_p_power(field, k, prec)


# -- padic arithmetic -------------------------------------------------------

def test_add_aligns_shifts():
    # p^-1*(1,0,0) + p*(1,0,0) = p^-1*(1,0,1) at p = 2
    x = PadicWittNumber(F2, -1, (F2.one, F2.zero, F2.zero))
    y = PadicWittNumber(F2, 1, (F2.one, F2.zero, F2.zero))
    s = x + y
    assert s.shift == -1
    assert s.mantissa == (F2.one, F2.zero, F2.one)


def test_add_zero_is_identity_at_precision():
    x = PadicWittNumber(F4, 0, (F4.gen(), F4.one, F4.zero))
    z = padic_zero(F4, 5)
    assert (x + z).eq_at_precision(x)


def test_inv_of_shifted_unit():
    u = teichmuller(F4, F4.gen(), 3)
    x = PadicWittNumber(F4, 2, u.coords)
    xi = x.inv()
    assert xi.shift == -2
    assert xi.mantissa == witt_inv(u).coords
    one = one_at(F4, 0, 3)
    assert (x * xi).eq_at_precision(one)


def test_inv_of_zero_raises():
    with pytest.raises(ZeroAtPrecision):
        padic_zero(F2, 4).inv()


def test_far_apart_shifts_leave_one_digit():
    # mixing a deep pole with a high power keeps exactly one provable digit
    x = PadicWittNumber(F2, 5, (F2.one,))
    y = PadicWittNumber(F2, -4, (F2.one,))
    s = x + y
    assert s.shift == -4 and len(s.mantissa) == 1


def test_snf_needs_a_visible_pivot():
    Z = WittMatrix(
        F2,
        [[padic_zero(F2, 3), padic_zero(F2, 3)], [padic_zero(F2, 3), padic_zero(F2, 3)]],
    )
    with pytest.raises(PrecisionLoss):
        smith_normal_form(Z)


def test_split_reduces_digits():
    x = PadicWittNumber(F2, 0, tuple(F2.from_int(v) for v in (1, 1, 1, 0, 1)))
    low, high = x.split(2)
    assert low.mantissa == (F2.one, F2.one)
    recon = low + high.p_times(2)
    assert recon.eq_at_precision(x)


# -- Smith normal form -------------------------------------------------------

def test_snf_diagonal():
    prec = 6
    A = WittMatrix(
        F2,
        [
            [one_at(F2, 1, prec), padic_zero(F2, prec + 2)],
            [padic_zero(F2, prec + 2), one_at(F2, -1, prec)],
        ],
    )
    U, mu, V = smith_normal_form(A)
    assert mu == (1, -1)
    assert U.mul(diag_p_matrix(F2, mu, prec)).mul(V).eq_at_precision(A)


def test_snf_off_diagonal_pole():
    prec = 6
    A = WittMatrix(
        F2,
        [
            [one_at(F2, 0, prec), one_at(F2, -1, prec)],
            [padic_zero(F2, prec + 2), one_at(F2, 0, prec)],
        ],
    )
    U, mu, V = smith_normal_form(A)
    assert mu == (1, -1)
    assert U.mul(diag_p_matrix(F2, mu, prec)).mul(V).eq_at_precision(A)


def test_snf_unit_matrix_with_p_determinant():
    prec = 6
    one = one_at(F2, 0, prec)
    onep = PadicWittNumber(F2, 0, (F2.one, F2.one) + (F2.zero,) * (prec - 2))
    A = WittMatrix(F2, [[one, one], [one, onep]])
    U, mu, V = smith_normal_form(A)
    assert mu == (1, 0)
    assert U.mul(diag_p_matrix(F2, mu, prec)).mul(V).eq_at_precision(A)


def test_snf_invariance_under_integral_multiplication():
    rng = random.Random(20)
    prec = 5
    base = WittMatrix(
        F4,
        [
            [one_at(F4, 1, prec), padic_zero(F4, prec + 2)],
            [padic_zero(F4, prec + 2), one_at(F4, -1, prec)],
        ],
    )
    for _ in range(15):
        u = random_sl(F4, 2, prec, rng)
        v = random_sl(F4, 2, prec, rng)
        U = WittMatrix(F4, [[padic_from_witt(x) for x in row] for row in u])
        V = WittMatrix(F4, [[padic_from_witt(x) for x in row] for row in v])
        A = U.mul(base).mul(V)
        _, mu, _ = smith_normal_form(A)
        assert mu == (1, -1)
        assert classify_cell(A) == (1, -1)


# -- cells, dominance, stabilizer -------------------------------------------

def stabilizes_standard(g):
    """True iff g fixes the standard lattice: all of g, g^{-1} integral."""
    return all(v == 0 for v in classify_cell(g))


def test_classify_identity_and_diag():
    prec = 5
    I = WittMatrix.identity(F2, 2, prec)
    assert classify_cell(I) == (0, 0)
    assert stabilizes_standard(I)
    D = WittMatrix(
        F2,
        [
            [one_at(F2, 1, prec), padic_zero(F2, prec + 2)],
            [padic_zero(F2, prec + 2), one_at(F2, -1, prec)],
        ],
    )
    assert classify_cell(D) == (1, -1)
    assert not stabilizes_standard(D)


def test_random_integral_sl_stabilizes():
    rng = random.Random(21)
    for _ in range(10):
        g = random_sl(F4, 2, 3, rng)
        G = WittMatrix(F4, [[lift(F4, x, 5) for x in row] for row in g])
        assert stabilizes_standard(G)


def test_bruhat_order():
    assert bruhat_leq((0, 0), (1, -1))
    assert bruhat_leq((1, -1), (2, -2))
    assert not bruhat_leq((2, -2), (1, -1))
    assert bruhat_leq((1, 1, -2), (2, 0, -2))
    with pytest.raises(NotDominant):
        bruhat_leq((-1, 1), (1, -1))
    with pytest.raises(NotDominant):
        bruhat_leq((1, 0), (1, -1))


# -- basis normalization ------------------------------------------------------

def test_normalize_basis_diag_example():
    # diag(p^2, 1) over W_3(F_2) at det valuation 2, cell (1,-1) after unshift
    p2 = witt_from_int(F2, 4, 3)
    one = witt_from_int(F2, 1, 3)
    zero = witt_from_int(F2, 0, 3)
    g = normalize_basis([[p2, zero], [zero, one]], 2, prec=5)
    assert classify_cell(g) == (1, -1)


def test_normalize_basis_identity():
    one = witt_from_int(F2, 1, 3)
    zero = witt_from_int(F2, 0, 3)
    g = normalize_basis([[one, zero], [zero, one]], 0, prec=5)
    assert classify_cell(g) == (0, 0)


def test_normalize_basis_rejects_wrong_valuation():
    one = witt_from_int(F2, 1, 3)
    zero = witt_from_int(F2, 0, 3)
    with pytest.raises(DetValuationMismatch):
        normalize_basis([[one, zero], [zero, one]], 2, prec=5)


@pytest.mark.parametrize("p,q,N", [(2, 2, 4), (2, 4, 4), (3, 3, 3)])
def test_padding_independence(p, q, N):
    # two paddings of the same matrix differing at levels >= N classify alike
    rng = random.Random(22)
    F = GF(q)
    pvec = witt_from_int(F, p, N)
    for _ in range(25):
        g = random_sl(F, 2, N, rng)
        M = [[pvec * pvec * row[0], row[1]] for row in g]
        zero_padded = normalize_basis(M, 2, prec=N + 1)
        rand_padded = normalize_basis(
            M, 2, prec=N + 1, pad=lambda i, j, level: F.random(rng)
        )
        assert classify_cell(zero_padded) == classify_cell(rand_padded)


def test_geometric_series_lemma_instance():
    # A with p^k A^{-1} integral, B = A(1 + p^(k+1) E): A^{-1}B integral, det 1
    rng = random.Random(23)
    prec = 6
    for _ in range(10):
        k = 1
        u = random_sl(F2, 2, 5, rng)
        U = WittMatrix(F2, [[lift(F2, x, prec) for x in row] for row in u])
        D = diag_p_matrix(F2, (k, -k), prec)
        A = U.mul(D)
        E = WittMatrix(
            F2,
            [
                [padic_zero(F2, prec), one_at(F2, k, prec)],
                [padic_zero(F2, prec), padic_zero(F2, prec)],
            ],
        )
        pk1E = E.p_times(k + 1)
        B = A.mul(
            WittMatrix(
                F2,
                [
                    [one_at(F2, 0, prec), pk1E.entries[0][1]],
                    [pk1E.entries[1][0], one_at(F2, 0, prec)],
                ],
            )
        )
        # hypothesis: A - B is divisible by p^(k+1)
        for i in range(2):
            for j in range(2):
                diff = A.entries[i][j] - B.entries[i][j]
                assert diff.is_zero() or diff.val() >= k + 1
        assert classify_cell(B) == classify_cell(A)


# -- enumeration --------------------------------------------------------------

def test_enumerate_window_zero():
    out = enumerate_lattices(2, 2, 0)
    assert len(out) == 1
    assert out[0][1] == (0, 0)


def test_enumerate_window_one_q2():
    out = enumerate_lattices(2, 2, 1)
    cells = {}
    for lat, cell in out:
        cells[cell] = cells.get(cell, 0) + 1
    assert cells == {(0, 0): 1, (1, -1): 6}
    # disjointness: all canonical keys distinct
    keys = [lat.canonical_key() for lat, _ in out]
    assert len(set(keys)) == len(keys)
    assert zadic_oracle(2, 2, 1) == cells


def test_enumerate_guard():
    with pytest.raises(SizeGuard):
        enumerate_lattices(3, 5, 2)


@pytest.mark.parametrize("n,window", [(0, 1), (2, -1)])
def test_enumerate_rejects_empty_ranges(n, window):
    with pytest.raises(UsageError):
        enumerate_lattices(n, 2, window)


def macdonald_count(lam, q):
    """|Gr_lam(F_q)| = q^<2rho,lam> W(1/q) / W_lam(1/q) (Macdonald, 1971)."""

    def poincare(m):  # the Poincare polynomial of S_m at 1/q
        out = Fraction(1)
        for k in range(1, m + 1):
            out *= sum(Fraction(1, q**i) for i in range(k))
        return out

    n = len(lam)
    two_rho = sum(lam[i] - lam[j] for i in range(n) for j in range(i + 1, n))
    stabilizer = Fraction(1)
    for v in set(lam):
        stabilizer *= poincare(lam.count(v))
    count = q**two_rho * poincare(n) / stabilizer
    assert count.denominator == 1
    return int(count)


def window_counts(n, q, window):
    return {
        lam: macdonald_count(lam, q)
        for lam in itertools.product(range(window, -window - 1, -1), repeat=n)
        if sum(lam) == 0 and list(lam) == sorted(lam, reverse=True)
    }


def test_macdonald_counts_by_hand():
    assert window_counts(2, 2, 2) == {(0, 0): 1, (1, -1): 6, (2, -2): 24}
    assert macdonald_count((1, 0, -1), 2) == 42


@pytest.mark.parametrize(
    "n,q,window",
    [(2, 2, 1), (2, 4, 1), (3, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 5, 1), (2, 4, 2)],
)
def test_enumeration_matches_closed_form(n, q, window):
    out = enumerate_lattices(n, q, window)
    cells = {}
    for _, cell in out:
        cells[cell] = cells.get(cell, 0) + 1
    assert cells == window_counts(n, q, window)
    assert len({lat.canonical_key() for lat, _ in out}) == len(out)


@pytest.mark.parametrize(
    "n,q,window", [(2, 2, 2), (2, 3, 2), (2, 5, 1), (3, 2, 2), (3, 3, 1)]
)
def test_zadic_oracle_matches_closed_form(n, q, window):
    assert zadic_oracle(n, q, window) == window_counts(n, q, window)


def two_step_enumeration(n, q, window):
    """The special lattices as enumerate_lattices once built them: each
    Hermite form plus the columns of p^(2*window) W^n, brought back to Hermite
    form by lattice_from_columns and kept iff its cell sums to zero."""
    field = GF(q)
    prec = 2 * window + n
    pad = (field.zero,) * prec
    zero = padic_zero(field, prec)
    top = 2 * window
    kernel = [
        [one_at(field, top, prec) if i == j else padic_zero(field, prec + top) for i in range(n)]
        for j in range(n)
    ]
    below = [(i, j) for i in range(n) for j in range(i)]
    out = []
    for exps in lattice._hermite_exponents(n, window):
        pivots = [one_at(field, b, prec - b) for b in exps]
        residues = [
            [PadicWittNumber(field, 0, r + pad[exps[i]:])
             for r in itertools.product(field.elements(), repeat=exps[i])]
            for i, _ in below
        ]
        for entries in itertools.product(*residues):
            cols = [[pivots[j] if i == j else zero for i in range(n)] for j in range(n)]
            for (i, j), x in zip(below, entries):
                cols[j][i] = x
            lat = lattice_from_columns(cols + kernel, n, window, field)
            mu = lat.cell()
            if sum(mu) == 0:
                out.append((lat, mu))
    return out


@pytest.mark.parametrize(
    "n,q,window", [(2, 2, 2), (2, 3, 1), (3, 2, 1), (2, 4, 2), (2, 5, 2), (3, 3, 1), (4, 2, 1)]
)
def test_forms_are_the_two_step_lattices(n, q, window):
    """Each Hermite form taken as its own basis is the lattice that appending
    the kernel columns and reducing again gave, in the same order."""
    out = enumerate_lattices(n, q, window)
    ref = two_step_enumeration(n, q, window)
    assert [lat.canonical_key() for lat, _ in out] == [lat.canonical_key() for lat, _ in ref]
    assert [cell for _, cell in out] == [cell for _, cell in ref]
    assert all(a.basis.eq_at_precision(b.basis) for (a, _), (b, _) in zip(out, ref))


def test_enumeration_past_the_old_precision(monkeypatch):
    """At n = 3, window 3 a Smith exponent of M reaches n*window = 9 = 2*window + n:
    the forms with pivot exponents (1,5,3) and (1,6,2) need one digit more."""

    def hard_forms(n, window):
        assert (n, window) == (3, 3)
        return iter([(1, 5, 3), (1, 6, 2)])

    monkeypatch.setattr(lattice, "_hermite_exponents", hard_forms)
    monkeypatch.setattr(zadic, "_hermite_exponents", hard_forms)
    assert witt_cell_table(3, 2, 3).counts == zadic_oracle(3, 2, 3)


def frobenius(lat, window):
    """sigma(L): every Witt coordinate of every basis entry raised to the p-th
    power, the basis rebuilt by lattice_from_columns."""
    ring, n = lat.basis.ring, lat.n
    ents = lat.basis.entries

    def sigma(x):
        return PadicWittNumber(ring, x.shift, [c**ring.p for c in x.mantissa])

    cols = [[sigma(ents[i][j]).p_times(window) for i in range(n)] for j in range(n)]
    return lattice_from_columns(cols, n, window, ring)


def base_change(lat, field):
    """An F_p lattice read over W(F_q) along GF(p) in GF(q)."""
    return Lattice(WittMatrix(field, [
        [PadicWittNumber(field, x.shift, [field.from_int(c.val[0]) for c in x.mantissa])
         for x in row]
        for row in lat.basis.entries
    ]))


@pytest.mark.parametrize(
    "n,q,window", [(2, 4, 1), (2, 8, 1), (2, 9, 1), (2, 25, 1), (2, 4, 2), (3, 4, 1)]
)
def test_galois_descent_on_the_enumeration(n, q, window):
    """Frobenius permutes each cell, and the lattices it fixes are exactly
    the F_p lattices of the window after base change."""
    field = GF(q)
    out = enumerate_lattices(n, q, window)
    cells = {lat.canonical_key(): cell for lat, cell in out}
    fixed = set()
    images = set()
    for lat, cell in out:
        image = frobenius(lat, window)
        key = image.canonical_key()
        assert cells[key] == cell == image.cell()
        images.add(key)
        if key == lat.canonical_key():
            fixed.add(key)
    assert images == set(cells)
    prime = {base_change(lat, field).canonical_key() for lat, _ in enumerate_lattices(n, field.p, window)}
    assert fixed == prime


# N = 2 is the tight window of (1,-1): it keeps the F_8, F_9 and F_25 point
# lists at q^4 candidates (q^6 at N = 3)
@pytest.mark.parametrize("q,N", [(4, 3), (8, 2), (9, 2), (25, 2)])
def test_points_lattice_is_frobenius_equivariant(q, N):
    """points_lattice(sigma(I)) = sigma(points_lattice(I)) on orbit images of
    I_(1,-1), sigma acting on the coefficients of the generators: the
    ideal-to-lattice map commutes with the Frobenius of F_q."""
    field = GF(q)
    I = ideal_I_lambda(field, (1, -1), N, allow_tight_window=N == 2)
    rng = random.Random(q)
    moved = 0
    for _ in range(3):
        J = act_on_ideal(random_sl(field, 2, N, rng), I)
        sigma_J = GradedIdeal(J.ring, J.n, J.N, [
            Polynomial(J.ring, {m: c**field.p for m, c in g.terms.items()}) for g in J.generators
        ])
        lat = points_lattice(J, shift=1, check_stable=False)
        image = points_lattice(sigma_J, shift=1, check_stable=False)
        assert image.canonical_key() == frobenius(lat, 1).canonical_key()
        moved += image.canonical_key() != lat.canonical_key()
    assert moved  # sigma moved at least one of the lattices


def relative_positions(n, q, lam):
    """How the lattices L of the cell lam lie relative to L1 = diag(p^lam) W^n:
    the number of L per cell of L1^-1 L, by the Smith form."""
    out = {}
    for lat, cell in enumerate_lattices(n, q, max(lam)):
        if cell == lam:
            rows = lat.basis.entries
            M = WittMatrix(lat.basis.ring, [
                [x.p_times(-lam[i]) for x in row] for i, row in enumerate(rows)
            ])
            rel = classify_cell(M)
            out[rel] = out.get(rel, 0) + 1
    return out


def tree_positions(q, k):
    """The same count for n = 2 in the Bruhat-Tits tree of SL_2, where cell
    (k,-k) is the set of vertices at distance 2k from the standard one and the
    relative position of two of them is (d/2,-d/2) at distance d.  A vertex at
    distance d is a walk without backtracking: q + 1 first steps, then q."""

    def walks(d):
        return itertools.product(range(q + 1), *[range(q)] * (d - 1))

    def distance(u, v):
        shared = next((i for i, (a, b) in enumerate(zip(u, v)) if a != b), min(len(u), len(v)))
        return len(u) + len(v) - 2 * shared

    l1 = (0,) * (2 * k)
    out = {}
    for v in walks(2 * k):
        h = distance(l1, v) // 2
        out[(h, -h)] = out.get((h, -h), 0) + 1
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_relative_positions_in_the_tree(q):
    """An oracle for the Smith and Hermite forms that is not taken against the
    standard lattice: seen from L1 = diag(p, 1/p) W^2, the q(q + 1) lattices
    of the cell (1,-1) are L1, q - 1 neighbours of L1 and q^2 others."""
    assert tree_positions(q, 1) == {(0, 0): 1, (1, -1): q - 1, (2, -2): q * q}
    assert relative_positions(2, q, (1, -1)) == tree_positions(q, 1)


def test_relative_positions_in_rank_three():
    assert relative_positions(3, 2, (1, 0, -1)) == {
        (0, 0, 0): 1, (1, 0, -1): 9, (1, 1, -2): 8, (2, -1, -1): 8, (2, 0, -2): 16,
    }


@pytest.mark.parametrize("lam", [(0, 0), (1, -1)])
def test_key_ignores_basis_window_and_precision(lam):
    if lam == (0, 0):  # a boundary ideal of the (1,-1) family
        R = ambient_ring(F2, 2, 2)
        ideal = GradedIdeal(R, 2, 2, [R.var(0) + R.var(2), R.var(2) ** 2])
    else:
        ideal = ideal_I_lambda(F2, lam, 3)
    keys = {
        Lattice(diag_p_matrix(F2, lam, 3)).canonical_key(),
        Lattice(diag_p_matrix(F2, lam, 6)).canonical_key(),
        points_lattice(ideal, shift=1).canonical_key(),
    }
    assert len(keys) == 1


def test_key_ignores_the_basis_in_rank_three():
    # entry (1,0) carries digits at and above its row's pivot; clearing them
    # by column 1 changes entry (2,0), which the key reads
    rng = random.Random(24)
    prec = 6
    for _ in range(40):
        exps = [rng.randrange(3) for _ in range(3)]
        M = WittMatrix(F2, [
            [
                one_at(F2, exps[i], prec) if i == j
                else padic_zero(F2, prec + 4) if i < j
                else lift(F2, witt_random(F2, prec, rng), prec)
                for j in range(3)
            ]
            for i in range(3)
        ])
        G = WittMatrix(F2, [[lift(F2, x, prec) for x in row] for row in random_sl(F2, 3, 4, rng)])
        assert Lattice(M.mul(G)).canonical_key() == Lattice(M).canonical_key()


def test_canonical_key_needs_the_digits_below_each_pivot():
    # the entry under the pivot p^2 of row 1 is known only modulo p
    A = WittMatrix(F2, [
        [one_at(F2, 0, 4), padic_zero(F2, 6)],
        [PadicWittNumber(F2, 0, (F2.one,)), one_at(F2, 2, 4)],
    ])
    with pytest.raises(PrecisionLoss):
        Lattice(A).canonical_key()
