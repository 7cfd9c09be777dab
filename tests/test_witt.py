"""Witt vector arithmetic over finite fields, polynomial rings and F_q(t)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wittgrass.errors import NonUnit, RingMismatch
from wittgrass.fields import GF
from wittgrass.rings import RationalFunctionField
from wittgrass.witt import (
    WittVector,
    mat_det,
    mat_inv,
    mat_mul,
    random_sl,
    teichmuller,
    witt_arith,
    witt_from_int,
    witt_inv,
    witt_one,
    witt_random,
    witt_zero,
)

F2 = GF(2)
F4 = GF(4)
F9 = GF(9)


def vec(field, *ints):
    return WittVector(field, tuple(field.from_int(i) for i in ints))


def test_two_plus_two_makes_p():
    assert vec(F2, 1, 0) + vec(F2, 1, 0) == vec(F2, 0, 1)


def test_negation_of_one_mod_four():
    # -1 = 3 = (1,1) in W_2(F_2)
    assert -vec(F2, 1, 0) == vec(F2, 1, 1)


def test_teichmuller_multiplicative():
    rng = random.Random(0)
    for _ in range(20):
        a, b = F4.random(rng), F4.random(rng)
        assert teichmuller(F4, a, 3) * teichmuller(F4, b, 3) == teichmuller(
            F4, a * b, 3
        )


def test_teichmuller_units():
    assert teichmuller(F4, F4.zero, 2) == witt_zero(F4, 2)
    assert teichmuller(F4, F4.one, 2) == witt_one(F4, 2)
    u = F4.gen()
    assert witt_inv(teichmuller(F4, u, 3)) == teichmuller(F4, u.inv(), 3)


def test_inverse_of_one_plus_v():
    # (1, a) is its own inverse at p = 2, N = 2
    for a in F4.elements():
        w = WittVector(F4, (F4.one, a))
        assert witt_inv(w) == w
        assert w * w == witt_one(F4, 2)


def test_inverse_requires_unit():
    with pytest.raises(NonUnit):
        witt_inv(vec(F2, 0, 1))


def test_inverse_two_sided_random():
    rng = random.Random(1)
    one = witt_one(F9, 3)
    seen = 0
    while seen < 50:
        a = witt_random(F9, 3, rng)
        if not a.is_unit():
            continue
        seen += 1
        assert a * witt_inv(a) == one
        assert witt_inv(a) * a == one


def test_ring_axioms_sample():
    rng = random.Random(2)
    for field in (F2, F4, F9):
        zero = witt_zero(field, 3)
        one = witt_one(field, 3)
        for _ in range(100):
            x, y, z = (witt_random(field, 3, rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x + zero == x
            assert x * one == x
            assert x + (-x) == zero


def test_multiplication_by_p():
    # p * (a_0, a_1, a_2) = (0, a_0^p, a_1^p) over F_q(t), which is not perfect,
    # and over F_4, where it is Galois-ring arithmetic
    K = RationalFunctionField(F2)
    t = K.t_power(1)
    w = WittVector(K, (t, K.zero, K.one))
    assert witt_arith("mul", witt_from_int(K, 2, 3), w) == WittVector(
        K, (K.zero, t * t, K.zero)
    )
    rng = random.Random(3)
    for _ in range(100):
        a = witt_random(F4, 3, rng)
        pa = WittVector(F4, (F4.zero, a.coords[0] ** 2, a.coords[1] ** 2))
        assert witt_from_int(F4, 2, 3) * a == pa


def test_length_and_ring_mismatch():
    with pytest.raises(RingMismatch):
        witt_arith("add", vec(F2, 1, 0), vec(F2, 1, 0, 0))
    with pytest.raises(RingMismatch):
        witt_arith("add", vec(F2, 1, 0), vec(F4, 1, 0))


def test_from_int_matches_ghost_values():
    # w_n determines integers: check against base-p expansions mod p^N
    for p in (2, 3):
        F = GF(p)
        for n in range(0, p**3):
            w = witt_from_int(F, n, 3)
            # recover the integer from ghost components over the prime field:
            # w_k(a) = n mod p^(k+1) determines a uniquely; spot-check a_0
            assert w.coords[0] == F.from_int(n)


def mat_identity(ring, n, N):
    one, zero = witt_one(ring, N), witt_zero(ring, N)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def test_matrix_helpers():
    rng = random.Random(4)
    for _ in range(10):
        g = random_sl(F4, 2, 3, rng)
        assert mat_det(g) == witt_one(F4, 3)
        gi = mat_inv(g)
        assert mat_mul(g, gi) == mat_identity(F4, 2, 3)
        assert mat_mul(gi, g) == mat_identity(F4, 2, 3)


# longest Witt length per field size that the table arithmetic reaches: folded
# over F_p, unfolded over F_q(t) for q > p
TABLE_N_MAX = {2: 8, 3: 5, 4: 6, 5: 4, 8: 6, 9: 5}


@hst.composite
def _square_matrices(draw):
    q = draw(hst.sampled_from(sorted(TABLE_N_MAX)))
    F = GF(q)
    N = draw(hst.integers(1, TABLE_N_MAX[q]))
    n = draw(hst.integers(1, 3))
    coord = hst.sampled_from(F.elements())
    entry = hst.lists(coord, min_size=N, max_size=N).map(lambda c: WittVector(F, c))
    A = draw(hst.lists(hst.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return F, n, N, A, draw(hst.integers(0, 2**32))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_square_matrices())
def test_galois_ring_matrices_agree_with_the_tables(case):
    """random_sl and mat_inv compute in GR(p^N, e); their results are checked
    in the table arithmetic of WittVector: det 1, and g * g^-1 = 1 both ways.
    Over F_q with q > p, WittVector computes in GR too, so the check runs over
    F_q(t) instead, on the unfolded tables.  A matrix is invertible exactly
    when its residue matrix over F_q is."""
    F, n, N, A, seed = case
    ring = RationalFunctionField(F) if F.e > 1 else F
    const = ring.const if F.e > 1 else (lambda c: c)

    def lift(M):
        return [[WittVector(ring, tuple(map(const, x.coords))) for x in row] for row in M]

    one = mat_identity(ring, n, N)
    g = random_sl(F, n, N, random.Random(seed))
    assert mat_det(lift(g)) == witt_one(ring, N)
    for M in (g, A):
        if not mat_det([[x.coords[0] for x in row] for row in M]).is_unit():
            with pytest.raises(NonUnit):
                mat_inv(M)
            continue
        Mi = mat_inv(M)
        assert mat_mul(lift(M), lift(Mi)) == one
        assert mat_mul(lift(Mi), lift(M)) == one


def test_seeded_random_sl_draws_are_pinned():
    """random_sl draws the coordinates in the order the table version drew
    them, so a seed gives the matrix it always gave."""
    assert repr(random_sl(F4, 2, 3, random.Random(25))) == (
        "[[(1,u,0), (0,0,u+1)], [(u+1,u+1,u), (1,u,u+1)]]"
    )
    assert repr(random_sl(F9, 3, 2, random.Random(25))) == (
        "[[(u,1), (u+2,u), (u,u+2)], [(1,2), (2*u+2,2*u), (u+2,2*u)], "
        "[(u+1,2*u+2), (2*u,2), (2*u+2,u+1)]]"
    )


@pytest.mark.parametrize("q, N", [(2, 3), (4, 2), (3, 2)])
def test_folded_tables_agree_with_unfolded_ones_exhaustively(q, N):
    F = GF(q)
    K = RationalFunctionField(F)  # not a finite field, so its arithmetic is not folded

    def lift(v):
        return WittVector(K, tuple(K.const(c) for c in v.coords))

    vectors = [WittVector(F, c) for c in itertools.product(F.elements(), repeat=N)]
    for a in vectors:
        assert lift(-a) == -lift(a)
        if a.is_unit():
            assert lift(witt_inv(a)) == witt_inv(lift(a))
        for b in vectors:
            assert lift(a + b) == lift(a) + lift(b)
            assert lift(a * b) == lift(a) * lift(b)
