"""Graded ideals: Hilbert functions, stability, orbit action, flat limits."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wittgrass.errors import NotDominant, UsageError, WindowTooSmall
from wittgrass.fields import GF
from wittgrass.greenberg import generic_vectors
from wittgrass.groebner import buchberger, ideal_contains
from wittgrass.hilbert import (
    GradedIdeal,
    _independent,
    act_on_ideal,
    ambient_ring,
    family_ring,
    flat_limit,
    hilbert_function,
    hilbert_function_linalg,
    ideal_I_lambda,
    ideal_for_window,
    is_module_stable,
    monomials_of_weight,
    var_index,
)
from wittgrass.textio import parse_expression
from wittgrass.witt import random_sl, teichmuller, witt_one, witt_zero

F2 = GF(2)
F4 = GF(4)


def poly(ring, text):
    """The polynomial of ``ring`` that ``text`` spells, its variables written
    by their names, bare or indexed like ``x[i,j]``."""

    def resolve(name, indices):
        display = name if indices is None else f"{name}[{indices[0]},{indices[1]}]"
        return ring.var(ring.index_of(display))

    return parse_expression(ring, text, resolve)


def dominates(h, other):
    """Pointwise >=, with strict inequality somewhere on the common range."""
    pairs = list(zip(h.values, other.values))
    return all(a >= b for a, b in pairs) and any(a > b for a, b in pairs)


def contains(I, f):
    """Is f in the ideal I?"""
    return ideal_contains(I.basis(), f)


# -- cocharacter ideals -------------------------------------------------------

def test_ideal_zero_cocharacter():
    I = ideal_I_lambda(F2, (0, 0), 2)
    assert I.generators == []


def test_ideal_one_minus_one():
    I = ideal_I_lambda(F2, (1, -1), 3)
    R = I.ring
    assert I.generators == [R.var(0), R.var(1)]  # x[1,0], x[1,1]


def test_ideal_sl3():
    I = ideal_I_lambda(F2, (1, 0, -1), 3)
    R = I.ring
    expected = {
        R.var(var_index(3, 3, 1, 0)),
        R.var(var_index(3, 3, 1, 1)),
        R.var(var_index(3, 3, 2, 0)),
    }
    assert set(I.generators) == expected


def test_ideal_window_guard():
    with pytest.raises(WindowTooSmall, match=r"--N 2 .* the least --N is 3, or 2 with --tight"):
        ideal_I_lambda(F2, (1, -1), 2)
    with pytest.raises(WindowTooSmall, match=r"--N 1 .* the least --N is 2$"):
        ideal_I_lambda(F2, (1, -1), 1, allow_tight_window=True)
    # override reproduces the tight-window boundary setting
    I = ideal_I_lambda(F2, (1, -1), 2, allow_tight_window=True)
    assert len(I.generators) == 2
    with pytest.raises(NotDominant):
        ideal_I_lambda(F2, (-1, 1), 3)


def test_homogeneity_enforced():
    R = ambient_ring(F2, 2, 2)
    with pytest.raises(UsageError):
        GradedIdeal(R, 2, 2, [R.var(0) + R.var(1)])  # weights 1 and 2


# -- Groebner -----------------------------------------------------------------

def test_groebner_monomial_ideal_is_itself():
    R = ambient_ring(F2, 2, 3)
    gens = [R.var(0), R.var(1)]
    assert buchberger(gens) == gens


def test_groebner_reduced_basis_and_membership():
    R = ambient_ring(F2, 2, 2)
    I = GradedIdeal(R, 2, 2, [poly(R, "x[1,0]+x[2,0]"), poly(R, "x[2,0]^2")])
    basis = I.basis()
    assert set(basis) == {poly(R, "x[1,0]+x[2,0]"), poly(R, "x[2,0]^2")}
    # (x[1,0]+x[2,0])^2 = x[1,0]^2 + x[2,0]^2 in characteristic 2
    assert contains(I, poly(R, "x[1,0]^2"))
    assert not contains(I, poly(R, "x[1,0]"))


def test_spolynomials_reduce_to_zero():
    from wittgrass.groebner import normal_form, s_polynomial

    R = ambient_ring(F2, 2, 3)
    I = GradedIdeal(
        R, 2, 3, [poly(R, "x[1,0]*x[2,0]+x[1,1]"), poly(R, "x[2,0]^2+x[2,1]")]
    )
    G = I.basis()
    for i in range(len(G)):
        for j in range(i):
            assert normal_form(s_polynomial(G[i], G[j]), G).is_zero()


def test_groebner_basis_of_a_translated_ideal_is_quick():
    # with S-pairs taken last-in-first-out this basis ran for minutes; by
    # increasing lcm it takes milliseconds
    rng = random.Random(3)
    I = ideal_I_lambda(F2, (2, -2), 5)
    random_sl(F2, 2, 5, rng)
    J = act_on_ideal(random_sl(F2, 2, 5, rng), I)
    assert hilbert_function(J, 30) == hilbert_function(I, 30)


# -- Hilbert functions ---------------------------------------------------------

def test_hf_zero_ideal():
    R = ambient_ring(F2, 2, 2)
    I = GradedIdeal(R, 2, 2, [])
    assert hilbert_function(I, 4).values == [1, 2, 5, 8, 14]


def test_hf_cocharacter_ideal():
    I = ideal_I_lambda(F2, (1, -1), 3)
    assert hilbert_function(I, 4).values == [1, 1, 2, 2, 5]
    assert hilbert_function_linalg(I, 4).values == [1, 1, 2, 2, 5]


def test_hf_boundary_family_members_agree():
    # <x[2,0], x[2,1]> and <x[1,0] + a x[2,0], x[2,0]^2> for every a in F_4
    R = ambient_ring(F4, 2, 2)
    base = GradedIdeal(R, 2, 2, [R.var(2), R.var(3)])
    h = hilbert_function(base, 8)
    for a in F4.elements():
        J = GradedIdeal(
            R, 2, 2, [R.var(0) + R.var(2).scale(a), R.var(2) ** 2]
        )
        assert hilbert_function(J, 8) == h
        assert hilbert_function_linalg(J, 8).values == h.values


def test_monomial_enumeration_matches_weights():
    R = ambient_ring(F2, 2, 2)  # weights 1,2,1,2
    assert len(monomials_of_weight(R, 0)) == 1
    assert len(monomials_of_weight(R, 1)) == 2
    assert len(monomials_of_weight(R, 2)) == 5
    assert len(monomials_of_weight(R, 4)) == 14


# -- stability -----------------------------------------------------------------

def test_stability_of_cocharacter_ideals():
    for lam, N in (((1, -1), 3), ((2, -2), 5), ((1, 0, -1), 3)):
        assert is_module_stable(ideal_I_lambda(F2, lam, N))


def test_stability_of_boundary_ideals():
    R = ambient_ring(F4, 2, 2)
    for a in F4.elements():
        J = GradedIdeal(R, 2, 2, [R.var(0) + R.var(2).scale(a), R.var(2) ** 2])
        assert is_module_stable(J)


def test_instability_of_bare_level_one():
    R = ambient_ring(F2, 1, 2)
    assert not is_module_stable(GradedIdeal(R, 1, 2, [R.var(1)]))


def test_stability_orbit_invariant():
    rng = random.Random(31)
    I = ideal_I_lambda(F2, (1, -1), 3)
    R = ambient_ring(F2, 1, 2)
    bad = GradedIdeal(R, 1, 2, [R.var(1)])
    for _ in range(10):
        g = random_sl(F2, 2, 3, rng)
        assert is_module_stable(act_on_ideal(g, I))
    # and instability is preserved by the only action available at n = 1
    one = witt_one(F2, 2)
    assert not is_module_stable(act_on_ideal([[one]], bad))


def _negation_stable(I):
    """Does the negation comorphism (-x) keep every generator in I?"""
    ring, xs = generic_vectors(I.ring.coeff, I.n, I.N)
    images = [c for x in xs for c in (-x).coords]
    return all(contains(I, g.map_into(ring, images)) for g in I.generators)


def _random_homogeneous_ideal(field, rng, n=2, N=2):
    R = ambient_ring(field, n, N)
    gens = []
    for _ in range(rng.randrange(1, 4)):
        monos = monomials_of_weight(R, rng.randrange(1, field.p + 1))
        g = R.zero
        for m in rng.sample(monos, rng.randrange(1, min(3, len(monos)) + 1)):
            g = g + R.monomial(m, field.random(rng))
        gens.append(g)
    return GradedIdeal(R, n, N, gens)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_stability_implies_negation_stability(q):
    """is_module_stable checks no negation: the scalar check implies it."""
    field = GF(q)
    rng = random.Random(q)
    ideals = [_random_homogeneous_ideal(field, rng) for _ in range(100)]
    I = ideal_I_lambda(field, (1, -1), 3)
    ideals += [act_on_ideal(random_sl(field, 2, 3, rng), I) for _ in range(3)]
    stable = [J for J in ideals if is_module_stable(J)]
    assert 0 < len(stable) < len(ideals)
    assert all(_negation_stable(J) for J in stable)


# -- the group action ----------------------------------------------------------

def test_action_of_identity():
    I = ideal_I_lambda(F2, (1, -1), 3)
    one, zero = witt_one(F2, 3), witt_zero(F2, 3)
    assert act_on_ideal([[one, zero], [zero, one]], I) == I


def test_action_of_teichmuller_diagonal():
    I = ideal_I_lambda(F4, (1, -1), 3)
    u = F4.gen()
    g = [
        [teichmuller(F4, u, 3), witt_zero(F4, 3)],
        [witt_zero(F4, 3), teichmuller(F4, u.inv(), 3)],
    ]
    assert act_on_ideal(g, I) == I


def test_action_of_unipotent_fixes_second_block():
    R = ambient_ring(F2, 2, 2)
    I = GradedIdeal(R, 2, 2, [R.var(2), R.var(3)])  # x[2,0], x[2,1]
    one, zero = witt_one(F2, 2), witt_zero(F2, 2)
    g = [[one, one], [zero, one]]
    J = act_on_ideal(g, I)
    assert J == I
    assert hilbert_function(J, 6) == hilbert_function(I, 6)


def test_hf_constant_along_orbits():
    rng = random.Random(32)
    I = ideal_I_lambda(F2, (1, -1), 3)
    h = hilbert_function(I, 6)
    for _ in range(50):
        g = random_sl(F2, 2, 3, rng)
        assert hilbert_function(act_on_ideal(g, I), 6) == h


# -- window embeddings and dominance of Hilbert functions -----------------------

def test_hf_depends_only_on_cell_not_representative():
    # the two rank-one coordinate ideals in a common window share their HF
    A = ideal_for_window(F2, (1, -1), 4, 1)   # kills x[1,0], x[1,1]
    R = A.ring
    B = GradedIdeal(R, 2, 4, [R.var(4), R.var(5)])  # kills x[2,0], x[2,1]
    assert hilbert_function(A, 8) == hilbert_function(B, 8)


def test_hf_dominance_along_bruhat():
    # bigger cells have pointwise bigger lattice-scheme Hilbert functions;
    # degree 0 is always 1 for proper homogeneous ideals, so the inequality
    # is tested as >= everywhere plus > somewhere
    bound = 10
    small = ideal_for_window(F2, (1, -1), 5, 2)
    big = ideal_for_window(F2, (2, -2), 5, 2)
    h_small = hilbert_function(small, bound)
    h_big = hilbert_function(big, bound)
    assert h_big.values[0] == h_small.values[0] == 1
    assert dominates(h_big, h_small)
    # an SL_3 pair
    small3 = ideal_for_window(F2, (1, 0, -1), 4, 1)
    big3 = ideal_for_window(F2, (2, 0, -2), 4, 2)
    small3_embedded = ideal_for_window(F2, (1, 0, -1), 4, 2)
    assert dominates(hilbert_function(big3, bound), hilbert_function(small3_embedded, bound))


# -- flat limits -----------------------------------------------------------------

def test_flat_limit_constant_family():
    K = family_ring(F2, 2, 2)
    fam = GradedIdeal(K, 2, 2, [K.var(2)])
    limit = flat_limit(fam)
    R = ambient_ring(F2, 2, 2)
    assert limit == GradedIdeal(R, 2, 2, [R.var(2)])


def test_flat_limit_of_lattice_family():
    # generic ideal <x[2,0], x[1,0]^2 + t^4 x[2,1]>; fiber at t = 0 drops the tail
    K = family_ring(F2, 2, 2)
    KK = K.coeff
    t4 = K.const(KK.t_power(4))
    fam = GradedIdeal(K, 2, 2, [K.var(2), K.var(0) ** 2 + t4 * K.var(3)])
    limit = flat_limit(fam)
    R = ambient_ring(F2, 2, 2)
    assert limit == GradedIdeal(R, 2, 2, [R.var(2), R.var(0) ** 2])
    assert hilbert_function(limit, 8) == hilbert_function_linalg(fam, 8)
    assert is_module_stable(limit)


@st.composite
def _families(draw):
    """Families over F_q(t), n = N = 2: one to three homogeneous generators
    whose coefficients are polynomials in t, some of them divided by t."""
    F = GF(draw(st.sampled_from([2, 3])))
    K = family_ring(F, 2, 2)
    T = K.coeff
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_weight(K, draw(st.integers(1, 2 * F.p)))
        g = K.zero
        for m in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)):
            c = T.make(draw(st.lists(st.sampled_from(F.elements()), min_size=1, max_size=3)))
            if draw(st.booleans()):
                c = c * T.t_power(-1)
            g = g + K.monomial(m, c)
        gens.append(g)
    return GradedIdeal(K, 2, 2, gens)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_families())
def test_flat_limit_keeps_the_generic_hilbert_function(fam):
    assert hilbert_function(flat_limit(fam), 10) == hilbert_function_linalg(fam, 10)


# -- the elimination pass --------------------------------------------------------

def _span(rows, field, width):
    span = {(field.zero,) * width}
    for row in rows:
        span = {
            tuple(x + c * y for x, y in zip(v, row))
            for v in span
            for c in field.elements()
        }
    return span


@pytest.mark.parametrize("field", [F2, F4], ids=["GF2", "GF4"])
@pytest.mark.parametrize("seed", range(6))
def test_independent_matches_brute_force_span_sizes(field, seed):
    rng = random.Random(seed)
    width = 4
    draw = lambda k: [[field.random(rng) for _ in range(width)] for _ in range(k)]
    rows = draw(rng.randrange(1, 5))
    rows.append([x + y for x, y in zip(rows[0], rows[-1])])  # a dependent row
    kept = _independent(rows)
    # kept rows are input rows, in their input order
    assert kept == [r for r in rows if any(r is k for k in kept)]
    assert field.q ** len(kept) == len(_span(rows, field, width))


# -- the counted Hilbert function against enumeration -------------------------

@functools.lru_cache(maxsize=None)
def _monomials_up_to(ring, bound):
    return [monomials_of_weight(ring, a) for a in range(bound + 1)]


def _enumerated_hilbert(ring, gens, bound):
    """Weight-a monomials divisible by no generator, listed one by one."""
    return [
        sum(1 for m in monos if not any(all(x >= y for x, y in zip(m, g)) for g in gens))
        for monos in _monomials_up_to(ring, bound)
    ]


@pytest.mark.parametrize("p,n,N", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hf_of_monomial_ideals_matches_enumeration(p, n, N, data):
    ring = ambient_ring(GF(p), n, N)
    exps = st.tuples(*[st.integers(0, 3)] * (n * N))
    gens = data.draw(st.lists(exps, min_size=2, max_size=8))
    I = GradedIdeal(ring, n, N, [ring.monomial(m) for m in gens])
    assert hilbert_function(I, 14).values == _enumerated_hilbert(ring, gens, 14)
