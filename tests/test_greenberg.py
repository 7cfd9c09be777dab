"""Realization compiler: component formulas, functoriality, compatibility."""

import operator
import random

import pytest

from wittgrass.errors import NonUnit, UsageError
from wittgrass.fields import GF
from wittgrass.greenberg import (
    generic_vectors,
    parse_witt_map,
    realize_action,
    realize_ideal,
    realize_poly_map,
    witt_poly_ring,
)
from wittgrass.poly import Polynomial
from wittgrass.textio import parse_expression
from wittgrass.structure import MAX_SLOTS, gen_structure_polys, key_exponents
from wittgrass.witt import (
    random_sl,
    teichmuller,
    witt_from_int,
    witt_one,
    witt_random,
    witt_zero,
)

F2 = GF(2)
F4 = GF(4)
F9 = GF(9)


def T(field, N, arity, l):
    return witt_poly_ring(field, N, arity).var(l)


def expect(ring, text):
    """The polynomial of ``ring`` that ``text`` spells, its variables written
    by their names, bare or indexed like ``x[i,j]``."""

    def resolve(name, indices):
        display = name if indices is None else f"{name}[{indices[0]},{indices[1]}]"
        return ring.var(ring.index_of(display))

    return parse_expression(ring, text, resolve)


def test_sum_map_components():
    rm = realize_poly_map([T(F2, 2, 2, 0) + T(F2, 2, 2, 1)])
    R = rm.ring
    assert rm.components[0][0] == expect(R, "x[1,0] + x[2,0]")
    assert rm.components[0][1] == expect(R, "x[1,1] + x[2,1] + x[1,0]*x[2,0]")


def test_constant_map_components():
    c = teichmuller(F4, F4.gen(), 2)
    rm = realize_poly_map([witt_poly_ring(F4, 2, 1).const(c)])
    assert rm.components[0][0] == rm.ring.const(F4.gen())
    assert rm.components[0][1].is_zero()


def test_realized_determinant_formula():
    vars4 = [T(F2, 2, 4, l) for l in range(4)]
    det = vars4[0] * vars4[3] - vars4[1] * vars4[2]
    rm = realize_poly_map([det])
    R = rm.ring
    assert rm.components[0][0] == expect(R, "x[1,0]*x[4,0] + x[2,0]*x[3,0]")
    assert rm.components[0][1] == expect(
        R,
        "x[1,0]^2*x[4,1] + x[1,1]*x[4,0]^2 + x[2,0]^2*x[3,1] + x[2,1]*x[3,0]^2"
        " + x[2,0]^2*x[3,0]^2 + x[1,0]*x[4,0]*x[2,0]*x[3,0]",
    )


def test_realized_determinant_evaluation_50_samples():
    rng = random.Random(7)
    vars4 = [T(F4, 2, 4, l) for l in range(4)]
    rm = realize_poly_map([vars4[0] * vars4[3] - vars4[1] * vars4[2]])
    for _ in range(50):
        pts = [witt_random(F4, 2, rng) for _ in range(4)]
        assert rm.apply_point(pts)[0] == pts[0] * pts[3] - pts[1] * pts[2]


def test_evaluation_compatibility_basic_ops():
    rng = random.Random(8)
    maps = {
        "add": realize_poly_map([T(F9, 3, 2, 0) + T(F9, 3, 2, 1)]),
        "mul": realize_poly_map([T(F9, 3, 2, 0) * T(F9, 3, 2, 1)]),
        "neg": realize_poly_map([-T(F9, 3, 2, 0)]),
    }
    for _ in range(200):
        a, b = witt_random(F9, 3, rng), witt_random(F9, 3, rng)
        assert maps["add"].apply_point([a, b])[0] == a + b
        assert maps["mul"].apply_point([a, b])[0] == a * b
        assert maps["neg"].apply_point([a, b])[0] == -a


def rand_wpoly(R, rng, nterms=2, deg=2):
    W, arity = R.coeff, len(R.names)
    P = R.zero
    for _ in range(nterms):
        exps = [0] * arity
        for _ in range(rng.randrange(deg + 1)):
            exps[rng.randrange(arity)] += 1
        t = R.const(witt_random(W.scalar, W.N, rng))
        for l, e in enumerate(exps):
            t = t * R.var(l) ** e
        P = P + t
    return P


@pytest.mark.parametrize("field,trials", [(F2, 6), (F9, 3)])
def test_functoriality_random_maps(field, trials):
    rng = random.Random(9)
    N = 3
    R = witt_poly_ring(field, N, 2)
    for _ in range(trials):
        f = [rand_wpoly(R, rng) for _ in range(2)]
        g = [rand_wpoly(R, rng) for _ in range(2)]
        Rf, Rg = realize_poly_map(f), realize_poly_map(g)
        Rgf = realize_poly_map([P.map_into(R, f) for P in g])
        # g after f on points: substitute f's components for g's variables
        images = Rf.flat_components()
        composed = [[q.map_into(Rf.ring, images) for q in row] for row in Rg.components]
        assert composed == Rgf.components


def test_realize_ideal_examples():
    # <T> at N = 2
    rid = realize_ideal([T(F2, 2, 1, 0)])
    R = rid.ring
    assert rid.generators == [R.var(0), R.var(1)]
    # <p*T> at p = 2, N = 2: component 0 vanishes, leaving t0^2
    ptimes = witt_poly_ring(F2, 2, 1).from_int(2) * T(F2, 2, 1, 0)
    rid = realize_ideal([ptimes])
    assert rid.generators == [R.var(0) ** 2]
    # <T1 + T2>
    rid = realize_ideal([T(F2, 2, 2, 0) + T(F2, 2, 2, 1)])
    R2 = rid.ring
    assert rid.generators == [
        expect(R2, "x[1,0] + x[2,0]"),
        expect(R2, "x[1,1] + x[2,1] + x[1,0]*x[2,0]"),
    ]


def test_products_of_disjoint_systems():
    # realizing a variable-disjoint union equals the union of realizations
    f = T(F2, 2, 2, 0) ** 2 + T(F2, 2, 2, 0)  # only T1
    g = T(F2, 2, 2, 1) ** 2                   # only T2
    joint = realize_ideal([f, g])
    single = realize_ideal([T(F2, 2, 1, 0) ** 2 + T(F2, 2, 1, 0)])
    ring = joint.ring
    # map the single-variable realizations into the joint ring at block 1, 2
    into_first = [ring.var(0), ring.var(1)]
    into_second = [ring.var(2), ring.var(3)]
    expected = [q.map_into(ring, into_first) for q in single.generators]
    single_g = realize_ideal([T(F2, 2, 1, 0) ** 2])
    expected += [q.map_into(ring, into_second) for q in single_g.generators]
    assert set(joint.generators) == set(expected)


def test_realize_action_identity():
    one = witt_one(F2, 2)
    zero = witt_zero(F2, 2)
    g = [[one, zero], [zero, one]]
    rm = realize_action(g)
    R = rm.ring
    assert rm.flat_components() == [R.var(k) for k in range(4)]


def test_realize_action_teichmuller_diagonal():
    u = F4.gen()
    g = [
        [teichmuller(F4, u, 2), witt_zero(F4, 2)],
        [witt_zero(F4, 2), teichmuller(F4, u.inv(), 2)],
    ]
    rm = realize_action(g)
    R = rm.ring
    p = 2
    for j in range(2):
        assert rm.components[0][j] == R.var(j).scale(u ** (p**j))
        assert rm.components[1][j] == R.var(2 + j).scale(u.inv() ** (p**j))


def test_realize_action_unipotent():
    one = witt_one(F2, 2)
    zero = witt_zero(F2, 2)
    g = [[one, one], [zero, one]]
    rm = realize_action(g)
    R = rm.ring
    assert rm.components[0][0] == expect(R, "x[1,0] + x[2,0]")
    assert rm.components[0][1] == expect(R, "x[1,1] + x[2,1] + x[1,0]*x[2,0]")
    assert rm.components[1][0] == R.var(2)
    assert rm.components[1][1] == R.var(3)


def test_realize_action_rejects_non_units():
    zero = witt_zero(F2, 2)
    pvec = witt_from_int(F2, 2, 2)
    with pytest.raises(NonUnit):
        realize_action([[pvec, zero], [zero, pvec]])


def test_realized_sl2_multiplication_group_laws():
    # matrix multiplication as a polynomial map A^8 -> A^4 over W_2(F_4)
    rng = random.Random(10)
    N = 2
    entries = [T(F4, N, 8, l) for l in range(8)]
    a, b, c, d = entries[:4]
    e, f, g, h = entries[4:]
    mulmap = realize_poly_map([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])

    def apply(mats):
        flat = [x for m in mats for x in m]
        return mulmap.apply_point(flat)

    for _ in range(100):
        m1 = random_sl(F4, 2, N, rng)
        m2 = random_sl(F4, 2, N, rng)
        m3 = random_sl(F4, 2, N, rng)
        flat1 = [m1[0][0], m1[0][1], m1[1][0], m1[1][1]]
        flat2 = [m2[0][0], m2[0][1], m2[1][0], m2[1][1]]
        flat3 = [m3[0][0], m3[0][1], m3[1][0], m3[1][1]]
        m12 = apply([flat1, flat2])
        m23 = apply([flat2, flat3])
        assert apply([m12, flat3]) == apply([flat1, m23])
        # identity acts as the neutral element
        ident = [witt_one(F4, N), witt_zero(F4, N), witt_zero(F4, N), witt_one(F4, N)]
        assert apply([flat1, ident]) == flat1
        assert apply([ident, flat1]) == flat1


def test_parse_witt_map_round_trip():
    polys = parse_witt_map("T1*T2-1; T1+T2", F2, 2)
    rm = realize_poly_map(polys)
    R = rm.ring
    assert rm.components[0][0] == expect(R, "x[1,0]*x[2,0] + 1")
    assert rm.components[1][0] == expect(R, "x[1,0] + x[2,0]")


def _table_level(ring, level, N):
    """An integer structure polynomial reduced mod p, X_i -> x[1,i], Y_i -> x[2,i]."""
    terms = {}
    for key, c in level.items():
        if c % ring.p:
            exps = [0] * (2 * N)
            for slot, e in key_exponents(key):
                exps[slot if slot < MAX_SLOTS else N + slot - MAX_SLOTS] = e
            terms[tuple(exps)] = ring.coeff.from_int(c)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p, N", [(2, 3), (3, 2)])
def test_generic_witt_arithmetic_is_the_structure_table(p, N):
    ring, (x, y) = generic_vectors(GF(p), 2, N)
    for op, result in (("add", x + y), ("mul", x * y), ("neg", -x)):
        expected = [_table_level(ring, lv, N) for lv in gen_structure_polys(p, N, op)]
        assert list(result.coords) == expected, op


def test_generic_witt_addition_over_f4_is_not_folded():
    # coordinates of a polynomial ring do not satisfy x^4 = x: level 3 keeps
    # its X_0^8 and Y_0^8 terms
    p, N = 2, 4
    ring, (x, y) = generic_vectors(GF(4), 2, N)
    expected = [_table_level(ring, lv, N) for lv in gen_structure_polys(p, N, "add")]
    assert list((x + y).coords) == expected


def _rand_expr(rng, depth, arity, field):
    """Random Witt-map text and, beside it, its value at the generic point.

    The value is a function of (ring, N, vectors) built from Witt arithmetic
    over k[x] alone: no parsing and no polynomials over W_N(k).
    """
    if depth == 0 or rng.random() < 0.3:
        kinds = ["var", "var", "int"] + (["u"] if field.e > 1 else [])
        kind = rng.choice(kinds)
        if kind == "var":
            l = rng.randrange(arity)
            return f"T{l + 1}", lambda ring, N, xs: xs[l]
        if kind == "int":
            k = rng.randrange(-2, 5)
            return f"({k})", lambda ring, N, xs: witt_from_int(ring, k, N)
        k = rng.choice([-1, 1, 2])
        c = field.gen() ** k
        return f"u^{k}", lambda ring, N, xs: teichmuller(ring, ring.const(c), N)
    op = rng.choice("+-*^n")
    ta, fa = _rand_expr(rng, depth - 1, arity, field)
    if op == "n":
        return f"-({ta})", lambda *ctx: -fa(*ctx)
    if op == "^":
        e = rng.randrange(3)
        return f"({ta})^{e}", lambda *ctx: fa(*ctx) ** e
    tb, fb = _rand_expr(rng, depth - 1, arity, field)
    combine = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    return f"({ta}) {op} ({tb})", lambda *ctx: combine(fa(*ctx), fb(*ctx))


@pytest.mark.parametrize("q, N", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_realized_text_maps_match_direct_witt_evaluation(q, N):
    field = GF(q)
    rng = random.Random(f"differential:{q}:{N}")
    for _ in range(8):
        exprs = [_rand_expr(rng, 3, 2, field) for _ in range(2)]
        text = "; ".join(t for t, _ in exprs)
        rm = realize_poly_map(parse_witt_map(text, field, N))
        ring, xs = generic_vectors(field, rm.source_arity, N)
        direct = [list(f(ring, N, xs).coords) for _, f in exprs]
        assert rm.components == direct, text


def test_powers_of_witt_polynomials_drop_vanishing_coefficients():
    # (2*T1)^2 = 4*T1^2 = 0 over W_2(F_2)
    R = witt_poly_ring(F2, 2, 1)
    assert (R.from_int(2) * R.var(0)) ** 2 == R.zero


def test_parse_witt_map_rejects_unknown_symbols():
    with pytest.raises(UsageError, match="unknown symbol 'u'"):
        parse_witt_map("u*T1", F2, 2)
    with pytest.raises(UsageError, match="outside arity"):
        parse_witt_map("T0", F2, 2)


@pytest.mark.parametrize("text", ["T17", "T1*T99999999", "T" + "1" * 5000])
def test_parse_witt_map_refuses_more_than_sixteen_variables(text):
    with pytest.raises(UsageError, match="at most 16 variables"):
        parse_witt_map(text, F2, 2)
    assert len(parse_witt_map("T16", F2, 2)[0].ring.names) == 16
