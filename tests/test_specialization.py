"""Ring-path Witt arithmetic checked by specialization against the Galois ring.

An F_q-point of Spec A is a ring map A -> F_q, and so a ring map
W_N(A) -> W_N(F_q).  Witt arithmetic on generic vectors over F_q[x],
evaluated at a point, must therefore equal the arithmetic of
W_N(F_q) = GR(p^N, e) at that point.  The same holds over F_q(t) wherever no
denominator vanishes.

The Galois-ring side is computed here with ``galois.of_digits``/``digits``
and ``fields.mul`` alone, so it shares no code with the structure tables that
the ring path evaluates.  Every draw is seeded.  Each operation is checked at
the all-ones point among others: there every monomial of a level is 1, so a
level that drops or changes one term reads wrong there.
"""

import random

import pytest

from wittgrass.fields import GF, mul
from wittgrass.galois import digits, of_digits
from wittgrass.greenberg import generic_vectors, realize_action
from wittgrass.rings import RationalFunctionField
from wittgrass.witt import WittVector, witt_from_int

# the longest length the tables reach for each prime over a ring that is not
# a finite field (structure.TERM_LIMIT), then extension fields at small N
ENVELOPE = [(2, 6), (3, 5), (5, 4)]
EXTENSIONS = [(4, 4), (8, 3), (9, 3), (25, 2)]


# -- the Galois-ring side ---------------------------------------------------

def gr(field, coords):
    """The element of GR(p^N, e) with these Witt coordinates over F_q."""
    return of_digits(field, tuple(coords))


def witt_coords(field, x, N):
    """The Witt coordinates over F_q of x in GR(p^N, e)."""
    return digits(field, x, N, N)[0]


def gr_add(x, y, mod):
    return tuple((a + b) % mod for a, b in zip(x, y))


def gr_scale(n, x, mod):
    return tuple(n * a % mod for a in x)


# -- specialization ---------------------------------------------------------

def points(field, count, size, rng):
    """The all-ones point, then count - 1 random points of F_q^size."""
    out = [[field.one] * size]
    out += [[field.random(rng) for _ in range(size)] for _ in range(count - 1)]
    return out


def at_point(vector, point):
    """The coordinates over F_q of a Witt vector over F_q[x] at the point."""
    return [c.evaluate(point) for c in vector.coords]


@pytest.mark.parametrize("q, N", ENVELOPE + EXTENSIONS, ids=lambda v: str(v))
def test_generic_arithmetic_over_a_polynomial_ring(q, N):
    field = GF(q)
    mod = field.p**N
    rng = random.Random(1000 * q + N)
    ring, (x, y) = generic_vectors(field, 2, N)
    total, product, negative = x + y, x * y, -x
    for point in points(field, 4, 2 * N, rng):
        a, b = gr(field, point[:N]), gr(field, point[N:])
        assert at_point(total, point) == witt_coords(field, gr_add(a, b, mod), N)
        assert at_point(product, point) == witt_coords(field, mul(field, a, b, mod), N)
        assert at_point(negative, point) == witt_coords(field, gr_scale(-1, a, mod), N)


@pytest.mark.parametrize("q, N", ENVELOPE + EXTENSIONS, ids=lambda v: str(v))
def test_generic_inverse_of_a_unit(q, N):
    """(c, x_1, ..., x_{N-1}) with c a nonzero constant is a unit of W_N(F_q[x]);
    at every point its inverse times it is 1 in GR(p^N, e)."""
    field = GF(q)
    mod = field.p**N
    one = (1,) + (0,) * (field.e - 1)
    rng = random.Random(2000 * q + N)
    ring, (x,) = generic_vectors(field, 1, N)
    for c in [c for c in field.elements() if not c.is_zero()][:3]:
        u = WittVector(ring, (ring.const(c),) + x.coords[1:])
        inverse = u.inv()
        for point in points(field, 3, N, rng):
            a, b = gr(field, at_point(u, point)), gr(field, at_point(inverse, point))
            assert mul(field, a, b, mod) == one


@pytest.mark.parametrize("q, N", ENVELOPE + EXTENSIONS, ids=lambda v: str(v))
def test_integers_over_a_polynomial_ring(q, N):
    """witt_from_int(n) is n in GR(p^N, e), and n times a generic vector is n
    times its value at every point."""
    field = GF(q)
    mod = field.p**N
    rng = random.Random(3000 * q + N)
    ring, (x,) = generic_vectors(field, 1, N)
    for n in (0, 1, field.p - 1, field.p, mod - 1, mod + 2, -3, rng.randrange(mod)):
        image = witt_from_int(ring, n, N)
        constant = [c.evaluate([field.zero] * N) for c in image.coords]
        assert gr(field, constant) == (n % mod,) + (0,) * (field.e - 1)
        scaled = image * x
        for point in points(field, 3, N, rng):
            assert at_point(scaled, point) == witt_coords(
                field, gr_scale(n, gr(field, point), mod), N
            )


# -- F_q(t) where no denominator vanishes -----------------------------------

RATIONAL = [(2, 6), (3, 4), (5, 3), (4, 4), (9, 3), (25, 2)]


def results_of(u, v):
    return {"add": u + v, "mul": u * v, "neg": -u, "inv": u.inv()}


def check_point(field, N, at):
    """``at`` holds the coordinates over F_q, at one point, of the operands
    u and v and of the ``results_of`` them."""
    mod = field.p**N
    x, y = gr(field, at["u"]), gr(field, at["v"])
    assert at["add"] == witt_coords(field, gr_add(x, y, mod), N)
    assert at["mul"] == witt_coords(field, mul(field, x, y, mod), N)
    assert at["neg"] == witt_coords(field, gr_scale(-1, x, mod), N)
    assert mul(field, x, gr(field, at["inv"]), mod) == (1,) + (0,) * (field.e - 1)


def random_fraction(K, rng):
    field = K.base
    num = tuple(field.random(rng) for _ in range(rng.randrange(3)))
    den = tuple(field.random(rng) for _ in range(rng.randrange(2))) + (field.one,)
    return K.make(num, den)


def poly_at(coeffs, a):
    value = a.field.zero
    for c in reversed(coeffs):
        value = value * a + c
    return value


def fraction_at(f, a):
    """f(a), or None where the denominator vanishes."""
    den = poly_at(f.den, a)
    return None if den.is_zero() else poly_at(f.num, a) * den.inv()


@pytest.mark.parametrize("q, N", RATIONAL, ids=lambda v: str(v))
def test_arithmetic_over_rational_functions(q, N):
    field = GF(q)
    K = RationalFunctionField(field)
    rng = random.Random(5000 * q + N)
    checked = 0
    outside = 0  # units inverted whose leading coordinate is not in F_q
    for _ in range(3):
        u = WittVector(K, [random_fraction(K, rng) for _ in range(N)])
        v = WittVector(K, [random_fraction(K, rng) for _ in range(N)])
        while u.coords[0].is_zero():
            u = WittVector(K, (random_fraction(K, rng),) + u.coords[1:])
        outside += len(u.coords[0].num) > 1 or len(u.coords[0].den) > 1
        vectors = {"u": u, "v": v, **results_of(u, v)}
        for a in field.elements():
            at = {name: [fraction_at(c, a) for c in w.coords] for name, w in vectors.items()}
            if all(c is not None for coords in at.values() for c in coords):
                check_point(field, N, at)
                checked += 1
    # the generic inverse over F_q[x] has a constant leading coordinate
    assert checked and outside


# -- the realized action -----------------------------------------------------

ACTIONS = [(2, 2, 4), (3, 2, 3), (4, 2, 3), (5, 2, 2), (9, 2, 2), (2, 3, 3)]


@pytest.mark.parametrize("q, n, N", ACTIONS, ids=lambda v: str(v))
def test_realized_action_is_the_matrix_product(q, n, N):
    """realize_action(g).apply_point(v) is g times v in GR(p^N, e)^n."""
    field = GF(q)
    mod = field.p**N
    rng = random.Random(6000 * q + 100 * n + N)

    def entry(i, j):  # an upper unitriangular residue matrix: g is invertible
        first = field.one if i == j else field.zero if i > j else field.random(rng)
        return WittVector(field, [first] + [field.random(rng) for _ in range(N - 1)])

    g = [[entry(i, j) for j in range(n)] for i in range(n)]
    action = realize_action(g)
    G = [[gr(field, x.coords) for x in row] for row in g]
    for point in points(field, 4, n * N, rng):
        vectors = [WittVector(field, point[i * N:(i + 1) * N]) for i in range(n)]
        V = [gr(field, v.coords) for v in vectors]
        image = action.apply_point(vectors)
        for i in range(n):
            expected = (0,) * field.e
            for j in range(n):
                expected = gr_add(expected, mul(field, G[i][j], V[j], mod), mod)
            assert list(image[i].coords) == witt_coords(field, expected, N)
