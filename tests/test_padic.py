"""p-adic numbers over F_q against p^shift * GR(p^len, e), and against table
arithmetic on the same Witt coordinates.

A PadicWittNumber (shift, mantissa) stands for p^shift times the Galois-ring
image of its mantissa, known modulo p^(shift + len(mantissa)).  Each operation
is checked against that model modulo the precision of its result, and that
precision must be the one its operands prove.  Every result, and every number
built from raw coordinates, must be normalized: an empty mantissa or a nonzero
leading coordinate.
"""

from hypothesis import given, settings
from hypothesis import strategies as hst

from test_galois_ring import N_MAX, GaloisRing
from wittgrass.fields import GF
from wittgrass.lattice import PadicWittNumber
from wittgrass.witt import WittVector, witt_arith, witt_inv

QS = (2, 3, 4, 5, 9)
TABLE_QS = (2, 3, 4, 5, 8, 9, 25)
SHIFTS = hst.integers(-3, 3)
# exponents of the model; shifts and lengths above stay far below it
MODEL_N = 16


def normalized(x):
    return not x.mantissa or not x.mantissa[0].is_zero()


class Model:
    """Values p^base * z, z in GR(p^MODEL_N, e) on integer tuples."""

    def __init__(self, q):
        self.gr = GaloisRing(q, MODEL_N)
        self.field, self.p = self.gr.field, self.gr.p

    def of(self, shift, coords, base):
        """p^shift * (coords as a Witt vector), divided by p^base <= p^shift."""
        if not coords:
            return self.gr.zero
        assert shift >= base
        img = self.gr.of_witt(WittVector(self.field, tuple(coords)))
        return tuple(self.p ** (shift - base) * c for c in img)

    def at(self, x, base):
        return self.of(x.shift, x.mantissa, base)

    def agree(self, a, b, base, prec):
        """p^base * a == p^base * b modulo p^prec."""
        mod = self.p ** max(prec - base, 0)
        return all((u - v) % mod == 0 for u, v in zip(a, b))


@hst.composite
def _case(draw):
    q = draw(hst.sampled_from(QS))
    F = GF(q)
    # half the coordinates are zero, so leading zeros to strip abound
    coord = hst.one_of(hst.just(F.zero), hst.sampled_from(F.elements()))

    def raw():
        length = draw(hst.integers(0, N_MAX[F.p]))
        return draw(SHIFTS), draw(hst.lists(coord, min_size=length, max_size=length))

    return Model(q), raw(), raw(), draw(hst.integers(-4, 8))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_case())
def test_padic_arithmetic_is_galois_ring_arithmetic(case):
    M, (sx, cx), (sy, cy), k = case
    F, gr = M.field, M.gr
    x, y = PadicWittNumber(F, sx, cx), PadicWittNumber(F, sy, cy)
    for (s, c), v in (((sx, cx), x), ((sy, cy), y)):
        assert normalized(v)
        assert v.abs_prec == s + len(c)
        assert M.agree(M.at(v, s), M.of(s, c, s), s, v.abs_prec)

    def check(r, want, base, prec):
        assert normalized(r)
        assert r.abs_prec == prec
        assert M.agree(M.at(r, base), want, base, prec)

    base = min(x.shift, y.shift)
    prec = min(x.abs_prec, y.abs_prec)
    wx, wy = M.at(x, base), M.at(y, base)
    check(x + y, gr.add(wx, wy), base, prec)
    check(x - y, gr.add(wx, gr.neg(wy)), base, prec)

    prod = gr.mul(M.at(x, x.shift), M.at(y, y.shift))
    check(x * y, prod, x.shift + y.shift, min(x.abs_prec + y.shift, y.abs_prec + x.shift))

    if not x.is_zero():
        xi = x.inv()
        assert normalized(xi) and xi.shift == -x.shift
        assert xi.abs_prec == len(x.mantissa) - x.shift
        unit = gr.mul(M.at(xi, xi.shift), M.at(x, x.shift))
        assert M.agree(unit, gr.one, 0, len(x.mantissa))

    t = x.truncate_abs(k)
    check(t, M.at(x, min(x.shift, k)), min(x.shift, k), min(k, x.abs_prec))

    check(x.p_times(k), M.at(x, x.shift), x.shift + k, x.abs_prec + k)

    low, high = x.split(k)
    check(low, M.at(x, min(x.shift, k)), min(x.shift, k), min(k, x.abs_prec))
    assert normalized(high) and high.abs_prec == x.abs_prec - k
    assert high.is_zero() or high.shift >= 0
    base = min(x.shift, k)
    whole = gr.add(M.at(low, base), M.of(high.shift + k, high.mantissa, base))
    assert M.agree(whole, M.at(x, base), base, x.abs_prec)


@hst.composite
def _witt_pair(draw):
    q = draw(hst.sampled_from(TABLE_QS))
    F = GF(q)
    N = draw(hst.integers(1, N_MAX[F.p]))
    coord = hst.one_of(hst.just(F.zero), hst.sampled_from(F.elements()))
    a, b = (tuple(draw(hst.lists(coord, min_size=N, max_size=N))) for _ in "ab")
    return F, a, b, draw(hst.integers(0, N))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_witt_pair())
def test_galois_ring_numbers_agree_with_table_arithmetic(case):
    """At shift 0 a number and the Witt vector of the same coordinates are one
    value: every operation agrees with witt_arith / witt_inv on the tables."""
    F, a, b, k = case
    N = len(a)
    x, y = PadicWittNumber(F, 0, a), PadicWittNumber(F, 0, b)
    va, vb = WittVector(F, a), WittVector(F, b)

    def same(r, w):
        assert r.truncate_abs(N) == PadicWittNumber(F, 0, w.coords)

    same(x + y, witt_arith("add", va, vb))
    same(x - y, va - vb)
    same(-x, witt_arith("neg", va))
    same(x * y, witt_arith("mul", va, vb))
    if va.is_unit():
        assert x.mantissa == a
        same(x.inv(), witt_inv(va))
    # split at k keeps the first k Witt coordinates: x = low + p^k * high with
    # low = (a_0, ..., a_{k-1}, 0, ...) and p^k * high = (0, ..., 0, a_k, ...)
    low, high = x.split(k)
    assert low == PadicWittNumber(F, 0, a[:k])
    assert high == PadicWittNumber(F, -k, (F.zero,) * k + a[k:])
    head = WittVector(F, a[:k] + (F.zero,) * (N - k))
    tail = WittVector(F, (F.zero,) * k + a[k:])
    assert witt_arith("add", head, tail) == va
