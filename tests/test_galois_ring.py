"""Witt arithmetic over F_q against the Galois ring GR(p^N, e).

W_N(F_q) is isomorphic to GR(p^N, e) = (Z/p^N)[u]/(f), where f is the stored
irreducible polynomial of F_q = F_p[u]/(f) with its coefficients read as
integers.  The isomorphism sends a = (a_0, ..., a_{N-1}) to
sum_i p^i * T(a_i^(p^-i)), with the Teichmuller lift T(c) = c^(q^(N-1)) of any
integer lift of c.  The ring below shares no code with the structure tables.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as hst

from wittgrass.fields import GF, IRREDUCIBLE
from wittgrass.witt import WittVector, witt_arith, witt_inv

# longest N per prime; (3, 5) and (5, 4) are in the table envelope too, but
# generating them costs 12 s and 3 s per test session
N_MAX = {2: 6, 3: 4, 5: 3}
QS = (2, 3, 4, 5, 8, 9, 25)


class GaloisRing:
    """(Z/p^N)[u]/(f) on coefficient tuples, low degree first."""

    def __init__(self, q, N):
        self.field = F = GF(q)
        self.p, self.e, self.N = F.p, F.e, N
        self.mod = F.p**N
        # u^e = -(c_0 + c_1 u + ... + c_{e-1} u^{e-1}), read over Z
        self.top = tuple(-c for c in IRREDUCIBLE.get((F.p, F.e), ()))
        self.zero = (0,) * self.e
        self.one = (1,) + (0,) * (self.e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.mod for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.mod for x in a)

    def mul(self, a, b):
        e = self.e
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = conv.pop()
            for i, t in enumerate(self.top):
                conv[k - e + i] += c * t
        return tuple(x % self.mod for x in conv)

    def pow(self, a, n):
        acc = self.one
        while n:
            if n & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            n >>= 1
        return acc

    def teichmuller(self, c):
        return self.pow(c.val, self.field.q ** (self.N - 1))

    def of_witt(self, v):
        """The image of a Witt vector: sum_i p^i * T(a_i^(p^-i))."""
        acc = self.zero
        for i, c in enumerate(v.coords):
            for _ in range(i):
                c = c.pth_root()
            lift = self.teichmuller(c)
            acc = self.add(acc, tuple(self.p**i * x for x in lift))
        return acc


def test_the_map_to_the_galois_ring_is_injective():
    for q, N in ((2, 3), (4, 2), (3, 2), (9, 1)):
        gr = GaloisRing(q, N)
        F = gr.field
        images = {
            gr.of_witt(WittVector(F, coords))
            for coords in itertools.product(F.elements(), repeat=N)
        }
        assert len(images) == q**N


@hst.composite
def _operands(draw):
    q = draw(hst.sampled_from(QS))
    F = GF(q)
    N = draw(hst.integers(1, N_MAX[F.p]))
    # half the coordinates are zero, so terms skipped by the zero mask abound
    coord = hst.one_of(hst.just(F.zero), hst.sampled_from(F.elements()))
    a, b = (WittVector(F, draw(hst.lists(coord, min_size=N, max_size=N))) for _ in "ab")
    return GaloisRing(q, N), a, b


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_operands())
def test_witt_arithmetic_is_galois_ring_arithmetic(case):
    gr, a, b = case
    ga, gb = gr.of_witt(a), gr.of_witt(b)
    assert gr.of_witt(witt_arith("add", a, b)) == gr.add(ga, gb)
    assert gr.of_witt(witt_arith("mul", a, b)) == gr.mul(ga, gb)
    assert gr.of_witt(witt_arith("neg", a)) == gr.neg(ga)
    if a.is_unit():
        assert gr.mul(gr.of_witt(witt_inv(a)), ga) == gr.one
