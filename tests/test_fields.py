"""The tables of FiniteField against a reference on plain integer lists.

F_q = F_p[u]/(f) for the stored IRREDUCIBLE polynomial f.  The reference
multiplies two coefficient lists by the schoolbook rule and takes the
remainder of a long division by the monic f, mod p; inverses and p-th roots
are found by search.  It shares no code with the product of ``fields``.
"""

import itertools

import pytest

from wittgrass.errors import NonUnit
from wittgrass.fields import GF, IRREDUCIBLE

SUPPORTED_Q = (2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 125)


def monic(p, e):
    """f as its coefficient list, low degree first, leading 1 included."""
    return list(IRREDUCIBLE.get((p, e), ())) + [1]


def ref_mul(p, e, a, b):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    f = monic(p, e)
    while len(prod) > e:  # subtract lead * u^(deg - e) * f
        lead = prod[-1]
        shift = len(prod) - 1 - e
        for i, c in enumerate(f):
            prod[shift + i] -= lead * c
        assert prod.pop() == 0
    return tuple(x % p for x in prod)


@pytest.fixture(params=SUPPORTED_Q, ids=lambda q: f"F{q}")
def field(request):
    return GF(request.param)


def test_elements_are_every_tuple_once_in_order(field):
    p, e = field.p, field.e
    elems = field.elements()
    # lexicographic from the top coefficient down: code = sum_i c_i p^i
    assert [x.val for x in elems] == [
        tuple(reversed(t)) for t in itertools.product(range(p), repeat=e)
    ]
    assert elems is field.elements()  # interned, not rebuilt
    assert field.zero is elems[0] and field.one is elems[1]


def test_add_neg_and_mul_tables_match_the_reference(field):
    p, e = field.p, field.e
    elems = field.elements()
    index = {x.val: x for x in elems}
    for a in elems:
        assert field.neg(a) is index[tuple(-x % p for x in a.val)]
        for b in elems:
            assert field.add(a, b) is index[tuple((x + y) % p for x, y in zip(a.val, b.val))]
            assert field.mul(a, b) is index[ref_mul(p, e, a.val, b.val)]


def test_inverse_and_pth_root_tables_match_a_search(field):
    p, e = field.p, field.e
    elems = field.elements()
    one = field.one.val
    for a in elems[1:]:
        (inverse,) = [b for b in elems if ref_mul(p, e, a.val, b.val) == one]
        assert field.inv(a) is inverse
    with pytest.raises(NonUnit):
        field.inv(field.zero)
    roots = {}
    for b in elems:
        bp = one
        for _ in range(p):
            bp = ref_mul(p, e, bp, b.val)
        roots.setdefault(bp, []).append(b)
    for a in elems:
        assert roots[a.val] == [field.pth_root(a)]


@pytest.mark.parametrize("q", [q for q in SUPPORTED_Q if q not in (2, 3, 5)])
def test_u_is_a_root_of_its_polynomial(q):
    field = GF(q)
    u = field.gen()
    value = field.zero
    for i, c in enumerate(monic(field.p, field.e)):
        value = value + field.from_int(c) * u**i
    assert value == field.zero


def test_no_zero_divisors(field):
    # F_p[u]/(f) has none exactly when f is irreducible
    nonzero = field.elements()[1:]
    assert not [(a, b) for a in nonzero for b in nonzero if field.mul(a, b).is_zero()]
