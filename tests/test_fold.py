"""Finite-field Witt arithmetic against the per-field fold of the unfolded tables.

x^q = x at every point of F_q, so folding every exponent e >= 1 of the unfolded
levels to ((e - 1) mod (q - 1)) + 1 gives laws that hold over F_q.  Over F_p
the levels solved in R_p must be that fold, term for term.  Over every F_q the
arithmetic, on the R_p tables for q = p and in the Galois ring for q > p, must
be the fold evaluated at the operands.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wittgrass import structure as st
from wittgrass.fields import GF
from wittgrass.witt import witt_arith, witt_random

FIELD_SIZES = (2, 3, 4, 5, 8, 9, 25)
ENVELOPE = {2: 6, 3: 5, 5: 4}  # the longest table of each prime under the default limit


def _prime(q):
    return next(p for p in (2, 3, 5) if q % p == 0)


def _direct_fold(level, q, p):
    """Fold every exponent field of every key by e -> ((e - 1) mod (q - 1)) + 1,
    merge equal monomials mod p and decode: the rule, one field at a time."""
    merged = {}
    for key, c in level.items():
        monomial = tuple(
            (slot, (e - 1) % (q - 1) + 1) for slot, e in st.key_exponents(key)
        )
        merged[monomial] = merged.get(monomial, 0) + c
    form = []
    for monomial, c in merged.items():
        if c % p:
            mask = sum(1 << slot for slot, _ in monomial)
            variables = tuple(slot << st.SHIFT | e for slot, e in monomial)
            form.append((mask, variables, c % p))
    return sorted(form)


def _evaluate(F, forms, a, b):
    """The Witt vector of the folded forms at the F_q points a and b, one
    term at a time."""
    coords = a.coords + (F.zero,) * (st.MAX_SLOTS - a.length) + b.coords
    out = []
    for form in forms:
        acc = F.zero
        for _, variables, c in form:
            term = F.from_int(c)
            for v in variables:
                term = term * coords[v >> st.SHIFT] ** (v & st.EXP_MASK)
            acc = acc + term
        out.append(acc)
    return out


@pytest.mark.parametrize("q", FIELD_SIZES, ids=lambda q: f"F{q}")
@pytest.mark.parametrize("op", st.OPS)
def test_folded_levels_match_the_per_field_rule(tmp_path, op, q):
    p = _prime(q)
    top = ENVELOPE[p]
    expected = [_direct_fold(level, q, p) for level in st.solve_levels(p, op, top)]
    if q == p:
        for N in range(1, top + 1):
            folded = st.solve_levels(p, op, N, folded=True)
            assert [sorted(st._evaluation_form(level)) for level in folded] == expected[:N]
        # the forms Witt arithmetic evaluates, from a table that reads no file
        table = st.StructurePolynomialTable(p, str(tmp_path))
        assert [sorted(form) for form in table.reduced(op, True, top)] == expected
        assert list(tmp_path.iterdir()) == []
    F, rng = GF(q), random.Random(q)
    for N in range(1, top + 1):
        for _ in range(3):
            a, b = witt_random(F, N, rng), witt_random(F, N, rng)
            got = witt_arith(op, a) if op == "neg" else witt_arith(op, a, b)
            assert list(got.coords) == _evaluate(F, expected[:N], a, b), (a, b)


def _fold_fields(key, p):
    """key with every exponent e >= 1 folded to ((e - 1) mod (p - 1)) + 1."""
    return sum(((e - 1) % (p - 1) + 1) << (st.SHIFT * slot) for slot, e in st.key_exponents(key))


@hst.composite
def _folded_keys(draw):
    """A prime and two packed keys of R_p: each slot's exponent 0..p-1."""
    p = draw(hst.sampled_from((2, 3, 5)))
    exponent = hst.integers(0, p - 1)
    slots = range(2 * st.MAX_SLOTS)
    k1, k2 = (sum(draw(exponent) << (st.SHIFT * slot) for slot in slots) for _ in "ab")
    return p, k1, k2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_folded_keys())
def test_class_keys_multiply_as_folded_monomials(case):
    p, k1, k2 = case
    keys = st._ClassKeys(p)
    c1, c2 = keys.encode(k1), keys.encode(k2)
    assert keys.decode(c1) == k1
    assert keys.decode(c2) == k2
    (product,) = keys.mul({c1: 1}, {c2: 1})
    assert keys.decode(product) == _fold_fields(k1 + k2, p)
    square = {c1: 1}
    (product,) = keys.mul(square, square)
    assert keys.decode(product) == _fold_fields(2 * k1, p)
