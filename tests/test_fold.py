"""The levels solved over F_q against the per-field fold of the unfolded ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wittgrass import structure as st

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


@pytest.mark.parametrize("q", FIELD_SIZES, ids=lambda q: f"F{q}")
@pytest.mark.parametrize("op", st.OPS)
def test_folded_levels_match_the_per_field_rule(tmp_path, op, q):
    p = _prime(q)
    top = ENVELOPE[p]
    expected = [_direct_fold(level, q, p) for level in st.solve_levels(p, op, top)]
    for N in range(1, top + 1):
        folded = st.solve_levels(p, op, N, q=q)
        assert [sorted(st._evaluation_form(level)) for level in folded] == expected[:N]
    assert st.verify_ghost(p, op, folded, q=q)
    # the forms Witt arithmetic evaluates, from a table that reads no file
    table = st.StructurePolynomialTable(p, str(tmp_path))
    assert [sorted(form) for form in table.reduced(op, q, top)] == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q", (2, 4, 9, 25), ids=lambda q: f"F{q}")
def test_folded_ghost_congruence_refuses_edits(q):
    p = _prime(q)
    levels = st.solve_levels(p, "add", 3, q=q)
    assert st.verify_ghost(p, "add", levels, q=q)
    key, c = min(levels[2].items())
    edited = dict(levels[2])
    if (c + 1) % p:
        edited[key] = (c + 1) % p
    else:
        del edited[key]
    assert not st.verify_ghost(p, "add", levels[:2] + [edited], q=q)
    # X0 * m spelled X0^q * m: the same function on F_q, but not a folded key
    unfolded = dict(levels[1])
    key = next(k for k in unfolded if k & st.EXP_MASK)
    unfolded[key + (q - 1) * st.xvar(0)] = unfolded.pop(key)
    assert not st.verify_ghost(p, "add", [levels[0], unfolded, levels[2]], q=q)


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
