"""The F_q fold of the evaluation forms against the per-field rule."""

from hypothesis import given, settings, strategies as hst

from wittgrass import structure as st

FIELD_SIZES = (2, 3, 4, 5, 8, 9, 25)


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


def _key(fields):
    return sum(e << (st.SHIFT * slot) for slot, e in fields.items())


_exponents = hst.one_of(hst.integers(1, 60), hst.integers(1, st.EXP_MASK))
_halves = hst.dictionaries(hst.integers(0, st.MAX_SLOTS - 1), _exponents, min_size=1, max_size=4)


@hst.composite
def _levels(draw):
    q = draw(hst.sampled_from(FIELD_SIZES))
    p = next(p for p in (2, 3, 5) if q % p == 0)
    # a few X and Y halves, reused across keys, as the halves of real tables are
    xs = draw(hst.lists(_halves, min_size=1, max_size=6))
    ys = draw(hst.lists(_halves, min_size=1, max_size=6))
    keys = set()
    for x, y in draw(hst.lists(hst.tuples(hst.sampled_from(xs), hst.sampled_from(ys)),
                               min_size=1, max_size=40)):
        keys.add(_key(x) + _key({st.MAX_SLOTS + slot: e for slot, e in y.items()}))
    level = {key: draw(hst.integers(1, p - 1)) for key in sorted(keys)}
    return q, p, level


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_levels())
def test_memoised_fold_matches_the_per_field_rule(case):
    q, p, level = case
    table = st.StructurePolynomialTable(p, 0, {op: [] for op in st.OPS})
    assert sorted(table._fold(level, q)) == _direct_fold(level, q, p)
