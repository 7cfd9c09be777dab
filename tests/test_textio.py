"""Text formats: printer output parses back to an equal value."""

import json
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as hst

from wittgrass import cli
from wittgrass.errors import UsageError, WittgrassError
from wittgrass.fields import GF
from wittgrass.greenberg import coord_ring, parse_witt_map
from wittgrass.hilbert import family_ring
from wittgrass.lattice import PadicWittNumber
from wittgrass.rings import MAX_POWER_DEGREE, RationalFunctionField
from wittgrass.textio import (
    MAX_EXPONENT,
    parse_coordinate_poly,
    parse_padic,
    parse_padic_matrix,
    parse_scalar,
    parse_witt_vector,
)
from wittgrass.witt import WittVector


def _literal(printed):
    """A printed WittMatrix, ``[a, b]`` per line, as a matrix literal."""
    return ";".join(line.strip()[1:-1] for line in printed.splitlines())


def _factors_parse_back(p, matrix, capsys):
    argv = ["lattice", "snf", "--p", str(p), "--N", "2", matrix]
    assert cli.main(argv + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for printed in (out["U"], out["V"]):
        M = parse_padic_matrix(GF(p), _literal(printed), 2)
        assert repr(M) == printed
        again = parse_padic_matrix(GF(p), _literal(repr(M)), 2)
        assert again.entries == M.entries
    return out


def test_snf_factors_parse_back(capsys):
    out = _factors_parse_back(2, "(1,1),(0,1);(1,0),(1,1)", capsys)
    # the factors hold entries in absolute-precision form
    assert "p^2*()" in out["U"] and "p^1*(1)" in out["V"]


def test_snf_factors_parse_back_when_the_input_holds_more_digits(capsys):
    # p*(1,2) is known modulo p^3; the factors are still printed modulo p^2
    out = _factors_parse_back(3, "p*(1,2),(2,1);(1,0),p^-1*(1,1)", capsys)
    assert out["V"] == "[(1,0), p^2*()]\n[p^1*(1), (1,0)]"


def test_snf_factor_feeds_classify(capsys):
    argv = ["lattice", "classify", "--p", "2", "--N", "2", "(1,0),p^2*();p^2*(),(1,0)"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == "0,0"


@pytest.mark.parametrize(
    "text, shift, coords",
    [
        ("p^2*()", 2, ()),
        ("p^3*()", 3, ()),
        ("p^1*(1)", 1, (1,)),
        ("p^1*(1,0)", 1, (1, 0)),
        ("p^2*(1,1)", 2, (1, 1)),
        ("p^-1*(1,1)", -1, (1, 1)),
        ("(0,1)", 1, (1,)),
    ],
)
def test_padic_lengths_accepted(text, shift, coords):
    F = GF(2)
    assert parse_padic(F, text, 2) == PadicWittNumber(F, shift, [F.from_int(c) for c in coords])


@pytest.mark.parametrize("N", [None, 3])
def test_padic_empty_mantissa_after_a_prefix(N):
    # printed by `lattice snf` for a zero entry; no blank coordinate is read
    F = GF(3)
    x = parse_padic(F, "p^3*()", N)
    assert x == PadicWittNumber(F, 3, [])
    assert repr(x) == "p^3*()"


@pytest.mark.parametrize(
    "text", ["p^1*()", "p^1*(1,0,1)", "p^2*(1)", "p^-1*(1)", "(1)", "(1,0,1)", "p^0*(1)"]
)
def test_padic_other_lengths_refused(text):
    with pytest.raises(UsageError, match="coordinates"):
        parse_padic(GF(2), text, 2)


# -- the expression parser: printer output parses back, bad text is refused ---

QS = [2, 3, 4, 5, 8, 9, 25]


@pytest.mark.parametrize("q", QS)
def test_field_elements_parse_back(q):
    F = GF(q)
    for c in F.elements():
        assert parse_scalar(F, repr(c)) == c


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hst.sampled_from(QS), hst.data())
def test_coordinate_polynomials_parse_back(q, data):
    F = GF(q)
    R = coord_ring(F, 2, 2)
    monomial = hst.tuples(*[hst.integers(0, 3)] * 4)
    terms = data.draw(hst.dictionaries(monomial, hst.sampled_from(F.elements()), max_size=5))
    f = sum((R.monomial(m, c) for m, c in terms.items()), R.zero)
    assert parse_coordinate_poly(R, repr(f)) == f


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hst.sampled_from(QS), hst.integers(1, 4), hst.data())
def test_witt_vectors_parse_back(q, N, data):
    F = GF(q)
    coords = data.draw(hst.lists(hst.sampled_from(F.elements()), min_size=N, max_size=N))
    v = WittVector(F, coords)
    assert parse_witt_vector(F, repr(v), N) == v


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hst.sampled_from(QS), hst.integers(-3, 3), hst.data())
def test_padic_numbers_parse_back(q, shift, data):
    F = GF(q)
    coords = data.draw(hst.lists(hst.sampled_from(F.elements()), min_size=1, max_size=3))
    x = PadicWittNumber(F, shift, coords)
    assert parse_padic(F, repr(x)) == x


def test_padic_zero_without_digits_parses_back():
    F = GF(2)
    x = PadicWittNumber(F, -1, [F.zero])  # zero modulo p^0
    assert repr(x) == "()"
    assert parse_padic(F, repr(x)) == x
    for text, shift in (("()", 0), ("p^-1*()", -1), ("p^2*()", 2)):
        y = parse_padic(F, text)
        assert (y.is_zero(), y.abs_prec, repr(y)) == (True, shift, text)
    # with N, () is one zero coordinate unless a prefix v > 0 comes first
    assert parse_padic(F, "()", 1) == PadicWittNumber(F, 0, [F.zero])


def test_overlong_integer_literal_is_refused():
    # int() refuses more digits than sys.get_int_max_str_digits() allows
    with pytest.raises(UsageError, match="5000 digits is too long"):
        parse_scalar(GF(2), "1" * 5000)


def test_literal_exponents_are_bounded():
    F = GF(4)
    assert parse_scalar(F, f"u^{MAX_EXPONENT}") == parse_scalar(F, f"u^{MAX_EXPONENT % 3}")
    for text in (f"u^{MAX_EXPONENT + 1}", f"u^-{MAX_EXPONENT + 1}"):
        message = f"in {text!r} is beyond the bound of {MAX_EXPONENT}"
        with pytest.raises(UsageError, match=re.escape(message)):
            parse_scalar(F, text)


@pytest.mark.parametrize("ring", [RationalFunctionField(GF(2))], ids=["rational"])
def test_powers_past_the_degree_bound_are_refused(ring):
    # values built without the parser: the ring bounds degree times exponent
    t, one = parse_scalar(ring, "t"), ring.one
    at_bound = parse_scalar(ring, f"t^{MAX_EXPONENT}") ** (MAX_POWER_DEGREE // MAX_EXPONENT)
    assert t**MAX_POWER_DEGREE == at_bound
    for base, n in ((t + one, MAX_POWER_DEGREE + 1), (t * t + one, -(MAX_POWER_DEGREE // 2 + 1))):
        with pytest.raises(UsageError, match=f"bound of {MAX_POWER_DEGREE}"):
            base**n


# text over digits that int() and str.isdigit() take but the grammar does not
# (superscript two, Arabic-Indic three), letters the parsers know and some they
# do not, and every operator
ALPHABET = "0123456789²٣utxTpq+-*^()[],; "

PARSERS = {
    "scalar": lambda text: parse_scalar(GF(4), text),
    "witt-vector": lambda text: parse_witt_vector(GF(4), text, 2),
    "coordinate-poly": lambda text: parse_coordinate_poly(coord_ring(GF(4), 2, 2), text),
    "family-poly": lambda text: parse_coordinate_poly(family_ring(GF(2), 2, 2), text),
    "witt-map": lambda text: parse_witt_map(text, GF(4), 2),
    "padic": lambda text: parse_padic(GF(4), text, 2),
    "padic-matrix": lambda text: parse_padic_matrix(GF(4), text, 2),
}


# seconds any one input may take to parse or be refused: generous beside the
# few milliseconds an input takes, for machines whose speed drifts by 2x
PER_INPUT_SECONDS = 1.0
# a literal exponent far past MAX_EXPONENT, which a dense power would take
# seconds and gigabytes to build
HUGE_POWER = "t^1000000000"


@pytest.mark.parametrize("parser", PARSERS, ids=list(PARSERS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=hst.text(ALPHABET, max_size=24))
@example(text=HUGE_POWER)
def test_any_text_parses_or_is_refused(parser, text):
    refused = None
    start = time.perf_counter()
    try:
        PARSERS[parser](text)
    except WittgrassError as exc:
        refused = exc
    assert time.perf_counter() - start < PER_INPUT_SECONDS
    if text == HUGE_POWER:  # a usage error, which the CLI exits with 2
        assert isinstance(refused, UsageError)
