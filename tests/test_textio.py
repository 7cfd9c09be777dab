"""Text formats: printer output parses back to an equal value."""

import json

import pytest

from wittgrass import cli
from wittgrass.errors import UsageError
from wittgrass.fields import GF
from wittgrass.lattice import PadicWittNumber
from wittgrass.textio import parse_padic, parse_padic_matrix


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
