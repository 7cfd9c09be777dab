"""Text formats for the CLI: ring-element, Witt-vector and matrix literals.

Witt vectors print and parse as ``(a0,a1,...)`` with one coefficient-ring
literal per coordinate (``u+1`` in F_4, ``t^-2+1`` over Laurent coefficients).
Valuation-shifted numbers are ``p^v*(a0,...)``; matrices are semicolon-
separated rows of comma-separated entries, commas inside parentheses binding
to their entry.  Every printer output parses back to an equal value.

``lattice`` is imported only by the p-adic parsers and ``witt`` only by
parse_witt_vector, so Witt-vector commands do not load ``lattice``, and the
p-adic commands (``lattice snf`` and ``classify``) load neither ``witt`` nor
``structure``.
"""

from __future__ import annotations

from .errors import UsageError
from .poly import PolyRing, parse_polynomial
from .rings import LaurentRing, RationalFunctionField


def scalar_resolver(ring):
    """Resolver mapping u (field generator) and t (Laurent/rational variable)
    into the coefficient ring ``ring``."""

    def resolve(name, indices):
        if indices is not None:
            raise UsageError(f"unexpected indexed symbol {name}[..] in a scalar")
        if name == "u":
            if isinstance(ring, LaurentRing):
                return ("coeff", ring.const(ring.field.gen()))
            if isinstance(ring, RationalFunctionField):
                return ("coeff", ring.const(ring.base.gen()))
            return ("coeff", ring.gen())
        if name == "t":
            if isinstance(ring, LaurentRing):
                return ("coeff", ring.monomial(1))
            if isinstance(ring, RationalFunctionField):
                return ("coeff", ring.t_power(1))
        raise UsageError(f"unknown scalar symbol {name!r}")

    return resolve


def parse_scalar(ring, text):
    """Parse a coefficient-ring literal (a polynomial expression in u, t)."""
    shell = PolyRing(ring, (), ())
    poly = parse_polynomial(shell, text, resolve=scalar_resolver(ring))
    if poly.is_zero():
        return ring.zero
    return poly.terms[()]


def split_top_level(text, sep):
    """Split on sep at parenthesis depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if depth:
        raise UsageError("unbalanced parentheses")
    return parts


def _coords(ring, text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise UsageError(f"Witt vector literal must be parenthesized: {text!r}")
    return [
        parse_scalar(ring, part.strip() or "0")
        for part in split_top_level(text[1:-1], ",")
    ]


def parse_witt_vector(ring, text, N=None):
    from .witt import WittVector

    coords = _coords(ring, text)
    if N is not None and len(coords) != N:
        raise UsageError(f"expected {N} coordinates, found {len(coords)}")
    return WittVector(ring, coords)


def parse_padic(ring, text, N=None):
    """``p^v*(a0,...)`` or plain ``(a0,...)``; v may be negative.

    With N given the mantissa has N coordinates, or, after a prefix with
    v > 0, the N - v that the printer writes for a value known modulo p^N:
    ``p^1*(1)`` at N = 2, and ``p^2*()``, zero modulo p^2.  With or without
    N, ``()`` after such a prefix is the empty mantissa.
    """
    from .lattice import PadicWittNumber

    text = text.strip()
    shift = 0
    if text.startswith("p"):
        head, _, rest = text.partition("*")
        rest = rest.strip()
        spec = head.strip()
        if spec == "p":
            shift = 1
        elif spec.startswith("p^"):
            try:
                shift = int(spec[2:])
            except ValueError:
                raise UsageError(f"bad shift {spec!r}") from None
        else:
            raise UsageError(f"bad shift prefix {spec!r}")
        if not rest:
            rest = "(1" + ",0" * ((N or 1) - 1) + ")"
        text = rest
    # after a prefix, () is the empty mantissa, not one blank coordinate
    coords = [] if shift > 0 and text.replace(" ", "") == "()" else _coords(ring, text)
    if N is None:
        return PadicWittNumber(ring, shift, coords)
    short = max(N - shift, 0) if shift > 0 else N
    if len(coords) not in (N, short):
        want = N if short == N else f"{N} or {short}"
        raise UsageError(f"expected {want} coordinates, found {len(coords)}")
    return PadicWittNumber(ring, shift, coords)


def parse_padic_matrix(ring, text, N=None):
    from .lattice import WittMatrix

    rows = []
    width = None
    for row_text in text.split(";"):
        entries = [
            parse_padic(ring, part, N)
            for part in split_top_level(row_text.strip(), ",")
        ]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise UsageError("ragged matrix literal")
        rows.append(entries)
    if len(rows) != width:
        raise UsageError("matrix literal must be square")
    return WittMatrix(ring, rows)


def parse_cocharacter(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad cocharacter literal {text!r}") from None


def coordinate_resolver(ring, scalar_ring):
    """Resolver for ideal/family polynomial text: x[i,j] are variables,
    u and t are scalars."""
    fallback = scalar_resolver(scalar_ring)

    def resolve(name, indices):
        if name == "x" and indices is not None:
            display = f"x[{indices[0]},{indices[1]}]"
            return ("var", ring.index_of(display))
        return fallback(name, indices)

    return resolve


def parse_coordinate_poly(ring, text):
    return parse_polynomial(ring, text, resolve=coordinate_resolver(ring, ring.coeff))
