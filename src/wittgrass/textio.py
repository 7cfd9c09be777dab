"""Text formats for the CLI: ring-element, polynomial, Witt-vector and matrix
literals.

One expression parser reads every polynomial-like literal: a coordinate of a
Witt vector (``u+1`` in F_4), an ideal or family generator in the ``x[i,j]``
(``t^-2*x[1,0]`` over F_q(t)), a Witt polynomial map in T1..Td.  It builds
elements of the ring it is given: an integer is ``ring.from_int(n)``, a symbol
is what the caller's ``resolve(name, indices)`` returns, and the values
combine with their own + - * **.  Witt vectors print and parse as
``(a0,a1,...)``, one coefficient literal per coordinate.  Valuation-shifted
numbers are ``p^v*(a0,...)``; matrices are semicolon-separated rows of
comma-separated entries, commas inside parentheses binding to their entry.
Every printer output parses back to an equal value.

This module imports no ring at module level and never imports ``rings``: an
F_q(t) literal is built by the ring it is read over.  It imports ``witt`` only
in parse_witt_vector and ``lattice`` only in the p-adic parsers.  So a
Witt-vector command over F_q loads neither ``poly`` nor ``rings``, and the
p-adic commands (``lattice snf`` and ``classify``) load neither ``witt`` nor
``structure``.
"""

from __future__ import annotations

import re

from .errors import UsageError
from .fields import FiniteField

# Parentheses nested deeper than this are refused before Python's recursion
# limit is reached.
MAX_NESTING = 200
# Exponents beyond this are refused before any power is taken: F_q(t) stores
# t^k as k + 1 coefficients, so a power costs memory linear in its exponent.
MAX_EXPONENT = 10_000

_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|(\S)")


def _tokens(text):
    toks = []
    for digits, name, ch in _TOKEN.findall(text):
        if digits:
            try:
                toks.append(("int", int(digits)))
            except ValueError:  # beyond the interpreter's limit on digits
                raise UsageError(f"integer literal of {len(digits)} digits is too long") from None
        elif name:
            toks.append(("name", name))
        elif ch in "+-*^()[],":
            toks.append((ch, ch))
        else:
            raise UsageError(f"unexpected character {ch!r} in polynomial text")
    return toks


def parse_expression(ring, text, resolve):
    """Parse a polynomial expression into an element of ``ring``.

    An integer is ``ring.from_int(n)``; a symbol, with an optional ``[i,j]``
    index suffix, is ``resolve(name, indices)``, an element of ``ring``.  A
    negative exponent applies only to a symbol whose value is a unit, and no
    exponent may exceed MAX_EXPONENT in absolute value.
    """
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if kind is not None and tok[0] != kind:
            raise UsageError(f"expected {kind!r}, found {tok[1]!r}")
        pos += 1
        return tok

    def read_int():
        if peek()[0] == "-":
            take()
            return -take("int")[1]
        return take("int")[1]

    def parse_expr(depth):
        node = parse_term(depth)
        while peek()[0] in ("+", "-"):
            if take()[0] == "+":
                node = node + parse_term(depth)
            else:
                node = node - parse_term(depth)
        return node

    def parse_term(depth):
        node = parse_factor(depth)
        while peek()[0] == "*":
            take()
            node = node * parse_factor(depth)
        return node

    def parse_factor(depth):
        negate = False
        while peek()[0] == "-":
            take()
            negate = not negate
        kind, val = take()
        if kind == "int":
            node = ring.from_int(val)
        elif kind == "(":
            if depth >= MAX_NESTING:
                raise UsageError(
                    f"expression nested too deeply: more than {MAX_NESTING} parentheses"
                )
            node = parse_expr(depth + 1)
            take(")")
        elif kind == "name":
            indices = None
            if peek()[0] == "[":
                take()
                i = read_int()
                take(",")
                indices = (i, read_int())
                take("]")
            node = resolve(val, indices)
        else:
            raise UsageError(f"unexpected token {val!r}")
        if peek()[0] == "^":
            take()
            n = read_int()
            if abs(n) > MAX_EXPONENT:
                raise UsageError(
                    f"exponent {n} in {text!r} is beyond the bound of {MAX_EXPONENT} "
                    f"on an exponent in a literal"
                )
            if n < 0 and not (kind == "name" and node.is_unit()):
                raise UsageError("negative exponents only apply to coefficient units")
            node = node**n
        return -node if negate else node

    node = parse_expr(0)
    if peek()[0] is not None:
        raise UsageError(f"trailing input at {peek()[1]!r}")
    return node


def scalar_resolver(ring):
    """Resolver of u (the generator of F_q) and t (the variable of F_q(t)) to
    elements of the coefficient ring ``ring``, F_q or F_q(t)."""
    if isinstance(ring, FiniteField):
        symbols = {"u": ring.gen}
    else:
        symbols = {"u": lambda: ring.const(ring.base.gen()), "t": lambda: ring.t_power(1)}

    def resolve(name, indices):
        if indices is not None:
            raise UsageError(f"unexpected indexed symbol {name}[..] in a scalar")
        if name not in symbols:
            raise UsageError(f"unknown scalar symbol {name!r}")
        return symbols[name]()

    return resolve


def parse_scalar(ring, text):
    """Parse a coefficient-ring literal (a polynomial expression in u, t)."""
    return parse_expression(ring, text, scalar_resolver(ring))


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
    ``p^1*(1)`` at N = 2, and ``p^2*()``, zero modulo p^2.  ``()`` is the
    empty mantissa after such a prefix, and without N after any prefix or
    none: ``()`` and ``p^-1*()`` are zero modulo p^0 and p^-1.
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
    # () is the empty mantissa, not one blank coordinate, unless N asks for one
    empty = (shift > 0 or N is None) and text.replace(" ", "") == "()"
    coords = [] if empty else _coords(ring, text)
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


def coordinate_resolver(ring):
    """Resolver for ideal and family text over the PolyRing ``ring``: x[i,j]
    are its variables, u and t scalars of its coefficient ring."""
    scalar = scalar_resolver(ring.coeff)

    def resolve(name, indices):
        if name == "x" and indices is not None:
            return ring.var(ring.index_of(f"x[{indices[0]},{indices[1]}]"))
        return ring.const(scalar(name, indices))

    return resolve


def parse_coordinate_poly(ring, text):
    return parse_expression(ring, text, coordinate_resolver(ring))
