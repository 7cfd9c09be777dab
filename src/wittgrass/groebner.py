"""Buchberger's algorithm for the weighted orders used here.

Sparse Buchberger with the normal selection strategy (the S-pair whose lcm of
leading monomials is smallest in the monomial order goes first), the
coprime-leading-term criterion and full interreduction.  The pair order
matters even at desk scale: with pairs taken last-in-first-out, the basis of
one four-generator homogeneous ideal in W_5^2 ran for minutes; by increasing
lcm it takes milliseconds.
"""

from __future__ import annotations

import heapq

from .errors import SizeGuard

BASIS_GUARD = 2000


def _divides(m, lm):
    return all(a <= b for a, b in zip(m, lm))


def _quot(m, d):
    return tuple(a - b for a, b in zip(m, d))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f, basis):
    """Full normal form of f modulo the (not necessarily Groebner) basis."""
    ring = f.ring
    remainder = ring.zero
    work = f
    lms = [(g.lm(), g) for g in basis if not g.is_zero()]
    while not work.is_zero():
        m = work.lm()
        c = work.terms[m]
        for glm, g in lms:
            if _divides(glm, m):
                factor = ring.monomial(_quot(m, glm), c * g.terms[glm].inv())
                work = work - factor * g
                break
        else:
            t = ring.monomial(m, c)
            remainder = remainder + t
            work = work - t
    return remainder


def s_polynomial(f, g):
    ring = f.ring
    lf, lg = f.lm(), g.lm()
    l = _lcm(lf, lg)
    mf = ring.monomial(_quot(l, lf), f.terms[lf].inv())
    mg = ring.monomial(_quot(l, lg), g.terms[lg].inv())
    return mf * f - mg * g


def buchberger(gens):
    """Reduced monic Groebner basis of the ideal generated by ``gens``."""
    gens = [g.scale(g.lc().inv()) for g in gens if not g.is_zero()]
    if not gens:
        return []
    key = gens[0].ring.order_key
    basis = []
    pairs = []  # heap of (order key of lcm of leading monomials, i, j)

    def add(f):
        i, lf = len(basis), f.lm()
        for j, g in enumerate(basis):
            lg = g.lm()
            if any(a and b for a, b in zip(lf, lg)):  # coprime pairs reduce to zero
                heapq.heappush(pairs, (key(_lcm(lf, lg)), i, j))
        basis.append(f)

    for g in gens:
        add(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        if len(basis) >= BASIS_GUARD:
            raise SizeGuard("Groebner basis exceeded the resource guard")
        add(r.scale(r.lc().inv()))
    return interreduce(basis)


def interreduce(basis):
    """Minimal reduced basis: no leading term divides another, tails reduced."""
    basis = [g for g in basis if not g.is_zero()]
    # drop redundant leading terms
    keep = []
    for i, g in enumerate(basis):
        lm = g.lm()
        if any(
            j != i and _divides(basis[j].lm(), lm)
            and (basis[j].lm() != lm or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others)
        if not r.is_zero():
            out.append(r.scale(r.lc().inv()))
    out.sort(key=lambda h: h.ring.order_key(h.lm()))
    return out


def ideal_contains(basis, f):
    """Membership modulo a Groebner basis."""
    return normal_form(f, basis).is_zero()


def ideal_equal(basis_a, basis_b):
    """Equality of ideals given by reduced Groebner bases of the same ring."""
    return set(basis_a) == set(basis_b)
