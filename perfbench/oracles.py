"""Output oracles for the benchmark jobs.

Nothing here imports ``wittgrass``: every check recomputes the expected answer
from first principles, so a defect in the package cannot hide in a check that
reuses its code.  Each ``check_*`` function takes the job's arguments and its
parsed ``--format json`` payload and returns a list of problems; an empty list
means the output is right.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# dominance order and Macdonald's cell-count formula
# ---------------------------------------------------------------------------

def is_dominant(lam):
    return all(a >= b for a, b in zip(lam, lam[1:]))


def dominance_leq(mu, lam):
    """mu <= lam in the dominance order of cocharacters of SL_n."""
    if len(mu) != len(lam) or sum(mu) != sum(lam):
        return False
    a = sorted(mu, reverse=True)
    b = sorted(lam, reverse=True)
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def _poincare(blocks, t):
    """Poincare polynomial of S_{b1} x S_{b2} x ... evaluated at t."""
    out = Fraction(1)
    for b in blocks:
        for i in range(1, b + 1):
            out *= sum(t**k for k in range(i))
    return out


def macdonald_count(lam, q):
    """|Gr_lam(F_q)| = q^<2rho,lam> * W(q^-1) / W_lam(q^-1)  (Macdonald 1971)."""
    n = len(lam)
    two_rho = sum(lam[i] - lam[j] for i in range(n) for j in range(i + 1, n))
    blocks = []
    for v in lam:
        if blocks and blocks[-1][0] == v:
            blocks[-1][1] += 1
        else:
            blocks.append([v, 1])
    t = Fraction(1, q)
    count = q**two_rho * _poincare([n], t) / _poincare([m for _, m in blocks], t)
    if count.denominator != 1:
        raise ArithmeticError(f"non-integral cell count for {lam}, q={q}")
    return int(count)


def window_cells(n, window):
    """Dominant cocharacters with entries in [-window, window] summing to 0."""
    out = []

    def rec(prefix, hi):
        if len(prefix) == n:
            if sum(prefix) == 0:
                out.append(tuple(prefix))
            return
        for v in range(hi, -window - 1, -1):
            rec(prefix + [v], v)

    rec([], window)
    return sorted(out)


def expected_cell_table(n, q, window):
    return {lam: macdonald_count(lam, q) for lam in window_cells(n, window)}


def _cells_of(entries):
    table = {}
    for item in entries:
        table[tuple(item["lambda"])] = item["count"]
    return table


def check_cell_table(n, q, window, cells):
    want = expected_cell_table(n, q, window)
    got = _cells_of(cells)
    if got != want:
        return [f"cell counts {got} differ from the closed form {want}"]
    return []


def check_lattice_enumerate(args, payload):
    cells = payload.get("cells", [])
    problems = check_cell_table(args["n"], args["q"], args["window"], cells)
    if payload.get("total") != sum(c["count"] for c in cells):
        problems.append("total is not the sum of the cell counts")
    return problems


def check_grass_count(args, payload):
    tables = payload.get("tables", [])
    if len(tables) != 1:
        return [f"expected one table, got {len(tables)}"]
    return check_cell_table(args["n"], args["q"], args["window"], tables[0].get("cells", []))


# ---------------------------------------------------------------------------
# W_N(F_p) = Z/p^N
# ---------------------------------------------------------------------------

def witt_to_int(coords, p):
    """Image of a Witt vector over F_p in Z/p^N: sum p^i * T(a_i).

    T(c) = c^(p^(N-1)) mod p^N is the Teichmueller lift; over F_p the p-th
    root in the general formula a_i^(p^-i) is the identity.
    """
    N = len(coords)
    mod = p**N
    return sum(p**i * pow(a, p ** (N - 1), mod) for i, a in enumerate(coords)) % mod


def parse_vector(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a Witt vector literal: {text!r}")
    return tuple(int(x) for x in text[1:-1].split(","))


def check_witt(args, payload):
    p, N, op = args["p"], args["N"], args["op"]
    try:
        r = parse_vector(payload["result"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable result: {exc}"]
    if len(r) != N or any(not 0 <= c < p for c in r):
        return [f"result {r} is not a length-{N} vector over F_{p}"]
    mod = p**N
    a = witt_to_int(args["a"], p)
    got = witt_to_int(r, p)
    if op == "add":
        want = (a + witt_to_int(args["b"], p)) % mod
    elif op == "mul":
        want = a * witt_to_int(args["b"], p) % mod
    elif op == "inv":
        if a * got % mod != 1:
            return [f"{args['a']} * {r} is not 1 in Z/{mod}"]
        return []
    else:
        return [f"no oracle for witt {op}"]
    if got != want:
        return [f"witt {op} gave {r} = {got} in Z/{mod}, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# Hilbert function of the cocharacter ideal
# ---------------------------------------------------------------------------

def cocharacter_hilbert(lam, n, p, N, bound):
    """h(0..bound) of k[x[i,j]]/I_lam with deg x[i,j] = p^j.

    I_lam is generated by the variables x[i,j] with j < lam_i - lam_n, so the
    quotient is the polynomial ring in the surviving variables and h(a)
    counts weighted partitions of a into their weights.
    """
    if len(lam) != n:
        raise ValueError("cocharacter length differs from n")
    weights = [p**j for i in range(n) for j in range(N) if j >= lam[i] - lam[-1]]
    h = [1] + [0] * bound
    for w in weights:
        for a in range(w, bound + 1):
            h[a] += h[a - w]
    return h


def check_hilbert_hf(args, payload):
    want = cocharacter_hilbert(args["lambda"], args["n"], args["p"], args["N"], args["bound"])
    got = payload.get("values")
    if got != want:
        return [f"Hilbert function {got} differs from the partition count {want}"]
    return []


# ---------------------------------------------------------------------------
# the image report
# ---------------------------------------------------------------------------

def check_grass_image(args, payload):
    lam = tuple(args["lambda"])
    samples = args["samples"]
    problems = []
    for key, want in (("seed", args["seed"]), ("samples", samples), ("lambda", list(lam))):
        if payload.get(key) != want:
            problems.append(f"{key} echoed as {payload.get(key)!r}, not {want!r}")
    observed = _cells_of(payload.get("observed", []))
    for cell in observed:
        if not (is_dominant(cell) and dominance_leq(cell, lam)):
            problems.append(f"observed cell {cell} is not below {lam}")
    if payload.get("bruhat_ok") is not True:
        problems.append("bruhat_ok is not true")
    if lam == (2, -2):
        # the cocharacter ideal and every orbit image lie in the open cell
        if observed != {lam: samples + 1}:
            problems.append(f"observed {observed}, expected {{{lam}: {samples + 1}}}")
    elif lam == (1, -1):
        if payload.get("standard_fiber_ideals") != 3:
            problems.append(
                f"standard_fiber_ideals is {payload.get('standard_fiber_ideals')}, expected 3"
            )
    return problems


CHECKS = {
    "lattice enumerate": check_lattice_enumerate,
    "grass count": check_grass_count,
    "grass image": check_grass_image,
    "hilbert hf": check_hilbert_hf,
    "witt": check_witt,
}
