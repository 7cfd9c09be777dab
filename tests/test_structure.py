"""Structure polynomial generation: ghost identities, triangularity, cache."""

import functools
import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as hst

from wittgrass import cli, structure as st
from wittgrass.errors import CacheCorrupt, TableLimit
from wittgrass.fields import GF
from wittgrass.poly import coord_ring
from wittgrass.witt import WittVector, witt_arith, witt_inv


def poly_text(levels):
    return [st.render_ip(t) for t in levels]


def exact_levels(p, op, N):
    """Levels 0..N-1 of op over the integers: the exact triangular ghost solve,
    the reference the residue tables are checked against.  Its products pack
    X0 and X1 for every op, so add is checked against another packing."""
    mul = functools.partial(st._kron_mul, u=0, v=1, w=p)
    levels = []
    for n in range(N):
        numerator = st._ghost_target(p, n, op)
        for i in range(n):
            st.ip_add_inplace(numerator, st.ip_pow(levels[i], p ** (n - i), mul), scale=-(p**i))
        assert all(c % p**n == 0 for c in numerator.values())
        levels.append({k: c // p**n for k, c in numerator.items()})
    return levels


def test_addition_level_zero_and_one_p2():
    add = st.solve_levels(2, "add", 2)
    assert st.render_ip(add[0]) == "1*X0 + 1*Y0"
    # S_1 = X_1 + Y_1 - X_0*Y_0 = X_1 + Y_1 + X_0*Y_0 mod 2
    assert add[1] == {st.xvar(1): 1, st.yvar(1): 1, st.xvar(0) + st.yvar(0): 1}


def test_multiplication_levels_p2():
    mul = st.solve_levels(2, "mul", 2)
    assert mul[0] == {st.xvar(0) + st.yvar(0): 1}
    # M_1 = X_0^2*Y_1 + X_1*Y_0^2 + 2*X_1*Y_1 = X_0^2*Y_1 + X_1*Y_0^2 mod 2
    assert mul[1] == {
        2 * st.xvar(0) + st.yvar(1): 1,
        st.xvar(1) + 2 * st.yvar(0): 1,
    }


def test_negation_is_minus_for_odd_p():
    for p in (3, 5):
        neg = st.solve_levels(p, "neg", 3)
        for n, level in enumerate(neg):
            assert level == {st.xvar(n): p - 1}  # N_n = -X_n


@pytest.mark.parametrize("p,N", [(2, 6), (3, 4), (5, 3)])
@pytest.mark.parametrize("op", ["add", "mul", "neg"])
def test_tables_are_the_exact_levels_mod_p(p, N, op):
    exact = exact_levels(p, op, N)
    assert st.solve_levels(p, op, N) == [st.ip_mod(level, p) for level in exact]
    assert not st.verify_ghost(p, op, exact)  # the integers are not residues


def _edits(p, level):
    """The level with its first term's residue changed (to 0 if that is the
    next one mod p), or with that coefficient stored as 0 or as p."""
    key, c = min(level.items())
    changed = dict(level)
    if (c + 1) % p:
        changed[key] = (c + 1) % p
    else:
        del changed[key]
    return [changed] + [{**level, key: bad} for bad in (0, p)]


@pytest.mark.parametrize("p,N", [(2, 4), (3, 3), (5, 3)])
@pytest.mark.parametrize("op", ["add", "mul", "neg"])
def test_ghost_congruence_refuses_each_edit(p, N, op):
    levels = st.solve_levels(p, op, N)
    assert st.verify_ghost(p, op, levels)
    for n in range(N):
        for edited in _edits(p, levels[n]):
            assert not st.verify_ghost(p, op, levels[:n] + [edited] + levels[n + 1:]), (n, edited)


@pytest.mark.parametrize("p,N", [(2, 5), (3, 4), (5, 3)])
@pytest.mark.parametrize("op", ["add", "mul", "neg"])
def test_ghost_identities_exact(p, N, op):
    levels = st.solve_levels(p, op, N)
    assert st.verify_ghost(p, op, levels)


def test_ghost_verification_detects_corruption():
    levels = st.solve_levels(2, "add", 3)
    broken = [dict(t) for t in levels]
    broken[2][st.xvar(0)] = broken[2].get(st.xvar(0), 0) + 1
    assert not st.verify_ghost(2, "add", broken)
    # a level that mentions a variable above its level, or a neg level with a
    # Y term, leaves p^n times a unit in its congruence mod p^(n+1)
    for p, N in ((2, 4), (3, 3), (5, 3)):
        for op, stray in (("add", lambda n: st.xvar(n + 1)), ("neg", lambda n: st.yvar(0))):
            levels = st.solve_levels(p, op, N)
            for n in range(N):
                broken = levels[:n] + [{**levels[n], stray(n): 1}] + levels[n + 1:]
                assert not st.verify_ghost(p, op, broken), (p, op, n)


def test_table_render_parse_round_trip():
    for op in ("add", "mul", "neg"):
        levels = st.solve_levels(3, op, 3)
        for t in levels:
            assert st.parse_ip(st.render_ip(t)) == t


def test_cache_write_load_and_corruption(tmp_path):
    cdir = str(tmp_path)
    tables = {
        "add": st.solve_levels(2, "add", 3),
        "mul": st.solve_levels(2, "mul", 3),
        "neg": st.solve_levels(2, "neg", 3),
    }
    st.write_cache(2, cdir, tables)
    loaded = st.StructurePolynomialTable(2, cdir)
    assert {op: loaded.levels(op, 3) for op in st.OPS} == tables
    path = os.path.join(cdir, "structure_p2.txt")
    with open(path, "a") as fh:
        fh.write("ADD 9 garbage\n")
    with pytest.raises(CacheCorrupt):
        st.load_cache(2, cdir)


def test_size_guard_refuses_infeasible_cells():
    with pytest.raises(TableLimit):
        st.solve_levels(5, "add", 5)
    with pytest.raises(TableLimit):
        st.solve_levels(3, "add", 6)
    with pytest.raises(TableLimit):
        st.solve_levels(2, "add", 9)  # beyond the hard length cap
    with pytest.raises(TableLimit):
        st.solve_levels(7, "add", 2)  # unsupported prime


def test_support_counts_monotone():
    # the guard's cost model: two-sided slices grow with the level
    costs = [st.level_cost(3, n, "add") for n in range(5)]
    assert costs == sorted(costs)
    assert st.level_cost(5, 4, "add") > st.TERM_LIMIT


def test_each_cache_dir_gets_its_own_table(tmp_path):
    for name in ("a", "b"):
        table = st.StructurePolynomialTable.get(2, cache_dir=str(tmp_path / name))
        assert not (tmp_path / name).exists()  # get reads and writes nothing
        table.levels("add", 2)
        assert (tmp_path / name / "structure_p2.txt").exists()


def test_table_loads_once_per_prime_and_cache_dir(tmp_path, monkeypatch):
    loads = []
    real_load = st.load_cache
    monkeypatch.setattr(
        st, "load_cache", lambda p, cdir: loads.append((p, cdir)) or real_load(p, cdir)
    )
    cdir = str(tmp_path / "a")
    for N in (3, 2, 3):
        st.StructurePolynomialTable.get(2, cache_dir=cdir).levels("add", N)
    assert loads == [(2, cdir)]
    for op in st.OPS:
        assert len(st.gen_structure_polys(2, 2, op, cache_dir=cdir)) == 2

    # a load keeps every level the file holds, and serves shorter lengths
    fuller = str(tmp_path / "b")
    st.write_cache(2, fuller, {op: st.solve_levels(2, op, 3) for op in st.OPS})
    solves = _record_solves(monkeypatch)
    table = st.StructurePolynomialTable.get(2, cache_dir=fuller)
    table.levels("mul", 2)
    st.StructurePolynomialTable.get(2, cache_dir=fuller).levels("mul", 3)
    assert loads == [(2, cdir), (2, fuller)]
    assert solves == []


def test_failed_cache_write_is_reported_and_table_still_works(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    table = st.StructurePolynomialTable.get(2, cache_dir=str(not_a_dir))
    assert table.levels("add", 2) == st.solve_levels(2, "add", 2)
    err = capsys.readouterr().err
    assert "could not write structure cache" in err
    assert str(not_a_dir) in err


def _cache_with(cache_dir, p, N, head, body):
    """Write the length-N cache of p with the level ``head`` (e.g. "MUL 2") given
    ``body``; returns the file's text."""
    st.write_cache(p, str(cache_dir), {op: st.solve_levels(p, op, N) for op in st.OPS})
    path = cache_dir / f"structure_p{p}.txt"
    lines = [f"{head}: {body}" if line.startswith(f"{head}:") else line
             for line in path.read_text().splitlines()]
    path.write_text("".join(line + "\n" for line in lines))
    return path.read_text()


def _record_parses(monkeypatch):
    """(op, level) of every cache line parsed from now on, in order."""
    parsed = []
    real = st.parse_level
    monkeypatch.setattr(
        st, "parse_level",
        lambda path, p, op, n, text: parsed.append((op, n)) or real(path, p, op, n, text),
    )
    return parsed


@pytest.mark.parametrize(
    "body",
    [
        "1*X0^-1",  # negative exponent
        "1*X9",  # index past the X block: would alias Y1
        "1*X0^65536",  # exponent past its field: would alias X1
        "1*Y8",  # index past the Y block
        "0*X0",  # zero coefficient
        "1*X1^",
        "1*Z0",
        "1**X0",
        "1*X0*X0",  # repeated variable: render_ip writes X0^2
        "1*X0^65535*X0",  # repeated variable: would alias X1
        "1*Y0*X0",  # out of slot order
        "1*X0 + 2*X0",  # repeated monomial
        # coefficients and spaces that int() reads but render_ip never writes
        "1_0*X0",
        "-1_1*X0*Y0",
        "+1*X0",
        "1*X0 + +1*Y0",
        "01*X0",
        "-01*X0",
        " 1*X0",
        "1 *X0",
        "1*X0 +  1*Y0",
        "1*X0 ",
        "1\t*X0",
    ],
)
def test_cache_rejects_terms_render_ip_never_writes(tmp_path, body):
    cache = _cache_with(tmp_path, 2, 2, "ADD 0", body)
    table = st.StructurePolynomialTable.get(2, cache_dir=str(tmp_path))
    with pytest.raises(CacheCorrupt):  # refused at the first read of the level
        table.levels("add", 2)
    assert (tmp_path / "structure_p2.txt").read_text() == cache


_slots = hst.dictionaries(
    hst.integers(0, 2 * st.MAX_SLOTS - 1), hst.integers(1, st.EXP_MASK), max_size=5
)
_packed_polys = hst.dictionaries(
    _slots.map(lambda exps: sum(e << (st.SHIFT * s) for s, e in exps.items())),
    hst.integers(-(2**80), 2**80).filter(bool),
    max_size=8,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_packed_polys)
def test_render_parse_round_trip_on_random_packed_polynomials(poly):
    assert st.parse_ip(st.render_ip(poly)) == poly


def _factor_polys(digit_slot):
    # exponents stay below half a field, so products do not overflow it; the
    # digit slot's stays small, as it sets the number of digits in a group
    def key(exps):
        return sum(min(e, 40) << (st.SHIFT * s) if s == digit_slot else e << (st.SHIFT * s)
                   for s, e in exps.items())

    return hst.dictionaries(
        hst.dictionaries(
            hst.integers(0, 2 * st.MAX_SLOTS - 1), hst.integers(1, st.EXP_MASK // 2), max_size=5
        ).map(key),
        hst.integers(-(2**80), 2**80).filter(bool),
        max_size=8,
    )


# (u, v, w): the pair the add table packs, (X0, Y0, 1), the (X0, X1, p) of
# exact_levels, and any other pair of distinct slots with any w
_packed_pairs = hst.one_of(
    hst.sampled_from([(0, st.MAX_SLOTS, 1), (0, 1, 2), (0, 1, 3), (0, 1, 5)]),
    hst.tuples(
        hst.lists(hst.integers(0, 2 * st.MAX_SLOTS - 1), min_size=2, max_size=2, unique=True),
        hst.integers(1, 5),
    ).map(lambda t: (*t[0], t[1])),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_packed_pairs, hst.booleans(), hst.data())
def test_kronecker_product_matches_schoolbook(slots, cancel, data):
    f, g = data.draw(_factor_polys(slots[1])), data.draw(_factor_polys(slots[1]))
    if cancel:  # (f + g)(f - g): the cross terms cancel
        f, g = st.ip_add_inplace(dict(f), g), st.ip_add_inplace(dict(f), g, scale=-1)
    assert st._kron_mul(f, g, *slots) == st.ip_mul(f, g)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_packed_pairs, hst.data())
def test_kronecker_square_matches_schoolbook(slots, data):
    f = data.draw(_factor_polys(slots[1]))
    # the operand passed twice takes the path over unordered pairs of groups;
    # an equal copy takes the general one
    square = st.ip_mul(f, f)
    assert st._kron_mul(f, f, *slots) == square
    assert st._kron_mul(f, dict(f), *slots) == square


@pytest.mark.parametrize("u,v,w", [(0, st.MAX_SLOTS, 1), (0, 1, 5), (3, 12, 2)])
def test_kronecker_product_at_the_field_limits(u, v, w):
    # the product's s = e_u + w*e_v needs more bits than one exponent field
    def mono(eu, ev):
        return eu << st.SHIFT * u | ev << st.SHIFT * v

    half = st.EXP_MASK // 2
    f = {mono(half, 40): 3, mono(half, 0): -1, mono(0, 1): 2}
    g = {mono(half + 1, 40): -5, mono(7, 0): 1}
    assert st._kron_mul(f, g, u, v, w) == st.ip_mul(f, g)
    assert st._kron_mul(f, f, u, v, w) == st.ip_mul(f, f)


@pytest.mark.parametrize("p,N,digest", [
    (2, 6, "e0571a4fc29d06af555822a6c1bb1b33b35c8d162b40d2a95fba0cce86a83ba6"),
    (3, 5, "6ad22eca0fef50e95f0a990c21a4975fb5532df01c9d17806978d22c9a0b0dff"),
    (5, 4, "678bfc778283c6182d08b33b189c8a300fc2e21fb797840fac2a2ea442997da0"),
])
def test_generated_cache_files_keep_their_bytes(tmp_path, p, N, digest):
    table = st.StructurePolynomialTable.get(p, cache_dir=str(tmp_path))
    for op in st.OPS:
        table.levels(op, N)
    body = (tmp_path / f"structure_p{p}.txt").read_bytes()
    assert hashlib.sha256(body).hexdigest() == digest


def _record_forms(monkeypatch):
    """Every level turned into its evaluation form from now on."""
    forms = []
    real = st._evaluation_form
    monkeypatch.setattr(st, "_evaluation_form", lambda level: forms.append(level) or real(level))
    return forms


def _record_solves(monkeypatch):
    """(p, op, N, folded) of every solve from now on."""
    solves = []
    real = st.solve_levels
    monkeypatch.setattr(
        st, "solve_levels",
        lambda p, op, N, known=None, folded=False:
            solves.append((p, op, N, folded)) or real(p, op, N, known, folded),
    )
    return solves


def _vector(ring, *coords):
    """A Witt vector over the polynomial ring: integer coordinates are
    constants, the others elements of the ring."""
    return WittVector(ring, [ring.from_int(c) if isinstance(c, int) else c for c in coords])


def test_tables_reduce_only_the_ops_a_call_evaluates(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    forms = _record_forms(monkeypatch)
    for op in st.OPS:
        st.gen_structure_polys(3, 3, op)
    assert forms == []

    def reduced_exactly(op):
        levels = st.StructurePolynomialTable.get(3).levels(op, 3)
        return len(forms) == len(levels) and all(a is b for a, b in zip(forms, levels))

    R = coord_ring(GF(3), 1, 3)
    x = R.var(0)
    for _ in range(2):  # the second call reuses the forms
        witt_arith("add", _vector(R, 1, 2, 0), _vector(R, 2, x, 1))
        assert reduced_exactly("add")
    forms.clear()
    witt_inv(_vector(R, 1, x, 0))
    assert reduced_exactly("mul")


def test_a_ring_product_solves_and_writes_only_the_mul_table(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    solves = _record_solves(monkeypatch)
    R = coord_ring(GF(3), 1, 5)
    x, y = R.var(0), R.var(1)
    product = witt_arith("mul", _vector(R, 1, x, 0, 0, 2), _vector(R, x, 0, 1, 0, y))
    assert product == _vector(R, x, x**4, 1, x**9, R.from_int(2) * x**81 + y)
    assert solves == [(3, "mul", 5, False)]
    lines = (tmp_path / "structure_p3.txt").read_text().splitlines()
    assert lines[1:] == [f"MUL {n}: {st.render_ip(level)}"
                         for n, level in enumerate(st.solve_levels(3, "mul", 5))]


def test_fold_is_built_once_per_op_and_field_size(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    solves = _record_solves(monkeypatch)
    f2 = ["witt", "add", "--p", "2", "--N", "3", "(1,1,0)", "(1,0,1)"]
    for _ in range(2):
        assert cli.main(f2) == 0
    assert solves == [(2, "add", 3, True)]
    # the folded forms live on the table, so dropping the registry drops them
    st.StructurePolynomialTable.drop_registry()
    assert cli.main(f2) == 0
    assert solves == [(2, "add", 3, True), (2, "add", 3, True)]
    assert list(tmp_path.iterdir()) == []


def test_witt_over_a_larger_field_uses_no_table(tmp_path, monkeypatch):
    """Over F_q with q > p Witt arithmetic runs in the Galois ring: no call
    looks a table up or solves a level, while an F_p call still does."""
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    solves = _record_solves(monkeypatch)
    gets = []
    real_get = st.StructurePolynomialTable.get
    monkeypatch.setattr(st.StructurePolynomialTable, "get",
                        lambda *args, **kwargs: gets.append(args) or real_get(*args, **kwargs))
    for op, *vectors in (("add", "(u,1,0)", "(1,2*u,u)"), ("mul", "(u,1,0)", "(1,2*u,u)"),
                         ("neg", "(u,1,0)"), ("inv", "(u,1,0)")):
        assert cli.main(["witt", op, "--p", "3", "--q", "9", "--N", "3", *vectors]) == 0
    assert (gets, solves) == ([], [])
    assert cli.main(["witt", "add", "--p", "3", "--N", "3", "(1,1,0)", "(1,0,1)"]) == 0
    assert (gets, solves) == ([(3,)], [(3, "add", 3, True)])


def test_folding_by_x_to_the_q_shrinks_the_tables():
    table = st.StructurePolynomialTable.get(2)
    top = {folded: len(table.reduced("add", folded, 6)[5]) for folded in (False, True)}
    assert top == {False: 4565, True: 33}


def test_witt_calls_parse_only_the_lines_they_read(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    R = coord_ring(GF(3), 1, 5)
    x = R.var(0)

    def add():
        return witt_arith("add", _vector(R, 1, 2, 0, 1, 2), _vector(R, 2, 2, 1, 0, x))

    def inv():
        return witt_inv(_vector(R, 1, 2, 0, x, 2))

    add()  # generates the add table, parsing nothing
    bodies = st.load_cache(3, str(tmp_path))
    assert [len(bodies[op]) for op in st.OPS] == [5, 0, 0]
    inv()  # generates the mul table
    bodies = st.load_cache(3, str(tmp_path))
    assert [len(bodies[op]) for op in st.OPS] == [5, 5, 0]
    parses = []
    real_parse = st.parse_ip
    monkeypatch.setattr(st, "parse_ip", lambda text: parses.append(text) or real_parse(text))
    for call, op in ((add, "add"), (inv, "mul")):
        st.StructurePolynomialTable.drop_registry()  # as in a fresh process
        parses.clear()
        call()
        assert parses == bodies[op]  # exactly the five lines of the op, in order


def test_neg_is_not_bound_by_the_add_table(tmp_path, monkeypatch):
    # add level 6 for p = 2 is out of reach; neg needs only its own table.
    # -1 = (1, 1, 1, ...) in W(F_2) and [x] * (a_i) = (x^(2^i) * a_i), so
    # -[x] = (x, x^2, x^4, ...)
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    R = coord_ring(GF(2), 1, 7)
    x = R.var(0)
    assert witt_arith("neg", _vector(R, x, 0, 0, 0, 0, 0, 0)) == _vector(
        R, *(x ** (2**i) for i in range(7))
    )
    with pytest.raises(TableLimit, match="add level 6 for p=2"):
        witt_arith("add", _vector(R, x, 0, 0, 0, 0, 0, 0), _vector(R, 1, 0, 0, 0, 0, 0, 0))


def test_a_longer_cache_parses_only_the_levels_below_the_length(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    st.write_cache(2, str(tmp_path), {op: st.solve_levels(2, op, 6) for op in st.OPS})
    cache = (tmp_path / "structure_p2.txt").read_bytes()
    parsed = _record_parses(monkeypatch)
    R = coord_ring(GF(2), 1, 3)
    # 3 + 1 = 4 in Z/8, over F_2[x] as over F_2
    assert witt_arith("add", _vector(R, 1, 1, 0), _vector(R, 1, 0, 0)) == _vector(R, 0, 0, 1)
    assert parsed == [("add", 0), ("add", 1), ("add", 2)]
    assert (tmp_path / "structure_p2.txt").read_bytes() == cache  # nothing rewritten


def test_grass_image_parses_no_level_it_does_not_evaluate(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    st.write_cache(2, str(tmp_path), {op: st.solve_levels(2, op, 6) for op in st.OPS})
    parsed = _record_parses(monkeypatch)
    argv = ["grass", "image", "--lambda", "1,-1", "--q", "2", "--samples", "20", "--seed", "5"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the job evaluates Witt vectors of lengths 1-3 (N = 3); its p-adic numbers
    # compute in the Galois ring and its vectors over F_2 in memory, so only
    # the stability test and the realized actions over polynomial rings read
    # the file: levels 0-2 of add and mul, each parsed once
    assert sorted(parsed) == [(op, n) for op in ("add", "mul") for n in range(3)]


def test_a_corrupt_level_fails_only_the_calls_that_read_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    cache = _cache_with(tmp_path, 2, 3, "MUL 2", "1*X0^-1")
    # a sum over F_2[x] reads only the add levels: 3 + 1 = 4 in Z/8
    R = coord_ring(GF(2), 1, 3)
    assert witt_arith("add", _vector(R, 1, 1, 0), _vector(R, 1, 0, 0)) == _vector(R, 0, 0, 1)
    # a finite-field product reads no file: 3 * 5 = 15 in Z/8
    assert cli.main(["witt", "mul", "--p", "2", "--N", "3", "(1,1,0)", "(1,0,1)"]) == 0
    assert capsys.readouterr().out.strip() == "(1,1,1)"
    # a realization multiplies over a polynomial ring, which reads MUL 2
    argv = ["greenberg", "realize", "--p", "2", "--N", "3", "--map", "T1+T2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    path = str(tmp_path / "structure_p2.txt")
    assert f"structure cache {path}, line MUL 2: bad variable token 'X0^-1'" in err
    assert "delete the file to regenerate it" in err
    assert (tmp_path / "structure_p2.txt").read_text() == cache


def test_a_cache_file_of_integer_coefficients_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    # the p = 2, length 3 file as written before the tables held residues
    st.write_cache(2, str(tmp_path), {op: exact_levels(2, op, 3) for op in st.OPS})
    path = tmp_path / "structure_p2.txt"
    cache = path.read_bytes()
    assert hashlib.sha256(cache).hexdigest() == (
        "0d64a09990a302ef5612f5d2dc1d3b2a372bdd95a16e27da38b2df9bb8356798"
    )
    # a realization reads the mul levels first, where M_1 has the coefficient 2
    problem = f"structure cache {path}, line MUL 1: coefficient 2 is not a residue 1..1"
    argv = ["greenberg", "realize", "--p", "2", "--N", "3", "--map", "T1+T2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert problem in err
    assert "predate residue tables; delete the file to regenerate it" in err
    solved = []
    real_solve = st.solve_levels
    monkeypatch.setattr(
        st, "solve_levels", lambda *a, **k: solved.append(a) or real_solve(*a, **k)
    )
    # length 4 needs a new level of neg, so every level of the file is parsed first
    with pytest.raises(CacheCorrupt, match="line ADD 1: coefficient -1 .* predate residue"):
        st.StructurePolynomialTable.get(2).levels("neg", 4)
    assert solved == []
    assert path.read_bytes() == cache


def test_an_edited_residue_cannot_change_a_finite_field_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    st.write_cache(3, str(tmp_path), {op: st.solve_levels(3, op, 2) for op in st.OPS})
    path = tmp_path / "structure_p3.txt"
    text = path.read_text()
    assert "ADD 1: 1*X1 + 2*X0^2*Y0 + " in text
    path.write_text(text.replace("2*X0^2*Y0", "1*X0^2*Y0", 1))
    # 1 + 1 = 2 = (2, 1) in W_2(F_3) = Z/9, whatever the file says
    assert cli.main(["witt", "add", "--p", "3", "--N", "2", "(1,0)", "(1,0)"]) == 0
    assert capsys.readouterr().out.strip() == "(2,1)"
    # the edit is live: ring arithmetic still reads the file as it stands, so
    # the realized sum carries the edited coefficient of x[1,0]^2*x[2,0]
    argv = ["greenberg", "realize", "--p", "3", "--N", "2", "--map", "T1+T2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "COMP 1 0: x[1,0] + x[2,0]",
        "COMP 1 1: x[1,1] + x[1,0]^2*x[2,0] + 2*x[1,0]*x[2,0]^2 + x[2,1]",
    ]


def test_finite_field_calls_read_and_write_no_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    calls = []
    for name in ("load_cache", "parse_ip", "write_cache"):
        monkeypatch.setattr(st, name, lambda *a, _name=name: calls.append(_name))
    for argv in (
        ["witt", "add", "--p", "3", "--N", "5", "(1,2,0,1,2)", "(2,2,1,0,1)"],
        ["witt", "mul", "--p", "5", "--q", "25", "--N", "2", "(u,1)", "(2,u)"],
        ["witt", "inv", "--p", "2", "--q", "4", "--N", "3", "(u,1,0)"],
        ["witt", "neg", "--p", "2", "--N", "4", "(1,0,1,1)"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_corrupt_data_is_refused_before_the_cache_is_rewritten(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    cache = _cache_with(tmp_path, 2, 2, "NEG 1", "1*Y0*X0")
    solved = []
    real_solve = st.solve_levels
    monkeypatch.setattr(
        st, "solve_levels", lambda *a, **k: solved.append(a) or real_solve(*a, **k)
    )
    # length 3 needs a new level of add, so the file would be rewritten
    with pytest.raises(CacheCorrupt, match="line NEG 1: variables repeated or out of order"):
        st.StructurePolynomialTable.get(2).levels("add", 3)
    assert solved == []
    assert (tmp_path / "structure_p2.txt").read_text() == cache


def test_line_heads_are_checked_on_load(tmp_path):
    path = tmp_path / "structure_p2.txt"
    for text, problem in (
        ("ADD 0: 1*X0 + 1*Y0\nADD 2: 1*X1\n", "line 2: ADD levels out of order"),
        ("ADD 0: 1*X0 + 1*Y0\nSUB 0: 1*X0\n", "line 2: unknown op 'SUB'"),
        ("# header\nADD 0 1*X0\n", "line 2: malformed line"),
    ):
        path.write_text(text)
        with pytest.raises(CacheCorrupt, match=f"structure cache .*, {problem}"):
            st.load_cache(2, str(tmp_path))
    path.write_bytes("ADD 0: 1*X0 + 1*Y0\u00e9\n".encode())
    with pytest.raises(CacheCorrupt, match="a byte that is not ASCII; delete the file"):
        st.load_cache(2, str(tmp_path))
