"""Command-line front end."""

import argparse
import ast
import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_galois_ring import GaloisRing
from wittgrass import cli, poly, textio
from wittgrass.witt import WittVector

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes_every_check(capsys):
    from wittgrass.selftest import CHECKS

    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in lines] == [f"PASS {name}" for name, _ in CHECKS]


def test_selftest_takes_no_quick_flag(capsys):
    # every check runs on every call; there is no subset to pick
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--quick"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_standard_output_ends_quietly(tmp_path, unbuffered):
    # as in ``wittgrass selftest | head -1``, with the reader gone before the
    # first line: unbuffered, the first print fails; buffered, the final flush
    read, write = os.pipe()
    os.close(read)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "wittgrass.cli", "--cache-dir", str(tmp_path),
             "selftest"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def run_process(tmp_path, *argv):
    """A ``python -m wittgrass.cli`` process with a fresh cache: its exit code,
    standard output and standard error."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    done = subprocess.run(
        [sys.executable, "-m", "wittgrass.cli", "--cache-dir", str(tmp_path), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


WITT = ["witt", "add", "--p", "2", "--N", "3"]


@pytest.mark.parametrize("argv, code, out, err", [
    # W_3(F_2) is Z/8 with (a0,a1,a2) = a0 + 2 a1 + 4 a2: 3 + 1 = 4
    (WITT + ["(1,1,0)", "(1,0,0)", "--format", "json"], 0,
     '{"result": "(0,0,1)", "schema": "wittgrass/1"}\n', ""),
    (["witt", "inv", "--p", "2", "--N", "3", "(0,1,0)"], 1,
     "", "error: leading Witt component is not invertible\n"),
    (["witt", "neg", "--p", "2", "--N", "3", "(1,0,0)", "(1,0,0)"], 2,
     "", "usage error: witt neg takes one vector, not a second '(1,0,0)'\n"),
], ids=["json", "domain-error", "usage-error"])
def test_a_process_ends_with_the_exit_code_and_output_of_main(tmp_path, argv, code, out, err):
    assert run_process(tmp_path, *argv) == (code, out, err)


def test_a_process_ends_an_argparse_error_with_exit_code_2(tmp_path):
    code, out, err = run_process(tmp_path, *WITT[:-1], "0", "(1)", "(1)")
    assert (code, out) == (2, "")
    assert err.startswith("usage: wittgrass witt ")
    assert err.endswith("\nwittgrass witt: error: argument --N: truncation length must be at "
                        "least 1, not 0\n")


@pytest.fixture
def unfrozen():
    yield
    gc.unfreeze()


def test_only_the_process_entry_freezes_the_collector(capsys, monkeypatch, unfrozen):
    # in-process callers keep a collector that sees everything; the process
    # entry freezes it once main has returned, for a cheaper exit
    argv = WITT + ["(1,1,0)", "(1,0,0)"]
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["wittgrass", *argv])
    assert cli.console_main() == 0
    assert gc.get_freeze_count() > frozen
    assert capsys.readouterr().out == "(0,0,1)\n" * 2


def test_the_installed_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wittgrass"]
    module, _, name = target.partition(":")
    script = getattr(importlib.import_module(module), name)
    tree = ast.parse((ROOT / "src" / "wittgrass" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (statement,) = block.body
    exit_call = statement.value
    assert ast.unparse(exit_call.func) == "sys.exit"
    (entry_call,) = exit_call.args
    assert entry_call.args == [] and entry_call.keywords == []
    assert getattr(cli, entry_call.func.id) is script


def parse_outcome(capsys, parser, argv):
    """The namespace, or the exit code, of one parse, with what it printed."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def _perfbench_argvs():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = {("--cache-dir", "D", *job["argv"], "--format", "json"): None
             for workload in workloads.WORKLOADS for seed in (1, 2, 3)
             for job in workloads.jobs(workload, seed)}
    return [list(argv) for argv in argvs]  # the cells jobs do not depend on the seed


HELP = [[*command, "--help"] for command in [
    [], ["witt"], ["greenberg"], ["greenberg", "realize"], ["lattice"], ["lattice", "snf"],
    ["lattice", "classify"], ["lattice", "enumerate"], ["hilbert"], ["hilbert", "hf"],
    ["hilbert", "stable"], ["hilbert", "limit"], ["grass"], ["grass", "count"],
    ["grass", "image"], ["selftest"],
]]
LAZY_PARSER_CASES = HELP + _perfbench_argvs() + [
    ["--cache", "witt", "lattice", "enumerate", "--n", "2", "--q", "2", "--window", "1"],
    ["--cache-dir=D", "grass", "count", "--n", "2", "--q", "2", "--window", "1"],
    [],  # no command
    ["frob"],  # an unknown one
    ["--cache-dir"],  # no value
    ["witt"],  # no arguments
    ["selftest", "--bogus"],  # reported by the top level, whose usage lists every command
    ["-h", "witt"],  # the top level's help
]


@pytest.mark.parametrize("argv", LAZY_PARSER_CASES, ids=" ".join)
def test_the_parser_of_one_command_parses_as_the_full_parser(capsys, argv):
    lazy = parse_outcome(capsys, cli.build_parser(cli.dispatched_command(argv)), argv)
    assert lazy == parse_outcome(capsys, cli.build_parser(), argv)
    if argv == ["selftest", "--bogus"]:
        assert "{witt,greenberg,lattice,hilbert,grass,selftest}" in lazy[2]


@pytest.mark.parametrize("argv, command", [
    (["--cache", "witt", "lattice", "enumerate"], "lattice"),  # --cache-dir abbreviated
    (["--cache-dir=witt", "grass", "count"], "grass"),
    (["-h", "witt"], "witt"),
    (["--cache-dir"], None),
    (["frob"], None),
    ([], None),
])
def test_only_the_dispatched_command_gets_its_arguments(argv, command):
    assert cli.dispatched_command(argv) == command
    (commands,) = [action.choices for action in cli.build_parser(command)._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert list(commands) == [name for name, _, _ in cli.COMMANDS]
    # a built command has arguments besides -h, or subcommands, or else its fn
    built = {name for name, parser in commands.items()
             if len(parser._actions) > 1 or parser.get_default("fn")}
    assert built == ({command} if command else set(commands))


BROKEN_HILBERT_FUNCTION = """\
import sys
from types import SimpleNamespace
from wittgrass import selftest

selftest.hilbert_function = lambda I, d: SimpleNamespace(values=[0] * (d + 1))
selftest.CHECKS = [check for check in selftest.CHECKS if check[0] == "hilbert function values"]
print(sys.flags.optimize, selftest.run_selftest())
"""


def test_selftest_fails_a_broken_check_under_python_o(tmp_path):
    """``python -O`` strips assert statements; the checks must fail anyway."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, WITTGRASS_CACHE_DIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    done = subprocess.run([sys.executable, "-O", "-c", BROKEN_HILBERT_FUNCTION],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    fail, verdict = done.stdout.splitlines()
    assert fail.startswith("FAIL hilbert function values (")
    assert fail.endswith(" s): [0, 0, 0, 0, 0]")
    assert verdict == "1 1"


def test_selftest_takes_no_table_parameters():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["selftest", "--p", "2"])


def test_hilbert_hf_at_default_bound_counts_weighted_partitions(capsys):
    lam, n, p, N = (1, 0, -1), 3, 3, 4
    argv = ["hilbert", "hf", "--lambda", "1,0,-1", "--n", "3", "--p", "3", "--N", "4"]
    assert cli.main(argv + ["--format", "json"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    # I_lambda kills x[i,j] for j < lam_i - lam_n; the quotient is the
    # polynomial ring in the other variables, deg x[i,j] = p^j
    bound = 4 * p ** (N - 1)
    weights = [p**j for i in range(n) for j in range(N) if j >= lam[i] - lam[-1]]
    want = [1] + [0] * bound
    for w in weights:
        for a in range(w, bound + 1):
            want[a] += want[a - w]
    assert values == want


@pytest.mark.parametrize("argv", [
    ["lattice", "snf", "--p", "2", "--N", "2", "--laurent", "(0,t)"],
    ["lattice", "classify", "--p", "2", "--N", "2", "--laurent", "(0,t)"],
    ["witt", "add", "--p", "2", "--N", "2", "--laurent", "(0,t)", "(1,0)"],
], ids=["snf", "classify", "witt"])
def test_lattice_commands_take_no_laurent_flag(capsys, argv):
    # the Witt vectors and p-adic numbers of these commands are over finite
    # fields only
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --laurent" in capsys.readouterr().err


def test_a_realization_beyond_the_table_limit_is_refused_before_work(capsys, monkeypatch,
                                                                     tmp_path):
    # restored after the test, whatever --cache-dir sets
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    argv = ["--cache-dir", str(tmp_path), "greenberg", "realize", "--p", "3", "--N", "6",
            "--map", "T1+T2"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the map's first product, its coefficient times T1, reads the mul table,
    # which refuses before any level is solved
    assert captured.err == (
        "error: structure table mul level 5 for p=3 has a potential support of 33965584 "
        "monomials, beyond the limit of 200000; this is out of reach for exact generation, "
        "so use a length N of at most 5\n"
    )
    assert list(tmp_path.iterdir()) == []


def _bits(n, N=8):
    """n mod 2^N as a vector of W_N(F_2): the Teichmuller lifts of F_2 are 0
    and 1, so the Witt coordinates of an integer are its binary digits."""
    return "(" + ",".join(str(n >> i & 1) for i in range(N)) + ")"


@pytest.mark.parametrize("a,b", [(3, 5), (255, 255), (171, 86), (129, 254)])
def test_witt_vectors_of_length_8_over_f2_are_the_integers_mod_256(capsys, a, b):
    def witt(op, *vectors):
        assert cli.main(["witt", op, "--p", "2", "--N", "8", *vectors]) == 0
        return capsys.readouterr().out.strip()

    assert witt("add", _bits(a), _bits(b)) == _bits(a + b)
    assert witt("mul", _bits(a), _bits(b)) == _bits(a * b)
    assert witt("neg", _bits(a)) == _bits(-a)
    for unit in (x for x in (a, b) if x % 2):
        assert witt("inv", _bits(unit)) == _bits(pow(unit, -1, 256))


@pytest.mark.parametrize("argv, problem", [
    # over F_3 level 5 is solved folded, in 12 variables of at most 3 states each
    (["add", "--p", "3", "--N", "6"],
     "structure table add level 5 for p=3 has a potential support of 531441 monomials"),
    (["add", "--p", "2", "--N", "9"], "table length 9 outside 1..8"),
], ids=["F3-N6", "N9"])
def test_finite_field_witt_beyond_the_tables_is_refused(capsys, argv, problem):
    N = int(argv[-1])
    one = "(" + ",".join(["1"] + ["0"] * (N - 1)) + ")"
    assert cli.main(["witt", *argv, one, one]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {problem}" in captured.err
    if "support" in problem:
        assert captured.err == (
            f"error: {problem}, beyond the limit of 200000; this is out of reach for exact "
            f"generation, so use a length N of at most {N - 1}\n"
        )


@pytest.mark.parametrize("q, N", [(4, 7), (9, 6), (25, 5)], ids=["F4-N7", "F9-N6", "F25-N5"])
def test_finite_field_witt_beyond_the_tables_is_galois_ring_arithmetic(capsys, q, N):
    """Over F_q with q > p no table bounds the length: each result is checked
    in the test's own Galois ring."""
    gr = GaloisRing(q, N)
    F, rng = gr.field, random.Random(q)
    a, b = (WittVector(F, [rng.choice(F.elements()) for _ in range(N)]) for _ in "ab")
    a = WittVector(F, (F.one,) + a.coords[1:])  # a unit, for inv

    def witt(op, *vectors):
        argv = ["witt", op, "--p", str(F.p), "--q", str(q), "--N", str(N)]
        assert cli.main(argv + [repr(v) for v in vectors]) == 0
        return gr.of_witt(textio.parse_witt_vector(F, capsys.readouterr().out.strip(), N))

    ga, gb = gr.of_witt(a), gr.of_witt(b)
    assert witt("add", a, b) == gr.add(ga, gb)
    assert witt("mul", a, b) == gr.mul(ga, gb)
    assert witt("neg", a) == gr.neg(ga)
    assert gr.mul(witt("inv", a), ga) == gr.one


@pytest.mark.parametrize("op", ["neg", "inv"])
def test_unary_witt_ops_refuse_a_second_vector(capsys, op):
    assert cli.main(["witt", op, "--p", "3", "--N", "2", "(1,2)", "(1,1)"]) == 2
    assert f"witt {op} takes one vector" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["witt", "add", "--p", "3", "(1)", "(1)"],
        ["hilbert", "hf", "--lambda", "1,-1", "--n", "2", "--p", "2"],
    ],
)
def test_truncation_length_below_one_is_refused(capsys, argv, N):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--N", N])
    assert exc.value.code == 2
    assert f"argument --N: truncation length must be at least 1, not {N}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["grass", "image", "--lambda", "1,x"],
        ["hilbert", "hf", "--lambda", "1,,-1", "--n", "3", "--p", "2", "--N", "3"],
    ],
)
def test_a_bad_cocharacter_literal_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --lambda: bad cocharacter literal" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "enumerate", "--n", "2", "--q", "0", "--window", "1"],
        ["grass", "count", "--n", "2", "--q", "0", "--window", "1", "--oracle", "witt"],
        ["grass", "image", "--lambda", "1,-1", "--q", "0"],
        ["witt", "add", "--p", "2", "--q", "0", "--N", "2", "(1,1)", "(1,0)"],
    ],
)
def test_field_size_zero_is_refused(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_unsupported_prime_is_refused_by_name(capsys):
    assert cli.main(["witt", "add", "--p", "4", "--N", "2", "(1,0)", "(1,0)"]) == 2
    err = capsys.readouterr().err
    assert "p=4 is not a supported prime" in err
    assert "(2, 3, 5)" in err
    assert "power" not in err


def test_negative_samples_are_refused(capsys):
    argv = ["grass", "image", "--lambda", "1,-1", "--q", "2", "--format", "json"]
    assert cli.main(argv + ["--samples", "-3"]) == 2
    assert "samples" in capsys.readouterr().err
    assert cli.main(argv + ["--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 0


def test_grass_image_of_a_1024_point_ideal(capsys):
    # I_(2,-1,-1) at N = 4 has 1,024 points; one count checks they are a submodule
    argv = ["grass", "image", "--lambda", "2,-1,-1", "--q", "2", "--samples", "0"]
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["observed"] == [{"lambda": [2, -1, -1], "count": 1}]
    assert payload["bruhat_ok"] is True


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--n", "3"], "--n 3 differs from the length 2 of --lambda"),
        (["--n", "2", "--bound", "-1"], "weight bound cannot be negative, not -1"),
    ],
)
def test_hilbert_hf_refuses_bad_n_and_negative_bound(capsys, extra, message):
    argv = ["hilbert", "hf", "--lambda", "1,-1", "--p", "2", "--N", "3"]
    assert cli.main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_default_grass_count_oracles_agree(capsys):
    argv = ["grass", "count", "--n", "2", "--q", "2", "--window", "2", "--format", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert [t["provenance"] for t in payload["tables"]] == ["witt", "z-adic"]


def test_grass_count_refuses_prime_powers_before_witt_work(capsys, monkeypatch):
    def no_witt(*args):
        raise AssertionError("the Witt enumeration ran")

    monkeypatch.setattr(cli, "witt_cell_table", no_witt)
    assert cli.main(["grass", "count", "--n", "2", "--q", "4", "--window", "2"]) == 2
    assert "prime field sizes only, not 4" in capsys.readouterr().err
    monkeypatch.undo()
    argv = ["grass", "count", "--n", "2", "--q", "4", "--window", "1", "--oracle", "witt"]
    assert cli.main(argv + ["--format", "json"]) == 0
    (table,) = json.loads(capsys.readouterr().out)["tables"]
    assert table["provenance"] == "witt"
    # W^2, and the q(q + 1) lattices of the cell (1,-1)
    assert table["cells"] == [{"lambda": [0, 0], "count": 1}, {"lambda": [1, -1], "count": 20}]


@pytest.mark.parametrize("oracle", [[], ["--oracle", "witt"]])
def test_grass_count_refuses_a_size_that_is_no_prime_power(capsys, oracle):
    assert cli.main(["grass", "count", "--n", "2", "--q", "6", "--window", "1"] + oracle) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "6 is not a prime power" in captured.err
    assert "prime field sizes" not in captured.err


def test_grass_count_names_the_witt_oracle_for_prime_powers(capsys):
    assert cli.main(["grass", "count", "--n", "2", "--q", "4", "--window", "1"]) == 2
    err = capsys.readouterr().err
    assert "the z-adic oracle supports prime field sizes only, not 4" in err
    assert "--oracle witt" in err


def _lines(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_hilbert_limit_is_exact_without_a_bound(capsys, tmp_path):
    fam = _lines(tmp_path, "family.txt", "x[2,0]", "x[1,0]^2 + t^4*x[2,1]")
    argv = ["hilbert", "limit", "--family-file", fam, "--n", "2", "--p", "2", "--N", "3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.split() == ["x[2,0]", "x[1,0]^2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--bound", "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize("where", ["family", "map"])
def test_a_huge_literal_exponent_is_refused_at_once(capsys, tmp_path, where):
    # the exponent is refused as it is read, before any power is taken
    argv = {
        "family": ["hilbert", "limit", "--n", "2", "--p", "2", "--N", "2", "--family-file",
                   _lines(tmp_path, "family.txt", "x[1,0] + t^1000000000*x[2,0]")],
        "map": ["greenberg", "realize", "--p", "2", "--N", "2", "--map", "T1^1000000000"],
    }[where]
    assert cli.main(argv) == 2  # the first call also imports the command's modules
    err = capsys.readouterr().err
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.2
    assert "^1000000000" in err and f"bound of {textio.MAX_EXPONENT}" in err


def test_a_huge_polynomial_power_is_refused_at_once(capsys, tmp_path):
    # the exponent is under the literal bound, but the power would have
    # 15^5 terms: (a + b + c)^3124 over F_5, 3124 = 44444 in base 5
    argv = ["hilbert", "stable", "--n", "2", "--p", "5", "--N", "2", "--ideal-file",
            _lines(tmp_path, "power.txt", "(x[1,0]+x[2,0]+x[1,1])^3124")]
    assert cli.main(argv) == 2  # the first call also imports the command's modules
    err = capsys.readouterr().err
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.2
    assert "759375 terms" in err and f"bound of {poly.MAX_POWER_TERMS}" in err


def test_hilbert_stable(capsys, tmp_path):
    argv = ["hilbert", "stable", "--n", "2", "--p", "2", "--N", "2", "--ideal-file"]
    assert cli.main(argv + [_lines(tmp_path, "both.txt", "x[1,0]", "x[1,1]")]) == 0
    assert capsys.readouterr().out == "stable\n"
    assert cli.main(argv + [_lines(tmp_path, "top.txt", "x[1,1]")]) == 0
    assert capsys.readouterr().out == "not stable\n"


def test_lattice_classify(capsys):
    matrix = "p*(1,0,0),(0,0,0);(0,0,0),p^-1*(1,0,0)"
    assert cli.main(["lattice", "classify", "--p", "2", "--N", "3", matrix]) == 0
    assert capsys.readouterr().out == "1,-1\n"


def test_lattice_classify_refuses_a_nonunit_determinant(capsys):
    # diag(p, 1): the columns span a lattice of determinant valuation 1
    argv = ["lattice", "classify", "--p", "2", "--N", "2", "(0,1),(0,0);(0,0),(1,0)"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: the matrix has determinant valuation 1, not 0 (elementary divisor exponents "
        "(1, 0)); a Schubert cell is classified only for a unit determinant\n"
    )


HF = ["hilbert", "hf", "--p", "2", "--N", "4", "--n"]


@pytest.mark.parametrize("argv, message", [
    (HF + ["2", "--lambda=1,-2"], "(1, -2) sums to -1, not 0: no cocharacter of SL_2"),
    (HF + ["3", "--lambda=-1,0,1"], "(-1, 0, 1) is not dominant: it rises from -1 to 0"),
    # a value with a leading minus sign, spaced from its flag, is still the value
    (HF + ["2", "--lambda", "-1,1"], "(-1, 1) is not dominant: it rises from -1 to 1"),
    (["grass", "image", "--lambda", "-1,1"], "(-1, 1) is not dominant: it rises from -1 to 1"),
    # and so it is after an abbreviated flag, which argparse accepts too
    (HF + ["2", "--lam", "-1,1"], "(-1, 1) is not dominant: it rises from -1 to 1"),
    (["grass", "image", "--lam", "-1,1"], "(-1, 1) is not dominant: it rises from -1 to 1"),
], ids=["sum", "increasing", "spaced-hf", "spaced-image", "abbrev-hf", "abbrev-image"])
def test_a_cocharacter_is_refused_for_the_condition_it_fails(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_lattice_snf(capsys):
    matrix = "p*(1,2),(2,1);(1,0),p^-1*(1,1)"
    assert cli.main(["lattice", "snf", "--p", "3", "--N", "2", matrix]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "exponents: 1,-1",
        "U:",
        "[(2,1), p^1*(2)]",
        "[p^2*(), (1,1)]",
        "V:",
        "[(1,0), p^2*()]",
        "[p^1*(1), (1,0)]",
    ]


@pytest.mark.parametrize(
    "matrix, out",
    [
        ("p^-1*(1)", ["exponents: -1", "U:", "[(1)]", "V:", "[(1)]"]),
        ("p^-2*(1)", ["exponents: -2", "U:", "[(1)]", "V:", "[(1)]"]),
        (
            "p^-1*(1),(1);(0),p^-2*(1)",
            [
                "exponents: -1,-2",
                "U:",
                "[(1), p^1*()]",
                "[p^1*(), (1)]",
                "V:",
                "[(1), p^1*()]",
                "[p^1*(), (1)]",
            ],
        ),
    ],
)
def test_lattice_snf_with_no_digit_at_or_above_p0(capsys, matrix, out):
    # every entry is known only below p^0, yet U and V keep one digit
    assert cli.main(["lattice", "snf", "--p", "2", "--N", "1", matrix]) == 0
    assert capsys.readouterr().out.splitlines() == out


def test_greenberg_realize_map(capsys):
    assert cli.main(["greenberg", "realize", "--p", "2", "--N", "2", "--map", "T1*T2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "COMP 1 0: x[1,0]*x[2,0]",
        "COMP 1 1: x[1,1]*x[2,0]^2 + x[1,0]^2*x[2,1]",
    ]


# stdout of `greenberg realize` before Witt maps became polynomials over W_N(k)
GOLDEN_REALIZE = [
    (
        ["--p", "2", "--N", "2", "--map", "T1*T2-1; T1+T2"],
        [
            "COMP 1 0: x[1,0]*x[2,0] + 1",
            "COMP 1 1: x[1,1]*x[2,0]^2 + x[1,0]^2*x[2,1] + x[1,0]*x[2,0] + 1",
            "COMP 2 0: x[1,0] + x[2,0]",
            "COMP 2 1: x[1,1] + x[1,0]*x[2,0] + x[2,1]",
        ],
    ),
    (
        ["--p", "2", "--q", "4", "--N", "3", "--map", "(T1+u*T2)^3 - 2*T1; T2^2*T1 + 7"],
        [
            "COMP 1 0: x[1,0]^3 + u*x[1,0]^2*x[2,0] + (u+1)*x[1,0]*x[2,0]^2 + x[2,0]^3",
            "COMP 1 1: x[1,0]^4*x[1,1] + u*x[1,0]^5*x[2,0] + u*x[1,1]*x[2,0]^4"
            " + (u+1)*x[1,0]*x[2,0]^5 + (u+1)*x[1,0]^4*x[2,1] + x[2,0]^4*x[2,1] + x[1,0]^2",
            "COMP 1 2: x[1,0]^8*x[1,1]^2 + x[1,0]^4*x[1,1]^4 + x[1,0]^8*x[1,2]"
            " + u*x[1,0]^11*x[2,0] + u*x[1,0]^9*x[1,1]*x[2,0] + (u+1)*x[1,0]^10*x[2,0]^2"
            " + x[1,0]^9*x[2,0]^3 + u*x[1,0]^8*x[2,0]^4 + u*x[1,1]^4*x[2,0]^4"
            " + (u+1)*x[1,0]^4*x[2,0]^8 + (u+1)*x[1,1]^2*x[2,0]^8 + (u+1)*x[1,2]*x[2,0]^8"
            " + x[1,0]^3*x[2,0]^9 + x[1,0]*x[1,1]*x[2,0]^9 + u*x[1,0]^2*x[2,0]^10"
            " + (u+1)*x[1,0]*x[2,0]^11 + (u+1)*x[1,0]^8*x[1,1]*x[2,1] + x[1,0]^9*x[2,0]*x[2,1]"
            " + u*x[1,1]*x[2,0]^8*x[2,1] + (u+1)*x[1,0]*x[2,0]^9*x[2,1] + u*x[1,0]^8*x[2,1]^2"
            " + x[2,0]^8*x[2,1]^2 + (u+1)*x[1,0]^4*x[2,1]^4 + x[2,0]^4*x[2,1]^4"
            " + u*x[1,0]^8*x[2,2] + x[2,0]^8*x[2,2] + x[1,0]^6*x[1,1] + u*x[1,0]^7*x[2,0]"
            " + u*x[1,0]^2*x[1,1]*x[2,0]^4 + (u+1)*x[1,0]^3*x[2,0]^5 + (u+1)*x[1,0]^6*x[2,1]"
            " + x[1,0]^2*x[2,0]^4*x[2,1] + x[1,0]^4 + x[1,1]^2",
            "COMP 2 0: x[1,0]*x[2,0]^2 + 1",
            "COMP 2 1: x[1,1]*x[2,0]^4 + x[1,0]*x[2,0]^2 + 1",
            "COMP 2 2: x[1,2]*x[2,0]^8 + x[1,0]^4*x[2,0]^4*x[2,1]^2 + x[1,0]^4*x[2,1]^4"
            " + x[1,0]^3*x[2,0]^6 + x[1,0]*x[1,1]*x[2,0]^6 + x[1,1]*x[2,0]^4 + 1",
        ],
    ),
    (
        ["--p", "3", "--N", "3", "--map", "T1^5 + 3*T1*T2 - T2"],
        [
            "COMP 1 0: x[1,0]^5 + 2*x[2,0]",
            "COMP 1 1: 2*x[1,0]^12*x[1,1] + x[1,0]^10*x[2,0] + 2*x[1,0]^5*x[2,0]^2"
            " + x[1,0]^3*x[2,0]^3 + 2*x[2,1]",
            "COMP 1 2: 2*x[1,0]^36*x[1,1]^3 + x[1,0]^27*x[1,1]^6 + 2*x[1,0]^36*x[1,2]"
            " + x[1,0]^40*x[2,0] + 2*x[1,0]^34*x[1,1]^2*x[2,0] + 2*x[1,0]^35*x[2,0]^2"
            " + x[1,0]^32*x[1,1]*x[2,0]^2 + x[1,0]^29*x[1,1]^2*x[2,0]^2"
            " + 2*x[1,0]^27*x[1,1]^2*x[2,0]^3 + x[1,0]^27*x[1,1]*x[2,0]^3"
            " + x[1,0]^24*x[1,1]^2*x[2,1] + 2*x[1,0]^25*x[1,1]*x[2,0]^4 + 2*x[1,0]^25*x[2,0]^4"
            " + x[1,0]^22*x[1,1]*x[2,0]^4 + x[1,0]^22*x[1,1]*x[2,0]*x[2,1]"
            " + 2*x[1,0]^23*x[2,0]^5 + x[1,0]^20*x[1,1]*x[2,0]^5 + x[1,0]^18*x[1,1]*x[2,0]^6"
            " + x[1,0]^20*x[2,0]^5 + x[1,0]^20*x[2,0]^2*x[2,1]"
            " + 2*x[1,0]^17*x[1,1]*x[2,0]^2*x[2,1] + 2*x[1,0]^18*x[2,0]^6"
            " + x[1,0]^15*x[1,1]*x[2,0]^3*x[2,1] + 2*x[1,0]^16*x[2,0]^7"
            " + x[1,0]^15*x[2,0]^3*x[2,1] + x[1,0]^12*x[1,1]*x[2,1]^2 + 2*x[1,0]^13*x[2,0]^7"
            " + 2*x[1,0]^13*x[2,0]^4*x[2,1] + x[1,0]^11*x[2,0]^8 + x[1,1]^3*x[2,0]^9"
            " + x[1,0]^9*x[2,1]^3 + x[1,0]^10*x[2,0]^7 + x[1,0]^10*x[2,0]^4*x[2,1]"
            " + 2*x[1,0]^10*x[2,0]*x[2,1]^2 + x[1,0]^8*x[2,0]^5*x[2,1]"
            " + x[1,0]^6*x[2,0]^6*x[2,1] + 2*x[1,0]^5*x[2,0]^8 + x[1,0]^5*x[2,0]^2*x[2,1]^2"
            " + 2*x[1,0]^3*x[2,0]^3*x[2,1]^2 + 2*x[2,2]",
        ],
    ),
    (
        ["--p", "2", "--N", "3", "--ideal", "T1^2 - 2*T2; T1*T2"],
        [
            "GEN 0: x[1,0]^2",
            "GEN 1: x[2,0]^2",
            "GEN 2: x[1,0]^4*x[1,1]^2 + x[1,1]^4 + x[2,0]^4 + x[2,1]^2",
            "GEN 3: x[1,0]*x[2,0]",
            "GEN 4: x[1,1]*x[2,0]^2 + x[1,0]^2*x[2,1]",
            "GEN 5: x[1,2]*x[2,0]^4 + x[1,0]^2*x[1,1]*x[2,0]^2*x[2,1] + x[1,1]^2*x[2,1]^2"
            " + x[1,0]^4*x[2,2]",
        ],
    ),
]


@pytest.mark.parametrize("argv, lines", GOLDEN_REALIZE)
def test_greenberg_realize_golden(capsys, argv, lines):
    assert cli.main(["greenberg", "realize", *argv]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("power", ["u^2", "u^-1"])
def test_greenberg_realize_powers_of_u(capsys, power):
    # T(u)^-1 = T(u)^2 over F_4, since u^3 = 1
    argv = ["greenberg", "realize", "--p", "2", "--q", "4", "--N", "2", "--map"]
    assert cli.main(argv + ["u*u*T1"]) == 0
    want = capsys.readouterr().out
    assert cli.main(argv + [f"{power}*T1"]) == 0
    assert capsys.readouterr().out == want


def test_greenberg_realize_refuses_negative_powers_of_integers(capsys):
    argv = ["greenberg", "realize", "--p", "2", "--q", "4", "--N", "2", "--map", "2^-1*T1"]
    assert cli.main(argv) == 2
    assert "negative exponents" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witt", "add", "--p", "2", "--N", "2", "(1\u00b2,0)", "(1,0)"],
    ["greenberg", "realize", "--p", "2", "--N", "2", "--map", "T1\u00b2"],
], ids=["witt", "greenberg"])
def test_superscript_digits_are_a_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    assert "unexpected character '\u00b2'" in capsys.readouterr().err


def _nested(depth, inner):
    return "(" * depth + inner + ")" * depth


def test_deep_nesting_is_a_usage_error(capsys):
    assert cli.main(["witt", "add", "--p", "2", "--N", "1", _nested(260, "1"), "(1)"]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert cli.main(["witt", "add", "--p", "2", "--N", "1", _nested(200, "1"), "(1)"]) == 0
    assert capsys.readouterr().out.strip() == "(0)"


def test_greenberg_realize_json_lines(capsys):
    argv = ["greenberg", "realize", "--p", "2", "--N", "2", "--format", "json", "--ideal"]
    assert cli.main(argv + ["T1*T2"]) == 0
    assert json.loads(capsys.readouterr().out)["lines"] == [
        "GEN 0: x[1,0]*x[2,0]",
        "GEN 1: x[1,1]*x[2,0]^2 + x[1,0]^2*x[2,1]",
    ]
    assert cli.main(argv + ["2*T1 - 2*T1"]) == 0
    assert json.loads(capsys.readouterr().out)["lines"] == []
