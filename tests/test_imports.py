"""What a process loads: the package surface and the modules a witt call,
a lattice enumeration and a cell count import."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittgrass
from wittgrass import structure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

UNUSED_BY_WITT = (
    "lattice", "greenberg", "groebner", "hilbert", "grassmann", "zadic", "selftest",
    "poly", "rings",
)


def _python(code, *args, cwd=None):
    """Run code in a fresh interpreter on these sources; its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120, check=True,
    )
    return done.stdout


WITT_THEN_GRASS = """\
import contextlib, io, json, sys
from wittgrass import cli

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--format", "json"]) == 0
    return json.loads(buf.getvalue())

witt = run(["--cache-dir", sys.argv[1], "witt", "mul", "--p", "2", "--N", "2", "(1,1)", "(1,0)"])
loaded = sorted(m for m in sys.modules if m.startswith("wittgrass"))
grass = run(["grass", "count", "--n", "2", "--q", "3", "--window", "1"])
print(json.dumps({"witt": witt["result"], "loaded": loaded, "grass": grass}))
"""


def test_witt_call_loads_only_the_arithmetic_stack(tmp_path):
    out = json.loads(_python(WITT_THEN_GRASS, str(tmp_path)))
    assert out["witt"] == "(1,1)"
    assert not [m for m in UNUSED_BY_WITT if f"wittgrass.{m}" in out["loaded"]], out["loaded"]
    # a later command in the same process loads what it needs and still counts
    # right: W^2 and the q(q + 1) = 12 lattices of the cell (1,-1)
    grass = out["grass"]
    assert grass["agree"] is True
    for table in grass["tables"]:
        assert table["cells"] == [
            {"lambda": [0, 0], "count": 1},
            {"lambda": [1, -1], "count": 12},
        ]


LOADED_BY = """\
import contextlib, io, json, sys
from wittgrass import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--cache-dir", sys.argv[1], *sys.argv[2:]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("wittgrass"))))
"""

# the CLI with lattice and the Galois ring; no Witt-vector stack
CELL_STACK = [
    "wittgrass", "wittgrass.cli", "wittgrass.errors", "wittgrass.fields", "wittgrass.galois",
    "wittgrass.lattice",
]
# the p-adic literals of lattice snf and classify bring the text parsers
PADIC_STACK = CELL_STACK + ["wittgrass.textio"]
# Witt arithmetic over F_q: the tables, the arithmetic and the literal parser
WITT_STACK = [
    "wittgrass", "wittgrass.cli", "wittgrass.errors", "wittgrass.fields", "wittgrass.structure",
    "wittgrass.textio", "wittgrass.witt",
]
# Hilbert functions: the Groebner stack, no Witt arithmetic and no text parser
# (--lambda is read by argparse)
HILBERT_HF_STACK = [
    "wittgrass", "wittgrass.cli", "wittgrass.errors", "wittgrass.fields", "wittgrass.groebner",
    "wittgrass.hilbert", "wittgrass.poly",
]
# the image report: Groebner, points and lattices, the Greenberg action and the
# Witt arithmetic it runs over polynomial rings; no text parser, and F_q(t)
# (rings) only for the degeneration family of (1,-1)
GRASS_IMAGE_STACK = HILBERT_HF_STACK + [
    "wittgrass.galois", "wittgrass.grassmann", "wittgrass.greenberg", "wittgrass.lattice",
    "wittgrass.structure", "wittgrass.witt",
]


@pytest.mark.parametrize("argv, modules", [
    (["witt", "mul", "--p", "2", "--N", "2", "(1,1)", "(1,0)"], WITT_STACK),
    (["witt", "add", "--p", "2", "--N", "2", "--laurent", "(t,1)", "(1,t^-1)"],
     WITT_STACK + ["wittgrass.rings"]),
    (["greenberg", "realize", "--p", "2", "--q", "4", "--N", "2", "--map", "u^-1*T1*T2"],
     WITT_STACK + ["wittgrass.greenberg", "wittgrass.poly"]),
    (["hilbert", "hf", "--lambda", "1,0,-1", "--n", "3", "--p", "2", "--N", "4", "--bound", "24"],
     HILBERT_HF_STACK),
    (["grass", "image", "--lambda", "1,-1", "--q", "2", "--samples", "2"],
     GRASS_IMAGE_STACK + ["wittgrass.rings"]),
    (["grass", "image", "--lambda", "2,-2", "--q", "2", "--samples", "1"], GRASS_IMAGE_STACK),
], ids=["witt", "witt-laurent", "greenberg-realize", "hilbert-hf", "grass-image",
        "grass-image-2-2"])
def test_command_loads_exactly(tmp_path, argv, modules):
    """The modules a one-shot command loads, pinned: a new import on one of
    these paths fails here instead of adding compile time unnoticed."""
    assert json.loads(_python(LOADED_BY, str(tmp_path), *argv)) == sorted(modules)


@pytest.mark.parametrize("argv, extra", [
    (["lattice", "enumerate", "--n", "3", "--q", "2", "--window", "1"], []),
    (["grass", "count", "--n", "2", "--q", "4", "--window", "1", "--oracle", "witt"], []),
    (["grass", "count", "--n", "2", "--q", "3", "--window", "1"], ["wittgrass.zadic"]),
])
def test_cell_counts_load_no_groebner_stack(tmp_path, argv, extra):
    """Lattice enumeration and cell tables load neither hilbert, greenberg,
    groebner nor grassmann, nor the Witt-vector stack (structure, witt,
    textio, poly, rings), and read no structure table."""
    loaded = json.loads(_python(LOADED_BY, str(tmp_path), *argv))
    assert loaded == sorted(CELL_STACK + extra)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["lattice", "snf", "--p", "2", "--N", "2", "(1,1),(0,1);(1,0),(1,1)"],
    ["lattice", "classify", "--q", "4", "--p", "2", "--N", "2", "(u,1),(0,1);(1,0),(1,u)"],
])
def test_padic_commands_load_no_witt_stack(tmp_path, argv):
    """lattice snf and classify parse their literals with textio, but load
    neither witt nor structure, nor poly or rings."""
    loaded = json.loads(_python(LOADED_BY, str(tmp_path), *argv))
    assert loaded == sorted(PADIC_STACK)
    assert list(tmp_path.iterdir()) == []


def test_witt_names_resolve_without_being_stored():
    """lattice.witt_arith and cli.witt_arith are the function of witt, looked
    up on each read, never a binding of lattice or cli."""
    code = (
        "import sys\n"
        "from wittgrass import cli, lattice\n"
        "before = 'wittgrass.witt' in sys.modules\n"
        "from wittgrass import witt\n"
        "print(before, lattice.witt_arith is witt.witt_arith, cli.witt_arith is witt.witt_arith,\n"
        "      cli.witt_inv is witt.witt_inv,\n"
        "      any(name in vars(m) for m in (cli, lattice) for name in ('witt_arith', 'witt_inv')))\n"
    )
    assert _python(code).split() == ["False", "True", "True", "True", "False"]


COLD_SETUP = """\
import json, sys
import wittgrass
wittgrass.gen_structure_polys(3, 3, "add", cache_dir=sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("wittgrass"))))
"""


def test_cold_table_setup_loads_only_the_tables(tmp_path):
    """Generating a table through the package loads structure and what it
    imports, errors and the package root; not the finite-field layer."""
    loaded = json.loads(_python(COLD_SETUP, str(tmp_path)))
    assert loaded == ["wittgrass", "wittgrass.errors", "wittgrass.structure"]
    assert [path.name for path in tmp_path.iterdir()] == ["structure_p3.txt"]


def test_package_surface_is_lazy():
    assert wittgrass.__version__ == "0.1.0"
    assert issubclass(wittgrass.WittgrassError, Exception)
    assert wittgrass.gen_structure_polys is structure.gen_structure_polys
    try:
        wittgrass.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")
    code = (
        "import wittgrass\n"
        "before = hasattr(wittgrass, 'cli')\n"
        "from wittgrass import cli\n"
        "print(before, hasattr(wittgrass, 'cli'), cli.main is wittgrass.cli.main)\n"
    )
    assert _python(code).split() == ["False", "True", "True"]


def test_benchmark_setup_writes_the_same_tables(tmp_path):
    """perfbench/run.py's set-up child reaches gen_structure_polys through the
    package and writes cache files byte-identical to the ones pinned here;
    each file holds only the ops asked for, each at its own length."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    specs = ["2:3:add", "2:3:mul", "3:2:add", "5:2:neg"]
    assert float(_python(run.SETUP_CODE, str(tmp_path), *specs).split()[-1]) > 0
    digests = {
        name: hashlib.sha256(body).hexdigest()[:12]
        for name, body in run.cache_files(tmp_path).items()
    }
    assert digests == {
        "structure_p2.txt": "52a9c7f324be",
        "structure_p3.txt": "fa3c5111ae41",
        "structure_p5.txt": "27d35a1a7f77",
    }


def test_lazy_imports_leave_no_tracer_wrapper_behind(tmp_path, capsys):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from wittgrass import cli

    # A module first imported while the tracer is installed keeps the wrappers
    # it imported by name, so the layers are loaded first, as a traced
    # benchmark pass loads them by running its jobs untraced.  What is checked
    # is that the commands' own lazy imports bind no wrapper in cli.
    for module in {target[0] for target in tracing.TARGETS}:
        importlib.import_module(module)
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        for argv in (
            ["witt", "inv", "--p", "3", "--N", "2", "(1,2)"],
            ["lattice", "snf", "--p", "2", "--N", "2", "(1,1),(0,1);(1,0),(1,1)"],
            ["grass", "count", "--n", "2", "--q", "2", "--window", "1"],
            ["hilbert", "hf", "--lambda", "1,-1", "--n", "2", "--p", "2", "--N", "3"],
        ):
            assert cli.main(["--cache-dir", str(tmp_path), *argv]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {name for _, name, *_ in tracer.spans}
    assert {"cli.main", "witt.inv", "lattice.snf", "lattice.enum", "hilbert.hf"} <= names
    left = [
        f"{module.__name__}.{attr}"
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("wittgrass")
        for attr, value in vars(module).items()
        if getattr(value, "__module__", None) == "tracing"
    ]
    assert left == []
