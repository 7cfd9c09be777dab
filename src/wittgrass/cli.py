"""Command-line front end.

Subcommands mirror the package layout: witt, greenberg, lattice, hilbert,
grass and selftest.  Exit status 0 on success, 1 on domain errors (guards,
precision, non-units), 2 on usage errors.  Output is deterministic for fixed
inputs and seeds; --format json switches to a stable machine-readable schema
(schema version in the "schema" field).  When the reader closes standard
output early (``wittgrass selftest | head -1``), the command stops quietly
with exit status 1.

Importing this module loads only errors and fields.  Each subcommand imports
its modules when it runs, so a one-shot process loads, and with bytecode
writing off compiles, only what it uses: a ``witt`` call loads structure, witt
and textio, and galois as well over F_q with q > p; ``greenberg realize`` adds
greenberg and poly; ``lattice enumerate`` and ``grass count`` load lattice and
galois, and ``zadic`` for the z-adic count; ``lattice snf`` and ``classify``
add only textio to those two; ``hilbert hf`` loads hilbert, groebner and poly,
and no Witt arithmetic; ``grass image`` adds grassmann, lattice, galois,
greenberg, witt and structure to those, and rings only for the F_q(t) family
of (1,-1).  Neither loads textio: ``--lambda`` is read by its argparse type.
``witt_cell_table``, ``witt_arith`` and ``witt_inv`` are attributes of this
module, resolved on first use by the module ``__getattr__``, so that they can
be patched and wrapped.  Lazily imported functions are never stored in this
module's globals: a tracer that wraps them in their defining modules stays in
effect here, and its removal leaves nothing behind.

A process enters through ``console_main``, as ``python -m wittgrass.cli`` and
as the installed ``wittgrass`` script.  It runs ``main`` and then freezes the
collector, so that the collection at interpreter exit does not traverse every
object the process made or loaded.  On a 2-core Xeon with Python 3.11.7 the
exit of a ``witt``, ``lattice``, ``hilbert`` or ``grass`` call fell from
7.8-9.3 ms to 2.3-2.8 ms so.  About half of that cost was objects that ``site``
loaded from installed ``.pth`` files (``python -c pass`` exited in 6.4 ms,
``python -S -c pass`` in 1.8 ms), so the saving is smaller where there are
none.  ``main`` itself keeps a normal collector for callers in the process.
``main`` also builds only the parser of the command it runs.  All six commands
are registered with their help, so usage lines, help and choice errors are
those of the full parser; only the command argparse dispatches to gets its
arguments and subcommands.  A probe parser that knows the top level's options
alone finds that command by argparse's own rules, abbreviations included.  The
full tree of 16 parsers took 3.3-5.2 ms to build in a fresh process; the probe
and one command took about 2 ms, most of it argparse's first-use costs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import _ENV_CACHE, SUPPORTED_PRIMES
from .errors import UsageError, WittgrassError
from .fields import GF

SCHEMA = "wittgrass/1"


def __getattr__(name):
    if name == "witt_cell_table":
        from .lattice import witt_cell_table

        return witt_cell_table
    if name in ("witt_arith", "witt_inv"):
        from . import witt

        return getattr(witt, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _field(args):
    if args.p not in SUPPORTED_PRIMES:
        raise UsageError(f"p={args.p} is not a supported prime; supported: {SUPPORTED_PRIMES}")
    q = getattr(args, "q", None)
    if q is None:
        q = args.p
    field = GF(q)
    if field.p != args.p:
        raise UsageError(f"q={q} is not a power of p={args.p}")
    return field


def _emit(args, payload, text):
    if getattr(args, "format", "text") == "json":
        payload = dict(payload)
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# -- witt ----------------------------------------------------------------

def cmd_witt(args):
    from .textio import parse_witt_vector
    from .witt import witt_arith, witt_inv

    if args.op in ("neg", "inv") and args.other is not None:
        raise UsageError(f"witt {args.op} takes one vector, not a second {args.other!r}")
    ring = _field(args)
    a = parse_witt_vector(ring, args.vector, args.N)
    if args.op in ("add", "mul"):
        if args.other is None:
            raise UsageError(f"witt {args.op} needs two vectors")
        b = parse_witt_vector(ring, args.other, args.N)
        out = witt_arith(args.op, a, b)
    elif args.op == "neg":
        out = witt_arith("neg", a)
    else:
        out = witt_inv(a)
    _emit(args, {"result": repr(out)}, repr(out))
    return 0


# -- greenberg -------------------------------------------------------------

def cmd_greenberg(args):
    from .greenberg import parse_witt_map, realize_ideal, realize_poly_map

    field = _field(args)
    if args.map:
        out = realize_poly_map(parse_witt_map(args.map, field, args.N))
    elif args.ideal:
        out = realize_ideal(parse_witt_map(args.ideal, field, args.N))
    else:
        raise UsageError("greenberg realize needs --map or --ideal")
    text = repr(out)
    _emit(args, {"lines": text.splitlines()}, text)
    return 0


# -- lattice ---------------------------------------------------------------

def cmd_lattice_snf(args):
    from .lattice import WittMatrix, smith_normal_form
    from .textio import parse_padic_matrix

    A = parse_padic_matrix(_field(args), args.matrix, args.N)
    U, mu, V = smith_normal_form(A)
    # the factors are printed modulo p^N, so that they parse back at --N
    U, V = (WittMatrix(M.ring, [[x.truncate_abs(args.N) for x in row] for row in M.entries])
            for M in (U, V))
    text = f"exponents: {','.join(map(str, mu))}\nU:\n{U!r}\nV:\n{V!r}"
    _emit(args, {"exponents": list(mu), "U": repr(U), "V": repr(V)}, text)
    return 0


def cmd_lattice_classify(args):
    from .lattice import classify_cell
    from .textio import parse_padic_matrix

    A = parse_padic_matrix(_field(args), args.matrix, args.N)
    cell = classify_cell(A)
    _emit(args, {"cell": list(cell)}, ",".join(map(str, cell)))
    return 0


def cmd_lattice_enumerate(args):
    from .lattice import witt_cell_table

    table = witt_cell_table(args.n, args.q, args.window)
    cells = table.as_dict()["cells"]
    text = "\n".join(
        f"({','.join(map(str, c['lambda']))}): {c['count']}" for c in cells
    )
    _emit(args, {"total": table.total, "cells": cells}, text)
    return 0


# -- hilbert ---------------------------------------------------------------

def _read_poly_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]


def cmd_hilbert_hf(args):
    from .hilbert import default_bound, hilbert_function, ideal_I_lambda

    field = _field(args)
    if args.n != len(args.lam):
        raise UsageError(f"--n {args.n} differs from the length {len(args.lam)} of --lambda")
    if args.bound is not None and args.bound < 0:
        raise UsageError(f"the weight bound cannot be negative, not {args.bound}")
    I = ideal_I_lambda(field, args.lam, args.N, allow_tight_window=args.tight)
    bound = args.bound if args.bound is not None else default_bound(field.p, args.N)
    hf = hilbert_function(I, bound)
    _emit(args, {"values": hf.values}, repr(hf))
    return 0


def cmd_hilbert_stable(args):
    from .hilbert import GradedIdeal, ambient_ring, is_module_stable
    from .textio import parse_coordinate_poly

    field = _field(args)
    ring = ambient_ring(field, args.n, args.N)
    gens = [parse_coordinate_poly(ring, line) for line in _read_poly_lines(args.ideal_file)]
    I = GradedIdeal(ring, args.n, args.N, gens)
    ok = is_module_stable(I)
    _emit(args, {"stable": ok}, "stable" if ok else "not stable")
    return 0


def cmd_hilbert_limit(args):
    from .hilbert import GradedIdeal, family_ring, flat_limit
    from .textio import parse_coordinate_poly

    field = _field(args)
    ring = family_ring(field, args.n, args.N)
    gens = [parse_coordinate_poly(ring, line) for line in _read_poly_lines(args.family_file)]
    fam = GradedIdeal(ring, args.n, args.N, gens)
    limit = flat_limit(fam)
    lines = [repr(g) for g in limit.generators]
    _emit(args, {"generators": lines}, "\n".join(lines))
    return 0


# -- grass -----------------------------------------------------------------

def cmd_grass_count(args):
    from .lattice import zadic_cell_table

    # q is checked before any count: the Witt side takes the prime powers GF
    # supports, the z-adic side only primes
    if args.oracle != "z-adic":
        field = GF(args.q)
        if field.e > 1 and args.oracle == "both":
            raise UsageError(
                f"the z-adic oracle supports prime field sizes only, not {args.q}; "
                "count with --oracle witt"
            )
    tables = []
    if args.oracle in ("witt", "both"):
        # looked up on the module, where a patched witt_cell_table takes effect
        witt_table = sys.modules[__name__].witt_cell_table
        tables.append(witt_table(args.n, args.q, args.window))
    if args.oracle in ("z-adic", "both"):
        tables.append(zadic_cell_table(args.n, args.q, args.window))
    payload = {"tables": [t.as_dict() for t in tables]}
    if len(tables) == 2:
        payload["agree"] = tables[0].same_counts(tables[1])
    text_lines = [f"[{t.provenance}] {t!r}" for t in tables]
    if "agree" in payload:
        text_lines.append(f"agree: {payload['agree']}")
    _emit(args, payload, "\n".join(text_lines))
    return 0


def cmd_grass_image(args):
    from .grassmann import image_check

    rep = image_check(args.lam, q=args.q, samples=args.samples, seed=args.seed)
    payload = {
        "lambda": rep["lambda"],
        "q": rep["q"],
        "seed": rep["seed"],
        "samples": rep["samples"],
        "observed": [
            {"lambda": list(c), "count": n} for c, n in sorted(rep["observed"].items())
        ],
        "realized": [
            {"lambda": list(c), "via": how} for c, how in sorted(rep["realized"].items())
        ],
        "bruhat_ok": rep["bruhat_ok"],
        "standard_fiber_ideals": rep["standard_fiber_ideals"],
    }
    text = "\n".join(
        [
            f"observed: "
            + ", ".join(f"({','.join(map(str, c))}): {v}" for c, v in sorted(rep["observed"].items())),
            f"bruhat order respected: {rep['bruhat_ok']}",
            f"distinct stable ideals over the standard lattice: {rep['standard_fiber_ideals']}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest

    failures = run_selftest()
    if failures:
        print(f"{failures} properties failed", file=sys.stderr)
        return 1
    return 0


def length(text):
    N = int(text)
    if N < 1:
        raise argparse.ArgumentTypeError(f"truncation length must be at least 1, not {N}")
    return N


def cocharacter(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cocharacter literal {text!r}") from None


def _add_common(p):
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--N", type=length, required=True, help="truncation length")
    p.add_argument("--q", type=int, help="field size (default: p)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _witt_parser(w):
    w.add_argument("op", choices=("add", "mul", "neg", "inv"))
    _add_common(w)
    w.add_argument("vector")
    w.add_argument("other", nargs="?")
    w.set_defaults(fn=cmd_witt)


def _greenberg_parser(g):
    gsub = g.add_subparsers(dest="gcmd", required=True)
    gr = gsub.add_parser("realize")
    _add_common(gr)
    gr.add_argument("--map", help="semicolon-separated Witt polynomials in T1..Td")
    gr.add_argument("--ideal", help="semicolon-separated ideal generators")
    gr.set_defaults(fn=cmd_greenberg)


def _lattice_parser(l):
    lsub = l.add_subparsers(dest="lcmd", required=True)
    ls = lsub.add_parser("snf")
    _add_common(ls)
    ls.add_argument("matrix", help="rows ';', entries like p^v*(a0,a1,...)")
    ls.set_defaults(fn=cmd_lattice_snf)
    lc = lsub.add_parser("classify")
    _add_common(lc)
    lc.add_argument("matrix")
    lc.set_defaults(fn=cmd_lattice_classify)
    le = lsub.add_parser("enumerate")
    le.add_argument("--n", type=int, required=True)
    le.add_argument("--q", type=int, required=True)
    le.add_argument("--window", type=int, required=True)
    le.add_argument("--format", choices=("text", "json"), default="text")
    le.set_defaults(fn=cmd_lattice_enumerate)


def _hilbert_parser(h):
    hsub = h.add_subparsers(dest="hcmd", required=True)
    hh = hsub.add_parser("hf")
    hh.add_argument("--lambda", dest="lam", type=cocharacter, required=True)
    hh.add_argument("--n", type=int, required=True)
    _add_common(hh)
    hh.add_argument("--bound", type=int)
    hh.add_argument("--tight", action="store_true", help="allow N = max shifted exponent")
    hh.set_defaults(fn=cmd_hilbert_hf)
    hs = hsub.add_parser("stable")
    hs.add_argument("--ideal-file", required=True)
    hs.add_argument("--n", type=int, required=True)
    _add_common(hs)
    hs.set_defaults(fn=cmd_hilbert_stable)
    hl = hsub.add_parser(
        "limit", help="exact flat limit at t = 0 of a family over F_q(t), by one t-saturation"
    )
    hl.add_argument("--family-file", required=True)
    hl.add_argument("--n", type=int, required=True)
    _add_common(hl)
    hl.set_defaults(fn=cmd_hilbert_limit)


def _grass_parser(g):
    grsub = g.add_subparsers(dest="grcmd", required=True)
    gco = grsub.add_parser("count")
    gco.add_argument("--n", type=int, required=True)
    gco.add_argument("--q", type=int, required=True)
    gco.add_argument("--window", type=int, required=True)
    gco.add_argument("--oracle", choices=("witt", "z-adic", "both"), default="both")
    gco.add_argument("--format", choices=("text", "json"), default="text")
    gco.set_defaults(fn=cmd_grass_count)
    gi = grsub.add_parser("image")
    gi.add_argument("--lambda", dest="lam", type=cocharacter, required=True)
    gi.add_argument("--q", type=int, default=2)
    gi.add_argument("--samples", type=int, default=20)
    gi.add_argument("--seed", type=int, default=7)
    gi.add_argument("--format", choices=("text", "json"), default="text")
    gi.set_defaults(fn=cmd_grass_image)


# (name, help, the function that adds its arguments and subcommands)
COMMANDS = (
    ("witt", "Witt vector arithmetic", _witt_parser),
    ("greenberg", "coordinate-wise realization", _greenberg_parser),
    ("lattice", "p-adic lattices", _lattice_parser),
    ("hilbert", "graded ideals and Hilbert functions", _hilbert_parser),
    ("grass", "cell tables and the image report", _grass_parser),
    ("selftest", "run the invariant suite", lambda st: st.set_defaults(fn=cmd_selftest)),
)


def build_parser(command=None):
    """The parser of the command line.  Every command is registered with its
    help, so usage lines, help and choice errors name all of them; only the
    given ``command`` gets its arguments and subcommands, or every command
    when none is given."""
    top = argparse.ArgumentParser(
        prog="wittgrass",
        description="Exact Witt-vector arithmetic and desk-scale p-adic Grassmannian computations",
    )
    top.add_argument(
        "--cache-dir",
        help="structure-polynomial cache directory, used only by ring arithmetic",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments in COMMANDS:
        parser = sub.add_parser(name, help=summary)
        if command in (None, name):
            add_arguments(parser)
    return top


def dispatched_command(argv):
    """The command that argparse dispatches ``argv`` to, found by a parser
    with the top level's options and one positional, so by argparse's own
    rules, abbreviated options included; None when that parse fails or finds
    no command name, and then every command is built."""
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--cache-dir")
    probe.add_argument("command", nargs="?")
    try:
        name = probe.parse_known_args(argv)[0].command
    except argparse.ArgumentError:
        return None
    return name if name in (c[0] for c in COMMANDS) else None


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value like -1,1 for an option; glued to its flag it is a value
    for k in range(len(argv) - 1, 0, -1):
        flag = argv[k - 1]  # --lambda, or an abbreviation of it, as argparse accepts
        if (len(flag) > 2 and "--lambda".startswith(flag)
                and argv[k][:1] == "-" and argv[k][1:2].isdigit()):
            argv[k - 1:k + 1] = [f"{flag}={argv[k]}"]
    parser = build_parser(dispatched_command(argv))
    args = parser.parse_args(argv)
    if args.cache_dir:
        os.environ[_ENV_CACHE] = args.cache_dir
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WittgrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed standard output (``wittgrass selftest | head -1``);
        # what is left unwritten goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def console_main():
    """The entry of a ``wittgrass`` process: ``main``, then the collector
    frozen, so that the collection at interpreter exit skips what the run left."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
