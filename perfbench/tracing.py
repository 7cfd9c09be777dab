"""Per-layer tracing of ``wittgrass`` from outside the package.

``Tracer.install`` replaces the public functions of each layer with wrappers
that record a span (job, name, start, end, parent) per call.  A function that
other modules import by name (``from .witt import witt_arith``) is replaced in
every ``wittgrass`` module that holds it, or calls through those names would
escape the span.  Spans stay in memory until ``write`` is called.

A span's self time is its duration minus the time covered by its direct
children; a layer's time is the sum of the self times of its spans, so the
layer times of a job add up to the job's wall time.  Operations in ``fields``,
``poly`` and ``rings`` are not wrapped; their time counts toward the caller.
"""

from __future__ import annotations

import gzip
import os
import sys
import time


def _witt_arith_name(args):
    from wittgrass.fields import FiniteField

    return "witt.arith.ff" if isinstance(args[1].ring, FiniteField) else "witt.arith.ring"


def _load_bytes(tracer, args, result):
    from wittgrass.structure import _cache_path

    path = _cache_path(args[1], args[0])
    if os.path.exists(path):
        tracer.count("structure.load.bytes", os.path.getsize(path))


def _enum_special(tracer, args, result):
    tracer.count("lattice.enum.special", len(result))


def _lattice_built(tracer, args, result):
    parent = tracer.open_name()
    if parent == "lattice.enum":
        tracer.count("lattice.enum.visited")
    elif parent == "grassmann.points":
        # points_lattice passes the nonzero points plus n kernel columns
        columns, n = args[0], args[1]
        tracer.count("grassmann.points.kept", len(columns) - n + 1)


def _points_candidates(tracer, args, result):
    ideal = args[0]
    tracer.count("grassmann.points.candidates", ideal.ring.coeff.q ** (ideal.n * ideal.N))


def _monomials(tracer, args, result):
    tracer.count("hilbert.monomials", len(result))


# (module, attribute path, span name or naming function, hook after the call)
# A name of None records no span, only what the hook counts.
TARGETS = (
    ("wittgrass.cli", "main", "cli.main", None),
    ("wittgrass.structure", "StructurePolynomialTable.get", "structure.get", None),
    ("wittgrass.structure", "load_cache", "structure.load", _load_bytes),
    ("wittgrass.structure", "solve_levels", "structure.gen", None),
    ("wittgrass.witt", "witt_arith", _witt_arith_name, None),
    ("wittgrass.witt", "witt_inv", "witt.inv", None),
    ("wittgrass.lattice", "PadicWittNumber.__add__", "lattice.padic", None),
    ("wittgrass.lattice", "PadicWittNumber.__sub__", "lattice.padic", None),
    ("wittgrass.lattice", "PadicWittNumber.__neg__", "lattice.padic", None),
    ("wittgrass.lattice", "PadicWittNumber.__mul__", "lattice.padic", None),
    ("wittgrass.lattice", "PadicWittNumber.__truediv__", "lattice.padic", None),
    ("wittgrass.lattice", "PadicWittNumber.inv", "lattice.padic", None),
    # the three Hermite-form reductions that lattice identity and construction use
    ("wittgrass.lattice", "column_reduce", "lattice.hermite", None),
    ("wittgrass.lattice", "lattice_from_columns", "lattice.hermite", _lattice_built),
    ("wittgrass.lattice", "Lattice.canonical_key", "lattice.hermite", None),
    ("wittgrass.lattice", "smith_normal_form", "lattice.snf", None),
    ("wittgrass.lattice", "enumerate_lattices", "lattice.enum", _enum_special),
    ("wittgrass.grassmann", "points_lattice", "grassmann.points", _points_candidates),
    ("wittgrass.greenberg", "realize_action", "greenberg.realize", None),
    ("wittgrass.groebner", "buchberger", "groebner.buchberger", None),
    ("wittgrass.groebner", "normal_form", "groebner.nf", None),
    ("wittgrass.hilbert", "is_module_stable", "hilbert.stable", None),
    ("wittgrass.hilbert", "flat_limit", "hilbert.limit", None),
    ("wittgrass.hilbert", "hilbert_function", "hilbert.hf", None),
    ("wittgrass.hilbert", "monomials_of_weight", None, _monomials),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (job, name, start, end, parent index or -1)
        self.counts = {}
        self.job = 0
        self._stack = []  # (span index, name) of the open spans
        self._undo = []

    # -- recording --

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def open_name(self):
        return self._stack[-1][1] if self._stack else None

    def _wrap(self, fn, name, hook):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, label))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (tracer.job, label, start, end, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- wiring --

    def install(self):
        """Wrap every target; each module that imported a target by name gets the wrapper.

        Returns the targets that no longer exist; their metrics read 0.
        """
        import importlib

        missing = []
        for modname, path, name, hook in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{modname}.{path}")
                continue
            if owner is not module:  # a method, looked up on its class at call time
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    wrapped = self._wrap(raw, name, hook)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
                continue
            wrapped = self._wrap(raw, name, hook)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("wittgrass"):
                    continue
                for other_attr, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, other_attr, wrapped)
                        self._undo.append((other, other_attr, raw))
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --

    def self_times(self):
        """{name: (calls, self seconds)}; nested calls of the same name count once."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (_, name, start, end, parent) in enumerate(spans):
            calls, secs = out.get(name, (0, 0.0))
            if parent < 0 or spans[parent][1] != name:
                calls += 1
            out[name] = (calls, secs + (end - start) - child[i])
        return out

    def write(self, path):
        """Write the spans as tab-separated lines: index, job, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index\tjob\tname\tstart_s\tend_s\tparent\n")
            for i, (job, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{job}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(tracer):
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    st = tracer.self_times()
    c = tracer.counts
    calls = lambda name: st.get(name, (0, 0.0))[0]
    secs = lambda name: st.get(name, (0, 0.0))[1]
    ratio = lambda a, b: c.get(a, 0) / c[b] if c.get(b) else 0.0
    return {
        "structure.get.calls": (calls("structure.get"), "count"),
        "structure.load.calls": (calls("structure.load"), "count"),
        "structure.load.s": (secs("structure.load"), "s"),
        "structure.load.bytes": (c.get("structure.load.bytes", 0), "bytes"),
        "structure.gen.calls": (calls("structure.gen"), "count"),
        "structure.gen.s": (secs("structure.gen"), "s"),
        "witt.arith.calls.ff": (calls("witt.arith.ff"), "count"),
        "witt.arith.s.ff": (secs("witt.arith.ff"), "s"),
        "witt.arith.calls.ring": (calls("witt.arith.ring"), "count"),
        "witt.arith.s.ring": (secs("witt.arith.ring"), "s"),
        "witt.inv.calls": (calls("witt.inv"), "count"),
        "witt.inv.s": (secs("witt.inv"), "s"),
        "lattice.padic.ops": (calls("lattice.padic"), "count"),
        "lattice.padic.s": (secs("lattice.padic"), "s"),
        "lattice.hermite.calls": (calls("lattice.hermite"), "count"),
        "lattice.hermite.s": (secs("lattice.hermite"), "s"),
        "lattice.snf.calls": (calls("lattice.snf"), "count"),
        "lattice.snf.s": (secs("lattice.snf"), "s"),
        "lattice.enum.s": (secs("lattice.enum"), "s"),
        "lattice.enum.visited": (c.get("lattice.enum.visited", 0), "count"),
        "lattice.enum.useful_ratio": (ratio("lattice.enum.special", "lattice.enum.visited"), "ratio"),
        "grassmann.points.calls": (calls("grassmann.points"), "count"),
        "grassmann.points.s": (secs("grassmann.points"), "s"),
        "grassmann.points.kept_ratio": (
            ratio("grassmann.points.kept", "grassmann.points.candidates"), "ratio"),
        "greenberg.realize.calls": (calls("greenberg.realize"), "count"),
        "greenberg.realize.s": (secs("greenberg.realize"), "s"),
        "groebner.buchberger.calls": (calls("groebner.buchberger"), "count"),
        "groebner.buchberger.s": (secs("groebner.buchberger"), "s"),
        "groebner.nf.calls": (calls("groebner.nf"), "count"),
        "groebner.nf.s": (secs("groebner.nf"), "s"),
        "hilbert.stable.calls": (calls("hilbert.stable"), "count"),
        "hilbert.stable.s": (secs("hilbert.stable"), "s"),
        "hilbert.limit.s": (secs("hilbert.limit"), "s"),
        "hilbert.hf.s": (secs("hilbert.hf"), "s"),
        "hilbert.monomials": (c.get("hilbert.monomials", 0), "count"),
        "cli.main.s": (secs("cli.main"), "s"),
    }
