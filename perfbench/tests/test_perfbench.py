"""Tests of the benchmark's own oracles, job lists, checks and tracer wiring.

The oracle fixtures are outputs of the wittgrass CLI (``--format json``);
each oracle must accept them and reject a corrupted copy.
"""

import copy
import io
import json
import contextlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ENUMERATE_N3 = {"cells": [{"count": 1, "lambda": [0, 0, 0]}, {"count": 42, "lambda": [1, 0, -1]}],
                "schema": "wittgrass/1", "total": 43}
COUNT_Q4 = {"schema": "wittgrass/1", "tables": [{
    "cells": [{"count": 1, "lambda": [0, 0]}, {"count": 20, "lambda": [1, -1]}],
    "n": 2, "provenance": "witt", "q": 4, "total": 21, "window": 1}]}
HF_131 = {"schema": "wittgrass/1", "values": [
    1, 1, 3, 3, 9, 9, 19, 19, 42, 42, 78, 78, 146, 146, 246, 246, 417, 417, 659, 659,
    1041, 1041, 1563, 1563, 2344]}
IMAGE_22 = {"bruhat_ok": True, "lambda": [2, -2], "observed": [{"count": 6, "lambda": [2, -2]}],
            "q": 2, "realized": [{"lambda": [2, -2], "via": "cocharacter ideal"}], "samples": 5,
            "schema": "wittgrass/1", "seed": 1, "standard_fiber_ideals": 0}
IMAGE_11 = {"bruhat_ok": True, "lambda": [1, -1],
            "observed": [{"count": 3, "lambda": [0, 0]}, {"count": 21, "lambda": [1, -1]}],
            "q": 2, "realized": [{"lambda": [0, 0], "via": "flat limit of the degeneration family"},
                                 {"lambda": [1, -1], "via": "cocharacter ideal"}],
            "samples": 20, "schema": "wittgrass/1", "seed": 1, "standard_fiber_ideals": 3}
# (op, p, N, a, b, result) as printed by `wittgrass witt`
WITT_RESULTS = [
    ("add", 2, 6, (1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1), (1, 1, 0, 0, 0, 1)),
    ("mul", 2, 6, (1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1), (0, 1, 1, 1, 1, 1)),
    ("inv", 2, 6, (1, 0, 1, 1, 0, 1), None, (1, 0, 1, 0, 0, 1)),
    ("add", 3, 5, (1, 2, 0, 1, 2), (2, 2, 1, 0, 1), (0, 1, 0, 1, 0)),
    ("mul", 3, 5, (1, 2, 0, 1, 2), (2, 2, 1, 0, 1), (2, 0, 2, 2, 1)),
    ("inv", 3, 5, (1, 2, 0, 1, 2), None, (1, 1, 1, 0, 0)),
    ("add", 5, 4, (1, 2, 3, 4), (4, 3, 2, 1), (0, 0, 0, 0)),
    ("mul", 5, 4, (1, 2, 3, 4), (4, 3, 2, 1), (4, 1, 2, 2)),
    ("inv", 5, 4, (1, 2, 3, 4), None, (1, 3, 1, 1)),
]


def _witt_case(op, p, N, a, b, result):
    job = workloads.witt_op(op, p, N, a, b)
    return job["args"], {"result": "(" + ",".join(map(str, result)) + ")"}


# -- closed-form cell counts --------------------------------------------------

@pytest.mark.parametrize("lam,q,count", [
    ((0, 0), 2, 1), ((1, -1), 2, 6), ((1, -1), 3, 12), ((1, -1), 4, 20),
    ((2, -2), 2, 24), ((1, 0, -1), 2, 42), ((0, 0, 0), 2, 1),
])
def test_macdonald_counts(lam, q, count):
    assert oracles.macdonald_count(lam, q) == count


def test_window_cells():
    assert oracles.window_cells(3, 1) == [(0, 0, 0), (1, 0, -1)]
    assert oracles.window_cells(2, 2) == [(0, 0), (1, -1), (2, -2)]


def test_cell_oracles_accept_output_and_reject_corruption():
    enum = workloads.lattice_enumerate(3, 2, 1)["args"]
    assert oracles.check_lattice_enumerate(enum, ENUMERATE_N3) == []
    bad = copy.deepcopy(ENUMERATE_N3)
    bad["cells"][1]["count"] = 41
    assert oracles.check_lattice_enumerate(enum, bad)

    count = workloads.grass_count(2, 4, 1)["args"]
    assert oracles.check_grass_count(count, COUNT_Q4) == []
    bad = copy.deepcopy(COUNT_Q4)
    bad["tables"][0]["cells"].pop(0)
    assert oracles.check_grass_count(count, bad)
    # a table for another field size is wrong here
    assert oracles.check_grass_count(workloads.grass_count(2, 3, 1)["args"], COUNT_Q4)


# -- W_N(F_p) = Z/p^N -------------------------------------------------------

def test_witt_to_int_is_a_ring_map_on_small_cases():
    # W_2(F_2) = Z/4: 1 = (1,0), 2 = (0,1), 3 = (1,1)
    assert [oracles.witt_to_int(v, 2) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]] == [0, 1, 2, 3]
    # the integer 5 in W_2(F_5) is (0,1): p * T(1)
    assert oracles.witt_to_int((0, 1), 5) == 5


@pytest.mark.parametrize("case", WITT_RESULTS, ids=lambda c: f"{c[0]}-p{c[1]}-N{c[2]}")
def test_witt_oracle_accepts_output_and_rejects_flipped_coordinate(case):
    op, p, N, a, b, result = case
    args, payload = _witt_case(*case)
    assert oracles.check_witt(args, payload) == []
    for i in range(N):
        flipped = list(result)
        flipped[i] = (flipped[i] + 1) % p
        args, payload = _witt_case(op, p, N, a, b, flipped)
        assert oracles.check_witt(args, payload), f"coordinate {i} flip accepted"


def test_witt_oracle_rejects_malformed_result():
    args, _ = _witt_case(*WITT_RESULTS[0])
    assert oracles.check_witt(args, {"result": "(1,1,0)"})
    assert oracles.check_witt(args, {"result": "1,1,0,0,0,1"})
    assert oracles.check_witt(args, {})


# -- Hilbert function -----------------------------------------------------------

def test_hilbert_oracle_accepts_output_and_rejects_corruption():
    args = workloads.hilbert_hf((1, 0, -1), 3, 2, 4, 24)["args"]
    assert oracles.check_hilbert_hf(args, HF_131) == []
    bad = copy.deepcopy(HF_131)
    bad["values"][7] += 1
    assert oracles.check_hilbert_hf(args, bad)
    assert oracles.check_hilbert_hf(args, {"values": HF_131["values"][:-1]})


# -- image report ---------------------------------------------------------------

def test_image_oracle_open_cell():
    args = workloads.grass_image((2, -2), 2, 5, 1)["args"]
    assert oracles.check_grass_image(args, IMAGE_22) == []
    bad = copy.deepcopy(IMAGE_22)
    bad["observed"][0]["count"] = 5
    assert oracles.check_grass_image(args, bad)
    bad = copy.deepcopy(IMAGE_22)
    bad["observed"].append({"count": 1, "lambda": [3, -3]})
    assert oracles.check_grass_image(args, bad)
    assert oracles.check_grass_image(workloads.grass_image((2, -2), 2, 5, 2)["args"], IMAGE_22)


def test_image_oracle_minuscule():
    args = workloads.grass_image((1, -1), 2, 20, 1)["args"]
    assert oracles.check_grass_image(args, IMAGE_11) == []
    for key, value in (("standard_fiber_ideals", 2), ("bruhat_ok", False)):
        bad = dict(IMAGE_11, **{key: value})
        assert oracles.check_grass_image(args, bad)
    bad = copy.deepcopy(IMAGE_11)
    bad["observed"][0]["lambda"] = [2, -2]
    assert oracles.check_grass_image(args, bad)


def test_dominance():
    assert oracles.dominance_leq((0, 0), (1, -1))
    assert oracles.dominance_leq((1, 0, -1), (1, 0, -1))
    assert not oracles.dominance_leq((2, -2), (1, -1))
    assert not oracles.dominance_leq((1, -1), (1, 0))


# -- job lists and the job check --------------------------------------------------

def test_job_lists_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.jobs(name, 5) == workloads.jobs(name, 5)
    assert workloads.jobs("query", 5) != workloads.jobs("query", 6)
    assert workloads.jobs("hilbert", 5) != workloads.jobs("hilbert", 6)
    assert workloads.jobs("hilbert", 5, rep=1) != workloads.jobs("hilbert", 5, rep=0)
    assert workloads.jobs("cells", 5, rep=1) == workloads.jobs("cells", 6)
    query = workloads.jobs("query", 5)
    assert len(query) == 9
    for job in query:
        assert job["args"]["a"][0] != 0  # inv needs a unit


def test_check_counts_failures(tmp_path):
    r = run.Run(tmp_path)
    job = workloads.lattice_enumerate(3, 2, 1)
    assert r.check(job, 0, "noise\n" + json.dumps(ENUMERATE_N3) + "\n")
    assert not r.check(job, 1, json.dumps(ENUMERATE_N3))
    assert not r.check(job, 0, "Traceback ...")
    bad = copy.deepcopy(ENUMERATE_N3)
    bad["cells"][1]["count"] = 41
    assert not r.check(job, 0, json.dumps(bad))
    assert (r.attempted, r.failed) == (4, 3)


def test_cached_tables(tmp_path):
    (tmp_path / "structure_p3.txt").write_text(
        "# header\nADD 0: 1*X0\nADD 1: 1*X1\nMUL 0: 1*X0*Y0\nMUL 1: 1*X1\nNEG 0: -1*X0\nNEG 1: 0\n",
        encoding="ascii",
    )
    assert run.cached_tables(tmp_path) == ["3:2:add", "3:2:mul", "3:2:neg"]


# -- tracer wiring ------------------------------------------------------------------

def test_tracer_wraps_every_importing_module(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTGRASS_CACHE_DIR", str(tmp_path))
    import tracing
    from wittgrass import cli, grassmann, hilbert, lattice, witt

    originals = (witt.witt_arith, lattice.witt_arith, cli.witt_arith, grassmann.points_lattice,
                 grassmann.is_module_stable, hilbert.buchberger, hilbert.realize_action)
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        assert lattice.witt_arith is witt.witt_arith is cli.witt_arith
        assert witt.witt_arith is not originals[0]
        assert grassmann.lattice_from_columns is lattice.lattice_from_columns
        assert grassmann.is_module_stable is hilbert.is_module_stable
        assert hilbert.buchberger is not originals[5]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["--cache-dir", str(tmp_path), "witt", "mul", "--p", "2", "--N", "2",
                             "(1,1)", "(1,0)", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(out.getvalue())["result"] == "(1,1)"
    assert (witt.witt_arith, lattice.witt_arith, cli.witt_arith, grassmann.points_lattice,
            grassmann.is_module_stable, hilbert.buchberger, hilbert.realize_action) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["witt.arith.calls.ff"][0] == 1
    assert metrics["structure.get.calls"][0] >= 1
    assert metrics["cli.main.s"][0] > 0
    # the layer self times of a job add up to the job's span
    root = [s for s in tracer.spans if s[1] == "cli.main"][0]
    total = sum(secs for _, secs in tracer.self_times().values())
    assert total == pytest.approx(root[3] - root[2])


def test_tracer_skips_targets_that_no_longer_exist(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", (
        ("wittgrass.lattice", "no_such_function", "x", None),
        ("wittgrass.lattice", "NoSuchClass.method", "x", None),
        ("wittgrass.no_such_module", "f", "x", None),
    ))
    tracer = tracing.Tracer()
    try:
        assert len(tracer.install()) == 3
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer)["lattice.padic.ops"] == (0, "count")


def test_gauge_scales_by_the_probes_around_a_step(monkeypatch):
    assert run.probe() > 0
    readings = iter([9.0, run.PROBE_REF_S, 3 * run.PROBE_REF_S, run.PROBE_REF_S])
    monkeypatch.setattr(run, "probe", lambda: next(readings))
    gauge = run.Gauge()  # its warm-up call takes the first reading
    assert gauge.scale(4.0) == pytest.approx(2.0)
    assert gauge.scale(4.0) == pytest.approx(2.0)
    assert gauge.factors == pytest.approx([0.5, 0.5])
