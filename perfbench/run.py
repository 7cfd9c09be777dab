"""Benchmark of the wittgrass CLI.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The untraced run (--trace 0) times
each job of the workload as a fresh ``python -m wittgrass.cli ... --format
json`` process, one at a time, and reports the end-to-end metrics.  The traced
run (--trace 1) calls the same jobs in this process with the layer wrappers of
``tracing.py`` installed and reports the per-layer metrics.  Every job output
is checked by ``oracles.py``.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Everything the run writes goes under .perfbench_work/ and .perfbench_out/ in
the checkout.  Per-run scratch is removed at the end; the warm cache of each
workload is kept for later runs on the same sources; span files of traced runs
go to .perfbench_out/.  The user's structure-table cache is never read or
written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 150
MIN_REPS = 3
# No further set-ups once two of them took this long together.
SETUP_BUDGET_S = 20.0
IMPORT_PROBES = 3
# Median seconds of one piece of the speed probe on the 2-core Intel Xeon
# (2.1 GHz, Python 3.11) the bounds were tuned on, in a quiet spell.
PROBE_REF_S = 0.0150
PROBE_PIECES = 5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import wittgrass
for spec in sys.argv[2:]:
    p, N, op = spec.split(":")
    wittgrass.gen_structure_polys(int(p), int(N), op, cache_dir=sys.argv[1])
print(time.perf_counter() - t0)
"""

IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import wittgrass.cli
print(time.perf_counter() - t0)
"""


class Run:
    """Counts attempted and failed operations and runs child processes."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env.pop("WITTGRASS_TABLE_LIMIT", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["PYTHONHASHSEED"] = "0"

    def fail(self, what, problems):
        self.failed += 1
        for problem in problems:
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    def spawn(self, argv, cache):
        """Run one child to completion: (seconds, exit code, stdout, max RSS in MB)."""
        env = dict(self.env, WITTGRASS_CACHE_DIR=str(cache))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, stdout=out, stderr=err, env=env, cwd=ROOT
            )
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        if proc.returncode != 0 and stderr:
            print(stderr.rstrip()[-2000:], file=sys.stderr)
        return seconds, proc.returncode, stdout, usage.ru_maxrss / 1024.0

    def check(self, job, code, stdout):
        """Count one attempted job; True iff it exited 0 and passed its oracle."""
        self.attempted += 1
        what = " ".join(job["argv"])
        if code != 0:
            self.fail(what, [f"exit code {code}"])
            return False
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            self.fail(what, [f"no JSON output ({exc})"])
            return False
        problems = oracles.CHECKS[job["kind"]](job["args"], payload)
        if problems:
            self.fail(what, problems)
            return False
        return True

    def job(self, job, cache):
        argv = ["-m", "wittgrass.cli", "--cache-dir", str(cache), *job["argv"], "--format", "json"]
        seconds, code, stdout, rss = self.spawn(argv, cache)
        self.check(job, code, stdout)
        return seconds, rss

    def setup(self, tables, index, warm):
        """One cold set-up into an empty cache; seconds, or None if it failed."""
        cache = self.work / f"setup{index}"
        cache.mkdir()
        seconds, code, stdout, _ = self.spawn(["-c", SETUP_CODE, str(cache), *tables], cache)
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0 and cache_files(cache) != cache_files(warm):
            problems.append("tables differ from the ones the warm-up pass wrote")
        if problems:
            self.fail("set-up", problems)
            return None
        return float(stdout.strip().splitlines()[-1])


def _probe_piece():
    """Fixed pure-Python work of the program's kind: small-int loops and dict-of-tuple products."""
    m = (1 << 30) - 1
    s = 0
    for i in range(100_000):
        s += i * i % 7
    a = {(i, j): (31 * i + 17 * j + s + 1) & m for i in range(14) for j in range(14)}
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            key = (i + k, j + l)
            out[key] = (out.get(key, 0) + x * y) & m
    return out


def probe():
    """Seconds of one probe piece now: the median of a few pieces."""
    times = []
    for _ in range(PROBE_PIECES):
        start = time.perf_counter()
        _probe_piece()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Gauge:
    """Scales each timing to the machine speed at which PROBE_REF_S was measured.

    The shared machine's CPU speed drifts by up to 2x, within a run and
    between minutes.  The probe runs before and after each timed step, on
    the same CPU as the step; the step's seconds are multiplied by
    PROBE_REF_S over the mean of those two probes.  Nothing of the program
    runs in the probe, so a change to the program moves the scaled times as
    it moves the raw ones.
    """

    def __init__(self):
        probe()  # the first call pays for warming the interpreter
        self.last = probe()
        self.factors = []

    def scale(self, seconds):
        now = probe()
        self.factors.append(PROBE_REF_S / ((self.last + now) / 2))
        self.last = now
        return seconds * self.factors[-1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "wittgrass").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def warm_cache(run, jobs, workload):
    """The workload's own warm cache directory.

    The first run of a workload on a source tree fills it with one untimed
    pass over its jobs; later runs reuse it, as they would reuse a build.
    Tables depend on (p, N) only, which the seed does not change, and the
    caller checks that no timed job adds to the cache.
    """
    final = WORK / f"warm-{workload}-{source_digest()}"
    if final.is_dir():
        return final
    staging = run.work / "warm"
    staging.mkdir()
    failed = run.failed
    for job in jobs:
        run.job(job, staging)
    if run.failed != failed:
        return staging  # keep a cache from a failing program for this run only
    try:
        staging.rename(final)
    except OSError:  # another run got there first
        pass
    return final


def cache_files(cache):
    return {f.name: f.read_bytes() for f in sorted(Path(cache).glob("structure_p*.txt"))}


def cached_tables(cache):
    """Every (p, N, op) table in a cache directory, as 'p:N:op' strings."""
    out = []
    for path in sorted(Path(cache).glob("structure_p*.txt")):
        p = int(path.stem[len("structure_p"):])
        levels = {}
        with open(path, encoding="ascii") as fh:
            for line in fh:
                head = line.split(":", 1)[0].split()
                if len(head) == 2 and head[0] in ("ADD", "MUL", "NEG"):
                    levels[head[0].lower()] = int(head[1]) + 1
        out += [f"{p}:{N}:{op}" for op, N in sorted(levels.items())]
    return out


def untraced(run, workload, seed, warm, tables, seconds):
    # Each repetition runs one cold set-up and the whole job list with its own
    # seeded inputs, so a slow spell of the shared machine, or a costly draw of
    # inputs, moves one sample rather than all of them.  Every time is scaled
    # by the speed gauge; wall_s adds the per-job medians.  This process and
    # its children share one CPU, the one the gauge measures.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    gauge = Gauge()
    setups, raw_setups, times, raw, peak = [], [], None, None, 0.0
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        if len(setups) < 2 or sum(raw_setups) <= SETUP_BUDGET_S:
            s = run.setup(tables, rep, warm)
            if s is not None:
                raw_setups.append(s)
                setups.append(gauge.scale(s))
        jobs = workloads.jobs(workload, seed, rep)
        times = times or [[] for _ in jobs]
        raw = raw or [[] for _ in jobs]
        for job, samples, raw_samples in zip(jobs, times, raw):
            s, rss = run.job(job, warm)
            raw_samples.append(s)
            samples.append(gauge.scale(s))
            peak = max(peak, rss)
        rep += 1
    print(f"{rep} repetitions, {len(setups)} set-ups; unscaled wall_s "
          f"{sum(statistics.median(r) for r in raw):.3f}, setup_s "
          f"{statistics.median(raw_setups) if raw_setups else 0.0:.3f}; median speed factor "
          f"{statistics.median(gauge.factors):.3f}", file=sys.stderr)
    return {
        "wall_s": (sum(statistics.median(samples) for samples in times), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def in_process_pass(run, jobs, warm, tracer=None):
    """Call the CLI entry point for every job in this process; total seconds."""
    from wittgrass import cli
    from wittgrass.structure import StructurePolynomialTable

    total = 0.0
    for index, job in enumerate(jobs):
        # the table registry is per process and ignores the cache directory
        StructurePolynomialTable.drop_registry()
        if tracer is not None:
            tracer.job = index
        argv = ["--cache-dir", str(warm), *job["argv"], "--format", "json"]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            code = -1
        total += time.perf_counter() - start
        run.check(job, code, buf.getvalue())
    return total


def traced(run, jobs, warm, tables, workload, seed):
    import_s = []
    for _ in range(IMPORT_PROBES):
        _, code, stdout, _ = run.spawn(["-c", IMPORT_CODE], warm)
        run.attempted += 1
        if code == 0:
            import_s.append(float(stdout.strip().splitlines()[-1]))
        else:
            run.fail("import wittgrass.cli", [f"exit code {code}"])
    if not import_s:
        return None

    sys.path.insert(0, str(SRC))
    os.environ.pop("WITTGRASS_TABLE_LIMIT", None)  # as in the job processes
    import wittgrass
    from tracing import Tracer, layer_metrics
    from wittgrass.structure import StructurePolynomialTable

    # untraced passes before and after the traced one, so that neither side
    # alone pays for the first in-process calls
    plain_s = [in_process_pass(run, jobs, warm)]
    tracer = Tracer()
    try:
        for target in tracer.install():
            print(f"not traced, no longer exists: {target}", file=sys.stderr)
        # cold generation of the workload's tables, for the structure.gen metrics
        tracer.job = -1
        StructurePolynomialTable.drop_registry()
        cold = run.work / "traced-setup"
        for spec in tables:
            p, N, op = spec.split(":")
            wittgrass.gen_structure_polys(int(p), int(N), op, cache_dir=str(cold))
        traced_s = in_process_pass(run, jobs, warm, tracer)
    finally:
        tracer.uninstall()
    plain_s.append(in_process_pass(run, jobs, warm))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["trace.inproc_s"] = (statistics.mean(plain_s), "s")
    metrics["trace.overhead"] = (traced_s / statistics.mean(plain_s), "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wittgrass" / "cli.py").is_file():
        print(f"no wittgrass sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    jobs = workloads.jobs(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(work)
        warm = warm_cache(run, jobs, args.workload)
        before = cache_files(warm)
        tables = cached_tables(warm)
        if args.trace:
            metrics = traced(run, jobs, warm, tables, args.workload, args.seed)
        else:
            metrics = untraced(run, args.workload, args.seed, warm, tables, args.seconds)
        run.attempted += 1
        if cache_files(warm) != before:
            run.fail("warm cache", ["a timed job wrote tables the warm-up pass had not"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
