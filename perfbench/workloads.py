"""Job lists of the benchmark workloads, made from the workload seed.

A job is one ``wittgrass`` CLI call: ``argv`` is what follows the global
options, ``kind`` selects the oracle in ``oracles.CHECKS`` and ``args`` holds
the inputs that oracle needs.  The program only ever sees ``argv``.  Why each
workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import random

QUERY_SHAPES = ((2, 6), (3, 5), (5, 4))  # (p, N)


def lattice_enumerate(n, q, window):
    return {
        "kind": "lattice enumerate",
        "argv": ["lattice", "enumerate", "--n", str(n), "--q", str(q), "--window", str(window)],
        "args": {"n": n, "q": q, "window": window},
    }


def grass_count(n, q, window):
    return {
        "kind": "grass count",
        "argv": ["grass", "count", "--n", str(n), "--q", str(q), "--window", str(window),
                 "--oracle", "witt"],
        "args": {"n": n, "q": q, "window": window},
    }


def grass_image(lam, q, samples, seed):
    return {
        "kind": "grass image",
        "argv": ["grass", "image", "--lambda", ",".join(map(str, lam)), "--q", str(q),
                 "--samples", str(samples), "--seed", str(seed)],
        "args": {"lambda": list(lam), "q": q, "samples": samples, "seed": seed},
    }


def hilbert_hf(lam, n, p, N, bound):
    return {
        "kind": "hilbert hf",
        "argv": ["hilbert", "hf", "--lambda", ",".join(map(str, lam)), "--n", str(n),
                 "--p", str(p), "--N", str(N), "--bound", str(bound)],
        "args": {"lambda": list(lam), "n": n, "p": p, "N": N, "bound": bound},
    }


def witt_op(op, p, N, a, b=None):
    vec = lambda v: "(" + ",".join(map(str, v)) + ")"
    argv = ["witt", op, "--p", str(p), "--N", str(N), vec(a)]
    if b is not None:
        argv.append(vec(b))
    return {
        "kind": "witt",
        "argv": argv,
        "args": {"op": op, "p": p, "N": N, "a": list(a), "b": list(b) if b else None},
    }


def _unit(rng, p, N):
    """Random element of W_N(F_p) with a nonzero leading coordinate."""
    return (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(N - 1))


def jobs(workload, seed, rep=0):
    """The job list of one repetition; every repetition draws its own inputs."""
    rng = random.Random(f"{workload}:{seed}:{rep}")
    if workload == "cells":
        return [
            lattice_enumerate(3, 2, 1),
            grass_count(2, 4, 1),
            grass_count(2, 3, 1),
        ]
    if workload == "hilbert":
        return [
            grass_image((1, -1), 2, 20, rng.randrange(1 << 30)),
            hilbert_hf((1, 0, -1), 3, 2, 4, 24),
        ]
    if workload == "query":
        out = []
        for p, N in QUERY_SHAPES:
            a, b = _unit(rng, p, N), _unit(rng, p, N)
            out += [witt_op("add", p, N, a, b), witt_op("mul", p, N, a, b), witt_op("inv", p, N, a)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cells", "hilbert", "query")
