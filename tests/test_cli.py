"""Command-line front end."""

import json

import pytest

from wittgrass import cli


def test_selftest_quick_passes(capsys):
    assert cli.main(["selftest", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert all(line.startswith(("PASS ", "SKIP ")) for line in lines), lines


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
