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


def test_laurent_witt_product_is_unchanged(capsys):
    argv = ["witt", "mul", "--p", "2", "--q", "4", "--N", "3", "--laurent",
            "(t+u,t^-1,1)", "(u*t^2,1+t,t^-2)"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == (
        "(u*t^3+(u+1)*t^2,u*t^3+t^2+(u+1)*t+(u+1),"
        "u*t^8+(u+1)*t^6+(u+1)*t^5+u*t^4+u*t^3+t^2+1+(u+1)*t^-2)"
    )


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


def test_negative_samples_are_refused(capsys):
    argv = ["grass", "image", "--lambda", "1,-1", "--q", "2", "--format", "json"]
    assert cli.main(argv + ["--samples", "-3"]) == 2
    assert "samples" in capsys.readouterr().err
    assert cli.main(argv + ["--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 0


def test_default_grass_count_oracles_agree(capsys):
    argv = ["grass", "count", "--n", "2", "--q", "2", "--window", "2", "--format", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert [t["provenance"] for t in payload["tables"]] == ["witt", "z-adic"]
