"""Command-line front end."""

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
