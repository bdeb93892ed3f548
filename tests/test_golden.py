"""Byte-for-byte CLI output against files recorded from a reference build.

The files under ``tests/data`` fix the exact stdout of commands whose
numbers depend on floating-point rounding in the optimizer and the
enumeration, so a refactor that moves any digit fails here even when every
tolerance-based test still passes.
"""

from pathlib import Path

import pytest

from seqrac.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["boundary", "--points", "21"], "boundary_points21.csv"),
        (["boundary", "--points", "5", "--with-seesaw", "--seed", "0"],
         "boundary_points5_seesaw_seed0.csv"),
        (["classical"], "classical.txt"),
    ],
)
def test_stdout_matches_recorded_bytes(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_bytes().decode("utf-8")
