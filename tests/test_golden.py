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


@pytest.mark.recorded
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["boundary", "--points", "21"], "boundary_points21.csv"),
        (["boundary", "--points", "5", "--with-seesaw", "--seed", "0"],
         "boundary_points5_seesaw_seed0.csv"),
        (["classical"], "classical.txt"),
        (["certify", "--wab", "0.7138", "--wac", "0.7826"], "certify_published.txt"),
        (["noise", "--eta", "0.70710678", "--va", "0.95", "--vb", "0.90", "--vc", "0.95"],
         "noise_readme.txt"),
        (["sequence", "--parties", "12"], "sequence_parties12.csv"),
        (["sequence", "--parties", "4", "--eta-profile", "1,1,0.8,1"],
         "sequence_parties4_profile.csv"),
        (["checks", "--samples", "1000", "--seed", "1"], "checks_samples1000_seed1.txt"),
        (["evaluate", str(DATA / "noisy_canonical.json")], "evaluate_noisy_canonical.txt"),
    ],
)
def test_stdout_matches_recorded_bytes(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_bytes().decode("utf-8")
