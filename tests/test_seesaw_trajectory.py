"""Bit-exact see-saw and boundary trajectories against a recorded reference.

The golden CSV files print 17 significant digits of a few rows, so a
one-ulp drift inside the see-saw can hide behind the rounding.  This file
pins every best-response step of every restart, the winning parameters and
witness pair, and the ``trace_boundary`` point, as ``float.hex`` strings.

Regenerate the reference (only after a deliberate numerical change) with
``PYTHONPATH=src python tests/test_seesaw_trajectory.py``.
"""

import json
from pathlib import Path

import pytest

from seqrac import seesaw, trace_boundary
from conftest import PLATFORM

DATA = Path(__file__).parent / "data" / "seesaw_trajectory.json"
LEVELS = (0.6, 0.75, 0.84)


def _hex(*values) -> list[str]:
    return [float(v).hex() for v in values]


def _angles(p) -> list[str]:
    return _hex(p.theta, p.phi0, p.phi1)


def record(alpha: float) -> dict:
    """Every float the default see-saw and boundary trace produce at ``alpha``."""
    result = seesaw(alpha)
    point = trace_boundary([alpha])[0]
    return {
        "runs": [
            {
                "charlie_steps": [_hex(*step) for step in run.charlie_steps],
                "final_wac": _hex(run.final_wac)[0],
            }
            for run in result.runs
        ],
        "params": _angles(result.params),
        "measurements": [_hex(*povm.cvec) for povm in result.strategy.measurements],
        "pair": _hex(*result.pair),
        "boundary": _hex(point.alpha, point.wac) + _angles(point.params),
    }


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("alpha", LEVELS)
def test_trajectory_is_bit_identical(alpha, reference):
    assert record(alpha) == reference[repr(alpha)], PLATFORM


if __name__ == "__main__":
    DATA.write_text(json.dumps({repr(a): record(a) for a in LEVELS}, indent=1) + "\n")
