"""Bit-exact samples of the two ``inequality_report`` suites against a recorded reference.

``seqrac checks`` and acceptance criterion 8 print maxima taken over the
per-sample values of two suites: the eigenvalue-sum bound (``lhs``,
``rhs``) and the closed-form sandwich eigenvalue (the direct eigensolve
and the closed form, for each outcome).  This file pins the sha256 of the
``float.hex`` of every one of those values, and the generator state after
each suite, for several seeds.  The reference was recorded with the
per-matrix loop in :func:`scalar_suites`, which uses only the scalar
kernels ``matrix_sqrt_psd`` and ``max_eigenpair`` and the one-sample
closed form ``conftest.frozen_closed_form``.

Regenerate the reference (only after a deliberate numerical change) with
``PYTHONPATH=src python tests/test_checks_bits.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from seqrac import optimizer
from seqrac.linalg import _dot, _norm, bloch_compose
from seqrac.sampling import random_povm, random_unit_vector
from conftest import frozen_closed_form, frozen_sandwich_max, frozen_sum_bound

DATA = Path(__file__).parent / "data" / "checks_bits.json"
SEEDS = (0, 1, 9301, 20250809)
SAMPLES = 2000


def digest(values) -> str:
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def scalar_suites(seed: int, samples: int) -> dict:
    """The per-sample values of both suites, one 2x2 matrix at a time."""
    rng = np.random.default_rng([seed, 11])
    bound = []
    for _ in range(samples):
        povm = random_povm(rng)
        bound += frozen_sum_bound(povm, rng.normal(size=3) * rng.uniform(0.0, 2.0))
    bound_state = rng.bit_generator.state

    rng = np.random.default_rng([seed, 13])
    eigen = []
    for _ in range(samples):
        povm = random_povm(rng, allow_offset=False)
        direction = random_unit_vector(rng)
        op = bloch_compose(0.0, direction)
        for b in (0, 1):
            eigen.append(frozen_sandwich_max(povm.effects[b], op))
            eigen.append(frozen_closed_form(povm.c0, povm.sharpness, _dot(povm.cvec, direction),
                                            _norm(direction), b))
    return {
        "bound": digest(bound),
        "bound_state": bound_state,
        "eigen": digest(eigen),
        "eigen_state": rng.bit_generator.state,
    }


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.recorded
@pytest.mark.parametrize("seed", SEEDS)
def test_suites_are_bit_identical(seed, reference):
    want = reference[str(seed)]
    rng = np.random.default_rng([seed, 11])
    lhs, rhs = optimizer._bound_suite(rng, SAMPLES)
    assert digest(np.stack([lhs, rhs], axis=1).ravel().tolist()) == want["bound"]
    assert rng.bit_generator.state == want["bound_state"]

    rng = np.random.default_rng([seed, 13])
    direct, closed = optimizer._eigen_suite(rng, SAMPLES)
    assert direct.shape == closed.shape == (SAMPLES, 2)
    assert digest(np.stack([direct, closed], axis=2).ravel().tolist()) == want["eigen"]
    assert rng.bit_generator.state == want["eigen_state"]


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({str(s): scalar_suites(s, SAMPLES) for s in SEEDS}, indent=1) + "\n"
    )
