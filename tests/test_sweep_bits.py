"""Bit-exact random strategies and witnesses against a recorded reference.

Acceptance criterion 11 and the ``sweep`` benchmark draw strategies with
``random_strategy`` and score them with ``witness_pair``.  This file pins,
for 2000 seeded draws with generic and with Lüders instruments, the sha256
of every array (``tobytes()``, with dtype and shape) and scalar of the
strategy and of its effective ensemble, and both witnesses as
``float.hex``.  The per-matrix witness loops below are the oracle the
stacked evaluation in ``seqrac.scenario`` must match bit for bit.

Regenerate the reference (only after a deliberate numerical change) with
``PYTHONPATH=src python tests/test_sweep_bits.py``.
"""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from seqrac import canonical_strategy, effective_ensemble, witness_pair
from seqrac.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from seqrac.sampling import random_strategy, random_su2
from seqrac.scenario import INPUT_PAIRS, _clamp_prob
from classical_model import EMBEDDABLE_BOB_CODES, ClassicalStrategy, embed
from conftest import frozen_channel_sum

DATA = Path(__file__).parent / "data" / "sweep_bits.json"
SEEDS = range(8)
ITEMS = range(250)


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray) and obj.ndim == 3:
        # An instrument's (2, 2, 2) stack, fed outcome by outcome as the tuple of
        # 2x2 operators that the reference was recorded from.
        _feed(h, tuple(obj))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            _feed(h, item)
    else:
        h.update(float(obj).hex().encode())


def record(seed: int, item: int, luders: bool) -> str:
    """``sha256:w_ab:w_ac`` of one seeded draw."""
    s = random_strategy(np.random.default_rng([seed, item]), luders)
    h = hashlib.sha256()
    _feed(h, s)
    _feed(h, effective_ensemble(s))
    pair = witness_pair(s)
    return f"{h.hexdigest()}:{pair.w_ab.hex()}:{pair.w_ac.hex()}"


def record_all(luders: bool) -> list[str]:
    return [record(s, i, luders) for s in SEEDS for i in ITEMS]


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.recorded
@pytest.mark.parametrize("luders", [False, True])
def test_draws_and_witnesses_are_bit_identical(luders, reference):
    expected = reference[repr(luders)]
    assert len(expected) == len(SEEDS) * len(ITEMS)
    mismatched = [
        (s, i)
        for (s, i), want in zip(((s, i) for s in SEEDS for i in ITEMS), expected)
        if record(s, i, luders) != want
    ]
    assert mismatched == []


def oracle_witness_ab(s) -> float:
    """``(1/8) sum_{x,y} tr(rho_x M_{x_y|y})``, one 2x2 trace at a time."""
    total = 0.0
    for x, st in zip(INPUT_PAIRS, s.preparations):
        for y in (0, 1):
            effect = s.instruments[y].povm.effects[x[y]]
            total += float(np.trace(st.matrix @ effect).real)
    return _clamp_prob(total / 8.0)


def oracle_witness_ac(s) -> float:
    """``(1/16) sum_{x,y,b,z} tr(K rho K^dag C)``, one Kraus operator at a time."""
    total = 0.0
    for x, st in zip(INPUT_PAIRS, s.preparations):
        acc = frozen_channel_sum(s.instruments, st.matrix)
        for z in (0, 1):
            effect = s.measurements[z].effects[x[z]]
            total += float(np.trace(acc @ effect).real)
    return _clamp_prob(total / 16.0)


def _oracle_strategies():
    rng = np.random.default_rng(7)
    for _ in range(300):
        yield random_strategy(rng)
        yield random_strategy(rng, luders=True)
    for eta in np.linspace(0.0, 1.0, 11):
        yield canonical_strategy(float(eta))
    for codes in [(0, 12, 0, 0), (12, 12, 12, 12), (5, 9, 3, 6), (6, 6, 0, 15)]:
        yield embed(ClassicalStrategy.from_codes(*codes))
    yield embed(ClassicalStrategy.relay_first_bit())
    for code in range(16):
        yield embed(ClassicalStrategy.from_codes(code, EMBEDDABLE_BOB_CODES[code % 4], 15 - code, 3))


def test_witnesses_equal_per_matrix_oracle():
    checked = 0
    for s in _oracle_strategies():
        assert witness_pair(s) == (oracle_witness_ab(s), oracle_witness_ac(s))
        checked += 1
    assert checked > 600


class _NextNormal:
    """Generator stand-in whose next normal draw is ``q``."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)

    def standard_normal(self, size):
        assert size == self.q.shape[0]
        return self.q.copy()


def test_su2_entries_equal_pauli_sum():
    # Quaternion components drawn from a normal are never exactly zero in
    # practice; every sign pattern and 5000 draws are checked.
    rng = np.random.default_rng(3)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    draws = np.concatenate([signs * rng.uniform(0.1, 2.0, size=signs.shape),
                            rng.normal(size=(5000, 4))])
    for q in draws:
        w, x, y, z = q / np.linalg.norm(q)
        oracle = w * ID2 - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
        u = random_su2(_NextNormal(q))
        assert u.dtype == oracle.dtype and u.tobytes() == oracle.tobytes()


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({repr(luders): record_all(luders) for luders in (False, True)}, indent=0)
        + "\n"
    )
