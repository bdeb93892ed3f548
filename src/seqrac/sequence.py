"""Chains of sequential measuring parties on the square ensemble.

Party ``k`` receives the ensemble left by party ``k - 1``, applies the
minimally disturbing instrument pair along x and z at its configured
sharpness, and is scored on its own instrument outcome.  With every party
sharp, the ensemble's Bloch square halves its radius at each step and
party ``k`` scores ``(1 + sqrt(2)/2^k) / 2``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .scenario import WitnessPair, average_instrument_channel, rac_success
from .strategies import axis_instruments, canonical_witness_pair, square_preparations


@dataclass(frozen=True)
class ChainConfig:
    """Number of measuring parties and their per-party sharpnesses."""

    parties: int
    sharpness_profile: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.parties < 1:
            raise DomainError(f"need at least one party, got {self.parties!r}")
        profile = self.sharpness_profile
        if profile is None:
            object.__setattr__(self, "sharpness_profile", (1.0,) * self.parties)
            return
        profile = tuple(float(v) for v in profile)
        if len(profile) != self.parties:
            raise DomainError(
                f"profile has {len(profile)} entries for {self.parties} parties"
            )
        if any(not 0.0 <= v <= 1.0 for v in profile):
            raise DomainError(f"sharpnesses must lie in [0, 1]: {profile!r}")
        object.__setattr__(self, "sharpness_profile", profile)


class ChainStep(NamedTuple):
    party: int
    witness: float
    entering_radius: float


def party_witness_closed_form(k: int) -> float:
    """Witness of the k-th sharp party, ``(1 + sqrt(2)/2^k) / 2``."""
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"party index must be an integer, got {k!r}") from None
    if k < 1:
        raise DomainError(f"party index must be >= 1, got {k!r}")
    # 2.0**-k underflows to 0 for huge k, where 2.0**k would overflow.
    return float(0.5 * (1.0 + np.sqrt(2.0) * 2.0**-k))


def simulate_chain(cfg: ChainConfig) -> list[ChainStep]:
    """Iterate the averaged instrument channel down the chain.

    Each row reports the party index (1-based), its witness, and the
    common Bloch radius of the ensemble it receives.  A party is scored on
    its own instrument outcome, so a non-interacting party scores exactly
    1/2.
    """
    ensemble = square_preparations()
    rows = []
    for k, eta in enumerate(cfg.sharpness_profile, start=1):
        radius = float(np.linalg.norm(ensemble.states[0].bloch))
        instruments = axis_instruments(eta, eta)
        witness = rac_success(ensemble.states, (instruments[0].povm, instruments[1].povm))
        rows.append(ChainStep(k, float(witness), radius))
        ensemble = average_instrument_channel(ensemble.states, instruments)
    return rows


def double_violation_point() -> tuple[float, WitnessPair]:
    """Sharpness 4/5 puts both witnesses at ``(5 + 2 sqrt(2))/10 > 3/4``."""
    return 0.8, canonical_witness_pair(0.8)
