"""Chains of sequential measuring parties on the square ensemble.

Party ``k`` receives the ensemble left by party ``k - 1``, applies the
minimally disturbing instrument pair along x and z at its configured
sharpness, and is scored on its own instrument outcome.  With every party
sharp, the ensemble's Bloch square halves its radius at each step and
party ``k`` scores ``(1 + sqrt(2)/2^k) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require_integer, require_real
from .scenario import WitnessPair, average_instrument_channel, rac_success
from .strategies import axis_instruments, canonical_witness_pair, square_preparations


# Largest chain: a party keeps its row and CSV line, about 0.5 kB, so the
# longest chain holds about 50 MB (and runs for about 8 s on a 2-vCPU Xeon VM).
CHAIN_PARTIES_MAX = 100_000


@dataclass(frozen=True)
class ChainConfig:
    """Number of measuring parties and their per-party sharpnesses."""

    parties: int
    sharpness_profile: tuple[float, ...] | None = None

    def __post_init__(self):
        parties = require_integer(self.parties, "parties", 1, CHAIN_PARTIES_MAX)
        profile = (1.0,) * parties if self.sharpness_profile is None else self.sharpness_profile
        profile = np.array(profile, dtype=object, ndmin=1)  # a bare number: one entry
        profile = tuple(require_real(v, "sharpness", 0.0, 1.0) for v in profile)
        if len(profile) != parties:
            raise DomainError(f"profile has {len(profile)} entries for {parties} parties")
        object.__setattr__(self, "sharpness_profile", profile)


class ChainStep(NamedTuple):
    party: int
    witness: float
    entering_radius: float


def party_witness_closed_form(k: int) -> float:
    """Witness of the k-th sharp party, ``(1 + sqrt(2)/2^k) / 2``."""
    k = require_integer(k, "party index", 1, CHAIN_PARTIES_MAX)
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
    rows, built = [], None
    for k, eta in enumerate(cfg.sharpness_profile, start=1):
        radius = float(np.linalg.norm(ensemble[0].bloch))
        if eta.hex() != built:  # a run of equal sharpness shares one build; -0.0 is not 0.0
            built, instruments = eta.hex(), axis_instruments(eta, eta)
        witness = rac_success(ensemble, (instruments[0].povm, instruments[1].povm))
        rows.append(ChainStep(k, float(witness), radius))
        ensemble = average_instrument_channel(ensemble, instruments)
    return rows


def double_violation_point() -> tuple[float, WitnessPair]:
    """Sharpness 4/5 puts both witnesses at ``(5 + 2 sqrt(2))/10 > 3/4``."""
    return 0.8, canonical_witness_pair(0.8)
