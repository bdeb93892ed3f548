"""The deterministic one-bit classical model, the oracle of ``optimizer.classical_bruteforce``.

``classical_bruteforce`` scores all 65536 strategies from two hit tables; the
per-strategy scoring here is the independent count it must match.
:func:`embed` writes a strategy into the qubit scenario, for the codes whose
instruments then have one Kraus operator per outcome.
"""

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from seqrac.errors import InvalidStrategy, require_integer
from seqrac.linalg import QubitState, validate_povm
from seqrac.scenario import INPUT_PAIRS, BinaryInstrument, Strategy, WitnessPair


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic one-bit-message strategy.

    ``encode[2*x0 + x1]`` is Alice's message bit; ``bob_out[2*m + y]`` is
    Bob's guess given message ``m`` and input ``y``; ``relay[2*m + y]`` is
    the bit forwarded to Charlie; ``charlie_out[2*m + z]`` is Charlie's
    guess.  The relay may depend on ``(m, y)`` only, which fixes the
    deterministic strategy space at ``16^4 = 65536``.
    """

    encode: tuple[int, int, int, int]
    bob_out: tuple[int, int, int, int]
    relay: tuple[int, int, int, int]
    charlie_out: tuple[int, int, int, int]

    def __post_init__(self):
        for f in fields(self):
            table = getattr(self, f.name)
            if len(table) != 4 or any(type(bit) is not int or bit not in (0, 1) for bit in table):
                raise InvalidStrategy(f"{f.name} must be four bits, got {table!r}")

    @classmethod
    def from_codes(cls, e: int, b: int, r: int, c: int) -> "ClassicalStrategy":
        """Build from four 4-bit codes; bit ``i`` of a code is table entry ``i``."""
        unpack = lambda n: tuple((n >> i) & 1 for i in range(4))
        return cls(*(unpack(require_integer(n, "code", 0, 15)) for n in (e, b, r, c)))

    @staticmethod
    def relay_first_bit() -> "ClassicalStrategy":
        """Alice sends ``x0``; Bob outputs and relays it; Charlie outputs it."""
        return ClassicalStrategy.from_codes(12, 12, 12, 12)  # every table (0, 0, 1, 1)


def enumerate_classical_strategies():
    """Yield all 65536 deterministic strategies, codes ``(e, b, r, c)`` in lexicographic order."""
    for e, b, r, c in itertools.product(range(16), repeat=4):
        yield ClassicalStrategy.from_codes(e, b, r, c)


def witness_pair_classical(cs: ClassicalStrategy) -> WitnessPair:
    """Exact witnesses by enumerating all input tuples.

    Counts are divided by 8 and 16, so the floats are exact dyadics.
    """
    ab_hits = 0
    ac_hits = 0
    for x in INPUT_PAIRS:
        m = cs.encode[2 * x[0] + x[1]]
        for y in (0, 1):
            if cs.bob_out[2 * m + y] == x[y]:
                ab_hits += 1
            relayed = cs.relay[2 * m + y]
            for z in (0, 1):
                if cs.charlie_out[2 * relayed + z] == x[z]:
                    ac_hits += 1
    return WitnessPair(ab_hits / 8.0, ac_hits / 16.0)


# The Bob codes whose guess differs on the two messages for both y: each outcome
# then reads exactly one message, so one Kraus operator per outcome suffices.
EMBEDDABLE_BOB_CODES = (3, 6, 9, 12)


def embeddable_strategies():
    """The 16384 strategies of :func:`enumerate_classical_strategies` that :func:`embed` takes."""
    for e, b, r, c in itertools.product(range(16), EMBEDDABLE_BOB_CODES, range(16), range(16)):
        yield ClassicalStrategy.from_codes(e, b, r, c)


_KET = np.eye(2, dtype=complex)


def embed(cs: ClassicalStrategy) -> Strategy:
    """The classical strategy in the qubit scenario, message on the computational basis.

    Alice prepares ``|encode(x)>``; on input ``y`` Bob's outcome ``b`` has the Kraus
    operator ``|relay(m, y)><m|`` for the one message ``m`` with ``bob_out(m, y) = b``;
    Charlie measures the basis and answers ``charlie_out``.  Only Bob codes in
    :data:`EMBEDDABLE_BOB_CODES` have such an ``m`` for every outcome.  Each device is
    built once per table, so the 16384 embeddings share 96 devices.
    """
    return Strategy(_preparations(cs.encode), _instruments(cs.bob_out, cs.relay),
                    _measurements(cs.charlie_out))


@functools.cache
def _preparations(encode: tuple) -> tuple:
    return tuple(
        QubitState(np.outer(_KET[m], _KET[m]), np.array([0.0, 0.0, 1.0 - 2.0 * m])) for m in encode
    )


@functools.cache
def _instruments(bob_out: tuple, relay: tuple) -> tuple:
    instruments = []
    for y in (0, 1):
        if bob_out[y] == bob_out[2 + y]:
            raise ValueError(f"bob_out {bob_out} answers one outcome to both messages at y = {y}")
        ops = [None, None]
        for m in (0, 1):
            ops[bob_out[2 * m + y]] = np.outer(_KET[relay[2 * m + y]], _KET[m])
        instruments.append(BinaryInstrument.from_kraus(*ops))
    return tuple(instruments)


@functools.cache
def _measurements(charlie_out: tuple) -> tuple:
    measurements = []
    for z in (0, 1):
        effects = [np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)]
        for m in (0, 1):
            effects[charlie_out[2 * m + z]] += np.outer(_KET[m], _KET[m])
        measurements.append(validate_povm(*effects))
    return tuple(measurements)
