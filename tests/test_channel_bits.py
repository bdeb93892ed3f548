"""Bit-exact instrument channel sums against a frozen per-branch loop.

``scenario._channel_sum`` takes every ``K rho K^dag`` of both instruments
from one stacked matmul and adds the terms in the order of a per-operator
loop: ``0 + K rho K^dag`` per branch, branch 0 plus branch 1, instrument 0
plus instrument 1.  The oracle below is that loop as it was written per
branch.  ``_channel_sum``, ``effective_ensemble`` and ``charlie_best_response``
are compared with it by ``tobytes()`` on classical embeddings (exact zeros and
ones), random strategies with and without Lüders instruments, noisy canonical
strategies conjugated by random unitaries, and Pauli-Kraus instruments on
Pauli eigenstates, whose signed zeros pin the ``0 +`` of every term.
On the same strategies, ``scenario._guess_scores``, which scores both witnesses
from one constant index into the four POVMs' stacked effects, is compared with
the one-score body that stacked each score's eight effects from a nested list.
"""

import itertools

import numpy as np

from seqrac import optimizer, scenario
from seqrac.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BinaryPovm,
    QubitState,
    bloch_compose,
    bloch_decompose,
)
from seqrac.sampling import random_strategy, random_su2
from seqrac.scenario import (
    INPUT_PAIRS,
    BinaryInstrument,
    _channel_sum,
    _guess_scores,
    _matrices,
    conjugate_strategy,
    difference_vectors,
    effective_ensemble,
)
from seqrac.strategies import VisibilityTriple, apply_visibility, canonical_strategy
from classical_model import EMBEDDABLE_BOB_CODES, ClassicalStrategy, embed
from conftest import frozen_channel_sum


def frozen_effective_ensemble(s):
    acc = frozen_channel_sum(s.instruments, _matrices(s.preparations))
    acc *= 0.5
    acc = 0.5 * (acc + acc.conj().transpose(0, 2, 1))
    return tuple(QubitState(m, 2.0 * bloch_decompose(m)[1]) for m in acc)


def frozen_charlie_best_response(preparations, instruments):
    gammas = np.array([bloch_compose(0.0, 0.5 * m) for m in difference_vectors(preparations)])
    projectors, value = optimizer._best_projectors(frozen_channel_sum(instruments, gammas))
    eye = np.eye(2)
    povms = [BinaryPovm(np.array([p, eye - p]), *bloch_decompose(2.0 * p - eye)) for p in projectors]
    return (povms[0], povms[1]), value


def frozen_guess_stack(povms):
    """The eight effects of one guess score, stacked from a nested list as the one-score body did."""
    return np.array([[povms[i].effects[x[i]] for i in (0, 1)] for x in INPUT_PAIRS])


def frozen_guess_score(ops, povms):
    """One guess score by the one-score body: eight products, traces added in ``x``-major order."""
    prods = ops[:, None] @ frozen_guess_stack(povms)
    total = 0.0
    for tr in (prods[..., 0, 0].real + prods[..., 1, 1].real).ravel().tolist():
        total += tr
    return total


def _bits(obj) -> list:
    """Every array of ``obj`` as ``(dtype, shape, bytes)`` and every scalar as ``float.hex``."""
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in _bits(item)]
    if isinstance(obj, QubitState):
        return _bits((obj.matrix, obj.bloch))
    if isinstance(obj, BinaryPovm):
        return _bits((obj.effects, obj.c0, obj.cvec))
    return [float(obj).hex()]


def _strategies():
    rng = np.random.default_rng(1701)
    for e, b, r in itertools.product((3, 5, 6, 9), EMBEDDABLE_BOB_CODES, (0, 6, 15)):
        yield embed(ClassicalStrategy.from_codes(e, b, r, 5))
    for luders in (False, True):
        for _ in range(400):
            yield random_strategy(rng, luders)
    for eta in (1.0, 0.9, 1.0 / np.sqrt(2.0), 0.5):
        noisy = apply_visibility(canonical_strategy(eta), VisibilityTriple(0.95, 0.9, 0.85))
        for _ in range(25):
            yield conjugate_strategy(noisy, random_su2(rng))


def _pauli_instruments():
    """Pairs of instruments with Kraus operators ``phase * P / sqrt(2)``: their
    terms on Pauli eigenstates are full of signed zeros."""
    ops = [phase * p / np.sqrt(2.0) for p in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)
           for phase in (1, -1, 1j, -1j)]
    instruments = [BinaryInstrument.from_kraus(k0, k1) for k0, k1 in itertools.product(ops, ops)]
    rng = np.random.default_rng(1702)
    for i, j in rng.integers(len(instruments), size=(3000, 2)).tolist():
        yield instruments[i], instruments[j]


def test_channel_sum_matches_the_per_branch_loop():
    for i, s in enumerate(_strategies()):
        rhos = _matrices(s.preparations)
        gammas = rhos[:2] - rhos[2:]  # traceless stacks reach the sum too
        for stack in (rhos, gammas, rhos[:1]):
            got, want = _channel_sum(s.instruments, stack), frozen_channel_sum(s.instruments, stack)
            assert _bits(got) == _bits(want), i
    eigenstates = np.array([0.5 * (ID2 + sign * p) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z) for sign in (1, -1)])
    for i, instruments in enumerate(_pauli_instruments()):
        got, want = _channel_sum(instruments, eigenstates), frozen_channel_sum(instruments, eigenstates)
        assert _bits(got) == _bits(want), i


def test_effective_ensemble_and_best_response_match():
    for i, s in enumerate(_strategies()):
        assert _bits(effective_ensemble(s)) == _bits(frozen_effective_ensemble(s)), i
        got = optimizer.charlie_best_response(s.preparations, s.instruments)
        want = frozen_charlie_best_response(s.preparations, s.instruments)
        assert _bits(got) == _bits(want), i


def test_index_built_stack_and_witness_scores_match_the_old_bodies():
    for i, s in enumerate(_strategies()):
        rhos = _matrices(s.preparations)
        channel = frozen_channel_sum(s.instruments, rhos)
        povms = (s.instruments[0].povm, s.instruments[1].povm, *s.measurements)
        stack = np.concatenate([p.effects for p in povms])[scenario._GUESSES]
        want = [frozen_guess_stack(povms[:2]), frozen_guess_stack(povms[2:])]
        assert _bits(stack) == _bits(np.array(want)), i
        scores = _guess_scores(np.array([rhos, channel]), povms)
        assert [x.hex() for x in scores] == [
            frozen_guess_score(rhos, povms[:2]).hex(), frozen_guess_score(channel, povms[2:]).hex()
        ], i
        assert _guess_scores(rhos[None], povms[:2])[0].hex() == scores[0].hex(), i
