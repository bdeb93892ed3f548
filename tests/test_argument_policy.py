"""The argument policy, table-driven over every numeric callable of ``seqrac``.

A numeric argument that is not a number, not finite or out of range raises
:class:`DomainError`.  So every call below either returns a finite result or
raises a :class:`SeqracError`; a bare ``TypeError``, an overflow
``RuntimeWarning`` (pytest turns one into an error) or a NaN in the result
fails the test.  Each argument is drawn from a pool of hostile values (NaN,
infinities, huge and subnormal floats, strings, ``None``, complex numbers,
lists, ``True``, out-of-range and non-integer indices, wrong shapes) mixed
with valid ones, so a bad argument is also met next to good ones.
"""

import cmath
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqrac import (
    BinaryInstrument,
    BinaryPovm,
    ChainConfig,
    DomainError,
    OptimizerConfig,
    QubitState,
    ReducedParameters,
    SeqracError,
    SharpnessInterval,
    VisibilityTriple,
    WitnessPair,
    apply_visibility,
    bloch_from_matrix,
    boundary_wac,
    canonical_strategy,
    canonical_witness_pair,
    certify_interval,
    conjugate_strategy,
    in_classical_set,
    in_quantum_set,
    joint_prob,
    matrix_sqrt_psd,
    max_eigenpair,
    party_witness_closed_form,
    polar_decompose,
    projective_povm,
    reduced_objective,
    seesaw,
    sharpness_lower,
    sharpness_upper,
    state_from_bloch,
    strategy_from_reduced,
    trace_boundary,
    validate_povm,
)
from seqrac.linalg import ID2, MAX_ENTRY, SIGMA_X
from seqrac.sampling import random_instrument, random_povm, random_strategy
from classical_model import ClassicalStrategy

NAN, INF = float("nan"), float("inf")
HOSTILE_SCALARS = [
    NAN, INF, -INF, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.float64(NAN), "x", "0.5", None, 1j, 0.5 + 0j, [0.5], (0.5,), np.array([0.5]),
    True, False, -1, 2, 2.5, 1.0, 10**400, -(10**400), np.int64(-1), object(),
]
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALAR = st.one_of(st.sampled_from(HOSTILE_SCALARS), FLOATS, st.integers(-(10**6), 10**6))

REAL = st.one_of(SCALAR, st.sampled_from([0.0, 1e-3, 0.5, 0.6, 0.75, 0.8, 1.0]))
INDEX = st.one_of(SCALAR, st.sampled_from([0, 1, 2, 3, 15, np.int64(1)]))
VECTOR = st.one_of(
    SCALAR,
    st.sampled_from([
        [1e308, 1e308, 0.0], [1e308, 0.0, 0.0], [MAX_ENTRY, MAX_ENTRY, MAX_ENTRY],
        [1.1 * MAX_ENTRY, 0.0, 0.0], [NAN, 0.0, 0.0], [0.0, -INF, 0.0], [5e-324] * 3,
        [1e-200, 0.0, 0.0], [1.0, 0.0], [[1.0, 0.0, 0.0]], [[1.0], [0.0, 0.0]],
        ["a", 0.0, 0.0], ["1", "0", "0"], [1j, 0.0, 0.0], [None, 0.0, 0.0],
        [True, False, False], [10**400, 0, 0], np.zeros(3), np.eye(3),
        np.array([0.0, 0.0, 1.0], dtype=np.float32), np.array([1, 0, 0]),
        [0.0, 0.0, 1.0], [0.3, 0.4, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0],
    ]),
    st.lists(FLOATS, min_size=2, max_size=4),
)
HERMITIAN = st.builds(
    lambda a, d, re, im: np.array([[a, complex(re, im)], [complex(re, -im), d]]),
    FLOATS, FLOATS, FLOATS, FLOATS,
)
MATRIX = st.one_of(
    SCALAR,
    HERMITIAN,
    st.lists(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True),
                      min_size=2, max_size=2), min_size=2, max_size=2),
    st.sampled_from([
        np.full((2, 2), 1e308), np.full((2, 2), 1e100), np.full((2, 2), MAX_ENTRY),
        [[NAN, 0.0], [0.0, 0.0]], [[1.0, INF], [0.0, 1.0]], [[1.0, 2.0, 3.0]], np.eye(3),
        [["a", 0.0], [0.0, 0.0]], [[None, 1.0], [1.0, 1.0]], [[10**400, 0], [0, 0]],
        [[1.0], [0.0, 0.0]], [[5e-324, 0.0], [0.0, 5e-324]], [[1e-160, 0.0], [0.0, 0.0]],
        0.5 * ID2, ID2, SIGMA_X, np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]],
    ]),
)
KINDS = {"r": REAL, "i": INDEX, "v": VECTOR, "m": MATRIX}

CANONICAL = canonical_strategy(1.0)
SHARP_Z = projective_povm([0.0, 0.0, 1.0])

# Each row: a callable and the kind of each of its numeric arguments.  Object
# arguments (strategies, measurements) are fixed valid ones.
TABLE = {
    "boundary_wac": (boundary_wac, "r"),
    "sharpness_lower": (sharpness_lower, "r"),
    "sharpness_upper": (sharpness_upper, "r"),
    "certify_interval": (lambda a, c: certify_interval(WitnessPair(a, c)), "rr"),
    "in_classical_set": (lambda a, c: in_classical_set(WitnessPair(a, c)), "rr"),
    "in_quantum_set": (lambda a, c: in_quantum_set(WitnessPair(a, c)), "rr"),
    "SharpnessInterval.rounded": (lambda lo, hi: SharpnessInterval(lo, hi).rounded(), "rr"),
    "state_from_bloch": (state_from_bloch, "v"),
    "projective_povm": (projective_povm, "v"),
    "BinaryPovm.from_observable": (BinaryPovm.from_observable, "rv"),
    "bloch_from_matrix": (bloch_from_matrix, "m"),
    "matrix_sqrt_psd": (matrix_sqrt_psd, "m"),
    "max_eigenpair": (max_eigenpair, "m"),
    "matrix_sqrt_psd tol": (lambda m, tol: matrix_sqrt_psd(m, tol=tol), "mr"),
    "max_eigenpair tol": (lambda m, tol: max_eigenpair(m, tol=tol), "mr"),
    "polar_decompose": (polar_decompose, "m"),
    "validate_povm": (validate_povm, "mm"),
    "QubitState.from_matrix": (QubitState.from_matrix, "m"),
    "BinaryInstrument.from_kraus": (BinaryInstrument.from_kraus, "mm"),
    "BinaryInstrument.from_polar": (lambda u0, u1: BinaryInstrument.from_polar((u0, u1), SHARP_Z), "mm"),
    "conjugate_strategy": (lambda u: conjugate_strategy(CANONICAL, u), "m"),
    "joint_prob": (lambda x0, x1, y, z, b, c: joint_prob(CANONICAL, (x0, x1), y, z, b, c), "iiiiii"),
    "OptimizerConfig": (lambda seed: OptimizerConfig(rng_seed=seed), "i"),
    "ReducedParameters": (ReducedParameters, "rrr"),
    "reduced_objective": (lambda *angles: reduced_objective(ReducedParameters(*angles)), "rrr"),
    "strategy_from_reduced": (lambda *angles: strategy_from_reduced(ReducedParameters(*angles)), "rrr"),
    "trace_boundary": (lambda alpha: trace_boundary([alpha]), "r"),
    "trace_boundary alphas": (trace_boundary, "r"),  # the level list itself, unwrapped
    "seesaw": (seesaw, "r"),
    "ChainConfig.parties": (ChainConfig, "i"),
    "ChainConfig.sharpness_profile": (lambda e0, e1: ChainConfig(2, (e0, e1)), "rr"),
    "party_witness_closed_form": (party_witness_closed_form, "i"),
    "canonical_strategy": (canonical_strategy, "r"),
    "canonical_witness_pair": (canonical_witness_pair, "r"),
    "VisibilityTriple": (
        lambda *v: apply_visibility(CANONICAL, VisibilityTriple(*v)), "rrr"),
    "ClassicalStrategy.from_codes": (ClassicalStrategy.from_codes, "iiii"),  # the oracle in classical_model
}


def _finite(x) -> bool:
    """Whether every number inside a result (arrays, tuples, dataclasses) is finite."""
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, (float, complex, np.number)) and not isinstance(x, (int, np.integer)):
        return cmath.isfinite(x)
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x is None or isinstance(x, (int, np.integer, np.bool_))


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_finite_result_or_seqrac_error(name, data):
    func, kinds = TABLE[name]
    args = [data.draw(KINDS[kind], label=f"argument {i}") for i, kind in enumerate(kinds)]
    try:
        result = func(*args)
    except SeqracError:
        return
    assert _finite(result), (name, args, result)



def test_root_that_would_overflow_raises_domain_error():
    # tol=inf lets this non-PSD matrix through; t + 2 sqrt(D) is 5e-324, and 1e150 / sqrt(5e-324)
    # overflows.  The warnings filter turns any RuntimeWarning into an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^square root has entries that are not finite"):
            matrix_sqrt_psd([[0, 1e150j], [-1e150j, 5e-324]], tol=np.inf)


SEARCHES = {
    "trace_boundary": lambda cfg: trace_boundary([0.75], cfg),
    "seesaw": lambda cfg: seesaw(0.75, cfg),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("cfg", [5, "x", 0.5, NAN, True, {"rng_seed": 1}, object()])
def test_search_config_is_none_or_an_optimizer_config(search, cfg):
    # trace_boundary reads no setting of its cfg, but it takes only what seesaw takes.
    with pytest.raises(DomainError, match="cfg must be an OptimizerConfig or None"):
        SEARCHES[search](cfg)


@pytest.mark.parametrize("func", [reduced_objective, strategy_from_reduced])
@pytest.mark.parametrize("r", [(0.1, 0.2, 0.3), [0.1, 0.2, 0.3], "abc", None, 0.5])
def test_reduced_family_takes_only_reduced_parameters(func, r):
    # A tuple of angles or a string used to raise a bare AttributeError.
    with pytest.raises(DomainError, match="r must be a ReducedParameters"):
        func(r)


# bool is not a number, inside a list or tuple too; np.bool_ and bool arrays neither.
BOOL_ENTRIES = {
    "state_from_bloch": (state_from_bloch, [[True, 0, 0], (0.0, np.True_, 0.0)]),
    "projective_povm": (projective_povm, [(0, 0, True), [0.0, 0.0, np.True_]]),
    "matrix_sqrt_psd": (matrix_sqrt_psd, [[[True, False], [False, True]],
                                          ((1.0, 0.0), (0.0, np.True_)),
                                          np.array([[True, False], [False, True]])]),
    "max_eigenpair": (max_eigenpair, [[[1.0, False], [False, 1.0]],
                                      np.array([[True, False], [False, True]])]),
}


@pytest.mark.parametrize("name", sorted(BOOL_ENTRIES))
def test_bool_entries_of_a_sequence_are_not_numbers(name):
    func, values = BOOL_ENTRIES[name]
    for value in values:
        with pytest.raises(DomainError):
            func(value)


# A sampler's switch is a bool or np.bool_: a truthy string or number used to pick a branch silently.
FLAGS = {
    "random_strategy luders": (lambda rng, v: random_strategy(rng, v), "luders"),
    "random_instrument luders": (lambda rng, v: random_instrument(rng, luders=v), "luders"),
    "random_povm allow_offset": (lambda rng, v: random_povm(rng, allow_offset=v), "allow_offset"),
}


@pytest.mark.parametrize("name", sorted(FLAGS))
@pytest.mark.parametrize("value", ["no", "", "True", 0, 1, 1.0, 0j, None, [True], np.int64(1),
                                   np.array(True), np.float64(0.0)])
def test_sampler_switches_take_only_a_bool(name, value):
    func, what = FLAGS[name]
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError, match=f"^{what} must be a bool, got "):
        func(rng, value)
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state  # nothing drawn


@pytest.mark.parametrize("name", sorted(FLAGS))
@pytest.mark.parametrize("value", [False, True])
def test_sampler_switches_take_numpy_bools(name, value):
    func, _ = FLAGS[name]
    got = func(np.random.default_rng(2), np.bool_(value))
    want = func(np.random.default_rng(2), value)
    assert pickle.dumps(got) == pickle.dumps(want)  # every array's bytes


@pytest.mark.parametrize("lo, hi", [(-INF, INF), (0.0, 1.0), (0.5, 0.5), (2.0, 1.0)])
def test_nan_is_reported_as_not_finite_at_any_bounds(lo, hi):
    from seqrac.errors import require_real

    for value in (NAN, np.float64(NAN)):
        with pytest.raises(DomainError, match=r"^x = (np\.float64\()?nan\)? is not finite$"):
            require_real(value, "x", lo, hi)
