"""Bit-exact ``matrix_sqrt_psd``, the Hermitian part (``linalg._hermitian_part``, as
``conftest.require_hermitian``), ``BinaryPovm.from_observable`` and the stacked
Kraus products of ``BinaryInstrument`` against frozen numpy-array bodies.

The two kernels read the four entries once as Python complex numbers and do
the hermiticity check, the halving, the PSD test, the determinant and the root
on them.  They must still give numpy's bits: numpy fuses complex multiply-adds
on CPUs with FMA, so a Python ``0.5 * z`` differs where a part is subnormal
(the kernel halves such a matrix with numpy), and numpy divides by a real as
``(re + im * 0.0, im - re * 0.0) * (1 / s)``.  The signed zeros and smallest
subnormals below, and a ``hypothesis`` search over the whole exponent range,
tell such copies apart.  The oracles are the earlier bodies on 2x2 arrays
(``0.5 * (a + a^dag)``, ``eigvals_hermitian``, ``(h + sqrt(D) I) / s``).
Results are compared by ``tobytes()``, dtype and shape; rejected inputs must
raise the same exception type with the same message.  Where the frozen root
overflows (a non-PSD matrix at ``tol=inf`` with a subnormal ``t + 2 sqrt(D)``),
the kernel raises :class:`DomainError` in place of the infinite entries.
``from_observable`` builds its effects from ``c.tolist()`` instead of the
arrays ``0.5 * c`` and ``-0.5 * c``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqrac.errors import DomainError, NotHermitian, NotPsd
from seqrac.linalg import (
    HERM_TOL,
    ID2,
    MAX_ENTRY,
    BinaryPovm,
    as_matrix2,
    bloch_compose,
    matrix_sqrt_psd,
)
from seqrac.sampling import random_instrument, random_povm, random_strategy, random_su2
from seqrac.scenario import BinaryInstrument, conjugate_strategy
from conftest import require_hermitian


def frozen_from_observable(c0, cvec):
    c = np.asarray(cvec, dtype=float)
    return (bloch_compose(0.5 * (1.0 + c0), 0.5 * c), bloch_compose(0.5 * (1.0 - c0), -0.5 * c))


def frozen_require_hermitian(m, tol=HERM_TOL):
    a = as_matrix2(m)
    a00, a01, a10, a11 = a.ravel().tolist()
    dev = max(
        abs(a00 - a00.conjugate()),
        abs(a01 - a10.conjugate()),
        abs(a10 - a01.conjugate()),
        abs(a11 - a11.conjugate()),
    )
    if dev > tol:
        raise NotHermitian(f"hermiticity deviation {dev:.3e}")
    return 0.5 * (a + a.conj().T)


def frozen_matrix_sqrt_psd(m, tol=HERM_TOL):
    h = frozen_require_hermitian(m, tol)
    h00, h01, _, h11 = h.ravel().tolist()
    lo = 0.5 * (h00.real + h11.real) - np.hypot(0.5 * (h00.real - h11.real), abs(h01))
    if lo < -tol:
        raise NotPsd(f"negative eigenvalue {lo:.3e}")
    t = max(h00.real + h11.real, 0.0)
    det = max(h00.real * h11.real - np.float64(abs(h01)) ** 2, 0.0)
    root_det = math.sqrt(det)
    denom_sq = t + 2.0 * root_det
    if denom_sq <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        root = (h + root_det * ID2) / math.sqrt(denom_sq)
    if not np.isfinite(root).all():  # 1 / s overflowed: a non-PSD matrix at tol=inf
        raise DomainError(f"square root has entries that are not finite (t + 2 sqrt(D) = {denom_sq!r})")
    return root


def _outcome(func, m, tol):
    try:
        out = func(m, tol)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _signed_zero_matrices():
    """Hermitian-within-tolerance matrices whose parts are signed zeros, tiny or plain."""
    parts = (0.0, -0.0, 5e-324, -5e-324, 0.25, -0.25)
    for d0, d1 in ((0.5, 0.5), (1.0, 0.0), (0.0, 0.0), (-0.0, 0.3)):
        for re, im, re2, im2 in itertools.product(parts[:4], repeat=4):
            yield np.array([[complex(d0, im2), complex(re, im)], [complex(re2, -im), complex(d1, -0.0)]])
        for re, im in itertools.product(parts, repeat=2):
            yield np.array([[d0, complex(re, im)], [complex(re, -im), d1]])


def _inputs():
    rng = np.random.default_rng(1601)
    for _ in range(1500):
        povm = random_povm(rng, allow_offset=bool(rng.integers(2)))
        yield from povm.effects
    for _ in range(300):
        s = random_strategy(rng, luders=True)
        for inst in s.instruments:
            yield from inst.kraus
            yield from (k.conj().T @ k for k in inst.kraus)
    for _ in range(1500):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        yield float(rng.random()) * np.outer(v, v.conj())  # rank one
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        yield a.conj().T @ a  # generic complex gram, Hermitian to rounding
        yield a.conj().T @ a + 1e-11 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    yield np.zeros((2, 2))
    yield np.zeros((2, 2), dtype=complex) * -1.0
    yield ID2
    yield from _signed_zero_matrices()


def _rejected():
    yield np.array([[1.0, 1.0], [0.0, 1.0]])  # not Hermitian
    yield np.array([[1.0, 2e-9j], [2e-9j, 0.0]])
    yield np.array([[1.0, 1.2e-9], [0.0, 1.0]])  # deviation just above HERM_TOL
    yield np.array([[1.0, 0.8e-9], [0.0, 1.0]])  # and just below
    yield np.array([[0.5, 0.0], [0.0, -0.25]])  # not PSD
    yield np.array([[1.0, 2.0], [2.0, 1.0]])
    yield np.array([[-1e-8, 0.0], [0.0, 1.0]])
    yield np.array([[1.0, np.nan], [np.nan, 1.0]])  # not finite
    yield np.ones((3, 3))  # not 2x2
    yield "abc"


@pytest.mark.parametrize("tol", [HERM_TOL, np.inf], ids=["herm_tol", "inf"])
def test_root_and_symmetrisation_match_frozen_bodies(tol):
    cases = list(_inputs())
    assert len(cases) > 10000
    for i, m in enumerate(cases):
        for new, old in ((require_hermitian, frozen_require_hermitian),
                         (matrix_sqrt_psd, frozen_matrix_sqrt_psd)):
            assert _outcome(new, m, tol) == _outcome(old, m, tol), (i, new.__name__)


def test_rejections_match_frozen_bodies():
    seen = set()
    for m in _rejected():
        for tol in (HERM_TOL, 1e-12):
            for new, old in ((require_hermitian, frozen_require_hermitian),
                             (matrix_sqrt_psd, frozen_matrix_sqrt_psd)):
                want = _outcome(old, m, tol)
                assert _outcome(new, m, tol) == want, (m, tol, new.__name__)
                if isinstance(want[0], type):
                    seen.add(want[0].__name__)
    assert {"NotHermitian", "NotPsd", "DomainError"} <= seen


def test_from_observable_effects_match_frozen_body():
    # Zero components are where -0.5 * c (an array product) keeps its signs.
    rng = np.random.default_rng(1602)
    axes = [np.array(v, dtype=float) for v in itertools.product((0.0, -0.0, 0.5, -0.5), repeat=3)]
    draws = [(float(c0), axis) for axis in axes for c0 in (0.0, -0.0, 0.1, -0.1)]
    for _ in range(2000):
        eta = float(rng.random())
        v = rng.standard_normal(3)
        draws.append(((2.0 * float(rng.random()) - 1.0) * (1.0 - eta), eta * v / np.linalg.norm(v)))
    for c0, c in draws:
        got = BinaryPovm.from_observable(c0, c).effects
        want = np.array(frozen_from_observable(c0, c))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (c0, c)


SMALLEST_NORMAL = 2.2250738585072014e-308
SIGN = st.sampled_from([1.0, -1.0])
# A real or imaginary part: m * 2**e over the whole exponent range below MAX_ENTRY
# (2**498 > MAX_ENTRY), subnormals, signed zeros and the range's edges.
PART = st.one_of(
    st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
              st.floats(1.0, 2.0, exclude_max=True), st.integers(-1080, 497), SIGN),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-323, SMALLEST_NORMAL - 5e-324,
                     SMALLEST_NORMAL, -SMALLEST_NORMAL, 0.5, -1.0, MAX_ENTRY, -MAX_ENTRY]),
)
# A part whose last bits reach the subnormal range: |x| below 2**-960.
SMALL_PART = st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
                       st.floats(1.0, 2.0, exclude_max=True), st.integers(-1080, -961), SIGN)


def _steps_up(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def _matrices(draw):
    kind = draw(st.sampled_from(["generic", "hermitian", "cancelling"]))
    if kind == "generic":
        a = [[complex(draw(PART), draw(PART)) for _ in range(2)] for _ in range(2)]
    elif kind == "hermitian":
        off = complex(draw(PART), draw(PART))
        a = [[complex(draw(PART), draw(st.sampled_from([0.0, -0.0, 5e-324]))), off],
             [off.conjugate(), complex(draw(PART), draw(st.sampled_from([0.0, -0.0])))]]
    else:
        # a01 + conj(a10) cancels to k steps of the last bit of each part: zero, subnormal or
        # a tiny normal number.
        x, y = draw(SMALL_PART), draw(SMALL_PART)
        k, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        a = [[complex(draw(PART), 0.0), complex(x, y)],
             [complex(-_steps_up(x, k), _steps_up(y, j)), complex(draw(PART), 0.0)]]
    form = draw(st.sampled_from(["array", "list", "tuple", "real list"]))
    if form == "array":
        return np.array(a)
    if form == "tuple":
        return tuple(tuple(row) for row in a)
    if form == "real list":
        return [[z.real for z in row] for row in a]
    return a


@settings(max_examples=500, deadline=None)
@given(_matrices())
@example(np.array([[0.5, complex(5e-324, -5e-324)], [0.0, 0.5]]))  # a subnormal sum to halve
@example(np.array([[0.0, 1e150j], [-1e150j, 5e-324]]))  # at inf, 1 / s overflows
def test_scalar_bodies_match_frozen_bodies_on_any_exponent(m):
    for tol in (HERM_TOL, np.inf):
        for new, old in ((require_hermitian, frozen_require_hermitian),
                         (matrix_sqrt_psd, frozen_matrix_sqrt_psd)):
            assert _outcome(new, m, tol) == _outcome(old, m, tol), (tol, new.__name__)


def _instrument_cases():
    """``(unitaries, povm, kraus)`` of instruments sampled, Haar-conjugated, diagonal and built
    through ``from_polar``."""
    rng = np.random.default_rng(1603)
    for _ in range(500):
        inst = random_instrument(rng)
        yield inst.unitaries, inst.povm, inst.kraus
    for _ in range(150):
        s = conjugate_strategy(random_strategy(rng), random_su2(rng))
        for inst in s.instruments:
            yield inst.unitaries, inst.povm, BinaryInstrument._from_unitaries(inst.unitaries, inst.povm).kraus
    phases = np.array([np.diag([1.0, 1j]), np.diag([-1.0, -0.0 + 1j])])
    for c0, eta in itertools.product((0.0, -0.0, 0.5), (0.0, 0.25, 0.5, 1.0)):
        povm = BinaryPovm.from_observable(c0 * (1.0 - eta), [0.0, -0.0, eta])
        yield phases, povm, BinaryInstrument._from_unitaries(phases, povm).kraus
    for _ in range(150):
        inst = BinaryInstrument.from_polar([random_su2(rng).tolist(), random_su2(rng)], random_povm(rng))
        yield inst.unitaries, inst.povm, inst.kraus


def test_stacked_kraus_products_match_per_outcome_products():
    checked = 0
    for unitaries, povm, kraus in _instrument_cases():
        want = np.array([u @ matrix_sqrt_psd(e) for u, e in zip(unitaries, povm.effects)])
        assert kraus.dtype == want.dtype and kraus.tobytes() == want.tobytes()
        roots = np.array([matrix_sqrt_psd(e, tol=np.inf) for e in povm.effects])
        assert BinaryInstrument.luders(povm).kraus.tobytes() == roots.tobytes()
        checked += 1
    assert checked > 900
