"""Bit-exact ``matrix_sqrt_psd``, the Hermitian part (``linalg._hermitian_part``, as
``conftest.require_hermitian``) and ``BinaryPovm.from_observable`` against frozen
numpy-array bodies.

The two kernels read the four entries once as Python complex numbers for the
hermiticity check, the PSD test and the determinant; the halving and the root
stay numpy array products.  numpy fuses complex multiply-adds on CPUs with
FMA, so the signed zeros and smallest subnormals below tell a Python copy of
those products apart.  The oracles are the earlier bodies on 2x2 arrays
(``0.5 * (a + a^dag)``, ``eigvals_hermitian``, ``(h + sqrt(D) I) / s``).
Results are compared by ``tobytes()``, dtype and shape; rejected inputs must
raise the same exception type with the same message.  ``from_observable``
builds its effects from ``c.tolist()`` instead of the arrays ``0.5 * c`` and
``-0.5 * c``.
"""

import itertools
import math

import numpy as np
import pytest

from seqrac.errors import NotHermitian, NotPsd
from seqrac.linalg import (
    HERM_TOL,
    ID2,
    BinaryPovm,
    as_matrix2,
    bloch_compose,
    matrix_sqrt_psd,
)
from seqrac.sampling import random_povm, random_strategy
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
    return (h + root_det * ID2) / math.sqrt(denom_sq)


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
            yield from (k for k in inst.all_kraus())
            yield from (k.conj().T @ k for k in inst.all_kraus())
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
        want = frozen_from_observable(c0, c)
        assert [e.tobytes() for e in got] == [e.tobytes() for e in want], (c0, c)
