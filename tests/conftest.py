import ctypes
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from seqrac import canonical_strategy
from seqrac.linalg import HERM_TOL, _hermitian_part

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def _openblas_core() -> str | None:
    """Kernel set of the OpenBLAS bundled with numpy (``SkylakeX``, ``Haswell``, ...),
    or None where no bundled OpenBLAS answers."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


# What decides the recorded bits below seqrac: the BLAS kernels of complex
# ``@`` on 2x2 stacks and the SIMD routine numpy dispatches for ``np.arccos``.
OPENBLAS_CORE = _openblas_core()
SIMD_TARGETS = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]

# Named by every bit-pin failure.  The pins were recorded with one libm and
# numpy, so a drift there must read differently from a code defect.
PLATFORM = (
    f"bit pin differs on numpy {np.__version__}, {platform.machine()}, "
    f"Python {platform.python_version()}, OpenBLAS core {OPENBLAS_CORE}, "
    f"numpy SIMD dispatch {SIMD_TARGETS} of {list(__cpu_dispatch__)}"
)


def require_hermitian(m, tol=HERM_TOL):
    """``linalg._hermitian_part`` as a 2x2 matrix: the hermiticity gate that
    ``matrix_sqrt_psd`` and ``max_eigenpair`` run first, under the name of the
    public wrapper it once had, which the test ids keep."""
    return _hermitian_part(m, tol).reshape(2, 2)


def frozen_fixed_charlie_value(alpha, theta, phi1, q0, q1):
    """Witness against fixed Charlie overlaps ``q0``/``q1`` with ``phi0`` eliminated,
    and ``phi0`` (``(-1.0, None)`` where infeasible), as written before the optimizer
    took its factors through ``_charlie_value``: the bit oracle of the scalar formula."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    required = (8.0 * alpha - 4.0 - 2.0 * s * math.cos(phi1)) / (2.0 * c)
    if not -1e-9 <= required <= 1.0 + 1e-9:
        return -1.0, None
    phi0 = float(np.arccos(min(max(required, 0.0), 1.0)))
    value = 0.5 + (2.0 * c * (1.0 + math.sin(phi1)) * q0 + 2.0 * s * (1.0 + math.sin(phi0)) * q1) / 16.0
    return value, phi0


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture
def canonical_sharp():
    return canonical_strategy(1.0)


@pytest.fixture
def canonical_half():
    return canonical_strategy(1.0 / np.sqrt(2.0))
