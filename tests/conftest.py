import ctypes
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from seqrac import canonical_strategy
from seqrac.linalg import HERM_TOL, _hermitian_part, matrix_sqrt_psd, max_eigenpair

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


def pytest_terminal_summary(terminalreporter):
    """Name the platform once per run.  The tests marked ``recorded`` compare with
    bytes recorded on one platform; below seqrac, the OpenBLAS kernels of ``@`` on
    2x2 stacks and the SIMD routine numpy dispatches for ``np.arccos`` decide them,
    so a drift there must read differently from a code defect."""
    targets = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    terminalreporter.write_line(
        f"platform: numpy {np.__version__}, {platform.machine()}, Python {platform.python_version()}, "
        f"OpenBLAS core {_openblas_core()}, numpy SIMD dispatch {targets} of {list(__cpu_dispatch__)}"
    )


def require_hermitian(m, tol=HERM_TOL):
    """``linalg._hermitian_part`` as a 2x2 matrix: the hermiticity gate that
    ``matrix_sqrt_psd`` and ``max_eigenpair`` run first, under the name of the
    public wrapper it once had, which the test ids keep."""
    return np.array(_hermitian_part(m, tol)).reshape(2, 2)


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


def frozen_branch(inst, rho, b):
    """``sum_k K rho K^dag`` over the Kraus operators of branch ``b``, one at a time,
    on one 2x2 ``rho`` or a stack; a branch holds the one operator ``kraus[b]``."""
    out = np.zeros(rho.shape, dtype=complex)
    for k in (inst.kraus[b],):
        out += k @ rho @ k.conj().T
    return out


def frozen_channel_sum(instruments, rhos):
    """Both branches of both instruments, added as the per-branch loop added them."""
    acc = frozen_branch(instruments[0], rhos, 0) + frozen_branch(instruments[0], rhos, 1)
    acc += frozen_branch(instruments[1], rhos, 0) + frozen_branch(instruments[1], rhos, 1)
    return acc


def frozen_sandwich_max(effect, op) -> float:
    """Largest eigenvalue of ``sqrt(effect) op sqrt(effect)`` by the scalar kernels."""
    root = matrix_sqrt_psd(effect, tol=np.inf)
    return max_eigenpair(root @ op @ root, tol=np.inf).value


def frozen_closed_form(c0: float, eta: float, overlap: float, norm: float, outcome: int) -> float:
    """``sandwich_eigenvalue_closed_form`` from plain floats (``overlap = c . a``, ``norm = |a|``),
    one sample and one outcome at a time, as written before the ``checks`` eigen suite
    evaluated it on arrays: the bit oracle of ``optimizer._closed_form``."""
    if norm == 0.0:
        return 0.0
    sign = -1.0 if outcome else 1.0
    cos_beta = overlap / (eta * norm) if eta > 1e-15 else 0.0
    cos_beta = min(max(cos_beta, -1.0), 1.0)
    radicand = max((1.0 + sign * c0) ** 2 - eta * eta * (1.0 - cos_beta**2), 0.0)
    return 0.5 * norm * (sign * eta * cos_beta + math.sqrt(radicand))


def hexes(*values) -> list[str]:
    """``float.hex`` of each value, the format of the recorded JSON."""
    return [float(v).hex() for v in values]


@pytest.fixture(autouse=True)
def _no_caller_seed(monkeypatch):
    """Run every test with ``SEQRAC_SEED`` unset, as ``bench/run.py`` runs its workers:
    ``boundary`` and ``checks`` resolve the fallback seed even where they draw nothing.
    The fallback-seed tests set the variable themselves."""
    monkeypatch.delenv("SEQRAC_SEED", raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture
def canonical_sharp():
    return canonical_strategy(1.0)


@pytest.fixture
def canonical_half():
    return canonical_strategy(1.0 / np.sqrt(2.0))
