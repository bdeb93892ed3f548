import platform

import numpy as np
import pytest

from seqrac import canonical_strategy

# Named by every bit-pin failure.  The pins were recorded with one libm and
# numpy, so a drift there must read differently from a code defect.
PLATFORM = (
    f"bit pin differs on numpy {np.__version__}, {platform.machine()}, "
    f"Python {platform.python_version()}"
)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture
def canonical_sharp():
    return canonical_strategy(1.0)


@pytest.fixture
def canonical_half():
    return canonical_strategy(1.0 / np.sqrt(2.0))
