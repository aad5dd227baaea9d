"""Shared test helpers."""
import contextlib
import warnings

import numpy as np
import pytest

# When a property test fails, hypothesis's explain phase imports libcst, whose
# own import raises a DeprecationWarning; under -W error that ends the run in
# INTERNALERROR before the falsifying example is printed.  Importing it once
# here, with that warning ignored, leaves the module cached for hypothesis.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import libcst  # noqa: F401


def _dense_from_bands(bands):
    """Dense matrix A with A[i, (i + k - 2) mod n] = bands[k][i]."""
    n = bands.shape[1]
    a = np.zeros((n, n))
    rows = np.arange(n)
    for k in range(5):
        a[rows, (rows + k - 2) % n] += bands[k]
    return a


@pytest.fixture(scope="session")
def dense_from_bands():
    return _dense_from_bands
