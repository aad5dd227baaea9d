"""Shared test helpers."""
import numpy as np
import pytest


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
