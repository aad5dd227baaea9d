"""Uniform periodic grid and the discrete calculus built on it.

Every functional is composed from two reductions on bare samples along the
last axis: integrate, the one quadrature (the periodic rectangle rule, exact
for trigonometric polynomials below the grid cutoff), and gradient_sq, the
sum of squared compact jumps, the one discrete gradient (the flux's).
jump_terms is the interface jump form both Newton solvers share.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_FLAPACK = "scipy.linalg._flapack"


def _flapack_path() -> str | None:
    """The file of scipy's compiled LAPACK module, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _banded_lapack() -> tuple:
    """(dgbtrf, dgbtrs) from scipy's compiled LAPACK module, loaded on its own.

    Importing scipy.linalg.lapack first runs scipy.linalg's package __init__
    and its array-API layer, which is not needed for two routines: on a
    2-vCPU VM with scipy 1.17 it added about 0.2 s and 19 MB to every start.
    The module goes into sys.modules under its own name, _FLAPACK, so a
    later import of scipy.linalg reuses it: both routes give the same binary
    and the same bits.  Falls back to the package import when the file is
    missing or does not load.
    """
    path = _flapack_path()
    if path is not None:
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:  # a file this interpreter cannot load
            pass
        else:
            sys.modules[_FLAPACK] = module
            return module.dgbtrf, module.dgbtrs
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    return dgbtrf, dgbtrs


dgbtrf, dgbtrs = _banded_lapack()


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n cells covering [origin, origin + length)."""

    n: int = 256
    length: float = TWO_PI
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and at least 8, got n={self.n}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"grid length must be positive and finite, got {self.length}")
        if not math.isfinite(self.origin):
            raise ValueError("grid origin must be finite")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.dx * np.arange(self.n)

    def constant(self, c: float) -> "PeriodicField":
        return PeriodicField(self, np.full(self.n, float(c)))


def require_full_period(grid: Grid, what: str) -> None:
    """The one 2*pi check, for what needs a full period: "sine forcing is", "steady profiles are"."""
    if abs(grid.length - TWO_PI) > 1e-9:
        raise ValueError(f"{what} defined on a full period of length 2*pi, got {grid.length}")


@dataclass(frozen=True)
class PeriodicField:
    """Immutable sampled values on a periodic grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.grid.n,):
            raise ValueError(
                f"field needs {self.grid.n} values, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "PeriodicField":
        return PeriodicField(self.grid, values)


def periodic_pad(v: np.ndarray, width: int) -> np.ndarray:
    """v with width periodic ghost cells on each side of its last axis.

    For p = periodic_pad(v, w), p[..., w + k : n + w + k] is v shifted by k
    cells, v[(i + k) mod n], for |k| <= w: neighbours are read as slices of
    one copy instead of one roll per offset.
    """
    return np.concatenate((v[..., -width:], v, v[..., :width]), axis=-1)


def integrate(v: np.ndarray, dx: float):
    """dx * sum(v) along the last axis, the periodic rectangle rule: a float or one per row."""
    s = dx * v.sum(axis=-1)
    return float(s) if v.ndim == 1 else s


def gradient_sq(v: np.ndarray, dx: float):
    """sum((v[i+1] - v[i])^2) / dx, the flux's periodic jumps, along the last axis: a float or one per row."""
    s = (np.diff(v, axis=-1, append=v[..., :1]) ** 2).sum(axis=-1) / dx
    return float(s) if v.ndim == 1 else s


def jump_terms(v: np.ndarray, c1: float, c3: float) -> tuple:
    """(pad, d, g): the jumps of v and their form g of c1 dx v_x + c3 dx^3 v_xxx.

    pad is periodic_pad(v, 2) and d the n + 3 jumps v_{i+1} - v_i on
    interfaces -2..n, interface i lying between nodes i and i + 1.  On the
    n + 1 interfaces -1..n-1, interface -1 being interface n - 1 bit for bit,

        g_i = c3 (d_{i+1} + d_{i-1}) + (c1 - 2 c3) d_i.

    Sums of jumps cancel terms of size dx v_x only, where a node form cancels
    terms of size v: on smooth data at n = 1024 the rounding of g is about
    1e-12 of sup|g| instead of 1e-9.
    """
    pad = periodic_pad(v, 2)
    d = pad[1:] - pad[:-1]
    g = c3 * (d[2:] + d[:-2])
    g += (c1 - 2.0 * c3) * d[1:-1]
    return pad, d, g


def jump_coefficients(c1: float, c3: float) -> tuple:
    """dg_i/dv_{i-1..i+2} of jump_terms' g on interface i: (-c3, 3 c3 - c1, c1 - 3 c3, c3)."""
    return -c3, 3.0 * c3 - c1, c1 - 3.0 * c3, c3


@functools.lru_cache(maxsize=8)
def _zigzag(n: int) -> tuple:
    """Read-only (order, position, flat): node order 0, n-1, 1, n-2, ..., its inverse, and flat[k, i], the
    index of bands[k][i] in the (n, 13) C-order transpose of band storage ab[8 + p - q, q] = A'[p, q]."""
    i = np.arange(n)
    position = np.minimum(2 * i, 2 * (n - 1 - i) + 1)
    q = position[(i + np.arange(-2, 3)[:, None]) % n]
    layout = np.argsort(position), position, 13 * q + 8 + position - q
    for a in layout:
        a.flags.writeable = False
    return layout


class CyclicBandedFactor:
    """LU factorization of a cyclic pentadiagonal matrix.

    bands has shape (5, n) with bands[k][i] = A[i, (i + k - 2) mod n].  In
    the zig-zag node order 0, n-1, 1, n-2, ... the entries that wrap around
    the period lie inside a band of four sub- and four superdiagonals, so
    one dgbtrf with partial pivoting, backward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, 9.5), factors A'[p, q] =
    A[order[p], order[q]].  solve() is one gather, one dgbtrs and one
    gather back.  Raises np.linalg.LinAlgError on an exact zero pivot.
    row_norm is ||A||_inf.
    """

    def __init__(self, bands: np.ndarray):
        n = bands.shape[1]
        if bands.shape != (5, n) or n < 5:
            raise ValueError(f"need bands of shape (5, n) with n >= 5, got {bands.shape}")
        self.n, (self.order, self.position, flat) = n, _zigzag(n)
        ab = np.zeros((n, 13))
        ab.reshape(-1)[flat] = bands
        self.lu, self.piv, info = dgbtrf(ab.T, 4, 4, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular banded matrix")
        self.row_norm = float(np.abs(bands).sum(axis=0).max())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for one right-hand side of shape (n,)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs needs shape ({self.n},), got {rhs.shape}")
        y, _ = dgbtrs(self.lu, 4, 4, rhs[self.order], self.piv, overwrite_b=1)
        return y[self.position]
