"""Uniform periodic grid and the discrete calculus built on it.

All spatial operators are second-order centered differences on a uniform
periodic grid; quadrature is the periodic rectangle rule, which is
spectrally accurate for smooth periodic integrands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgbsv

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n cells covering [origin, origin + length)."""

    n: int
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

    def field(self, values) -> "PeriodicField":
        return PeriodicField(self, values)

    def constant(self, c: float) -> "PeriodicField":
        return PeriodicField(self, np.full(self.n, float(c)))

    def sample(self, fn: Callable[[np.ndarray], np.ndarray]) -> "PeriodicField":
        return PeriodicField(self, np.asarray(fn(self.x), dtype=float))

    def compatible(self, other: "Grid", tol: float = 1e-12) -> bool:
        return (
            self.n == other.n
            and abs(self.length - other.length) <= tol * max(1.0, abs(self.length))
            and abs(self.origin - other.origin) <= tol * max(1.0, abs(self.length))
        )


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
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "PeriodicField":
        return PeriodicField(self.grid, values)

    def shift(self, cells: int) -> "PeriodicField":
        """Translate by a whole number of cells (periodic roll)."""
        return PeriodicField(self.grid, np.roll(self.values, cells))


def periodic_pad(v: np.ndarray, width: int) -> np.ndarray:
    """v with width periodic ghost cells on each side of its last axis.

    For p = periodic_pad(v, w), p[..., w + k : n + w + k] is v shifted by k
    cells, v[(i + k) mod n], for |k| <= w: neighbours are read as slices of
    one copy instead of one roll per offset.
    """
    return np.concatenate((v[..., -width:], v, v[..., :width]), axis=-1)


def _as_values(f: PeriodicField) -> tuple[np.ndarray, float]:
    return f.values, f.grid.dx


def d1(f: PeriodicField) -> PeriodicField:
    """Centered first derivative, second order."""
    v, dx = _as_values(f)
    p = periodic_pad(v, 1)
    return f.with_values((p[2:] - p[:-2]) / (2.0 * dx))


def d2(f: PeriodicField) -> PeriodicField:
    """Centered second derivative, second order."""
    v, dx = _as_values(f)
    p = periodic_pad(v, 1)
    return f.with_values((p[2:] - 2.0 * v + p[:-2]) / dx**2)


def d3(f: PeriodicField) -> PeriodicField:
    """Centered third derivative, second order."""
    v, dx = _as_values(f)
    p = periodic_pad(v, 2)
    out = (p[4:] - 2.0 * p[3:-1] + 2.0 * p[1:-3] - p[:-4])
    return f.with_values(out / (2.0 * dx**3))


def gradient_sq(f: PeriodicField) -> float:
    """Integral of the squared centred gradient, dx * sum(d1(f)^2)."""
    return float(f.grid.dx * np.sum(d1(f).values ** 2))


def integrate(f: PeriodicField) -> float:
    """Periodic rectangle rule, exact for trigonometric polynomials below the grid cutoff."""
    return float(f.grid.dx * np.sum(f.values))


def cyclic_banded_solve(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for a pentadiagonal matrix with periodic corners.

    bands has shape (5, n) with bands[k][i] = A[i, (i + k - 2) mod n]; rhs
    has shape (n,) or (n, m).  The six corner entries that wrap around the
    period are split off as A = B + P K P^T, where B is the plain band, P
    holds the unit columns e_0, e_1, e_{n-2}, e_{n-1} and K is the 4x4
    corner block.  One banded LAPACK solve gives B^{-1} [rhs, P], and the
    Woodbury identity with the capacitance I + P^T B^{-1} P K adds the
    corners back.  Raises np.linalg.LinAlgError when B or the capacitance
    is singular; det A = det B det(capacitance).
    """
    n = bands.shape[1]
    if bands.shape != (5, n) or n < 5:
        raise ValueError(f"need bands of shape (5, n) with n >= 5, got {bands.shape}")
    rhs = np.asarray(rhs, dtype=float)
    m = 1 if rhs.ndim == 1 else rhs.shape[1]
    # LAPACK band storage: ab[4 + i - j, j] = B[i, j], rows 0-1 for fill-in.
    # Fortran order lets dgbsv work in place instead of copying ab and b.
    ab = np.zeros((7, n), order="F")
    ab[2, 2:] = bands[4, :-2]
    ab[3, 1:] = bands[3, :-1]
    ab[4] = bands[2]
    ab[5, :-1] = bands[1, 1:]
    ab[6, :-2] = bands[0, 2:]
    corner_idx = np.array([0, 1, n - 2, n - 1])
    b = np.zeros((n, m + 4), order="F")
    b[:, :m] = rhs.reshape(n, m)
    b[corner_idx, np.arange(m, m + 4)] = 1.0
    _, _, x, info = dgbsv(2, 2, ab, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular banded matrix")
    if info < 0:
        raise ValueError(f"dgbsv: illegal argument {-info}")
    corners = np.zeros((4, 4))
    corners[0, 2], corners[0, 3], corners[1, 3] = bands[0, 0], bands[1, 0], bands[0, 1]
    corners[2, 0], corners[3, 0], corners[3, 1] = bands[4, n - 2], bands[3, n - 1], bands[4, n - 1]
    y, w = x[:, :m], x[:, m:]
    capacitance = np.eye(4) + w[corner_idx, :] @ corners
    y -= w @ (corners @ np.linalg.solve(capacitance, y[corner_idx, :]))
    return y.reshape(rhs.shape)


def write_field_csv(f: PeriodicField, path, value_name: str = "value") -> None:
    """Serialize as CSV rows "x,value" with full (17 significant digit) precision."""
    x = f.grid.x
    with open(path, "w") as fh:
        fh.write(f"x,{value_name}\n")
        for xi, vi in zip(x, f.values):
            fh.write(f"{xi:.17g},{vi:.17g}\n")


def read_field_csv(path) -> PeriodicField:
    """Read a field written by write_field_csv, reconstructing the grid from the x column."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"expected two CSV columns (x,value) in {path}")
    x, v = data[:, 0], data[:, 1]
    n = len(x)
    if n < 8:
        raise ValueError(f"too few samples ({n}) in {path}")
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx, rtol=1e-9, atol=1e-12):
        raise ValueError(f"non-uniform x column in {path}")
    grid = Grid(n=n, length=float(n * dx), origin=float(x[0]))
    return PeriodicField(grid, v)
