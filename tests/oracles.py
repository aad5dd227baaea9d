"""Reference formulas the tests compare rimflow against, and the field helpers they build
data with; no rimflow code calls them."""
import numpy as np

from rimflow.grid import Grid, PeriodicField, periodic_pad

ALPHA_RANGE = (-0.5, 1.0)


def sample(grid: Grid, fn) -> PeriodicField:
    """fn evaluated at the nodes of grid."""
    return PeriodicField(grid, np.asarray(fn(grid.x), dtype=float))


def shift(f: PeriodicField, cells: int) -> PeriodicField:
    """f translated by a whole number of cells (periodic roll)."""
    return f.with_values(np.roll(f.values, cells))


def d1(v: np.ndarray, dx: float) -> np.ndarray:
    """(v[i+1] - v[i-1]) / (2 dx) along the last axis of v: the centred first derivative, second order."""
    p = periodic_pad(v, 1)
    return (p[..., 2:] - p[..., :-2]) / (2.0 * dx)


def d3(f: PeriodicField) -> PeriodicField:
    """Centered third derivative, second order."""
    v, dx = f.values, f.grid.dx
    p = periodic_pad(v, 2)
    out = (p[4:] - 2.0 * p[3:-1] + 2.0 * p[1:-3] - p[:-4])
    return f.with_values(out / (2.0 * dx**3))


def alpha_entropy(z, epsilon: float, alpha: float):
    """Power-family entropy density with second derivative z^alpha / f_eps(z).

    Valid for alpha in (-1/2, 1) excluding 0; nonnegative throughout that range.
    """
    if not (ALPHA_RANGE[0] < alpha < ALPHA_RANGE[1]) or alpha == 0.0:
        raise ValueError(
            f"alpha must lie in ({ALPHA_RANGE[0]}, {ALPHA_RANGE[1]}) and be nonzero, got {alpha}"
        )
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("entropy density needs strictly positive arguments")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    lead = z ** (alpha - 1.0) / ((alpha - 1.0) * (alpha - 2.0))
    tail = epsilon * z ** (alpha - 2.0) / ((alpha - 3.0) * (alpha - 2.0))
    out = lead + tail
    return float(out) if out.ndim == 0 else out
