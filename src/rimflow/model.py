"""Equation coefficients, regularized mobility, entropies, and the scheme's energy E_h.

The evolution law is

    h_t + ( f(h) (a0 h_xxx + a1 h_x + a2 w'(x)) )_x + a3 h_x = 0

on a periodic domain, with mobility f(h) = |h|^3.  Forcing holds w, w' and
the interface samples of w' that the flux form reads, all computed once
when it is built.  The regularized mobility replaces f by
f_de(z) = |z|^4 / (|z| + eps) + delta, which restores uniform parabolicity
for delta > 0 and strengthens the degeneracy near zero for eps > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, PeriodicField, gradient_sq, integrate, require_full_period

THETA_RANGE = (0.0, 0.4)


@dataclass(frozen=True)
class RegularizationKnobs:
    """Mobility regularization (delta, eps) and the initial-lift exponent theta."""

    delta: float = 0.0
    epsilon: float = 1e-8
    theta: float = 0.3

    def __post_init__(self) -> None:
        for name in ("delta", "epsilon"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if not (THETA_RANGE[0] < self.theta < THETA_RANGE[1]):
            raise ValueError(
                f"theta must lie in ({THETA_RANGE[0]}, {THETA_RANGE[1]}), got {self.theta}"
            )

    @property
    def lift(self) -> float:
        """eps^theta, the shift that makes nonnegative initial data strictly positive; 0 when eps = 0."""
        return self.epsilon**self.theta if self.epsilon > 0.0 else 0.0


@dataclass(frozen=True, eq=False)
class Forcing:
    """Substrate forcing w, w' at the nodes, and w' at the interfaces x_{i+1/2} (wp_mid).

    sine samples w = sin x and w' analytically (the domain must be one full
    period); constant is the zero forcing, every sample +0.0.  Any other w
    is built from its three arrays.  Each array is checked and frozen as a
    PeriodicField's values; two Forcings compare equal only when they are
    the same object.
    """

    grid: Grid
    w: np.ndarray
    wp: np.ndarray
    wp_mid: np.ndarray

    def __post_init__(self) -> None:
        for name in ("w", "wp", "wp_mid"):
            object.__setattr__(self, name, PeriodicField(self.grid, getattr(self, name)).values)

    @classmethod
    def sine(cls, grid: Grid) -> "Forcing":
        require_full_period(grid, "sine forcing is")
        x = grid.x
        return cls(grid, np.sin(x), np.cos(x), np.cos(x + 0.5 * grid.dx))

    @classmethod
    def constant(cls, grid: Grid) -> "Forcing":
        zero = np.zeros(grid.n)
        return cls(grid, zero, zero, zero)

    # Norms used by the a priori constants.
    @property
    def sup_w(self) -> float:
        return float(np.abs(self.w).max())

    @property
    def sup_wp(self) -> float:
        return float(np.abs(self.wp).max())

    @property
    def l2_wp(self) -> float:
        return math.sqrt(integrate(self.wp**2, self.grid.dx))


@dataclass(frozen=True)
class Params:
    """Coefficients (a0, a1, a2, a3) and the forcing profile w."""

    a0: float
    a1: float
    a2: float
    a3: float
    w: Forcing

    def __post_init__(self) -> None:
        if not (self.a0 > 0.0):
            raise ValueError(f"a0 must be positive, got {self.a0}")
        for name in ("a0", "a1", "a2", "a3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def grid(self) -> Grid:
        return self.w.grid

    @property
    def k_coefficient(self) -> float:
        """|a2 a3| sup|w'|, the factor of K1 in bounds.k_constant: K1 bounds nothing when it is 0."""
        return abs(self.a2 * self.a3) * self.w.sup_wp


def from_physical(chi: float, mu: float, grid: Grid) -> Params:
    """Coefficients for the rotating-cylinder film: a0 = a1 = chi/3, a2 = -mu/3, a3 = 1, w = sin."""
    if not (chi > 0.0):
        raise ValueError(f"chi must be positive, got {chi}")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    return Params(a0=chi / 3.0, a1=chi / 3.0, a2=-mu / 3.0, a3=1.0, w=Forcing.sine(grid))


def mobility(z, knobs: RegularizationKnobs):
    """Regularized mobility |z|^4 / (|z| + eps) + delta (plain |z|^3 + delta when eps = 0)."""
    az = np.abs(z)
    f = az**4 / (az + knobs.epsilon) if knobs.epsilon > 0.0 else az**3
    # f >= +0, so skipping + 0.0 gives the same bits.
    return f + knobs.delta if knobs.delta > 0.0 else f


def mobility_derivative(z, knobs: RegularizationKnobs):
    """d/dz of mobility; used by the implicit solver's Jacobian."""
    az = np.abs(z)
    sz = np.sign(z)
    if knobs.epsilon > 0.0:
        return sz * az**3 * (3.0 * az + 4.0 * knobs.epsilon) / (az + knobs.epsilon) ** 2
    return 3.0 * sz * az**2


def entropy_G(z, epsilon: float):
    """Touchdown entropy density G(z) = 1/(2z) + eps/(6 z^2), defined for z > 0.

    Its second derivative is (z + eps)/z^4, the reciprocal of the eps-regularized
    mobility, which is what makes it the natural Lyapunov density for positivity.
    """
    z = np.asarray(z, dtype=float)
    if (z <= 0.0).any():
        raise ValueError("entropy density needs strictly positive arguments")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    out = 0.5 / z + epsilon / (6.0 * z**2)
    return float(out) if out.ndim == 0 else out


def energy(v: np.ndarray, p: Params):
    """E_h(h) = 1/2 (a0 gradient_sq(h) - integral of a1 h^2 + 2 a2 w h).

    v is one row of samples on p's grid (a float is returned) or a stack
    of such rows (an array of each row's energy).  gradient_sq's compact
    jumps are the flux's, so E_h is the scheme's Lyapunov functional (Gruen
    & Rumpf, Numer. Math. 87, 2000), closed by evolve.run's remainder R.
    """
    if v.ndim not in (1, 2) or v.shape[-1] != p.grid.n:
        raise ValueError(f"need one row or rows of {p.grid.n} samples, got shape {v.shape}")
    dx = p.grid.dx
    return 0.5 * (p.a0 * gradient_sq(v, dx) - integrate(p.a1 * v**2 + 2.0 * p.a2 * p.w.w * v, dx))
