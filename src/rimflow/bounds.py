"""A priori constants and runtime-checkable bound monitors.

Every quantity here is an explicit closed form evaluated from the run inputs,
so each monitor compares a measured functional of the discrete solution
against a bound that was computable before the run started.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import PeriodicField, gradient_sq, integrate, periodic_pad
from .model import Params, entropy_G

# Local maxima are counted at the resolution of a published figure: features
# below one percent of the profile's dynamic range are not plot-visible.
DROPLET_PROMINENCE = 1e-2


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one monitored inequality lhs <= rhs (+ tolerance); a NaN side fails it."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float

    @classmethod
    def check(cls, name: str, lhs: float, rhs: float, tolerance: float = 0.0) -> "BoundReport":
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(name=name, lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs + tolerance), slack=rhs - lhs)


class BConstants(NamedTuple):
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float


class CConstants(NamedTuple):
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float


def b_constants(p: float, r: float, omega_length: float) -> BConstants:
    """Constants of the interpolation inequality chain for exponent pair (p, r).

    Requires p >= r >= 1 and a positive domain length.
    """
    if not (r >= 1.0 and p >= r):
        raise ValueError(f"need p >= r >= 1, got p={p}, r={r}")
    if not (omega_length > 0.0):
        raise ValueError("domain length must be positive")
    L = float(omega_length)
    b1 = L**p / (p * 2.0 ** (p - 1.0))
    a = (1.0 / r - 1.0 / p) / (1.0 / r + 0.5)
    b2 = (1.0 + r / 2.0) ** (a * p)
    if p <= 2.0:
        b3 = b1 * L ** ((2.0 - p) / p)
    else:
        b3 = b1 ** ((p + 2.0) / 2.0) * b2
    b4 = 2.0 ** (p - 1.0) * b3
    b5 = (2.0 / L) ** (p - 1.0)
    return BConstants(b1, b2, b3, b4, b5)


def c_constants(p: Params, mass: float, delta: float) -> CConstants:
    """Coefficient chain for the local-in-time gradient/entropy bound.

    The cubic nonlinearity enters through the (p, r) = (6, 2), (4, 2) and
    (3, 2) instances of the interpolation constants; mass is the conserved
    integral of the solution.
    """
    L = p.grid.length
    bb6 = b_constants(6.0, 2.0, L)
    bb4 = b_constants(4.0, 2.0, L)
    bb3 = b_constants(3.0, 2.0, L)
    sup_wp = p.w.sup_wp
    l2_wp = p.w.l2_wp
    c1 = bb4.b2**2 / 8.0 + bb6.b4 / 2.0
    c2 = mass**6 * bb6.b5 / 2.0
    c3 = p.a1**2 / (2.0 * p.a0) + delta * abs(p.a1)
    c4 = (p.a1**2 / p.a0) * c1
    c5 = (p.a2**2 / p.a0) * sup_wp**2 * bb3.b4
    c6 = (
        (p.a1**2 / p.a0) * c2
        + (p.a2**2 / p.a0) * sup_wp**2 * bb3.b5 * mass**3
        + delta * (p.a2**2 / p.a0) * l2_wp**2
    )
    c7 = c4 + c5 + c6
    c8 = abs(p.a1) + abs(p.a2) * l2_wp
    c9 = 2.0 * c3 * c8 / p.a0 + 2.0 * c7
    return CConstants(c1, c2, c3, c4, c5, c6, c7, c8, c9)


def local_existence_time(h: PeriodicField, p: Params) -> float:
    """Guaranteed existence horizon T = 9/(40 c9) * min(1, v0^-2).

    Here v0 = integral of h_x^2 + 2 (c3/a0) G_0(h), G_0(h) = 1/(2h) the
    entropy density at eps = 0, evaluated at delta = 0.
    Returns math.inf when c9 vanishes (the bound degenerates to no constraint)
    and 0.0 when the field touches zero, where the entropy term is infinite.
    """
    v, dx = h.values, h.grid.dx
    cc = c_constants(p, integrate(v, dx), delta=0.0)
    if cc.c9 == 0.0:
        return math.inf
    if float(np.min(v)) <= 0.0:
        return 0.0
    entropy = integrate(entropy_G(v, 0.0), dx)
    v0 = gradient_sq(v, dx) + 2.0 * (cc.c3 / p.a0) * entropy
    return 9.0 / (40.0 * cc.c9) * min(1.0, v0**-2)


def interpolation_check(h: PeriodicField) -> BoundReport:
    """||h||_2^2 <= 6^(2/3) M^(4/3) (int h_x^2)^(1/3) + M^2/|domain| for h >= 0."""
    v, dx, L = h.values, h.grid.dx, h.grid.length
    if float(np.min(v)) < 0.0:
        raise ValueError("interpolation bound applies to nonnegative fields")
    mass = integrate(v, dx)
    grad_sq = gradient_sq(v, dx)
    lhs = integrate(v**2, dx)
    rhs = 6.0 ** (2.0 / 3.0) * mass ** (4.0 / 3.0) * grad_sq ** (1.0 / 3.0) + mass**2 / L
    return BoundReport.check("interpolation", lhs, rhs, tolerance=1e-12 * max(1.0, abs(rhs)))


def k_constant(p: Params, k1: float, mass: float) -> float:
    """Linear-in-time energy production rate K = |a2 a3| ||w'||_inf (|domain|^2 sqrt(K1) + 2M).

    K1 is math.inf once a run touches zero, NaN when evolve.run skipped it
    (only when the coefficient vanishes).  K is then inf, or 0 when the
    coefficient vanishes, where the product reads 0 * inf or 0 * NaN.
    """
    if k1 < 0.0:
        raise ValueError("K1 must be nonnegative")
    coeff = p.k_coefficient
    return 0.0 if coeff == 0.0 else coeff * (p.grid.length**2 * math.sqrt(k1) + 2.0 * mass)


def k3_constant(p: Params, mass: float) -> float:
    """Additive constant of the H1 growth bound; case split on the sign of a0 + a1."""
    base = abs(p.a2) * p.w.sup_w * mass
    s = p.a0 + p.a1
    if s <= 0.0:
        return base
    L = p.grid.length
    return base + mass**2 * (
        2.0 * math.sqrt(6.0) * s**1.5 / (3.0 * math.sqrt(p.a0)) + s / (2.0 * L)
    )


def h1_growth_bound(e0_initial: float, mass: float, t_horizon: float, p: Params, k1: float) -> float:
    """Upper bound for ||h(T)||_{H1}^2: (4/a0) (E(0) + K T + K3).

    K T is taken as 0 at T = 0, where an infinite K (k_constant) would read 0 * inf.
    """
    if t_horizon < 0.0:
        raise ValueError("time horizon must be nonnegative")
    production = k_constant(p, k1, mass) * t_horizon if t_horizon > 0.0 else 0.0
    return (4.0 / p.a0) * (e0_initial + production + k3_constant(p, mass))


def dissipation_check(traj, p: Params) -> BoundReport:
    """Energy, dissipation and backward-Euler remainder: E_h(T) + D(T) + R(T) <= E_h(0) + K T.

    The sides are equal up to the Newton residuals when a3 = 0 and a2 w = 0:
    the scheme's discrete energy identity.  Sine forcing with a2 != 0 adds
    an O(dx^2) mismatch, a3 != 0 the production, at most K T, where K reads
    the run's observed K1 (the largest value of the gradient/entropy/
    dissipation functional along the trajectory).
    """
    first = traj.records[0]
    last = traj.records[-1]
    T = last.t - first.t
    K = k_constant(p, traj.k1_observed, first.mass)
    lhs = last.energy + last.dissipation_cum + last.remainder_cum
    rhs = first.energy + K * T
    scale = abs(first.energy) + abs(last.energy) + last.dissipation_cum + abs(rhs)
    tol = 1e-6 * max(1.0, scale) + traj.step_count * traj.newton_tol_effective
    return BoundReport.check("dissipation", lhs, rhs, tolerance=tol)


def gradient_bound_check(traj, p: Params) -> BoundReport:
    """Exponential-in-time gradient bound, evaluated in log space.

    ln(int h_x^2 (T)) <= ln(max(||w'||_2^2, int h0_x^2)) + B(T) with
    B(T) = 2 (a1^2 + a2^2)/a0 * integral of sup|h|^3 dt.  Working with
    logarithms keeps the comparison finite when B(T) is large.
    """
    first = traj.records[0]
    last = traj.records[-1]
    B = 2.0 * (p.a1**2 + p.a2**2) / p.a0 * traj.supcube_time_integral
    base = max(p.w.l2_wp**2, first.gradient_sq)
    lhs = math.log(last.gradient_sq) if last.gradient_sq > 0.0 else -math.inf
    rhs = (math.log(base) if base > 0.0 else -math.inf) + B
    # An infinite rhs takes no relative slack: lhs = -inf (int h_x^2 = 0) then holds against rhs = -inf.
    tol = 1e-9 * max(1.0, abs(rhs)) if math.isfinite(rhs) else 0.0
    return BoundReport.check("gradient_growth", lhs, rhs, tolerance=tol)


def count_local_maxima(h: PeriodicField) -> list[int]:
    """Indices of periodic local maxima with prominence above DROPLET_PROMINENCE * range.

    The prominence filter reads the profile at the resolution of its own
    dynamic range, so round-off ripples on flat regions do not count.
    """
    v = h.values
    floor = float(np.min(v))
    rng = float(np.max(v)) - floor
    if rng == 0.0:
        return []
    # Each run of equal neighbours, periodic (a run may cross the seam), is
    # one candidate, named by its first index: a maximum when both samples
    # beside it are lower, so a plateau counts once and a shoulder not at all.
    starts = np.flatnonzero(v != periodic_pad(v, 1)[:-2])
    top, after = v[starts], v[periodic_pad(starts, 1)[2:]]  # after: the sample past each run
    peak = (top > v[starts - 1]) & (top > after) & (top - floor >= DROPLET_PROMINENCE * rng)
    return [int(i) for i in starts[peak]]
