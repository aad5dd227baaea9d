"""Steady-state profiles: the cubic-algebraic branch and the full capillary equation.

With surface tension neglected the steady balance is pointwise algebraic,

    h - (mu/3) h^3 cos x = q,

solved at all grid points at once in Viete's closed form (sin and sinh of a
third of an arcsin or arsinh) with one guarded Newton polish, on the branch
that stays below the fold.  With surface tension the profile solves the
periodic ODE

    h - (mu/3) h^3 cos x + (chi/3) h^3 (h_x + h_xxx) = q,

discretized at the nodes with centred second-order differences and solved
by the shared damped simplified-Newton solver (rimflow.newton), either at
fixed flux q or at fixed mass with q as the extra unknown.  The capillary
term at node i is the mean of evolve's interface driving term on the
interfaces either side: grid.jump_terms with c1 = chi/(3 dx), c3 = chi/(3 dx^3).

Continuation is the one steady schedule: targets, mu, chi, mode, tol and
max_newton.  capillary_solve takes it with a starting field and flux, and
continue_branch walks its targets from a solved first profile.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (CyclicBandedFactor, Grid, PeriodicField, integrate, jump_coefficients, jump_terms,
                   require_full_period)
from .newton import newton

FLUX_BOUND_RATIO = 8.0 / 27.0
# Viete's argument (_cubic_roots) within this many ulps of 1 is the fold's double root.
DOUBLE_ROOT_ULPS = 4


class BranchLost(RuntimeError):
    """The branch has no positive solution here: a Newton iterate left the positive cone
    (min_h is its minimum), or the cubic branch crosses its fold (min_h is NaN)."""

    def __init__(self, message: str, min_h: float):
        super().__init__(message)
        self.min_h = min_h


class NoConvergence(RuntimeError):
    """Newton did not reach the tolerance; reason is its NewtonStats.failure."""

    def __init__(self, message: str, residual_sup: float, iterations: int, reason: str):
        super().__init__(message)
        self.residual_sup = residual_sup
        self.iterations = iterations
        self.reason = reason


@dataclass(frozen=True)
class SteadyProfile:
    h: PeriodicField
    q: float
    mu: float
    residual_sup: float

    @property
    def mass(self) -> float:
        """The profile's mass, integrate(h) on its grid."""
        return integrate(self.h.values, self.h.grid.dx)

    @property
    def beta(self) -> float:
        """The flux parameter q^2 mu / 3; no positive profile exists beyond 8/27."""
        return self.q**2 * self.mu / 3.0


@dataclass(frozen=True)
class Continuation:
    """One steady schedule: targets in order at fixed flux (target = q) or fixed mass.

    chi = 0 selects the surface-tension-free branch (fixed flux only); tol and
    max_newton bound each capillary_solve.
    """

    targets: tuple
    mu: float
    chi: float = 0.0
    mode: str = "fixed_flux"
    tol: float = 1e-10
    max_newton: int = 30

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("targets must not be empty")
        for name in ("mu", "chi"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if self.chi == 0.0 and self.mode == "fixed_mass":
            raise ValueError("chi=0 profiles support only fixed_flux targets")
        if self.chi == 0.0 and self.mu == 0.0:
            raise ValueError("chi=0 profiles need mu > 0")
        if self.mode not in ("fixed_flux", "fixed_mass"):
            raise ValueError(f"mode must be fixed_flux or fixed_mass, got {self.mode!r}")
        for target in self.targets:
            if not (0.0 < target < math.inf):
                raise ValueError(f"continuation target must be positive and finite, got {target}")
        if self.max_newton < 1:
            raise ValueError(f"max_newton must be at least 1, got {self.max_newton}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


def critical_flux(mu: float) -> float:
    """Largest flux for which the surface-tension-free profile exists: 2/(3 sqrt(mu))."""
    if not (mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    return 2.0 / (3.0 * math.sqrt(mu))


def nonexistence_threshold(mu: float) -> float:
    """No positive capillary steady state exists for q above (2/3) sqrt(2/mu)."""
    if not (mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    return (2.0 / 3.0) * math.sqrt(2.0 / mu)


def pukhnachov_bound(mu: float) -> float:
    """Earlier, weaker nonexistence threshold 2 sqrt(3/mu), kept for comparison."""
    if not (mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    return 2.0 * math.sqrt(3.0 / mu)


def _polish(mu: float, q: float, c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One Newton step on (mu c/3) h^3 - h + q = 0, kept only where it does not raise |residual|.

    At the fold's double root f'(h) = mu c h^2 - 1 is at rounding level, and
    an unguarded step there can leave the root altogether.
    """
    a = mu * c / 3.0
    h2 = h * h
    val = a * h2 * h - h + q
    with np.errstate(divide="ignore", invalid="ignore"):
        step = h - val / (mu * c * h2 - 1.0)
        return np.where(np.abs(a * step * step * step - step + q) <= np.abs(val), step, h)


def _cubic_roots(mu: float, q: float, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive real roots of (mu c/3) h^3 - h + q = 0 for each entry of c, |c| >= 1e-14.

    Viete's trigonometric and hyperbolic form (Nickalls, Math. Gazette 77,
    1993), with arg = (3q/2) sqrt(mu |c|) and s = 2 / sqrt(mu |c|):

    - c < 0: the one real root is s sinh(arsinh(arg) / 3);
    - c > 0, arg < 1: the two positive roots are s sin(phi) < s/2 and
      s sin(pi/3 - phi) > s/2, phi = arcsin(arg) / 3, either side of the fold
      mu c h^2 = 1; the third root is negative;
    - c > 0, arg within DOUBLE_ROOT_ULPS ulps of 1: the fold's double root s/2;
    - c > 0, arg beyond that: no positive real root.

    Written with sin and sinh the roots do not cancel as |c| -> 0, where the
    branch root tends to q.  Returns (low, high) of c's shape, each after
    one guarded Newton step (_polish): low is the root strictly below the
    fold, high the root at or above it; each is NaN where there is none.
    """
    root = np.sqrt(mu * np.abs(c))
    arg, s = 1.5 * q * root, 2.0 / root
    rising = c < 0.0
    double = np.abs(arg - 1.0) <= DOUBLE_ROOT_ULPS * np.finfo(float).eps
    with np.errstate(invalid="ignore"):
        phi = np.arcsin(np.where(double, 1.0, arg)) / 3.0
    low = np.where(rising, s * np.sinh(np.arcsinh(arg) / 3.0),
                   np.where(double, np.nan, s * np.sin(phi)))
    high = np.where(rising, np.nan, s * np.sin(math.pi / 3.0 - phi))
    return _polish(mu, q, c, low), _polish(mu, q, c, high)


def moffatt_profile(mu: float, q: float, grid: Grid) -> SteadyProfile:
    """Pointwise branch below the fold; raises BranchLost when the fold is crossed somewhere.

    The cubic is solved at every grid point at once, in Viete's closed form
    (_cubic_roots).  The profile takes the smallest positive real root; on
    the half-domain where cos x > 0 that root must satisfy mu cos(x) h^2 < 1
    strictly, so a double root (the fold itself) does not count as
    existence.  Where |cos x| < 1e-14 the cubic term vanishes and h = q.
    """
    if not (mu > 0.0 and q > 0.0):
        raise ValueError("mu and q must be positive")
    require_full_period(grid, "steady profiles are")
    cosx = np.cos(grid.x)
    far = np.abs(cosx) >= 1e-14
    c = cosx[far]
    low, _ = _cubic_roots(mu, q, c)
    if not np.all((low > 0.0) & ((c < 0.0) | (mu * c * low * low < 1.0))):
        raise BranchLost(f"no surface-tension-free profile at q={q}", min_h=math.nan)
    h = np.full(grid.n, q)
    h[far] = low
    prof = PeriodicField(grid, h)
    resid = h - (mu / 3.0) * h**3 * cosx - q
    return SteadyProfile(
        h=prof,
        q=q,
        mu=mu,
        residual_sup=float(np.max(np.abs(resid))),
    )


def asymptotic_guess(q: float, grid: Grid) -> PeriodicField:
    """Small-flux expansion h = q + (q^3/3) cos x, a Newton starter for small q."""
    if not (q > 0.0):
        raise ValueError("q must be positive")
    require_full_period(grid, "steady profiles are")
    return PeriodicField(grid, q + (q**3 / 3.0) * np.cos(grid.x))


def _capillary_term(v: np.ndarray, c1: float, c3: float) -> np.ndarray:
    """(chi/3)(v_x + v_xxx) at the nodes for c1 = chi/(3 dx), c3 = chi/(3 dx^3).

    The mean of grid.jump_terms' g on the interfaces either side of each node
    is the centred five-point difference, formed from jumps: at n = 768 its
    rounding was 5e-12 of the sup on smooth data, where the node stencil left 4.5e-10.
    """
    g = jump_terms(v, c1, c3)[2]
    return 0.5 * (g[1:] + g[:-1])


def _capillary_lhs(v, q, mu, cosx, c1, c3) -> np.ndarray:
    v3 = v**3
    return v - (mu / 3.0) * v3 * cosx + v3 * _capillary_term(v, c1, c3) - q


def _capillary_bands(v, mu, cosx, c1, c3) -> np.ndarray:
    """Jacobian of _capillary_lhs in v as (5, n) bands: [k][i] = d lhs_i / d v_{i+k-2}.

    The capillary row is the mean of grid.jump_coefficients on interfaces i - 1 and i.
    """
    k = np.array(jump_coefficients(c1, c3))
    v2 = v * v
    bands = np.outer(0.5 * (np.r_[k, 0.0] + np.r_[0.0, k]), v2 * v)
    bands[2] += 1.0 - mu * cosx * v2 + 3.0 * v2 * _capillary_term(v, c1, c3)
    return bands


def _bordered_solve(lu: CyclicBandedFactor, b: np.ndarray, r: np.ndarray, dx: float) -> np.ndarray:
    """Newton step [du; dq] of the mass-bordered system.

    Solves [[J, -1], [dx 1^T, 0]] [du; dq] = -r, r = [r_h; r_m], by
    eliminating the border: with a = J^{-1} r_h and b = J^{-1} 1,
    du = dq b - a and dx sum(du) = -r_m.
    """
    a = lu.solve(r[:-1])
    denom = integrate(b, dx)
    if denom == 0.0:
        raise np.linalg.LinAlgError("singular bordered system")
    dq = (integrate(a, dx) - r[-1]) / denom
    return np.append(dq * b - a, dq)


def capillary_solve(h: PeriodicField, q: float, target: float, spec: Continuation) -> SteadyProfile:
    """Solve the capillary steady equation of spec at target, starting from (h, q).

    spec.mode "fixed_flux" solves for h at q = target, and the starting q is
    not read; "fixed_mass" solves for z = [h; q], with the mass defect
    integrate(h) - target as the last residual entry and the border
    eliminated in each step (_bordered_solve, J^{-1} 1 computed once per
    factorization).  The shared Newton solver must bring the residual to
    spec.tol itself: no floor.  Raises BranchLost when an iterate turns
    nonpositive, NoConvergence on any other failure.
    """
    if not (spec.chi > 0.0):
        raise ValueError("capillary solve needs chi > 0")
    grid = h.grid
    require_full_period(grid, "steady profiles are")
    mu, chi, n, dx = spec.mu, spec.chi, grid.n, grid.dx
    c1, c3, cosx = chi / (3.0 * dx), chi / (3.0 * dx**3), np.cos(grid.x)
    fixed_mass = spec.mode == "fixed_mass"

    def residual(z):
        if not fixed_mass:
            return _capillary_lhs(z, target, mu, cosx, c1, c3)
        r = _capillary_lhs(z[:n], z[n], mu, cosx, c1, c3)
        return np.append(r, integrate(z[:n], dx) - target)

    ones_solution = functools.lru_cache(maxsize=1)(lambda lu: lu.solve(np.ones(n)))

    def bordered(lu, z, r):
        return _bordered_solve(lu, ones_solution(lu), r, dx)

    def accept(z):
        min_h = float(np.min(z[:n]))
        if min_h <= 0.0:
            raise BranchLost(f"iterate turned nonpositive (min {min_h:.3e})", min_h=min_h)

    z, stats, _ = newton(residual, lambda z: _capillary_bands(z[:n], mu, cosx, c1, c3),
                         np.append(h.values, q) if fixed_mass else h.values,
                         spec.tol, spec.max_newton, direction=bordered if fixed_mass else None,
                         accept=accept)
    if stats.failure is not None:
        raise NoConvergence(stats.message, residual_sup=stats.residual, iterations=stats.iterations,
                            reason=stats.failure)
    prof = PeriodicField(grid, z[:n])
    q = float(z[n]) if fixed_mass else target
    return SteadyProfile(h=prof, q=q, mu=mu, residual_sup=stats.residual)


@dataclass(frozen=True)
class SolvabilityReport:
    r0: float
    r1: float


def solvability_residuals(prof: SteadyProfile) -> SolvabilityReport:
    """Integral identities any positive steady profile must satisfy.

    With y = h/q: the mean of 1/y^2 - 1/y^3 vanishes (r0) and its cos-weighted
    mean equals pi * beta with beta = prof.beta (r1).  No positive profile
    satisfies both beyond beta = 8/27 (FLUX_BOUND_RATIO).
    """
    grid = prof.h.grid
    require_full_period(grid, "steady profiles are")
    hv = prof.h.values
    if float(np.min(hv)) <= 0.0:
        raise ValueError("solvability residuals need a strictly positive profile")
    if not (prof.q > 0.0):
        raise ValueError("profile flux must be positive")
    y = hv / prof.q
    f = 1.0 / y**2 - 1.0 / y**3
    dx = grid.dx
    return SolvabilityReport(
        r0=integrate(f, dx),
        r1=integrate(f * np.cos(grid.x), dx) - math.pi * prof.beta,
    )


def continue_branch(start: SteadyProfile, spec: Continuation) -> list[SteadyProfile]:
    """Walk spec.targets[1:] from start, bisecting into the gap where the branch ends.

    Returns the profiles actually obtained, starting with start, which must
    be a solved profile at spec.targets[0].  A failed target, the first of
    these included, triggers bisection of its parameter interval down to a
    relative increment of 2^-12, after which the deepest reachable profile
    is the recorded branch endpoint.
    """
    profiles = [start]
    for target in spec.targets[1:]:
        cur = profiles[-1]
        try:
            profiles.append(capillary_solve(cur.h, cur.q, target, spec))
            continue
        except (BranchLost, NoConvergence):
            pass
        lo = cur.q if spec.mode == "fixed_flux" else cur.mass
        hi = target
        min_inc = abs(hi - lo) / 4096.0
        while abs(hi - lo) > min_inc:
            mid = 0.5 * (lo + hi)
            try:
                profiles.append(capillary_solve(profiles[-1].h, profiles[-1].q, mid, spec))
                lo = mid
            except (BranchLost, NoConvergence):
                hi = mid
        break
    return profiles
