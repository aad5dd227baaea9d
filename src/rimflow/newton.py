"""The damped simplified-Newton solver that evolve and steady share.

newton() keeps one CyclicBandedFactor of the Jacobian, possibly handed in
from an earlier call, while it keeps contracting the residual.  A step with
a reused factor that leaves the residual above REFACTOR_RATE times its
previous value is discarded and taken again with a fresh factor, unless it
lands within the tolerance in force and either lowers the residual or
leaves no more than rounding does (_rounding): each accepted step
contracts by REFACTOR_RATE, is a damped Newton step, or lands within the
tolerance without going uphill.  A reused factor too slow to reach the
tolerance in the steps left is refactored at the next iterate.  A caller
that starts from a predicted iterate passes min_iter=1, so the prediction
is corrected at least once even when its residual already meets the
tolerance; only an exact zero residual is returned untouched.  This is
the simplified Newton (chord) method: Hairer & Wanner, Solving ODEs II,
IV.8; Kelley, Solving Nonlinear Equations with Newton's Method (2003).  A
step with a fresh factor tries the lengths 1, 1/2, ..., 1/2**MAX_DAMPINGS
and takes the first that lowers the sup-norm residual, or else the last; a
reused factor's step is taken whole, since a halved one cannot contract
by REFACTOR_RATE < 1/2.  A fresh step that leaves the residual, and the
one it started from, above the tolerance in force ends the solve as
"stalled" when no length lowered the residual, or when it started at
rounding level and contracted by no more than REFACTOR_RATE: Newton from
there cannot reach the tolerance, so the rest of the budget is not spent.
The NewtonStats a call returns is the one place that says what a failure
means: whether it diverged, and its message.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import CyclicBandedFactor

MAX_DAMPINGS = 4
REFACTOR_RATE = 0.3
_MACH_EPS = float(np.finfo(float).eps)
_MESSAGES = {"diverged": "Newton iterate diverged", "singular": "singular Jacobian",
             "direction": "Newton direction not finite",
             "stalled": "Newton stalled at residual {residual:.3e} above tol {tol:.3e} "
                        "after {iterations} iterations",
             "budget": "no convergence after {iterations} iterations (residual {residual:.3e})"}


@dataclass(frozen=True)
class NewtonStats:
    """One newton() call: steps taken (discarded ones too), halvings, factors.  failure is None
    (residual <= tol_used), "diverged" (non-finite residual), "singular" (LinAlgError from a
    factor or solve), "direction" (non-finite step), "stalled" (a fresh step found no descent,
    or barely contracted a residual at rounding level) or "budget" (max_iter steps taken)."""

    iterations: int
    dampings: int
    factorizations: int
    tol_used: float
    residual: float
    failure: Optional[str] = None

    @property
    def diverged(self) -> bool:
        """The iterate or the linear algebra broke down, as against stopping short of tol_used."""
        return self.failure in ("diverged", "singular", "direction")

    @property
    def message(self) -> Optional[str]:
        """The failure in words, with the residual, tol_used and iterations; None on success."""
        return None if self.failure is None else _MESSAGES[self.failure].format(
            residual=self.residual, tol=self.tol_used, iterations=self.iterations)


def _sup(r: np.ndarray) -> float:
    sup = float(np.abs(r).max())
    return sup if math.isfinite(sup) else math.inf


def _rounding(factor: CyclicBandedFactor, z: np.ndarray) -> float:
    """eps * ||J||_inf * max(1, sup|z|): about the residual that rounding alone leaves at z."""
    return _MACH_EPS * factor.row_norm * max(1.0, float(np.abs(z).max()))


def newton(
    residual: Callable[[np.ndarray], np.ndarray],
    bands: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    tol: float,
    max_iter: int,
    factor: Optional[CyclicBandedFactor] = None,
    direction: Optional[Callable] = None,
    accept: Optional[Callable[[np.ndarray], None]] = None,
    floor: float = 0.0,
    min_iter: int = 0,
) -> tuple[np.ndarray, NewtonStats, Optional[CyclicBandedFactor]]:
    """Drive sup|residual(z)| to tol in at most max_iter steps: (z, stats, factor to keep).

    bands(z) gives the (5, n) Jacobian bands at z; direction(factor, z, r)
    the step, -factor.solve(r) by default; accept(z) sees each accepted
    iterate and may raise.  With floor > 0 each step raises the tolerance
    in force to max(tol, floor * eps * ||J||_inf * max(1, sup|z|)), the
    residual that rounding alone leaves, from the factored J and the
    iterate the step starts from, once that step is kept.  The start itself
    is held to tol, also after a discarded step, so a slow change below the
    floor is still taken, not frozen at z0.  At least min_iter steps are
    kept before a residual within the tolerance ends the solve, unless the
    residual is exactly zero.  A step with a fresh factor that starts and
    ends above the tolerance in force ends the solve as "stalled" if it
    lowered no residual, or if it started within eps * ||J||_inf *
    max(1, sup|z|) and contracted by no more than REFACTOR_RATE.  With
    floor >= 1 the tolerance in force is at least that rounding level, so
    only the first case can stop a floored solve.  On success the last
    residual call was at the very array returned.
    """
    z = z0.copy()
    r = residual(z)
    res = _sup(r)
    iters = dampings = factorizations = kept = 0
    fresh = False
    tol_used = tol
    failure = None
    while True:
        if not math.isfinite(res):
            failure = "diverged"
        if failure is not None or res <= tol_used and (kept >= min_iter or res == 0.0):
            break
        if iters == max_iter:
            failure = "budget"
            break
        try:
            if factor is None:
                factor, fresh = CyclicBandedFactor(bands(z)), True
                factorizations += 1
            step_tol = max(tol, floor * _rounding(factor, z)) if floor > 0.0 else tol
            dz = direction(factor, z, r) if direction else -factor.solve(r)
        except np.linalg.LinAlgError:
            failure = "singular"
            break
        if not np.isfinite(dz).all():
            failure = "direction"
            break
        iters += 1
        for k in range(MAX_DAMPINGS + 1 if fresh else 1):
            # 1.0 * dz is dz bit for bit, so the whole step skips the multiply.
            z_try = z + dz if k == 0 else z + 0.5**k * dz
            r_try = residual(z_try)
            res_try = _sup(r_try)
            if res_try < res:
                break
        dampings += k
        rate = res_try / res
        # A fresh step that finds no descent, or barely contracts a residual
        # already at rounding level, shows the tolerance out of reach: stop.
        if fresh and min(res, res_try) > step_tol and (
                res_try >= res or rate > REFACTOR_RATE and res <= _rounding(factor, z)):
            failure = "stalled"
            break
        # A reused step within the tolerance is kept if it lowered the
        # residual or reached rounding level; an uphill one is not trusted.
        landed = res_try <= step_tol and (res_try < res or res_try <= _rounding(factor, z))
        if not fresh and not landed:
            if rate > REFACTOR_RATE:
                factor = None  # poor contraction: drop the step, refactor here
                continue
            if res_try * rate ** (max_iter - iters) > step_tol:
                factor = None  # too slow for the budget left: refactor at the new iterate
        tol_used = step_tol  # the floor applies from the first kept step on
        fresh = False
        kept += 1
        z, r, res = z_try, r_try, res_try
        if accept is not None:
            accept(z)
    return z, NewtonStats(iters, dampings, factorizations, tol_used, res, failure), factor
