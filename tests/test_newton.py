"""The shared damped simplified-Newton solver: reuse, refactoring, failures, floor."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rimflow.grid import CyclicBandedFactor, periodic_pad
from rimflow.newton import NewtonStats, newton

EPS = float(np.finfo(float).eps)


def cubic_system(n, seed):
    """F(z) = A z + z^3 - b with a diagonally dominant cyclic pentadiagonal A."""
    rng = np.random.default_rng(seed)
    a_bands = rng.normal(size=(5, n))
    a_bands[2] = 1.0 + np.sum(np.abs(a_bands), axis=0)
    b = rng.normal(size=n)

    def residual(z):
        p = periodic_pad(z, 2)
        return sum(a_bands[k] * p[k:k + n] for k in range(5)) + z**3 - b

    def bands(z):
        out = a_bands.copy()
        out[2] += 3.0 * z**2
        return out

    return residual, bands, a_bands


class Recorder:
    """accept() hook that keeps the residual of every accepted iterate."""

    def __init__(self, residual):
        self.residual = residual
        self.sups = []

    def __call__(self, z):
        self.sups.append(float(np.max(np.abs(self.residual(z)))))


class LastArgument:
    """A residual that keeps the array object of its latest call."""

    def __init__(self, residual):
        self.residual = residual
        self.last = None

    def __call__(self, z):
        self.last = z
        return self.residual(z)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ["fresh", "handed_in_factor", "min_iter", "discarded_reused_step"])
def test_last_residual_call_is_at_the_returned_array(case, seed):
    # evolve's monitors read the flux terms of Newton's last residual
    # evaluation, so on success that evaluation is at the very array
    # newton() returns, whichever way the solve went.  The damped and the
    # exactly-zero starts are checked the same way in their own tests.
    n = 32
    residual, bands, a_bands = cubic_system(n, seed)
    z_star, _, _ = newton(residual, bands, np.zeros(n), 1e-13, 30)
    z0, kwargs = {
        "fresh": (np.zeros(n), {}),
        "handed_in_factor": (z_star + 1e-6, {"factor": CyclicBandedFactor(bands(z_star))}),
        "min_iter": (z_star, {"min_iter": 1}),
        "discarded_reused_step": (np.zeros(n), {"factor": CyclicBandedFactor(-a_bands)}),
    }[case]
    accepted, last = [], LastArgument(residual)
    z, stats, factor = newton(last, bands, z0, 1e-10, 30, accept=accepted.append, **kwargs)
    assert stats.failure is None and z is last.last
    if case == "handed_in_factor":
        assert stats.factorizations == 0 and factor is kwargs["factor"]
    elif case == "min_iter":
        assert stats.iterations == 1
    elif case == "discarded_reused_step":
        # iterations counts discarded steps too; accept sees only kept ones.
        assert stats.iterations > len(accepted)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 64]), seed=st.integers(0, 2**32 - 1))
# Accepting every reused step that merely lowered the residual stalled here
# at 2.01 after 30 steps; damped Newton needs 6.
@example(n=64, seed=3093667)
def test_converges_and_hands_back_a_reusable_factor(n, seed):
    residual, bands, _ = cubic_system(n, seed)
    z, stats, factor = newton(residual, bands, np.zeros(n), 1e-12, 30)
    assert stats.failure is None
    assert stats.residual == float(np.max(np.abs(residual(z)))) <= stats.tol_used == 1e-12
    assert stats.factorizations >= 1 and isinstance(factor, CyclicBandedFactor)
    # From a nearby start a factor of the Jacobian at the solution is
    # enough: it is used, kept and handed back, never refactored.
    kept = CyclicBandedFactor(bands(z))
    z2, stats2, factor2 = newton(residual, bands, z + 1e-6, 1e-12, 30, factor=kept)
    assert stats2.failure is None and stats2.residual <= 1e-12
    assert stats2.factorizations == 0 and stats2.iterations >= 1 and factor2 is kept


@pytest.mark.parametrize("scale", [10.0, -1.0])
def test_poorly_contracting_reused_step_is_redone_with_a_fresh_factor(scale):
    # A factor of 10 A gives a tenth of Newton's step (contraction about
    # 0.9); one of -A points uphill.  Either way the reused step is
    # dropped: the first accepted iterate is the damped Newton step from
    # the start, and each later one contracts or comes from a new factor.
    n = 32
    residual, bands, a_bands = cubic_system(n, 3)
    z0 = np.zeros(n)
    record = Recorder(residual)
    z, stats, factor = newton(residual, bands, z0, 1e-12, 30,
                              factor=CyclicBandedFactor(scale * a_bands), accept=record)
    assert stats.failure is None and stats.residual <= 1e-12
    _, first, _ = newton(residual, bands, z0, 1e-12, 1)
    assert record.sups[0] == first.residual
    assert all(b < a for a, b in zip(record.sups, record.sups[1:]))


def test_slow_contraction_that_would_exhaust_the_budget_refactors():
    # A factor of 1.25 A contracts by about 0.2 a step, better than
    # REFACTOR_RATE, but 8 such steps cannot reach 1e-12: newton()
    # refactors instead of running out of budget.
    n = 32
    residual, bands, a_bands = cubic_system(n, 3)
    stale = CyclicBandedFactor(1.25 * a_bands)
    z, stats, factor = newton(residual, bands, np.zeros(n), 1e-12, 8, factor=stale)
    assert stats.failure is None and stats.residual <= 1e-12
    assert stats.factorizations >= 1 and factor is not stale


def test_overshooting_newton_steps_are_damped():
    # Newton on arctan overshoots from 3 units away (a full step lands
    # further out); halving the step length until the residual falls is
    # what converges, and the halvings are counted.
    n = 16
    c = np.linspace(-1.0, 1.0, n)

    def bands(z):
        out = np.zeros((5, n))
        out[2] = 1.0 / (1.0 + (z - c) ** 2)
        return out

    last = LastArgument(lambda z: np.arctan(z - c))
    z, stats, _ = newton(last, bands, c + 3.0, 1e-12, 30)
    assert stats.failure is None and np.max(np.abs(z - c)) <= 1e-12
    assert stats.dampings >= 1 and z is last.last


def test_budget_and_divergence_failures():
    n = 16
    residual, bands, a_bands = cubic_system(n, 7)
    z, stats, _ = newton(residual, bands, np.zeros(n), 1e-300, 2)
    assert stats.failure == "budget" and stats.iterations == 2
    assert stats.residual > stats.tol_used
    z, stats, _ = newton(lambda z: np.full(n, math.nan), bands, np.zeros(n), 1e-10, 5)
    assert stats.failure == "diverged" and stats.iterations == stats.factorizations == 0
    assert math.isinf(stats.residual)
    z, stats, _ = newton(residual, bands, np.zeros(n), 1e-10, 5,
                         direction=lambda lu, z, r: np.full(n, math.inf))
    assert stats.failure == "direction" and stats.iterations == 0


def test_floor_raises_the_tolerance_to_the_representable_residual():
    # No iterate can meet 1e-300; the floor is what the converged residual
    # is held to, and it is computed from the factored Jacobian.
    n = 64
    residual, bands, _ = cubic_system(n, 11)
    z, stats, factor = newton(residual, bands, np.zeros(n), 1e-300, 30, floor=4.0)
    assert stats.failure is None
    floor = 4.0 * EPS * factor.row_norm * max(1.0, float(np.max(np.abs(z))))
    assert stats.tol_used == pytest.approx(floor, rel=1e-15)
    assert stats.residual <= stats.tol_used
    # Unfloored, the solve stalls at rounding level instead of spending
    # the whole budget there.
    _, unfloored, _ = newton(residual, bands, np.zeros(n), 1e-300, 30)
    assert unfloored.failure == "stalled" and unfloored.iterations < 15
    assert unfloored.residual <= floor


@pytest.mark.parametrize("scale, tol_ulps, failure", [
    (-1.0, 0.5, "stalled"),  # the step points uphill at every length: no descent
    (2.0, 0.5, "stalled"),   # halves a residual at rounding level, still above tol
    (2.0, 1.5, None),        # halves it into the tolerance: converged, not stalled
])
def test_fresh_step_stalls_only_when_it_cannot_reach_the_tolerance(scale, tol_ulps, failure):
    # F(z) = z - c near c = 1e6, factored as scale * I.  The start is two
    # ulps off, within the rounding level eps * ||J|| * sup|z|; a factor of
    # 2 I halves the residual exactly, a contraction of 0.5.
    n = 8
    c = np.full(n, 1e6)
    ulp = float(np.spacing(1e6))
    J = np.zeros((5, n))
    J[2] = scale
    z0 = c + 2.0 * ulp
    assert 2.0 * ulp <= EPS * 2.0 * 1e6
    _, stats, _ = newton(lambda z: z - c, lambda z: J, z0, tol_ulps * ulp, 30)
    assert stats.failure == failure and stats.iterations == stats.factorizations == 1
    assert stats.residual == (2.0 * ulp if failure else ulp)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([8, 16, 64]), seed=st.integers(0, 2**32 - 1),
       floor=st.floats(1.0, 100.0), scale=st.sampled_from([0.0, 1.0, 10.0]))
def test_floored_solve_never_stalls(n, seed, floor, scale):
    # With floor >= 1 the tolerance in force is at least the rounding level,
    # so only a fresh step without descent could stall, and damped Newton
    # on these systems always descends: evolve's floored solves never stall.
    residual, bands, _ = cubic_system(n, seed)
    z0 = scale * np.random.default_rng(seed).normal(size=n)
    _, stats, _ = newton(residual, bands, z0, 1e-300, 30, floor=floor)
    assert stats.failure is None and stats.residual <= stats.tol_used


def test_discarded_reused_step_does_not_accept_a_start_below_only_the_floor():
    # The start meets the floor of a handed-in factor but not tol.  The
    # reused factor (of -J) points uphill, so its step is discarded; the
    # start must still be held to tol and a fresh step taken from it,
    # not returned unchanged as converged.
    n = 32
    residual, bands, _ = cubic_system(n, 5)
    z_star, _, _ = newton(residual, bands, np.zeros(n), 1e-13, 30)
    uphill = CyclicBandedFactor(-bands(z_star))
    z0 = z_star + 1e-11 * np.cos(np.arange(n))
    floor = 1e6
    bound = floor * EPS * uphill.row_norm * max(1.0, float(np.max(np.abs(z0))))
    tol = 1e-14
    assert tol < float(np.max(np.abs(residual(z0)))) <= bound
    z, stats, factor = newton(residual, bands, z0, tol, 30, factor=uphill, floor=floor)
    assert stats.failure is None and stats.factorizations == 1 and factor is not uphill
    assert not np.array_equal(z, z0)
    assert stats.residual <= stats.tol_used


def test_predicted_start_within_tolerance_is_corrected_once():
    # min_iter=1 is how a caller marks z0 as a prediction: even a start
    # that already meets tol gets one correcting step, and no more.
    n = 32
    residual, bands, _ = cubic_system(n, 13)
    z_star, _, _ = newton(residual, bands, np.zeros(n), 1e-13, 30)
    assert float(np.max(np.abs(residual(z_star)))) <= 1e-10
    _, plain, _ = newton(residual, bands, z_star, 1e-10, 30)
    assert plain.iterations == 0
    z, stats, _ = newton(residual, bands, z_star, 1e-10, 30, min_iter=1)
    assert stats.failure is None and stats.iterations == 1
    assert stats.residual <= stats.tol_used


def test_exact_zero_residual_start_is_not_corrected():
    # A start with residual exactly 0 (a constant state, say) returns as is:
    # no factor is made and no contraction rate divides by zero.
    n = 16
    last = LastArgument(lambda z: z**3)
    z, stats, factor = newton(last, lambda z: np.zeros((5, n)), np.zeros(n), 1e-10, 30, min_iter=1)
    assert stats.failure is None and stats.residual == 0.0
    assert stats.iterations == stats.factorizations == 0 and factor is None
    assert np.array_equal(z, np.zeros(n)) and z is last.last


def test_reused_step_landing_within_tolerance_is_kept():
    # A factor of 2 J halves the residual: a contraction of 0.5, poorer than
    # REFACTOR_RATE.  The step still lands within tol, so it is kept with
    # its factor, not discarded and refactored.
    n = 32
    residual, bands, _ = cubic_system(n, 17)
    z_star, _, _ = newton(residual, bands, np.zeros(n), 1e-14, 30)
    half = CyclicBandedFactor(2.0 * bands(z_star))
    z0 = z_star + 1e-9 * np.cos(np.arange(n))
    res0 = float(np.max(np.abs(residual(z0))))
    record = Recorder(residual)
    z, stats, factor = newton(residual, bands, z0, 0.75 * res0, 30, factor=half, accept=record)
    assert stats.failure is None and stats.residual <= 0.75 * res0
    assert stats.residual > 0.3 * res0
    assert stats.factorizations == 0 and factor is half
    assert stats.iterations == len(record.sups) == 1


@pytest.mark.parametrize("failure, diverged, message", [
    (None, False, None),
    ("diverged", True, "Newton iterate diverged"),
    ("singular", True, "singular Jacobian"),
    ("direction", True, "Newton direction not finite"),
    ("stalled", False, "Newton stalled at residual 2.500e-06 above tol 1.000e-08 after 7 iterations"),
    ("budget", False, "no convergence after 7 iterations (residual 2.500e-06)"),
])
def test_stats_say_what_a_failure_means(failure, diverged, message):
    stats = NewtonStats(iterations=7, dampings=2, factorizations=1, tol_used=1e-8,
                        residual=2.5e-6, failure=failure)
    assert stats.diverged is diverged
    assert stats.message == message
