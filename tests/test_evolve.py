"""Flux discretization, implicit stepping, adaptive runs, and conservation."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rimflow.evolve
from rimflow.evolve import (
    NEWTON_FLOOR_SAFETY,
    EvolveConfig,
    EvolveState,
    StepFailure,
    _System,
    _k1_terms,
    _record,
    initial_lift,
    run,
    step,
)
from rimflow.grid import Grid, PeriodicField, gradient_sq, integrate
from rimflow.newton import NewtonStats, newton
from rimflow.model import (
    Forcing,
    Params,
    RegularizationKnobs,
    energy,
    entropy_G,
    mobility,
    mobility_derivative,
)
from oracles import sample, shift


def make_params(grid, a=(1.0, 16.0, 0.0, 0.0), forcing="sine"):
    w = Forcing.sine(grid) if forcing == "sine" else Forcing.constant(grid)
    return Params(a[0], a[1], a[2], a[3], w)


def random_positive(grid, seed, mean=0.5, amp=0.1):
    rng = np.random.default_rng(seed)
    v = np.full(grid.n, mean)
    for k in range(1, 4):
        a, b = rng.normal(size=2) * amp / k
        v += a * np.cos(k * grid.x) + b * np.sin(k * grid.x)
    return PeriodicField(grid, np.abs(v) + 0.05)


def first_step(state, p, cfg):
    """One step on a fresh _System: a run's first step, which starts Newton at state.h."""
    return step(state, cfg, _System(state.h.grid, p, cfg.knobs))


def flux_oracle(h, p, knobs):
    """Scalar reimplementation of the interface flux for cross-checking."""
    g = h.grid
    n, dx = g.n, g.dx
    hv = h.values
    wpm = p.w.wp_mid
    out = np.empty(n)
    for i in range(n):
        hp2, hp1 = hv[(i + 2) % n], hv[(i + 1) % n]
        h0, hm1 = hv[i], hv[(i - 1) % n]
        m = 0.5 * (h0 + hp1)
        t1 = (hp1 - h0) / dx
        t3 = (hp2 - 3.0 * hp1 + 3.0 * h0 - hm1) / dx**3
        az = abs(m)
        if knobs.epsilon > 0.0:
            f = az**4 / (az + knobs.epsilon) + knobs.delta
        else:
            f = az**3 + knobs.delta
        out[i] = f * (p.a0 * t3 + p.a1 * t1 + p.a2 * wpm[i]) + p.a3 * m
    return out


class TestInitialLift:
    def test_lift_amount(self):
        g = Grid(n=16)
        k = RegularizationKnobs(epsilon=1e-8, theta=0.3)
        lifted = initial_lift(g.constant(0.3), k)
        assert_allclose(lifted.values, 0.3 + 1e-8**0.3, rtol=1e-15)

    def test_zero_epsilon_means_no_lift(self):
        g = Grid(n=16)
        k = RegularizationKnobs(epsilon=0.0)
        lifted = initial_lift(g.constant(0.3), k)
        assert_allclose(lifted.values, 0.3, rtol=0, atol=0)

    def test_rejects_negative_data(self):
        g = Grid(n=16)
        with pytest.raises(ValueError):
            initial_lift(g.constant(-0.1), RegularizationKnobs())


class TestFlux:
    def test_constant_state_flux(self):
        # Derivative terms vanish, leaving f(C) a2 w'(x_mid) + a3 C.
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 4.0, 2.5, 0.7))
        knobs = RegularizationKnobs(epsilon=0.0)
        C = 0.5
        F = _System(g, p, knobs).interface_flux(g.constant(C).values)
        expect = C**3 * 2.5 * np.cos(g.x + 0.5 * g.dx) + 0.7 * C
        assert_allclose(F[1:], expect, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (1e-4, 0.0), (0.1, 0.02)])
    def test_matches_scalar_oracle(self, seed, eps, delta):
        g = Grid(n=48)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        knobs = RegularizationKnobs(delta=delta, epsilon=eps)
        h = random_positive(g, seed)
        F = _System(g, p, knobs).interface_flux(h.values)
        assert np.max(np.abs(F[1:] - flux_oracle(h, p, knobs))) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_divergence_telescopes(self, seed):
        # Summing the flux differences around the circle gives exactly zero,
        # which is the structural source of discrete mass conservation.
        g = Grid(n=48)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        knobs = RegularizationKnobs(epsilon=1e-6)
        h = random_positive(g, seed)
        F = _System(g, p, knobs).interface_flux(h.values)
        div = (F[1:] - F[:-1]) / g.dx
        assert abs(np.sum(div)) <= 1e-12 * np.max(np.abs(F))

    def test_grid_off_the_forcing_grid_by_rounding_is_rejected(self):
        # Grids are compared exactly: a length off by 1e-14 is another grid.
        g = Grid(n=32)
        near = Grid(n=32, length=g.length * (1.0 + 1e-14))
        p = make_params(g)
        knobs = RegularizationKnobs()
        with pytest.raises(ValueError, match="state grid and forcing grid differ"):
            _System(near, p, knobs)

    @pytest.mark.parametrize("n,zeros", [(8, False), (10, False), (256, False), (8, True),
                                         (256, True)],
                             ids=["8", "10", "256", "8-zeros", "256-zeros"])
    def test_bit_identical_to_roll_formulas(self, n, zeros):
        # zeros takes the paths that skip a zero drive, a3 term and delta.
        g = Grid(n=n)
        rng = np.random.default_rng(n)
        a2, a3, delta = (0.0, 0.0, 0.0) if zeros else (-2.0, 1.2, 0.02)
        p = Params(0.7, 5.0, a2, a3, Forcing(g, *rng.normal(size=(3, n))))
        knobs = RegularizationKnobs(delta=delta, epsilon=1e-3)
        u = random_positive(g, n).values
        hold = random_positive(g, n + 1).values
        dt, dx = 1e-3, g.dx
        sysm = _System(g, p, knobs)

        # Interface i lies between nodes i and i + 1; jump[i] = u[i+1] - u[i].
        jump = np.roll(u, -1) - u
        c3, c1 = p.a0 / dx**3, p.a1 / dx
        g0 = c3 * (np.roll(jump, -1) + np.roll(jump, 1)) + (c1 - 2.0 * c3) * jump
        g0 = g0 + p.a2 * p.w.wp_mid
        m0 = 0.5 * (u + np.roll(u, -1))
        f0 = mobility(m0, knobs)
        F0 = f0 * g0 + p.a3 * m0
        on = np.arange(-1, n) % n  # interfaces -1..n-1
        m, d, gv = sysm.interface_values(u)
        assert np.array_equal(d, jump[np.arange(-2, n + 1) % n])
        assert np.array_equal(m, m0[on])
        assert np.array_equal(gv, g0[on])
        F = sysm.interface_flux(u)
        assert np.array_equal(F, F0[on])
        # Interface -1 is interface n - 1, bit for bit.
        for v in (m, gv, F):
            assert v[0].tobytes() == v[-1].tobytes()
        assert d[:3].tobytes() == d[-3:].tobytes()
        assert np.array_equal(sysm.residual(u, hold, dt),
                              (dt / dx) * (F0 - np.roll(F0, 1)) + u - hold)

        half_fp_g = 0.5 * mobility_derivative(m0, knobs) * g0
        D = f0 * c3
        A = -D
        B = half_fp_g + f0 * (3.0 * c3 - c1) + 0.5 * p.a3
        C = half_fp_g - f0 * (3.0 * c3 - c1) + 0.5 * p.a3
        s = dt / dx
        bands = np.stack([
            -s * np.roll(A, 1),
            s * (A - np.roll(B, 1)),
            1.0 + s * (B - np.roll(C, 1)),
            s * (C - np.roll(D, 1)),
            s * D,
        ])
        assert np.array_equal(sysm.jacobian(u, dt), bands)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_jump_form_rounding_against_long_double(self, n):
        # The jumps cancel terms of size dx u' only.  The node form
        # (u[i+2] - 3 u[i+1] + 3 u[i] - u[i-1]) / dx^3 cancels terms of size u
        # down to dx^3 u_xxx: on these (coarsen) data it is off by 2.7e-11 at
        # n = 256 and by 1.7e-9 at n = 1024, relative to sup|g|.
        g = Grid(n=n)
        p = make_params(g)
        u = 0.3 + 0.02 * np.cos(g.x) + 0.02 * np.cos(2.0 * g.x) + 0.004
        _, _, gv = _System(g, p, RegularizationKnobs()).interface_values(u)
        ul, dxl = u.astype(np.longdouble), np.longdouble(g.dx)
        up1, up2, um1 = np.roll(ul, -1), np.roll(ul, -2), np.roll(ul, 1)
        want = p.a0 * (up2 - 3 * up1 + 3 * ul - um1) / dxl**3 + p.a1 * (up1 - ul) / dxl
        assert np.finfo(np.longdouble).eps < 1e-18
        err = float(np.max(np.abs(gv[1:] - want)))
        assert err <= 1e-11 * float(np.max(np.abs(want)))

class TestJacobian:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (1e-3, 0.0), (0.1, 0.05)])
    def test_matches_finite_differences(self, eps, delta, dense_from_bands):
        g = Grid(n=32)
        p = make_params(g, a=(0.7, 5.0, -2.0, 1.2))
        knobs = RegularizationKnobs(delta=delta, epsilon=eps)
        u = random_positive(g, 11).values
        dt = 1e-3
        sysm = _System(g, p, knobs)
        J = dense_from_bands(sysm.jacobian(u, dt))
        hold = u.copy()
        fd = np.empty_like(J)
        eta = 1e-7
        for j in range(g.n):
            e = np.zeros(g.n)
            e[j] = eta
            rp = sysm.residual(u + e, hold, dt)
            rm = sysm.residual(u - e, hold, dt)
            fd[:, j] = (rp - rm) / (2 * eta)
        scale = np.max(np.abs(J))
        assert np.max(np.abs(J - fd)) <= 1e-5 * scale

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 24]),
        a=st.tuples(st.floats(0.1, 3.0), st.floats(-20.0, 20.0), st.floats(-10.0, 10.0),
                    st.floats(-5.0, 5.0)),
        eps=st.sampled_from([0.0, 1e-3, 0.1]),
        delta=st.sampled_from([0.0, 0.05]),
        dt=st.floats(1e-4, 1e-1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bands_match_finite_differences_on_random_data(self, n, a, eps, delta, dt, seed,
                                                           dense_from_bands):
        # A reused factor hides a wrong Jacobian as slow convergence, so the
        # bands are checked against the residual directly.
        g = Grid(n=n)
        p = make_params(g, a=a)
        sysm = _System(g, p, RegularizationKnobs(delta=delta, epsilon=eps))
        u = random_positive(g, seed, mean=0.5, amp=0.2).values
        hold = random_positive(g, seed + 1).values
        J = dense_from_bands(sysm.jacobian(u, dt))
        eta = 1e-6
        fd = np.column_stack([
            (sysm.residual(u + eta * e, hold, dt) - sysm.residual(u - eta * e, hold, dt)) / (2 * eta)
            for e in np.eye(n)
        ])
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))

    def test_column_sums_vanish_off_identity(self, dense_from_bands):
        # The divergence part of the Jacobian has zero column sums, so the
        # full matrix's column sums are exactly one.
        g = Grid(n=32)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        sysm = _System(g, p, RegularizationKnobs(epsilon=1e-6))
        J = dense_from_bands(sysm.jacobian(random_positive(g, 5).values, 0.01))
        assert_allclose(J.sum(axis=0), 1.0, atol=1e-13)

    def test_singular_jacobian_reports_diverged(self):
        # A zero column makes the banded factorization hit an exact zero
        # pivot; Newton then stops at the factor step with a singular
        # failure, which step() reports as a diverged iterate.
        g = Grid(n=32)
        p = make_params(g)
        sysm = _System(g, p, RegularizationKnobs(epsilon=1e-6))
        jacobian = sysm.jacobian

        def singular(u, dt):
            bands = jacobian(u, dt)
            j = 7
            bands[np.arange(5), (j + 2 - np.arange(5)) % g.n] = 0.0
            return bands

        sysm.jacobian = singular
        hold = random_positive(g, 3).values
        u, stats, factor = newton(lambda u: sysm.residual(u, hold, 0.01),
                                  lambda u: sysm.jacobian(u, 0.01), hold, 1e-10, 12)
        assert stats.failure == "singular"
        assert stats.iterations == stats.factorizations == 0
        assert factor is None
        assert np.array_equal(u, hold)
        cfg = EvolveConfig(t_end=1.0, dt_init=0.01, dt_min=1e-3, dt_max=0.01)
        with pytest.raises(StepFailure) as exc:
            step(EvolveState(0.0, PeriodicField(g, hold), 0.01), cfg, sysm)
        assert exc.value.diverged

    @pytest.mark.parametrize("failure", ["budget", "stalled"])
    def test_unconverged_finite_iterate_is_not_reported_diverged(self, failure, monkeypatch):
        # Newton that ran out of budget or stalled left a finite iterate:
        # the step underflows dt_min, but not as a diverged iterate.
        def unconverged(residual, bands, z0, tol, *args, **kwargs):
            return z0, NewtonStats(3, 0, 1, tol, 1.0, failure), None

        monkeypatch.setattr(rimflow.evolve, "newton", unconverged)
        g = Grid(n=32)
        cfg = EvolveConfig(t_end=1.0, dt_init=0.01, dt_min=1e-3, dt_max=0.01)
        with pytest.raises(StepFailure) as exc:
            first_step(EvolveState(0.0, random_positive(g, 3), 0.01), make_params(g), cfg)
        assert not exc.value.diverged and "diverged" not in str(exc.value)


class TestStep:
    def test_constant_state_is_a_fixed_point(self):
        # With a2 = 0 a constant is an exact solution; the accepted state is
        # bit-identical and Newton does not iterate.
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 1.0, 0.0, 5.0))
        cfg = EvolveConfig(t_end=1.0, dt_init=0.1, dt_max=0.5,
                           knobs=RegularizationKnobs(epsilon=0.0))
        state = EvolveState(t=0.0, h=g.constant(0.3), dt=0.1)
        out = first_step(state, p, cfg)
        assert out.newton_iters_last == 0
        assert np.array_equal(out.h.values, state.h.values)

    @pytest.mark.parametrize("seed", range(3))
    def test_mass_conserved_per_step(self, seed):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        cfg = EvolveConfig(t_end=1.0, dt_init=1e-3,
                           knobs=RegularizationKnobs(epsilon=1e-6))
        h = random_positive(g, seed)
        state = EvolveState(t=0.0, h=h, dt=1e-3)
        out = first_step(state, p, cfg)
        assert integrate(out.h.values, g.dx) == pytest.approx(integrate(h.values, g.dx), rel=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        a=st.tuples(st.floats(0.1, 3.0), st.floats(-20.0, 20.0), st.floats(-10.0, 10.0),
                    st.floats(-5.0, 5.0)),
        forcing=st.sampled_from(["sine", "constant"]),
        dt=st.floats(1e-4, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mass_conserved_per_step_on_random_data(self, n, a, forcing, dt, seed):
        g = Grid(n=n)
        p = make_params(g, a=a, forcing=forcing)
        cfg = EvolveConfig(t_end=1.0, dt_init=dt, dt_max=dt,
                           knobs=RegularizationKnobs(epsilon=1e-6))
        h = random_positive(g, seed)
        # The flux differences telescope: their sum is zero up to the rounding
        # of n differences and their summation.
        F = _System(g, p, cfg.knobs).interface_flux(h.values)
        div = (F[1:] - F[:-1]) / g.dx
        assert abs(np.sum(div)) <= 2 * n * np.finfo(float).eps * np.sum(np.abs(div))
        # The second step on one _System starts from the extrapolated first.
        sysm = _System(g, p, cfg.knobs)
        out = step(EvolveState(t=0.0, h=h, dt=dt), cfg, sysm)
        assert integrate(out.h.values, g.dx) == pytest.approx(integrate(h.values, g.dx), rel=1e-14)
        assert sysm.last_step is not None
        out = step(out, cfg, sysm)
        assert integrate(out.h.values, g.dx) == pytest.approx(integrate(h.values, g.dx), rel=1e-14)

    def test_newton_starts_from_the_extrapolated_last_step(self, monkeypatch):
        # On a fresh _System's first step Newton starts from h_n; after an
        # accepted step it starts from h_n + (dt/dt_prev)(h_n - h_{n-1})
        # and corrects that prediction at least once.
        g = Grid(n=64)
        p = make_params(g)
        cfg = EvolveConfig(t_end=1.0, dt_init=1e-3, knobs=RegularizationKnobs(epsilon=1e-6))
        starts = []

        def recording_newton(residual, bands, z0, *args, **kwargs):
            starts.append((z0, kwargs["min_iter"]))
            return newton(residual, bands, z0, *args, **kwargs)

        monkeypatch.setattr(rimflow.evolve, "newton", recording_newton)
        state = EvolveState(t=0.0, h=random_positive(g, 4, mean=0.3, amp=0.05), dt=1e-3)
        first = first_step(state, p, cfg)
        first_step(first, p, cfg)
        sysm = _System(g, p, cfg.knobs)
        second = step(step(state, cfg, sysm), cfg, sysm)
        (z_a, m_a), (z_b, m_b), (z_c, m_c), (z_d, m_d) = starts
        assert np.array_equal(z_a, state.h.values) and np.array_equal(z_b, first.h.values)
        assert np.array_equal(z_c, state.h.values) and m_a == m_b == m_c == 0
        ratio = 1.2e-3 / 1e-3
        assert_allclose(z_d, first.h.values + ratio * (first.h.values - state.h.values),
                        rtol=1e-15, atol=0.0)
        assert m_d == 1 and second.newton.iterations >= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_translation_equivariance(self, seed):
        # Shifting the state and the forcing together commutes with stepping
        # (up to linear-solver rounding).
        g = Grid(n=64)
        cells = 9
        h = random_positive(g, seed)
        w = Forcing.constant(g)
        p = Params(1.0, 16.0, 0.0, 2.0, w)
        cfg = EvolveConfig(t_end=1.0, dt_init=1e-3,
                           knobs=RegularizationKnobs(epsilon=1e-6))
        a = first_step(EvolveState(0.0, shift(h, cells), 1e-3), p, cfg)
        b = first_step(EvolveState(0.0, h, 1e-3), p, cfg)
        assert np.max(np.abs(a.h.values - shift(b.h, cells).values)) <= 1e-12

    def test_energy_decays_without_drift_terms(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=1.0, dt_init=1e-3,
                           knobs=RegularizationKnobs(epsilon=0.0))
        h = random_positive(g, 2, mean=0.3, amp=0.02)
        state = EvolveState(t=0.0, h=h, dt=1e-3)
        out = first_step(state, p, cfg)
        assert energy(out.h.values, p) <= energy(h.values, p) + 1e-10

    def test_grown_trial_size_capped(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 1.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=1.0, dt_init=0.2, dt_max=0.21,
                           knobs=RegularizationKnobs(epsilon=0.0))
        out = first_step(EvolveState(0.0, g.constant(0.3), 0.2), p, cfg)
        assert out.dt == pytest.approx(0.21)


class TestSolve:
    def test_factor_is_kept_while_dt_holds(self):
        g = Grid(n=64)
        sysm = _System(g, make_params(g), RegularizationKnobs(epsilon=1e-6))
        hold = random_positive(g, 4, mean=0.3, amp=0.05).values
        u, first = sysm.solve(hold, 1e-3, hold, 1e-10, 12)
        assert first.failure is None and first.factorizations >= 1
        assert first.residual <= 1e-10
        # Started at its solution, which is not hold: the solve still takes
        # a step, with the factor kept from the first solve at this dt.
        again, second = sysm.solve(hold, 1e-3, u, 1e-10, 12)
        assert second.failure is None
        assert second.iterations >= 1 and second.factorizations == 0
        m, d, gv = sysm.interface_values(again)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(sysm.last_flux, (d, gv, mobility(m, sysm.knobs))))
        _, third = sysm.solve(hold, 2e-3, hold, 1e-10, 12)
        assert third.failure is None and third.factorizations >= 1


class TestRun:
    def test_snapshot_times_are_hit(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=1.0, dt_init=1e-3, dt_max=0.07,
                           snapshot_times=[0.3, 0.7],
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(random_positive(g, 1, mean=0.3, amp=0.02), p, cfg)
        times = [s.t for s in traj.snapshots]
        assert times[0] == 0.0
        assert times[1] == pytest.approx(0.3, abs=1e-12)
        assert times[2] == pytest.approx(0.7, abs=1e-12)
        assert times[3] == pytest.approx(1.0, abs=1e-12)
        assert traj.termination == "t_end"

    def test_requested_times_beyond_horizon_dropped(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-2, snapshot_times=[0.25, 2.0],
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(random_positive(g, 7, mean=0.3, amp=0.02), p, cfg)
        assert [s.t for s in traj.snapshots] == pytest.approx([0.0, 0.25, 0.5], abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_invalid_snapshot_times_are_rejected(self, bad):
        with pytest.raises(ValueError, match="snapshot times must be finite and nonnegative"):
            EvolveConfig(t_end=0.01, snapshot_times=[0.005, bad])
        EvolveConfig(t_end=0.01, snapshot_times=[0.0, 0.005, 5.0])

    @pytest.mark.parametrize("asked,want", [
        ([0.1, math.nextafter(0.1, 1.0)], [0.0, 0.1, 0.2]),
        ([math.nextafter(0.2, 0.0)], [0.0, 0.2]),
        ([1e-15, 0.1], [0.0, 0.1, 0.2]),
    ])
    def test_near_duplicate_times_give_one_snapshot(self, asked, want):
        # Times no step fits between are one snapshot, and t_end is always kept.
        g = Grid(n=32)
        cfg = EvolveConfig(t_end=0.2, dt_init=1e-3, dt_max=0.01, snapshot_times=asked,
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(random_positive(g, 5, mean=0.3, amp=0.02), make_params(g), cfg)
        times = [s.t for s in traj.snapshots]
        assert times == pytest.approx(want, abs=1e-12)
        assert times[-1] == pytest.approx(0.2, abs=1e-15)

    def test_close_but_separate_times_give_two_snapshots(self):
        g = Grid(n=32)
        cfg = EvolveConfig(t_end=0.2, dt_init=1e-3, dt_max=0.01, snapshot_times=[0.1, 0.1 + 1e-13],
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(random_positive(g, 5, mean=0.3, amp=0.02), make_params(g), cfg)
        times = [s.t for s in traj.snapshots]
        assert len(times) == 4 and times[1] < times[2]
        assert times[1:3] == pytest.approx([0.1, 0.1 + 1e-13], abs=1e-15)

    def test_mass_conservation_along_run(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        cfg = EvolveConfig(t_end=2.0, dt_init=1e-4, dt_max=0.05,
                           snapshot_times=[0.5, 1.0, 2.0],
                           knobs=RegularizationKnobs(epsilon=1e-6))
        traj = run(g.constant(0.3), p, cfg)
        m0 = traj.records[0].mass
        for r in traj.records:
            assert abs(r.mass - m0) <= 1e-12 * abs(m0)

    def test_lift_applied_to_initial_record(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 1.0, 0.0, 0.0))
        knobs = RegularizationKnobs(epsilon=1e-8, theta=0.3)
        cfg = EvolveConfig(t_end=0.1, dt_init=1e-3, knobs=knobs)
        traj = run(g.constant(0.3), p, cfg)
        assert traj.records[0].mass == pytest.approx((0.3 + 1e-8**0.3) * g.length, rel=1e-14)

    def test_steady_termination(self):
        # Linearly stable coefficients relax a small perturbation to rest
        # well before the time horizon.
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 0.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=2000.0, dt_init=1e-3, dt_max=0.5,
                           knobs=RegularizationKnobs(epsilon=0.0))
        h0 = PeriodicField(g, 0.3 + 0.01 * np.cos(g.x))
        traj = run(h0, p, cfg)
        assert traj.termination == "steady"
        assert traj.snapshots[-1].t < 2000.0
        assert np.max(np.abs(traj.snapshots[-1].field.values - np.mean(h0.values))) < 1e-5

    def test_step_log_and_accessors(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-3, dt_max=0.05,
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(random_positive(g, 3, mean=0.3, amp=0.02), p, cfg)
        assert traj.step_count > 0
        assert len(traj.fields) == len(traj.records) == len(traj.snapshots)
        assert traj.newton_tol_effective >= cfg.newton_tol
        assert traj.snapshots[-1].t == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t_end", [1e-3, 0.05])
    def test_energy_rise_max_is_the_worst_consecutive_rise(self, monkeypatch, t_end):
        # The same pairs as a max over E(h_0) and every accepted step's
        # energy: a decreasing energy gives a negative worst rise, also
        # after one step.
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=t_end, dt_init=1e-3, dt_max=1e-2,
                           knobs=RegularizationKnobs(epsilon=0.0))
        accepted = []
        original = rimflow.evolve.step

        def recording_step(state, cfg, sysm):
            new = original(state, cfg, sysm)
            accepted.append(energy(new.h.values, p))
            return new

        monkeypatch.setattr(rimflow.evolve, "step", recording_step)
        h0 = random_positive(g, 3, mean=0.3, amp=0.02)
        traj = run(h0, p, cfg)
        energies = [energy(h0.values, p), *accepted]
        worst = max(b - a for a, b in zip(energies, energies[1:]))
        assert traj.step_count == len(accepted)
        assert traj.energy_rise_max == worst < 0.0

    def test_effective_tolerance_is_the_floor_in_force(self, monkeypatch):
        # On the drift data the representable-residual floor, not the
        # configured 1e-10, decides convergence.  A one-step solve takes its
        # floor from the kept factor and the start iterate z0; the
        # reported tolerance is the largest tol_used of the accepted steps.
        g = Grid(n=256)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        cfg = EvolveConfig(t_end=20.0, dt_max=0.05, knobs=RegularizationKnobs(epsilon=1e-4))
        floors, accepted = [], []

        def recording_newton(residual, bands, z0, tol, *args, **kwargs):
            u, stats, factor = newton(residual, bands, z0, tol, *args, **kwargs)
            if stats.failure is None and stats.iterations == 1 and factor is not None:
                floors.append(NEWTON_FLOOR_SAFETY * np.finfo(float).eps * factor.row_norm
                              * max(1.0, float(np.max(np.abs(z0)))))
                assert stats.tol_used == max(tol, floors[-1])
            return u, stats, factor

        def recording_step(*args, **kwargs):
            state = step(*args, **kwargs)
            accepted.append(state.newton.tol_used)
            return state

        monkeypatch.setattr(rimflow.evolve, "newton", recording_newton)
        monkeypatch.setattr(rimflow.evolve, "step", recording_step)
        traj = run(g.constant(0.3), p, cfg)
        assert traj.newton_tol_effective == max(accepted) >= max(floors)
        sup_h = max(float(np.max(s.field.values)) for s in traj.snapshots)
        assert max(floors) > 100.0 * cfg.newton_tol * sup_h

    def test_four_droplet_newton_iterations_per_step(self, monkeypatch):
        # Starting each solve from the extrapolated last step takes 1321
        # Newton iterations for these 455 steps; starting from h_n took
        # 2101 (4.62 a step).  Iterations are counted, not timed.
        g = Grid(n=256)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=20.0, dt_init=1e-6, dt_max=0.05)
        iterations = []

        def counting_newton(*args, **kwargs):
            u, stats, factor = newton(*args, **kwargs)
            iterations.append(stats.iterations)
            return u, stats, factor

        monkeypatch.setattr(rimflow.evolve, "newton", counting_newton)
        traj = run(PeriodicField(g, 0.3 + 0.02 * np.cos(g.x) + 0.02 * np.cos(2.0 * g.x)), p, cfg)
        assert traj.termination == "t_end"
        assert sum(iterations) <= 3.5 * traj.step_count

    def _counted_run(self, monkeypatch):
        """A short drift run, with its interface_values, residual and jacobian calls counted."""
        calls = dict.fromkeys(("interface_values", "residual", "jacobian"), 0)
        for name in calls:
            original = getattr(_System, name)

            def counting(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(_System, name, counting)
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-3, dt_max=0.05, snapshot_times=[0.1, 0.25],
                           knobs=RegularizationKnobs(epsilon=1e-4))
        return run(random_positive(g, 5, mean=0.3, amp=0.02), p, cfg), calls

    def test_monitors_read_newtons_last_flux_evaluation(self, monkeypatch):
        # The accounting evaluates no interface values of its own, nor does
        # the initial K1: only the residuals and the Jacobians do.
        traj, calls = self._counted_run(monkeypatch)
        assert traj.step_count > 10
        assert calls["interface_values"] == calls["residual"] + calls["jacobian"]

    def test_step_leaves_the_flux_terms_of_the_accepted_state(self, monkeypatch):
        # The accounting reads sysm.last_flux after each step: it must hold
        # the terms at the accepted state, as a fresh evaluation gives them.
        checked = []

        def checking_step(state, cfg, sysm):
            new = step(state, cfg, sysm)
            m, d, gv = sysm.interface_values(new.h.values)
            fresh = (d, gv, mobility(m, sysm.knobs))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(sysm.last_flux, fresh))
            checked.append(new.t)
            return new

        monkeypatch.setattr(rimflow.evolve, "step", checking_step)
        traj, _ = self._counted_run(monkeypatch)
        assert len(checked) == traj.step_count > 10

    def test_dissipation_accumulates(self):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-3, dt_max=0.05,
                           snapshot_times=[0.25, 0.5],
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(random_positive(g, 4, mean=0.3, amp=0.02), p, cfg)
        diss = [r.dissipation_cum for r in traj.records]
        assert diss[0] == 0.0
        assert all(b >= a for a, b in zip(diss, diss[1:]))
        assert traj.supcube_time_integral > 0.0
        # K1 feeds only bounds.k_constant, which reads it only when a2 a3 sup|w'| != 0.
        assert p.k_coefficient == 0.0 and math.isnan(traj.k1_observed)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        assert p.k_coefficient > 0.0
        assert math.isfinite(run(random_positive(g, 4, mean=0.3, amp=0.02), p, cfg).k1_observed)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        a0=st.floats(0.1, 3.0),
        a1=st.floats(-5.0, 20.0),
        epsilon=st.sampled_from([0.0, 1e-8, 1e-2]),
        forcing=st.one_of(st.tuples(st.just("constant"), st.floats(-5.0, 5.0)),
                          st.tuples(st.just("sine"), st.just(0.0))),
        seed=st.integers(0, 2**16),
    )
    def test_energy_ledger_closes(self, n, a0, a1, epsilon, forcing, seed):
        # Backward Euler's discrete energy identity: with a3 = 0 and a2 w = 0,
        # E_h(T) + D(T) + R(T) = E_h(0) up to the Newton residuals, R being
        # the sum over steps of 1/2 (a0 gradient_sq(du) - a1 integral of du^2).
        g = Grid(n=n)
        kind, a2 = forcing
        p = make_params(g, a=(a0, a1, a2, 0.0), forcing=kind)
        cfg = EvolveConfig(t_end=0.05, dt_max=1e-2, snapshot_times=[0.01, 0.02, 0.03, 0.04],
                           knobs=RegularizationKnobs(epsilon=epsilon))
        try:
            traj = run(random_positive(g, seed, mean=0.5, amp=0.1), p, cfg)
        except StepFailure as exc:  # a run that fails keeps its records, and they close too
            traj = exc.trajectory
        e0 = traj.records[0].energy
        for rec in traj.records[1:]:
            gap = rec.energy + rec.dissipation_cum + rec.remainder_cum - e0
            scale = abs(e0) + abs(rec.energy) + rec.dissipation_cum + abs(rec.remainder_cum)
            assert abs(gap) <= 1e-9 * max(1.0, scale)


class TestRecord:
    def test_norms_of_shifted_cos(self):
        # h = c + cos x: l2^2 = 2 pi c^2 + pi, and the compact gradient adds
        # pi (2 sin(dx/2)/dx)^2 = pi up to O(dx^2).
        g = Grid(n=256)
        c = 2.0
        rec = _record(sample(g, lambda x: c + np.cos(x)), 0.0, make_params(g),
                      EvolveConfig(t_end=1.0), 0.0, 0.0)
        assert rec.l2 == pytest.approx(math.sqrt(2.0 * math.pi * c**2 + math.pi), abs=1e-10)
        assert rec.h1 == pytest.approx(math.sqrt(2.0 * math.pi * (c**2 + 1.0)), abs=g.dx**2)
        assert rec.min_h == pytest.approx(c - 1.0, abs=1e-12)

    def test_entropy_of_constant_field(self):
        # Both entropies of h = c are L G(c), G(z) = 1/(2z) + eps/(6 z^2).
        g = Grid(n=32)
        cfg = EvolveConfig(t_end=1.0, knobs=RegularizationKnobs(epsilon=0.2))
        rec = _record(g.constant(0.5), 0.0, make_params(g), cfg, 0.0, 0.0)
        assert rec.entropy_eps == pytest.approx(g.length * (0.5 / 0.5 + 0.2 / (6 * 0.25)),
                                                rel=1e-14)
        assert rec.entropy0 == pytest.approx(g.length * (0.5 / 0.5), rel=1e-14)

    def test_entropies_blow_up_at_touchdown(self):
        g = Grid(n=32)
        cfg = EvolveConfig(t_end=1.0, knobs=RegularizationKnobs(epsilon=0.1))
        rec = _record(PeriodicField(g, np.maximum(np.sin(g.x), 0.0)), 0.0, make_params(g), cfg, 0.0, 0.0)
        assert rec.entropy0 == rec.entropy_eps == math.inf

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        mean=st.floats(0.05, 2.0),
        epsilon=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 0.5]),
    )
    def test_initial_record_matches_numpy_sums(self, n, coeffs, mean, epsilon):
        g = Grid(n=n)
        x, dx = g.x, g.dx
        # Amplitudes scaled to 90% of the mean keep the data positive.
        amps = 0.9 * mean * np.asarray(coeffs) / max(1.0, float(np.sum(np.abs(coeffs))))
        h0 = PeriodicField(g, mean + amps[0] * np.cos(x) + amps[1] * np.sin(x)
                     + amps[2] * np.cos(2 * x) + amps[3] * np.sin(3 * x))
        knobs = RegularizationKnobs(epsilon=epsilon)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        traj = run(h0, p, EvolveConfig(t_end=1e-6, dt_init=1e-6, dt_max=1e-6, knobs=knobs))
        rec = traj.records[0]
        v = h0.values + (epsilon**knobs.theta if epsilon > 0.0 else 0.0)
        grad = np.array([(v[(i + 1) % n] - v[i]) / dx for i in range(n)])
        assert rec.t == 0.0
        assert rec.mass == pytest.approx(dx * np.sum(v), rel=1e-13)
        assert rec.l2 == pytest.approx(math.sqrt(dx * np.sum(v**2)), rel=1e-13)
        assert rec.gradient_sq == pytest.approx(dx * np.sum(grad**2), rel=1e-12, abs=1e-14)
        assert rec.h1**2 == pytest.approx(rec.l2**2 + rec.gradient_sq, rel=1e-13)
        assert rec.min_h == np.min(v)
        assert rec.energy == energy(v, p)
        assert rec.entropy0 == dx * np.sum(entropy_G(v, 0.0))
        assert rec.entropy_eps == dx * np.sum(entropy_G(v, epsilon))
        assert rec.dissipation_cum == 0.0
        assert rec.remainder_cum == 0.0


class TestFailure:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolveConfig(t_end=0.0)
        with pytest.raises(ValueError):
            EvolveConfig(t_end=1.0, dt_init=1e-3, dt_min=1e-2)
        with pytest.raises(ValueError):
            EvolveConfig(t_end=1.0, newton_tol=0.0)
        with pytest.raises(ValueError):
            EvolveConfig(t_end=1.0, newton_max_iter=0)

    def test_step_failure_carries_partial_trajectory(self):
        # A floor on dt that equals an unworkably large trial size leaves the
        # stepper no room to retreat, so the run must fail loudly and hand
        # back everything accepted so far.
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 400.0, 0.0, 0.0))
        cfg = EvolveConfig(
            t_end=10.0,
            dt_init=1.0,
            dt_min=1.0,
            dt_max=1.0,
            newton_max_iter=2,
            knobs=RegularizationKnobs(epsilon=0.0),
        )
        h0 = PeriodicField(Grid(n=64), 0.3 + 0.05 * np.cos(g.x))
        with pytest.raises(StepFailure) as exc_info:
            run(h0, p, cfg)
        exc = exc_info.value
        assert exc.trajectory is not None
        assert exc.trajectory.termination == "failed"
        assert exc.trajectory.snapshots[-1].t == 0.0
        assert exc.dt < cfg.dt_min

    def test_underflow_names_a_positivity_undershoot(self):
        # Near touchdown the last attempt's Newton converges, but its minimum
        # undershoots -10x tol_used: that, not Newton, ends the run.
        g = Grid(n=64)
        h0 = PeriodicField(g, np.maximum(0.3 + 0.299 * np.cos(g.x), 0.0) + 1e-6)
        cfg = EvolveConfig(t_end=5.0, dt_init=1e-3, dt_min=1e-6, dt_max=0.05,
                           knobs=RegularizationKnobs(epsilon=0.0))
        with pytest.raises(StepFailure) as exc_info:
            run(h0, make_params(g), cfg)
        exc = exc_info.value
        found = re.fullmatch(r"step size underflow below dt_min=1e-06 at t=\S+: "
                             r"min u (\S+) below the undershoot bound (\S+)", str(exc))
        assert found is not None, str(exc)
        u_min, bound = map(float, found.groups())
        assert u_min < bound < 0.0
        assert exc.residual_sup <= -bound / 10.0 and not exc.diverged
        assert "Newton" not in str(exc) and exc.trajectory.step_count > 0

    def test_underflow_names_the_newton_failure(self, monkeypatch):
        stats = NewtonStats(4, 0, 1, 1e-10, 1.0, "budget")
        monkeypatch.setattr(rimflow.evolve, "newton", lambda residual, bands, z0, *a, **k: (z0, stats, None))
        g = Grid(n=32)
        cfg = EvolveConfig(t_end=1.0, dt_init=0.01, dt_min=1e-3, dt_max=0.01)
        with pytest.raises(StepFailure) as exc:
            first_step(EvolveState(0.0, random_positive(g, 3), 0.01), make_params(g), cfg)
        assert str(exc.value).endswith(f"at t=0.0: {stats.message}")


def monitor_hexes(traj) -> list:
    """Every monitor and record of traj, each float as float.hex, which tells every bit apart."""
    def bits(v):
        return v.hex() if isinstance(v, float) else v

    names = ("termination", "step_count", "energy_rise_max", "newton_tol_effective",
             "k1_observed", "supcube_time_integral")
    return ([bits(getattr(traj, name)) for name in names]
            + [tuple(bits(v) for v in dataclasses.astuple(r)) for r in traj.records]
            + [s.field.values.tobytes() for s in traj.snapshots])


class TestMonitorBlocks:
    """run evaluates the monitors a block of accepted steps at a time; no output depends on the block."""

    ROWS = 5  # the middle block size, at n = 64

    def run_each_block(self, monkeypatch, go):
        # One step a block (the per-step evaluation), five, and every step
        # between two flushes.
        out = []
        for values in (1, self.ROWS * 64, 10**9):
            monkeypatch.setattr(rimflow.evolve, "MONITOR_BLOCK_VALUES", values)
            out.append(go())
        return out

    def test_step_count_off_the_block(self, monkeypatch):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, -8.0, 3.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-3, dt_max=0.05, snapshot_times=[0.1, 0.25],
                           knobs=RegularizationKnobs(epsilon=1e-4))
        trajs = self.run_each_block(monkeypatch, lambda: run(random_positive(g, 5, mean=0.3, amp=0.02),
                                                             p, cfg))
        assert trajs[0].termination == "t_end"
        assert trajs[0].step_count % self.ROWS != 0
        assert monitor_hexes(trajs[1]) == monitor_hexes(trajs[2]) == monitor_hexes(trajs[0])

    def test_steady_exit_mid_block(self, monkeypatch):
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 0.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=2000.0, dt_init=1e-3, dt_max=0.5,
                           knobs=RegularizationKnobs(epsilon=0.0))
        trajs = self.run_each_block(monkeypatch, lambda: run(PeriodicField(g, 1.0 + 0.01 * np.cos(g.x)), p, cfg))
        assert trajs[0].termination == "steady"
        assert trajs[0].step_count % self.ROWS != 0
        assert monitor_hexes(trajs[1]) == monitor_hexes(trajs[2]) == monitor_hexes(trajs[0])

    def test_step_failure_mid_block(self, monkeypatch):
        # The 23rd step fails: the partial trajectory still holds every one
        # of the 22 accepted steps in its monitors.
        g = Grid(n=64)
        p = make_params(g, a=(1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-3, dt_max=0.05, snapshot_times=[0.01],
                           knobs=RegularizationKnobs(epsilon=0.0))

        def failing_run():
            calls = []

            def failing_step(state, cfg, sysm):
                calls.append(state.t)
                if len(calls) == 23:
                    raise StepFailure("injected", residual_sup=1.0, t=state.t, dt=state.dt, diverged=False)
                return step(state, cfg, sysm)

            monkeypatch.setattr(rimflow.evolve, "step", failing_step)
            with pytest.raises(StepFailure) as exc:
                run(random_positive(g, 3, mean=0.3, amp=0.02), p, cfg)
            return exc.value.trajectory

        trajs = self.run_each_block(monkeypatch, failing_run)
        assert trajs[0].termination == "failed"
        assert [t.step_count for t in trajs] == [22, 22, 22]
        assert len(trajs[0].snapshots) == 2
        assert monitor_hexes(trajs[1]) == monitor_hexes(trajs[2]) == monitor_hexes(trajs[0])

    def test_k1_terms_match_rowwise_calls_bitwise(self):
        # A non-positive row reads inf and never reaches entropy_G, which
        # would raise; every other row has the bits of the 1-D calls.
        g = Grid(n=256)
        rows = np.stack([random_positive(g, s).values for s in range(7)])
        rows[3, 10] = 0.0
        positive, grad, ent = _k1_terms(rows, g.dx, 1e-4)
        mass = integrate(rows, g.dx)
        assert positive == [k != 3 for k in range(7)]
        assert ent[3] == math.inf
        for k in range(7):
            assert grad[k].hex() == gradient_sq(rows[k], g.dx).hex()
            assert mass[k].hex() == integrate(rows[k], g.dx).hex()
        for k in (0, 1, 2, 4, 5, 6):
            assert ent[k].hex() == float(g.dx * entropy_G(rows[k], 1e-4).sum()).hex()
