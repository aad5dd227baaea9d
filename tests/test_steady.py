"""Steady profiles: cubic branch, capillary Newton solves, continuation."""
import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rimflow.newton
import rimflow.steady
from rimflow.grid import CyclicBandedFactor, Grid, PeriodicField, integrate, jump_terms
from rimflow.newton import newton
from rimflow.steady import (
    DOUBLE_ROOT_ULPS,
    _bordered_solve,
    _capillary_bands,
    _capillary_lhs,
    _capillary_term,
    _cubic_roots,
    FLUX_BOUND_RATIO,
    BranchLost,
    Continuation,
    NoConvergence,
    SteadyProfile,
    asymptotic_guess,
    capillary_solve,
    continue_branch,
    critical_flux,
    moffatt_profile,
    nonexistence_threshold,
    pukhnachov_bound,
    solvability_residuals,
)
from rimflow.cli import write_branch_csv

from oracles import d1, d3


def flux_solve(grid, q, mu, chi):
    """The capillary profile at fixed flux q, solved from the small-flux guess."""
    return capillary_solve(asymptotic_guess(q, grid), q, q, Continuation((q,), mu, chi))


def np_roots_positive(mu, q, c):
    """Positive real roots of (mu c/3) h^3 - h + q by np.roots, each given two Newton polishes."""
    roots = []
    for z in np.roots([mu * c / 3.0, 0.0, -1.0, q]):
        if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
            continue
        r = float(z.real)
        if r <= 0.0:
            continue
        for _ in range(2):
            val = (mu * c / 3.0) * r**3 - r + q
            der = mu * c * r**2 - 1.0
            if der != 0.0:
                r -= val / der
        if r > 0.0:
            roots.append(r)
    return sorted(roots)


def scalar_moffatt_profile(mu, q, grid):
    """Per-point reference for moffatt_profile: np.roots, polish, select."""
    h = np.empty(grid.n)
    for i, xi in enumerate(grid.x):
        c = math.cos(xi)
        if abs(c) < 1e-14:
            h[i] = q
            continue
        roots = np_roots_positive(mu, q, c)
        if c > 1e-14:
            roots = [r for r in roots if mu * c * r * r < 1.0]
        if not roots:
            return None
        h[i] = min(roots)
    return h


class TestThresholds:
    def test_reference_values(self):
        assert critical_flux(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert critical_flux(4.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert nonexistence_threshold(1.0) == pytest.approx(
            0.9428090415820634, abs=1e-15)
        assert nonexistence_threshold(2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert pukhnachov_bound(3.0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.5, 7.0])
    def test_ordering(self, mu):
        assert critical_flux(mu) < nonexistence_threshold(mu) < pukhnachov_bound(mu)

    @pytest.mark.parametrize("fn", [critical_flux, nonexistence_threshold,
                                    pukhnachov_bound])
    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_needs_positive_mu(self, fn, mu):
        with pytest.raises(ValueError):
            fn(mu)

    def test_flux_bound_ratio(self):
        assert FLUX_BOUND_RATIO == pytest.approx(8.0 / 27.0, rel=1e-16)


class TestMoffattRoots:
    """Moffatt's cubic h - (mu/3) h^3 cos x = q at single angles, through
    _cubic_roots (c = cos x) and moffatt_profile."""

    def test_double_root_at_critical_flux(self):
        # At q = 2/(3 sqrt(mu)) and cos x = 1 the cubic factors as
        # (mu/3)(h - hc)^2 (h + 2 hc): the double root is the fold, not below it.
        low, high = _cubic_roots(1.0, 2.0 / 3.0, np.ones(1))
        assert np.isnan(low[0])
        assert high[0] == pytest.approx(1.0, abs=1e-7)
        with pytest.raises(BranchLost):
            moffatt_profile(1.0, 2.0 / 3.0, Grid(n=64))

    def test_zero_cosine_gives_flux(self):
        # cos x vanishes to rounding at the nodes x = pi/2 and 3 pi/2 of n = 64.
        h = moffatt_profile(2.0, 0.37, Grid(n=64)).h.values
        assert h[16] == h[48] == 0.37

    def test_two_roots_below_critical(self):
        low, high = _cubic_roots(1.0, 0.5, np.ones(1))
        assert low[0] < 1.0 < high[0]
        for h in (low[0], high[0]):
            assert h - h**3 / 3.0 == pytest.approx(0.5, abs=1e-13)

    def test_unique_root_on_rising_side(self):
        # cos x < 0 makes the cubic strictly increasing in h.
        low, high = _cubic_roots(1.0, 0.5, -np.ones(1))
        assert np.isnan(high[0])
        h = low[0]
        assert 0.0 < h < 0.5
        assert h + h**3 / 3.0 == pytest.approx(0.5, abs=1e-14)

    def test_no_root_above_fold(self):
        low, high = _cubic_roots(1.0, 0.7, np.ones(1))
        assert np.isnan(low[0]) and np.isnan(high[0])
        with pytest.raises(BranchLost):
            moffatt_profile(1.0, 0.7, Grid(n=64))

    def test_validation(self):
        with pytest.raises(ValueError):
            moffatt_profile(0.0, 0.5, Grid(n=64))
        with pytest.raises(ValueError):
            moffatt_profile(1.0, -0.5, Grid(n=64))


@st.composite
def cubic_cases(draw):
    """(mu, q/q_c, c) in one of four regimes of Viete's argument arg = (q/q_c) sqrt(c)."""
    mu = draw(st.floats(0.1, 5.0))
    regime = draw(st.sampled_from(["three_real", "one_real", "tiny_c", "fold"]))
    if regime == "three_real":  # c > 0 and arg < 1
        c = draw(st.floats(1e-6, 1.0))
        ratio = draw(st.floats(0.01, 0.999)) / math.sqrt(c)
    elif regime == "one_real":  # c < 0
        c = -draw(st.floats(1e-6, 1.0))
        ratio = draw(st.floats(0.01, 2.0))
    elif regime == "tiny_c":  # where the cos form of Viete's roots cancels
        c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-14, 1e-6))
        ratio = draw(st.floats(0.01, 2.0))
    else:  # arg = 1 + d, either side of the fold
        c = draw(st.floats(0.01, 1.0))
        d = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-14, 1e-12))
        ratio = (1.0 + d) / math.sqrt(c)
    return mu, ratio, c


class TestCubicRoots:
    @settings(max_examples=300, deadline=None)
    @given(case=cubic_cases())
    @example(case=(1.0, 0.5, 1e-14))
    @example(case=(2.5, 0.5, -1e-14))
    @example(case=(1.0, 1.0 - 1e-14, 1.0))
    @example(case=(1.0, 1.0 + 1e-14, 1.0))
    def test_matches_np_roots(self, case):
        # Below |d| = 1e-14 the pair is a double root to rounding, and the
        # oracle may split it, merge it or call it complex.
        mu, ratio, c = case
        q = ratio * critical_flux(mu)
        low, high = _cubic_roots(mu, q, np.array([c]))
        ours = [r for r in (float(low[0]), float(high[0])) if r > 0.0]
        ref = np_roots_positive(mu, q, c)
        assert len(ours) == len(ref)
        for r, h in zip(ref, ours):
            # An ulp in the cubic moves a root by that over |f'(h)| = |1 - mu c h^2|.
            cond = max(1.0, 1.0 / abs(1.0 - mu * c * r * r))
            assert abs(h - r) <= 4.0 * np.spacing(r) * cond
        if c > 0.0 and ours:
            assert mu * c * ours[0] ** 2 < 1.0 < mu * c * ours[-1] ** 2

    def test_double_root_is_not_below_the_fold(self):
        # arg within DOUBLE_ROOT_ULPS ulps of 1: no root below the fold, one at it.
        for mu in (0.3, 1.0, 2.5):
            q = critical_flux(mu)
            for k in range(-DOUBLE_ROOT_ULPS, DOUBLE_ROOT_ULPS + 1):
                low, high = _cubic_roots(mu, q * (1.0 + k * 2.0**-53), np.ones(1))
                assert np.isnan(low[0])
                assert high[0] == pytest.approx(1.0 / math.sqrt(mu), rel=1e-7)
            with pytest.raises(BranchLost):
                moffatt_profile(mu, q, Grid(n=64))

    def test_past_the_fold_and_rising_side_have_no_second_root(self):
        low, high = _cubic_roots(1.0, 0.7, np.array([1.0, 0.5, -0.5, -1.0]))
        assert np.isnan(low[0]) and np.isnan(high[0])
        assert np.all(np.isnan(high[2:])) and np.all(low[2:] > 0.0)


class TestMoffattProfile:
    def test_exists_below_critical(self):
        g = Grid(n=256)
        prof = moffatt_profile(1.0, 0.5, g)
        assert prof.residual_sup <= 1e-12
        assert prof.q == 0.5
        assert float(np.min(prof.h.values)) > 0.0
        # Lagrange inversion of h = q + (mu/3) cos(x) h^3, integrated term by
        # term over a period: only even powers of cos x survive, and
        # int cos^(2k) = 2 pi C(2k, k) / 4^k.  Forty terms reach rounding.
        t = 1.0 * 0.5**2 / 3.0  # mu q^2 / 3
        series = sum(math.comb(6 * k, 2 * k) / (4 * k + 1) * t ** (2 * k) * math.comb(2 * k, k) / 4**k
                     for k in range(40))
        assert prof.mass == pytest.approx(2.0 * math.pi * 0.5 * series, rel=1e-13)
        cosx = np.cos(g.x)
        mask = cosx > 1e-14
        assert np.all(cosx[mask] * prof.h.values[mask] ** 2 < 1.0)

    @pytest.mark.parametrize("mu,q,exists", [
        (1.0, 0.7, False),
        (1.0, 2.0 / 3.0 + 1e-6, False),
        (1.0, 2.0 / 3.0 - 1e-3, True),
        (4.0, 0.3, True),
        (4.0, 0.35, False),
    ])
    def test_existence_boundary(self, mu, q, exists):
        if exists:
            assert moffatt_profile(mu, q, Grid(n=128)).q == q
        else:
            with pytest.raises(BranchLost, match=f"no surface-tension-free profile at q={q}"):
                moffatt_profile(mu, q, Grid(n=128))

    def test_small_flux_matches_expansion(self):
        g = Grid(n=128)
        q = 0.05
        prof = moffatt_profile(1.0, q, g)
        guess = asymptotic_guess(q, g)
        assert np.max(np.abs(prof.h.values - guess.values)) <= 5.0 * q**5

    def test_needs_full_period(self):
        with pytest.raises(ValueError):
            moffatt_profile(1.0, 0.5, Grid(n=128, length=math.pi))

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(0.1, 5.0),
        ratio=st.floats(0.05, 1.05),
        n=st.sampled_from([8, 10, 12, 64, 66, 768]),
    )
    @example(mu=1.0, ratio=0.999, n=8)
    @example(mu=2.5, ratio=1.0 - 1e-9, n=10)
    @example(mu=2.5, ratio=1.0 + 1e-9, n=10)
    def test_matches_scalar_reference(self, mu, ratio, n):
        # At q = critical_flux(mu) the x = 0 root is a double root, so which
        # side of the fold it lands on is decided by rounding.
        assume(abs(ratio - 1.0) > 1e-12)
        q = ratio * critical_flux(mu)
        g = Grid(n=n)
        ref = scalar_moffatt_profile(mu, q, g)
        if ref is None:
            with pytest.raises(BranchLost):
                moffatt_profile(mu, q, g)
            return
        prof = moffatt_profile(mu, q, g)
        # Both polishes end within rounding of a root, but h**3 rounds
        # differently in NumPy and in Python's float pow; an ulp in the
        # cubic moves the root by that over |f'(h)| = |1 - mu c h^2|.
        cond = np.maximum(1.0, 1.0 / np.abs(1.0 - mu * np.cos(g.x) * ref**2))
        assert np.all(np.abs(prof.h.values - ref) <= 4.0 * np.spacing(ref) * cond)


class TestAsymptoticGuess:
    def test_values(self):
        g = Grid(n=64)
        f = asymptotic_guess(0.2, g)
        assert_allclose(f.values, 0.2 + (0.2**3 / 3.0) * np.cos(g.x),
                        rtol=0, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_guess(0.0, Grid(n=64))


class TestCapillarySolve:
    def test_fixed_flux_converges(self):
        g = Grid(n=256)
        chi = 3.0
        prof = flux_solve(g, 0.1, mu=3.0, chi=chi)
        assert prof.residual_sup <= 1e-10
        assert prof.q == 0.1
        assert float(np.min(prof.h.values)) > 0.0
        # The reported residual is the same quantity the checker recomputes.
        h = prof.h.values
        lhs = (h - (prof.mu / 3.0) * h**3 * np.cos(g.x)
               + (chi / 3.0) * h**3 * (d1(h, g.dx) + d3(prof.h).values))
        assert np.max(np.abs(lhs - prof.q)) <= prof.residual_sup + 1e-12

    @pytest.mark.parametrize("chi", [0.5, 3.0])
    def test_small_capillary_number_tracks_cubic_branch(self, chi):
        g = Grid(n=256)
        cubic = moffatt_profile(3.0, 0.1, g)
        prof = flux_solve(g, 0.1, mu=3.0, chi=chi)
        assert np.max(np.abs(prof.h.values - cubic.h.values)) <= 1e-3 * chi

    def test_fixed_mass_roundtrip(self):
        g = Grid(n=256)
        by_flux = flux_solve(g, 0.1, mu=3.0, chi=3.0)
        by_mass = capillary_solve(by_flux.h, by_flux.q, by_flux.mass,
                                  Continuation((by_flux.mass,), 3.0, 3.0, "fixed_mass"))
        assert by_mass.q == pytest.approx(0.1, abs=1e-11)
        assert np.max(np.abs(by_mass.h.values - by_flux.h.values)) <= 1e-11
        assert by_mass.mass == pytest.approx(by_flux.mass, rel=1e-12)

    def test_flux_beyond_threshold_fails(self):
        g = Grid(n=128)
        init = flux_solve(g, 0.5, mu=1.0, chi=3.0)
        with pytest.raises((BranchLost, NoConvergence)):
            capillary_solve(init.h, init.q, 1.0, Continuation((0.5, 1.0), 1.0, 3.0))

    def test_needs_positive_chi(self):
        g = Grid(n=64)
        with pytest.raises(ValueError, match="needs chi > 0"):
            capillary_solve(asymptotic_guess(0.1, g), 0.1, 0.1, Continuation((0.1,), mu=1.0))

    def test_step_validation(self):
        with pytest.raises(ValueError, match="mode must be fixed_flux or fixed_mass"):
            Continuation((0.1,), 1.0, 1.0, "fixed_q")
        with pytest.raises(ValueError, match="target must be positive and finite, got 0.0"):
            Continuation((0.1, 0.0), 1.0, 1.0)
        with pytest.raises(ValueError, match="max_newton must be at least 1"):
            Continuation((0.1,), 1.0, 1.0, max_newton=0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            Continuation((0.1,), 1.0, 1.0, tol=0.0)


def _capillary_term_bands(g: Grid, c1: float, c3: float) -> np.ndarray:
    """Bands of v -> _capillary_term(v, c1, c3): _capillary_bands at v = 1 and mu = 0, less 1.

    The capillary term of a constant is exactly 0, so that is all the diagonal holds.
    """
    bands = _capillary_bands(np.ones(g.n), 0.0, np.cos(g.x), c1, c3)
    bands[2] -= 1.0
    return bands


class TestCapillaryStencil:
    """The steady node operator: the mean of grid.jump_terms' g either side of each node."""

    @pytest.mark.parametrize("order", [1, 3])
    def test_stencil_matches_operator(self, order, dense_from_bands):
        # c1 alone is d1 and c3 alone the d3 oracle, as values and as bands.
        g = Grid(n=32)
        v = np.random.default_rng(order).normal(size=g.n)
        f = PeriodicField(g, v)
        c1, c3 = (1.0 / g.dx, 0.0) if order == 1 else (0.0, 1.0 / g.dx**3)
        expect = d1(v, g.dx) if order == 1 else d3(f).values
        assert_allclose(_capillary_term(v, c1, c3), expect, atol=1e-12)
        assert_allclose(dense_from_bands(_capillary_term_bands(g, c1, c3)) @ v, expect, atol=1e-12)

    def test_bands_match_d1_plus_d3(self, dense_from_bands):
        # At c1 = chi/(3 dx), c3 = chi/(3 dx^3): (chi/3) (d1 + d3) to the
        # rounding of the node form, eps c3 sup|v| up to a small factor.
        chi = 2.5
        for n in (8, 32, 256, 768):
            g = Grid(n=n)
            rng = np.random.default_rng(n)
            v = 1.0 + sum(rng.normal() * 0.1 / k * np.cos(k * g.x + rng.normal()) for k in range(1, 4))
            f = PeriodicField(g, v)
            c1, c3 = chi / (3.0 * g.dx), chi / (3.0 * g.dx**3)
            expect = (chi / 3.0) * (d1(v, g.dx) + d3(f).values)
            atol = 4.0 * np.finfo(float).eps * c3 * np.max(np.abs(v))
            assert_allclose(_capillary_term(v, c1, c3), expect, atol=atol)
            bands = _capillary_term_bands(g, c1, c3)
            assert np.all(bands[2] == 0.0)
            assert_allclose(dense_from_bands(bands) @ v, expect, atol=atol)

    def test_rounding_against_exact_arithmetic(self):
        # Jumps of neighbouring samples are exact, so the jump form cancels
        # terms of size dx h_x only; the five-point node stencil, which
        # cancels terms of size h, was 4.5e-10 of the sup off on this sample.
        g = Grid(n=768)
        v = 1.0 + 0.5 * np.cos(g.x) + 0.2 * np.sin(2.0 * g.x + 0.3)
        dx, third = Fraction(g.dx), Fraction(1, 3)
        r = [Fraction(float(a)) for a in v]
        exact = np.array([float(third * ((r[(i + 1) % g.n] - r[i - 1]) / (2 * dx)
                                         + (r[(i + 2) % g.n] - 2 * r[(i + 1) % g.n]
                                            + 2 * r[i - 1] - r[i - 2]) / (2 * dx**3)))
                          for i in range(g.n)])
        got = _capillary_term(v, 1.0 / (3.0 * g.dx), 1.0 / (3.0 * g.dx**3))
        assert np.max(np.abs(got - exact)) <= 1e-11 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [8, 10, 256])
    def test_jump_terms_bit_identical_to_roll(self, n):
        rng = np.random.default_rng(n)
        c1, c3, v = rng.normal(), rng.normal(), rng.normal(size=n)
        pad, d, g = jump_terms(v, c1, c3)
        jump = np.roll(v, -1) - v  # on interfaces 0..n-1
        expect = c3 * (np.roll(jump, -1) + np.roll(jump, 1)) + (c1 - 2.0 * c3) * jump
        assert np.array_equal(pad[2:-2], v)
        assert np.array_equal(d[2:-1], jump)
        assert np.array_equal(g[1:], expect) and g[0] == g[-1]


class TestCapillaryJacobian:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 32]),
        mu=st.floats(0.1, 5.0),
        chi=st.floats(0.1, 5.0),
        q=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bands_match_finite_differences_on_random_data(self, n, mu, chi, q, seed,
                                                           dense_from_bands):
        # The Newton solver reuses factors of these bands, which would hide
        # an error in them as slower convergence: check them directly.
        g = Grid(n=n)
        rng = np.random.default_rng(seed)
        v = q + np.abs(sum(rng.normal() * 0.2 / k * np.cos(k * g.x + rng.normal())
                           for k in range(1, 4)))
        c1, c3, cosx = chi / (3.0 * g.dx), chi / (3.0 * g.dx**3), np.cos(g.x)
        J = dense_from_bands(_capillary_bands(v, mu, cosx, c1, c3))
        eta = 1e-6
        fd = np.column_stack([
            (_capillary_lhs(v + eta * e, q, mu, cosx, c1, c3)
             - _capillary_lhs(v - eta * e, q, mu, cosx, c1, c3)) / (2 * eta)
            for e in np.eye(n)
        ])
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))


class TestNewtonLinearAlgebra:
    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([8, 10, 64, 768]), seed=st.integers(0, 2**32 - 1))
    def test_bordered_solve_matches_dense(self, n, seed, dense_from_bands):
        # [[J, -1], [dx 1^T, 0]] [du; dq] = -[r; rm], solved densely.
        rng = np.random.default_rng(seed)
        bands = rng.normal(size=(5, n))
        bands[2] = 2.0 + np.sum(np.abs(bands), axis=0)
        r = rng.normal(size=n)
        rm = float(rng.normal())
        dx = 2.0 * math.pi / n
        lu = CyclicBandedFactor(bands)
        step = _bordered_solve(lu, lu.solve(np.ones(n)), np.append(r, rm), dx)
        du, dq = step[:n], step[n]
        full = np.zeros((n + 1, n + 1))
        full[:n, :n] = dense_from_bands(bands)
        full[:n, n] = -1.0
        full[n, :n] = dx
        expect = np.linalg.solve(full, -np.concatenate([r, [rm]]))
        scale = max(1.0, np.max(np.abs(expect)))
        assert np.max(np.abs(du - expect[:n])) <= 1e-11 * scale
        assert abs(dq - expect[n]) <= 1e-11 * scale

    def test_fixed_mass_steps_match_dense_bordered_solves(self, monkeypatch, dense_from_bands):
        # Every step, with a fresh or a reused factor, solves the bordered
        # system of the factored bands: J^{-1} 1 is cached per factor.
        g = Grid(n=64)
        h0 = asymptotic_guess(0.1, g)
        target = 2.0 * integrate(h0.values, g.dx)
        factored, steps = [], []

        def checking_newton(residual, bands, z0, tol, max_iter, direction=None, **kwargs):
            def recording_bands(z):
                factored.append(bands(z))
                return factored[-1]

            def checked_direction(lu, z, r):
                dz = direction(lu, z, r)
                full = np.zeros((g.n + 1, g.n + 1))
                full[:g.n, :g.n] = dense_from_bands(factored[-1])
                full[:g.n, g.n] = -1.0
                full[g.n, :g.n] = g.dx
                expect = np.linalg.solve(full, -r)
                assert np.max(np.abs(dz - expect)) <= 1e-8 * np.max(np.abs(expect))
                steps.append(dz)
                return dz

            return newton(residual, recording_bands, z0, tol, max_iter,
                          direction=checked_direction, **kwargs)

        monkeypatch.setattr(rimflow.steady, "newton", checking_newton)
        # Doubling the mass takes more than one factor, so both kinds of step are checked.
        prof = capillary_solve(h0, 0.1, target, Continuation((target,), 3.0, 3.0, "fixed_mass"))
        assert prof.mass == pytest.approx(target, rel=1e-12)
        assert len(steps) > len(factored) >= 2

    @pytest.mark.parametrize("mode", ["fixed_flux", "fixed_mass"])
    def test_singular_jacobian_raises(self, mode, monkeypatch):
        # A zero column in the Jacobian bands is an exact zero pivot of the
        # factor step.
        def singular(bands):
            bands = bands.copy()
            bands[np.arange(5), (9 - np.arange(5)) % bands.shape[1]] = 0.0
            return CyclicBandedFactor(bands)

        monkeypatch.setattr(rimflow.newton, "CyclicBandedFactor", singular)
        g = Grid(n=64)
        h0 = asymptotic_guess(0.1, g)
        target = 0.1 if mode == "fixed_flux" else integrate(h0.values, g.dx)
        with pytest.raises(NoConvergence, match="^singular Jacobian$") as exc:
            capillary_solve(h0, 0.1, target, Continuation((target,), 3.0, 3.0, mode))
        assert exc.value.iterations == 0

    def test_first_target_past_the_threshold_stalls(self):
        # No positive profile exists at q = 1.4 > (2/3) sqrt(2) for mu = 1:
        # Newton from the small-flux guess stops when it finds no descent,
        # well before the budget, and the error says why.
        spec = Continuation((1.4,), mu=1.0, chi=1.0)
        with pytest.raises(NoConvergence, match="^Newton stalled at residual ") as exc:
            flux_solve(Grid(n=64), 1.4, mu=1.0, chi=1.0)
        assert exc.value.reason == "stalled"
        assert exc.value.iterations < spec.max_newton
        assert exc.value.residual_sup > spec.tol


class TestSolvability:
    def test_cubic_profile_satisfies_identities(self):
        prof = moffatt_profile(1.0, 0.5, Grid(n=256))
        rep = solvability_residuals(prof)
        assert abs(rep.r0) <= 1e-10
        assert abs(rep.r1) <= 1e-10
        assert prof.beta == pytest.approx(0.5**2 / 3.0, rel=1e-15)

    def test_capillary_profile_satisfies_identities(self):
        g = Grid(n=256)
        prof = flux_solve(g, 0.1, mu=3.0, chi=3.0)
        rep = solvability_residuals(prof)
        assert abs(rep.r0) <= 1e-8
        assert abs(rep.r1) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(0.1, 10.0), ratio=st.floats(0.0, 0.95, exclude_min=True),
           n=st.sampled_from([64, 128, 256, 768]))
    @example(mu=1.0, ratio=1e-100, n=64)
    def test_cubic_identities_on_random_subcritical_profiles(self, mu, ratio, n):
        q = ratio * critical_flux(mu)
        assume(q > 0.0)
        prof = moffatt_profile(mu, q, Grid(n=n))
        rep = solvability_residuals(prof)
        assert abs(rep.r0) <= 1e-12
        assert abs(rep.r1) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(mu=st.floats(0.5, 5.0), chi=st.floats(0.5, 5.0), ratio=st.floats(1e-3, 0.5))
    def test_capillary_identities_on_random_flux_branches(self, mu, chi, ratio):
        # Fixed-flux continuation up to q; criterion 9's tolerance.
        g = Grid(n=128)
        q = ratio * nonexistence_threshold(mu)
        spec = Continuation(tuple(f * q for f in (0.25, 0.5, 0.75, 1.0)), mu, chi)
        first = spec.targets[0]
        prof = continue_branch(capillary_solve(asymptotic_guess(first, g), first, first, spec), spec)[-1]
        assert prof.q == q
        rep = solvability_residuals(prof)
        assert abs(rep.r0) <= 1e-6
        assert abs(rep.r1) <= 1e-6

    def test_scaling_invariance(self):
        # (h, q, mu) -> (2h, 2q, mu/4) leaves y = h/q and beta unchanged,
        # and the doublings are exact in floating point.
        g = Grid(n=128)
        prof = moffatt_profile(1.0, 0.5, g)
        scaled = SteadyProfile(h=PeriodicField(g, 2.0 * prof.h.values), q=1.0, mu=0.25,
                               residual_sup=0.0)
        a, b = solvability_residuals(prof), solvability_residuals(scaled)
        assert b.r0 == a.r0
        assert b.r1 == a.r1
        assert scaled.beta == prof.beta
        assert scaled.mass == 2.0 * prof.mass

    def test_violation_flag(self):
        g = Grid(n=64)
        fake = SteadyProfile(h=g.constant(1.0), q=1.0, mu=1.0, residual_sup=0.0)
        rep = solvability_residuals(fake)
        assert fake.beta == pytest.approx(1.0 / 3.0)
        # Beyond 8/27 no positive profile meets the identities: here y = 1, so r1 = -pi beta.
        assert fake.beta > FLUX_BOUND_RATIO
        assert rep.r1 == pytest.approx(-math.pi * fake.beta, rel=1e-15)

    def test_needs_positive_profile(self):
        g = Grid(n=64)
        bad = SteadyProfile(h=PeriodicField(g, np.cos(g.x)), q=0.5, mu=1.0, residual_sup=0.0)
        with pytest.raises(ValueError):
            solvability_residuals(bad)


class TestContinueBranch:
    def test_walks_schedule_and_stops_before_threshold(self):
        g = Grid(n=128)
        start = flux_solve(g, 0.1, mu=3.0, chi=3.0)
        spec = Continuation((0.1, *np.arange(0.15, 0.651, 0.05).tolist()), mu=3.0, chi=3.0)
        branch = continue_branch(start, spec)
        qs = [p.q for p in branch]
        assert len(branch) >= 3
        assert all(b >= a for a, b in zip(qs, qs[1:]))
        assert all(float(np.min(p.h.values)) > 0.0 for p in branch)
        assert all(p.residual_sup <= 1e-10 for p in branch)
        thresh = nonexistence_threshold(3.0)
        assert qs[-1] < thresh + 1e-9
        assert qs[-1] > 0.4

    def test_first_step_failure_bisects(self):
        # start is a solved profile, so a failed first step bisects its gap
        # just as a later one does.
        g = Grid(n=128)
        start = flux_solve(g, 0.05, mu=1.0, chi=3.0)
        spec = Continuation((0.05, 1.5), mu=1.0, chi=3.0)
        with pytest.raises((BranchLost, NoConvergence)):
            capillary_solve(start.h, start.q, 1.5, spec)
        branch = continue_branch(start, spec)
        qs = [p.q for p in branch]
        assert branch[0] is start and len(branch) >= 2
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert 0.05 < qs[-1] < nonexistence_threshold(1.0)

    def test_later_failure_bisects_without_raising(self):
        g = Grid(n=128)
        start = flux_solve(g, 0.1, mu=1.0, chi=3.0)
        branch = continue_branch(start, Continuation((0.1, 0.3, 1.5), mu=1.0, chi=3.0))
        assert len(branch) >= 2
        assert branch[-1].q < nonexistence_threshold(1.0) + 1e-9

    def test_fixed_mass_failure_bisects(self):
        # No profile holds mass 3 (2 pi qn) at (mu, chi) = (1, 3): the branch
        # ends near 1.81 (2 pi qn), at q about 0.55 qn, after bisecting that gap.
        g = Grid(n=128)
        scale = math.tau * nonexistence_threshold(1.0)
        spec = Continuation((0.1 * scale, 3.0 * scale), mu=1.0, chi=3.0, mode="fixed_mass")
        q0 = spec.targets[0] / g.length
        start = capillary_solve(g.constant(q0), q0, spec.targets[0], spec)
        branch = continue_branch(start, spec)
        masses = [p.mass for p in branch]
        assert branch[0] is start and len(branch) >= 3
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert all(float(np.min(p.h.values)) > 0.0 for p in branch)
        assert all(p.residual_sup <= spec.tol for p in branch)
        assert masses[-1] < spec.targets[-1]


class TestBranchCsv:
    def test_roundtrip_columns(self, tmp_path):
        g = Grid(n=128)
        profiles = [moffatt_profile(1.0, q, g) for q in (0.2, 0.3, 0.4)]
        path = tmp_path / "branch.csv"
        write_branch_csv(profiles, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0]) == ["step", "q", "mass", "min_h", "max_h",
                                 "residual_sup", "beta"]
        for i, (row, pr) in enumerate(zip(rows, profiles)):
            assert int(row["step"]) == i
            assert float(row["q"]) == pytest.approx(pr.q, rel=1e-12)
            assert float(row["mass"]) == pytest.approx(pr.mass, rel=1e-12)
            assert float(row["beta"]) == pytest.approx(pr.q**2 / 3.0, rel=1e-12)
