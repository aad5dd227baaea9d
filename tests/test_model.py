"""Coefficients, forcing profiles, regularized mobility, entropies, energy."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rimflow.grid import Grid, integrate
from rimflow.model import (
    Forcing,
    Params,
    RegularizationKnobs,
    energy,
    entropy_G,
    from_physical,
    mobility,
    mobility_derivative,
)
from rimflow.steady import asymptotic_guess

from oracles import alpha_entropy


class TestKnobs:
    def test_defaults(self):
        k = RegularizationKnobs()
        assert k.delta == 0.0
        assert k.epsilon == 1e-8
        assert k.theta == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": -1e-3},
            {"epsilon": -1e-12},
            {"theta": 0.0},
            {"theta": 0.4},
            {"theta": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RegularizationKnobs(**kwargs)

    @pytest.mark.parametrize("name", ["delta", "epsilon", "theta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knobs_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RegularizationKnobs(**{name: value})

    @pytest.mark.parametrize("epsilon,theta,lift", [
        (0.0, 0.3, 0.0), (1e-8, 0.3, 1e-8**0.3), (1e-4, 0.2, 1e-4**0.2)])
    def test_lift(self, epsilon, theta, lift):
        assert RegularizationKnobs(epsilon=epsilon, theta=theta).lift == lift


class TestForcing:
    def test_sine_samples(self):
        g = Grid(n=64)
        w = Forcing.sine(g)
        assert_allclose(w.w, np.sin(g.x), atol=0)
        assert_allclose(w.wp, np.cos(g.x), atol=0)
        assert w.sup_w == 1.0
        assert w.sup_wp == 1.0
        assert w.l2_wp == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_sine_needs_full_period(self):
        with pytest.raises(ValueError):
            Forcing.sine(Grid(n=64, length=1.0))

    @pytest.mark.parametrize("length", [1.0, 6.2831853, 2.0 * math.pi + 2e-9])
    def test_sine_forcing_and_steady_share_one_full_period_rule(self, length):
        g = Grid(n=64, length=length)
        with pytest.raises(ValueError, match=rf"^sine forcing is defined .* 2\*pi, got {length}$"):
            Forcing.sine(g)
        with pytest.raises(ValueError, match=rf"^steady profiles are defined .* 2\*pi, got {length}$"):
            asymptotic_guess(0.2, g)
        near = Grid(n=64, length=2.0 * math.pi * (1.0 + 1e-12))
        Forcing.sine(near)
        asymptotic_guess(0.2, near)

    def test_sine_interface_samples_are_analytic(self):
        g = Grid(n=64)
        w = Forcing.sine(g)
        assert_allclose(w.wp_mid, np.cos(g.x + 0.5 * g.dx), atol=0)

    def test_constant_forcing_has_zero_derivatives(self):
        g = Grid(n=32)
        w = Forcing.constant(g)
        assert w.sup_w == 0.0
        assert w.sup_wp == 0.0
        assert w.l2_wp == 0.0

    def test_forcing_arrays_frozen(self):
        w = Forcing.sine(Grid(n=32))
        with pytest.raises(ValueError):
            w.w[0] = 1.0

    def test_constant_is_the_zero_forcing(self):
        g = Grid(n=32)
        c = Forcing.constant(g)
        for name in ("w", "wp", "wp_mid"):
            got = getattr(c, name)
            # +0.0 bit for bit: a -0.0 would compare equal to a zero array.
            assert got.tobytes() == np.zeros(g.n).tobytes(), name
            assert not got.flags.writeable, name

    def test_forcings_compare_by_identity(self):
        g = Grid(n=32)
        w = Forcing.sine(g)
        other = Forcing.sine(g)
        assert w == w and w != other
        assert len({w, other}) == 2


class TestParams:
    def test_rejects_nonpositive_a0(self):
        g = Grid(n=32)
        with pytest.raises(ValueError):
            Params(0.0, 1.0, 0.0, 0.0, Forcing.sine(g))
        with pytest.raises(ValueError):
            Params(-1.0, 1.0, 0.0, 0.0, Forcing.sine(g))

    def test_rejects_nonfinite(self):
        g = Grid(n=32)
        with pytest.raises(ValueError):
            Params(1.0, math.nan, 0.0, 0.0, Forcing.sine(g))

    def test_grid_property(self):
        g = Grid(n=32)
        p = Params(1.0, 0.0, 0.0, 0.0, Forcing.sine(g))
        assert p.grid is g

    def test_from_physical_map(self):
        g = Grid(n=64)
        p = from_physical(3.0, 3.0, g)
        assert (p.a0, p.a1, p.a2, p.a3) == (1.0, 1.0, -1.0, 1.0)
        assert p.grid is g
        assert np.array_equal(p.w.w, np.sin(g.x))
        p0 = from_physical(3.0, 0.0, g)
        assert p0.a2 == 0.0

    def test_from_physical_validation(self):
        g = Grid(n=64)
        with pytest.raises(ValueError):
            from_physical(0.0, 1.0, g)
        with pytest.raises(ValueError):
            from_physical(1.0, -1.0, g)


class TestMobility:
    def test_plain_cubic_when_unregularized(self):
        k = RegularizationKnobs(epsilon=0.0)
        assert mobility(0.5, k) == 0.125
        assert mobility(-0.5, k) == 0.125
        assert mobility(0.0, k) == 0.0

    def test_regularized_value(self):
        k = RegularizationKnobs(delta=0.01, epsilon=0.1)
        # |z|^4/(|z| + eps) + delta at z = 1.
        assert mobility(1.0, k) == pytest.approx(1.0 / 1.1 + 0.01, rel=1e-15)

    def test_below_cubic_near_zero(self):
        # The regularization strengthens the degeneracy: f_e(z) <= |z|^3.
        k = RegularizationKnobs(epsilon=1e-2)
        z = np.logspace(-6, 1, 50)
        assert np.all(mobility(z, k) <= z**3 + 1e-300)

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_derivative_matches_finite_difference(self, eps, delta):
        k = RegularizationKnobs(delta=delta, epsilon=eps)
        z = np.concatenate([np.linspace(-2.0, -0.05, 20), np.linspace(0.05, 2.0, 20)])
        eta = 1e-6
        fd = (mobility(z + eta, k) - mobility(z - eta, k)) / (2 * eta)
        assert_allclose(mobility_derivative(z, k), fd, rtol=1e-6, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
        eps=st.sampled_from([0.0, 1e-3, 0.1]),
        delta=st.sampled_from([0.0, 0.05]),
    )
    @example(z=[-0.0, 0.0], eps=0.0, delta=0.0)
    def test_properties_on_random_data(self, z, eps, delta):
        k = RegularizationKnobs(delta=delta, epsilon=eps)
        z = np.array(z)
        f = mobility(z, k)
        eta = 1e-6
        fd = (mobility(z + eta, k) - mobility(z - eta, k)) / (2 * eta)
        assert_allclose(mobility_derivative(z, k), fd, rtol=1e-6, atol=1e-9)
        assert mobility(-z, k).tobytes() == f.tobytes()
        assert np.all(f >= delta)
        if delta == 0.0:
            # The delta = 0 path skips + 0.0, which is the identity on f >= +0.
            assert f.tobytes() == (f + 0.0).tobytes()

    def test_derivative_odd_symmetry(self):
        k = RegularizationKnobs(epsilon=0.1)
        z = np.linspace(0.1, 3.0, 17)
        assert_allclose(mobility_derivative(-z, k), -mobility_derivative(z, k), atol=0)


class TestEntropies:
    def test_touchdown_density_value(self):
        assert entropy_G(2.0, 0.0) == 0.25
        assert entropy_G(2.0, 0.6) == pytest.approx(0.25 + 0.6 / 24.0, rel=1e-15)

    def test_touchdown_density_positivity_domain(self):
        with pytest.raises(ValueError):
            entropy_G(0.0, 0.0)
        with pytest.raises(ValueError):
            entropy_G(np.array([1.0, -0.5]), 0.0)
        with pytest.raises(ValueError):
            entropy_G(1.0, -0.1)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_second_derivative_is_inverse_mobility(self, eps):
        # G'' = (z + eps)/z^4 = 1/f_eps by construction.
        z = np.linspace(0.1, 10.0, 40)
        eta = 1e-4 * z
        second = (entropy_G(z + eta, eps) - 2 * entropy_G(z, eps) + entropy_G(z - eta, eps)) / eta**2
        knobs = RegularizationKnobs(epsilon=eps) if eps > 0 else RegularizationKnobs(epsilon=0.0)
        assert_allclose(second, 1.0 / mobility(z, knobs), rtol=1e-6)

    @pytest.mark.parametrize("alpha", [-0.25, 0.5])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_alpha_second_derivative(self, alpha, eps):
        z = np.linspace(0.1, 10.0, 40)
        eta = 1e-4 * z
        second = (
            alpha_entropy(z + eta, eps, alpha)
            - 2 * alpha_entropy(z, eps, alpha)
            + alpha_entropy(z - eta, eps, alpha)
        ) / eta**2
        knobs = RegularizationKnobs(epsilon=eps) if eps > 0 else RegularizationKnobs(epsilon=0.0)
        assert_allclose(second, z**alpha / mobility(z, knobs), rtol=1e-6)

    def test_alpha_nonnegative_on_range(self):
        z = np.logspace(-3, 2, 60)
        for alpha in (-0.4, -0.25, 0.3, 0.9):
            assert np.all(alpha_entropy(z, 0.1, alpha) >= 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0, 2.0])
    def test_alpha_domain_validation(self, alpha):
        with pytest.raises(ValueError):
            alpha_entropy(1.0, 0.0, alpha)


class TestEnergyAndIntegrals:
    def test_energy_of_constant_ignores_forcing(self):
        # The forcing integrates to zero over a full period.
        g = Grid(n=64)
        p = Params(1.0, 2.0, 7.0, 0.0, Forcing.sine(g))
        h = np.full(g.n, 0.4)
        assert energy(h, p) == pytest.approx(-2.0 * 0.16 * g.length / 2.0, abs=1e-13)

    def test_energy_gradient_term(self):
        g = Grid(n=256)
        p = Params(1.0, 0.0, 0.0, 0.0, Forcing.sine(g))
        assert energy(np.cos(g.x), p) == pytest.approx(math.pi / 2.0, abs=g.dx**2)

    @pytest.mark.parametrize("n, rows", [(256, 1), (256, 32), (512, 16), (1024, 8)])
    def test_energy_of_rows_matches_each_field_bitwise(self, n, rows):
        # evolve.run evaluates a block of states at once: each row must have
        # the bits of the single-row call, for the energy and the quadrature.
        g = Grid(n=n)
        p = Params(1.0, 16.0, -8.0, 3.0, Forcing.sine(g))
        v = 0.3 + 0.1 * np.random.default_rng(n + rows).standard_normal((rows, n))
        for stacked, one in ((energy(v, p), lambda r: energy(r, p)),
                             (integrate(v, g.dx), lambda r: integrate(r, g.dx))):
            assert stacked.shape == (rows,)
            assert [x.hex() for x in stacked.tolist()] == [one(r).hex() for r in v]

    def test_energy_grid_mismatch(self):
        g = Grid(n=64)
        p = Params(1.0, 0.0, 0.0, 0.0, Forcing.sine(g))
        with pytest.raises(ValueError):
            energy(np.ones(32), p)
        with pytest.raises(ValueError, match="rows of 64 samples"):
            energy(np.ones((2, 32)), p)
