"""Explicit constants, inequality monitors, and signal detectors."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rimflow.bounds import (
    BoundReport,
    b_constants,
    c_constants,
    count_local_maxima,
    dissipation_check,
    gradient_bound_check,
    h1_growth_bound,
    interpolation_check,
    k3_constant,
    k_constant,
    local_existence_time,
)
from rimflow.cli import DIAGNOSTICS_COLUMNS, write_diagnostics_csv, write_reports_json
from rimflow.evolve import DiagnosticsRecord, EvolveConfig, run
from rimflow.grid import Grid, PeriodicField
from rimflow.model import Forcing, Params, RegularizationKnobs

TWO_PI = 2.0 * math.pi


def sine_params(n, a):
    g = Grid(n=n)
    return Params(a[0], a[1], a[2], a[3], Forcing.sine(g))


class TestBConstants:
    # Values frozen from an independent evaluation of the closed forms.
    FROZEN = {
        (6.0, 2.0): (3.204630645251e+02, 4.0, 4.218634666241e+10,
                     1.349963093197e+12, 3.267763643053e-03),
        (4.0, 2.0): (4.870454551700e+01, 2.0, 2.310672953808e+05,
                     1.848538363047e+06, 3.225153443320e-02),
        (3.0, 2.0): (2.067085112020e+01, 1.414213562373e+00,
                     2.747330422946e+03, 1.098932169178e+04,
                     1.013211836423e-01),
        (2.0, 2.0): (9.869604401089e+00, 1.0, 9.869604401089e+00,
                     1.973920880218e+01, 3.183098861838e-01),
        (1.5, 1.0): (7.424437329109e+00, 1.144714242553e+00,
                     1.370009257388e+01, 1.937485672375e+01,
                     5.641895835478e-01),
    }

    @pytest.mark.parametrize("pr", sorted(FROZEN))
    def test_frozen_values(self, pr):
        got = b_constants(pr[0], pr[1], TWO_PI)
        assert_allclose(got, self.FROZEN[pr], rtol=1e-11)

    def test_p_at_most_two_uses_plain_scaling(self):
        # Below the quadratic exponent the chain shortens: b3 = b1 L^((2-p)/p).
        L = TWO_PI
        bb = b_constants(1.5, 1.0, L)
        assert bb.b3 == pytest.approx(bb.b1 * L ** (0.5 / 1.5), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            b_constants(2.0, 3.0, TWO_PI)
        with pytest.raises(ValueError):
            b_constants(0.9, 0.9, TWO_PI)
        with pytest.raises(ValueError):
            b_constants(2.0, 2.0, 0.0)


class TestCConstants:
    FROZEN = (6.749815465991e+11, 1.045684365777e-01, 1.28e+02,
              1.727952759294e+14, 7.033165882741e+05, 7.864596578877e+01,
              1.727952766328e+14, 3.017963080724e+01, 3.455905532733e+14)

    def test_frozen_chain(self):
        p = sine_params(256, (1.0, 16.0, 8.0, 0.0))
        got = c_constants(p, mass=2.0, delta=0.0)
        assert_allclose(got, self.FROZEN, rtol=1e-11)

    def test_delta_enters_c3_and_c6_only(self):
        p = sine_params(256, (1.0, 16.0, 8.0, 0.0))
        base = c_constants(p, mass=2.0, delta=0.0)
        reg = c_constants(p, mass=2.0, delta=0.05)
        assert reg.c3 == pytest.approx(128.8, rel=1e-13)
        assert reg.c6 == pytest.approx(8.869906228026e+01, rel=1e-11)
        for name in ("c1", "c2", "c4", "c5"):
            assert getattr(reg, name) == getattr(base, name)

    @pytest.mark.parametrize("a,mass,delta", [
        ((1.0, 16.0, 8.0, 0.0), 2.0, 0.0),
        ((0.5, 3.0, -2.0, 1.0), 1.3, 0.07),
    ])
    def test_internal_wiring(self, a, mass, delta):
        p = sine_params(128, a)
        cc = c_constants(p, mass=mass, delta=delta)
        assert cc.c7 == pytest.approx(cc.c4 + cc.c5 + cc.c6, rel=1e-15)
        assert cc.c9 == pytest.approx(2.0 * cc.c3 * cc.c8 / a[0] + 2.0 * cc.c7,
                                      rel=1e-15)
        assert cc.c8 == pytest.approx(abs(a[1]) + abs(a[2]) * math.sqrt(math.pi),
                                      rel=1e-13)


class TestLocalExistenceTime:
    def test_frozen_value_for_flat_film(self):
        p = sine_params(256, (1.0, 16.0, 8.0, 0.0))
        T = local_existence_time(p.grid.constant(0.3), p)
        assert T == pytest.approx(9.059067361909e-23, rel=1e-10)

    def test_degenerate_chain_gives_no_constraint(self):
        g = Grid(n=64)
        p = Params(1.0, 0.0, 0.0, 5.0, Forcing.constant(g))
        assert local_existence_time(g.constant(0.3), p) == math.inf

    def test_touchdown_gives_zero_horizon(self):
        p = sine_params(64, (1.0, 16.0, 8.0, 0.0))
        g = p.grid
        h = PeriodicField(g, 1.0 - np.cos(g.x))
        assert local_existence_time(h, p) == 0.0


class TestInterpolation:
    def test_constant_field_attains_equality(self):
        g = Grid(n=64)
        rep = interpolation_check(g.constant(0.7))
        assert rep.satisfied
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nonnegative_fields(self, seed):
        g = Grid(n=128)
        rng = np.random.default_rng(seed)
        v = np.zeros(g.n)
        for k in range(1, 6):
            a, b = rng.normal(size=2) / k
            v += a * np.cos(k * g.x) + b * np.sin(k * g.x)
        rep = interpolation_check(PeriodicField(g, np.abs(v)))
        assert rep.satisfied

    def test_rejects_negative_data(self):
        g = Grid(n=64)
        with pytest.raises(ValueError):
            interpolation_check(PeriodicField(g, np.cos(g.x)))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(4, 512).map(lambda k: 2 * k),
        kind=st.sampled_from(["uniform", "eighth_power", "spike", "alternating"]),
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.0, 1.0),
    )
    @example(n=64, kind="alternating", seed=0, a=0.5)
    def test_discrete_inequality_on_rough_nonnegative_data(self, n, kind, seed, a):
        # The inequality holds for the discrete gradient the flux uses.  The
        # alternating field 1 + a (-1)^i is the grid-scale mode, which a
        # centred difference reads as flat: with it, a = 0.5 at n = 64 gives
        # lhs 7.854 > rhs 6.283.
        g = Grid(n=n)
        rng = np.random.default_rng(seed)
        if kind == "alternating":
            v = 1.0 + a * (-1.0) ** np.arange(n)
        elif kind == "spike":
            v = np.zeros(n)
            v[rng.integers(n)] = 1.0
        else:
            v = rng.uniform(0.0, 1.0, n) ** (8 if kind == "eighth_power" else 1)
        rep = interpolation_check(PeriodicField(g, v))
        assert rep.satisfied, rep


class TestGrowthConstants:
    def test_k_constant_formula(self):
        p = sine_params(64, (1.0, 16.0, -8.0, 3.0))
        L = TWO_PI
        expect = 24.0 * (L**2 * 2.0 + 4.0)
        assert k_constant(p, k1=4.0, mass=2.0) == pytest.approx(expect, rel=1e-14)

    def test_k_vanishes_without_drift_coupling(self):
        p = sine_params(64, (1.0, 16.0, 0.0, 3.0))
        assert k_constant(p, k1=9.0, mass=2.0) == 0.0

    def test_k_at_unbounded_k1(self):
        # A run that touches zero has K1 = inf: K is inf, or 0 without drift
        # coupling, never 0 * inf.
        assert k_constant(sine_params(64, (1.0, 16.0, -8.0, 3.0)), math.inf, 2.0) == math.inf
        assert k_constant(sine_params(64, (1.0, 16.0, 0.0, 3.0)), math.inf, 2.0) == 0.0

    def test_k_rejects_negative_k1(self):
        p = sine_params(64, (1.0, 16.0, -8.0, 3.0))
        with pytest.raises(ValueError):
            k_constant(p, k1=-1.0, mass=2.0)

    def test_k3_with_positive_stiffness_sum(self):
        p = sine_params(64, (1.0, 16.0, -8.0, 3.0))
        s = 17.0
        M = 2.0
        expect = 8.0 * 1.0 * M + M**2 * (
            2.0 * math.sqrt(6.0) * s**1.5 / 3.0 + s / (2.0 * TWO_PI))
        assert k3_constant(p, mass=M) == pytest.approx(expect, rel=1e-14)

    def test_k3_base_only_when_sum_nonpositive(self):
        p = sine_params(64, (1.0, -2.0, -8.0, 3.0))
        assert k3_constant(p, mass=2.0) == pytest.approx(16.0, rel=1e-14)

    def test_h1_growth_bound_assembly(self):
        p = sine_params(64, (1.0, 16.0, -8.0, 3.0))
        e0, M, T, k1 = 5.0, 2.0, 2.0, 4.0
        expect = 4.0 * (e0 + k_constant(p, k1, M) * T + k3_constant(p, M))
        assert h1_growth_bound(e0, M, T, p, k1) == pytest.approx(expect, rel=1e-14)
        # At T = 0 the bound does not depend on K, even an infinite one.
        assert h1_growth_bound(e0, M, 0.0, p, math.inf) == 4.0 * (e0 + k3_constant(p, M))
        with pytest.raises(ValueError):
            h1_growth_bound(e0, M, -1.0, p, k1)


@pytest.fixture(scope="module")
def short_run():
    g = Grid(n=64)
    p = sine_params(64, (1.0, 16.0, -8.0, 3.0))
    h0 = PeriodicField(g, 0.3 + 0.02 * np.cos(g.x))
    cfg = EvolveConfig(t_end=1.0, dt_init=1e-4, dt_max=0.05,
                       snapshot_times=[0.5, 1.0],
                       knobs=RegularizationKnobs(epsilon=1e-6))
    return p, run(h0, p, cfg)


class TestTrajectoryChecks:
    def test_dissipation_budget_holds(self, short_run):
        p, traj = short_run
        rep = dissipation_check(traj, p)
        assert rep.satisfied
        assert rep.name == "dissipation"
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)

    def test_dissipation_reduces_to_energy_stability(self):
        # Without the drift coupling the production constant is zero, and
        # without forcing E_h(T) + D(T) + R(T) = E_h(0) up to the Newton
        # residuals: the check is the scheme's discrete energy identity.
        g = Grid(n=64)
        p = sine_params(64, (1.0, 16.0, 0.0, 0.0))
        cfg = EvolveConfig(t_end=0.5, dt_init=1e-4, dt_max=1e-3,
                           knobs=RegularizationKnobs(epsilon=0.0))
        traj = run(PeriodicField(g, 0.3 + 0.02 * np.cos(g.x)), p, cfg)
        rep = dissipation_check(traj, p)
        assert rep.satisfied
        assert rep.rhs == pytest.approx(traj.records[0].energy, abs=1e-12)
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, abs(rep.rhs))

    def test_gradient_growth_holds(self, short_run):
        p, traj = short_run
        rep = gradient_bound_check(traj, p)
        assert rep.satisfied
        assert rep.lhs <= rep.rhs + 1e-9 * max(1.0, abs(rep.rhs))

    def test_gradient_growth_holds_on_a_flat_film(self):
        # No forcing and no gradient: both log sides are -inf, and 0 <= 0 holds.
        g = Grid(n=32)
        p = Params(1.0, 1.0, 0.0, 0.0, Forcing.constant(g))
        traj = run(g.constant(0.3), p, EvolveConfig(t_end=0.01))
        rep = gradient_bound_check(traj, p)
        assert (rep.lhs, rep.rhs) == (-math.inf, -math.inf)
        assert rep.satisfied


class TestCountLocalMaxima:
    def test_counts_cosine_peaks(self):
        g = Grid(n=256)
        assert len(count_local_maxima(PeriodicField(g, np.cos(4.0 * g.x)))) == 4
        assert len(count_local_maxima(PeriodicField(g, np.cos(g.x)))) == 1

    def test_peak_indices_point_at_peaks(self):
        g = Grid(n=256)
        h = PeriodicField(g, np.cos(g.x - 1.0))
        idx = count_local_maxima(h)
        assert len(idx) == 1
        assert h.values[idx[0]] == pytest.approx(1.0, abs=1e-3)

    def test_constant_has_no_peaks(self):
        assert count_local_maxima(Grid(n=64).constant(2.0)) == []

    def test_prominence_threshold_separates_satellites(self):
        # A satellite counts when its height reaches DROPLET_PROMINENCE = 1% of the range.
        g = Grid(n=256)
        main = np.exp(-10.0 * (g.x - math.pi) ** 2)
        bump = np.exp(-40.0 * (g.x - 1.0) ** 2)
        assert len(count_local_maxima(PeriodicField(g, main + 5e-3 * bump))) == 1
        assert len(count_local_maxima(PeriodicField(g, main + 5e-2 * bump))) == 2

    def test_plateau_twins_merge(self):
        v = np.zeros(64)
        v[10] = v[11] = 1.0
        assert count_local_maxima(PeriodicField(Grid(n=64), v)) == [10]

    def test_plateau_across_the_seam_counts_once(self):
        # The same two-cell plateau and lower peak give two maxima wherever
        # the plateau sits; across the seam it is kept at its first cell, 15.
        v = np.zeros(16)
        v[0] = v[15] = 1.0
        v[7] = 0.5
        assert count_local_maxima(PeriodicField(Grid(n=16), v)) == [7, 15]
        assert count_local_maxima(PeriodicField(Grid(n=16), np.roll(v, 4))) == [3, 11]

    @pytest.mark.parametrize("shift", [0, 12])
    def test_wide_plateau_counts_once_and_a_shoulder_not_at_all(self, shift):
        # Three equal samples are one maximum; two equal samples below a
        # higher one are a shoulder on its flank.  shift = 12 puts the
        # plateau across the seam.
        v = np.zeros(16)
        v[3] = v[4] = v[5] = 1.0
        v[9] = v[10] = 0.5
        v[11] = 0.8
        idx = count_local_maxima(PeriodicField(Grid(n=16), np.roll(v, shift)))
        assert idx == sorted([(3 + shift) % 16, (11 + shift) % 16])


class TestReportsAndWriters:
    def test_check_semantics(self):
        ok = BoundReport.check("x", 1.0, 2.0)
        assert ok.satisfied and ok.slack == pytest.approx(1.0)
        bad = BoundReport.check("x", 2.0, 1.0)
        assert not bad.satisfied and bad.slack == pytest.approx(-1.0)
        assert BoundReport.check("x", 1.0, 0.999, tolerance=0.01).satisfied
        assert BoundReport.check("x", math.inf, math.inf).satisfied
        assert not BoundReport.check("x", math.nan, math.inf).satisfied

    def test_reports_json_roundtrip(self, tmp_path):
        reports = [BoundReport.check("alpha", 1.0, 2.0),
                   BoundReport.check("beta", 3.0, 1.0)]
        path = tmp_path / "reports.json"
        write_reports_json(reports, path)
        data = json.loads(path.read_text())
        assert [d["name"] for d in data] == ["alpha", "beta"]
        assert data[0]["satisfied"] is True
        assert data[1]["satisfied"] is False
        assert data[1]["slack"] == pytest.approx(-2.0)

    def test_one_json_writer(self, tmp_path):
        # Reports and the CLI's manifests share one writer and one format;
        # the CLI keeps write_reports_json importable under its own name.
        path = tmp_path / "reports.json"
        report = BoundReport.check("alpha", 1.0, 2.0)
        write_reports_json([report], path)
        expect = [{"lhs": 1.0, "name": "alpha", "rhs": 2.0, "satisfied": True, "slack": 1.0}]
        assert path.read_text() == json.dumps(expect, indent=2, sort_keys=True) + "\n"

    def test_diagnostics_csv_roundtrip(self, tmp_path):
        rec = DiagnosticsRecord(t=0.5, mass=2.0, l2=1.0, h1=1.5, min_h=0.1,
                                energy=-3.0, entropy0=4.0, entropy_eps=4.1,
                                gradient_sq=0.25, dissipation_cum=0.7, remainder_cum=-0.05)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([rec], path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(DIAGNOSTICS_COLUMNS)
        for col in DIAGNOSTICS_COLUMNS:
            assert float(rows[0][col]) == pytest.approx(getattr(rec, col),
                                                        rel=1e-15)
        # The bulk writer gives the bytes of one formatted line per record.
        line = ",".join(f"{getattr(rec, c):.17g}" for c in DIAGNOSTICS_COLUMNS)
        assert path.read_text() == ",".join(DIAGNOSTICS_COLUMNS) + "\n" + line + "\n"
