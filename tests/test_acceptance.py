"""Acceptance battery: one test per shipped guarantee, one printed line each.

Every test prints "criterion N: PASS/FAIL (detail)" before asserting, so a
plain pytest run (-s to see them live) documents the outcome of all fifteen
checks at their stated tolerances.
"""
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from rimflow.bounds import (
    count_local_maxima,
    dissipation_check,
    h1_growth_bound,
    interpolation_check,
)
from rimflow.evolve import EvolveConfig, run
from rimflow.grid import Grid, PeriodicField
from rimflow.model import (
    Forcing,
    Params,
    RegularizationKnobs,
    entropy_G,
    mobility,
)
from rimflow.steady import (
    BranchLost,
    Continuation,
    NoConvergence,
    asymptotic_guess,
    capillary_solve,
    moffatt_profile,
    nonexistence_threshold,
    solvability_residuals,
)

from oracles import alpha_entropy


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def timed_run(h0, p, cfg):
    t0 = time.perf_counter()
    traj = run(h0, p, cfg)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig3():
    g = Grid(n=256)
    p = Params(1.0, 16.0, 0.0, 0.0, Forcing.sine(g))
    h0 = PeriodicField(g, 0.3 + 0.02 * np.cos(g.x) + 0.02 * np.cos(2.0 * g.x))
    cfg = EvolveConfig(t_end=140.0, dt_init=1e-6, dt_max=0.05,
                       snapshot_times=list(np.linspace(2.0, 140.0, 70)),
                       knobs=RegularizationKnobs())
    traj, wall = timed_run(h0, p, cfg)
    return SimpleNamespace(p=p, traj=traj, wall=wall)


@pytest.fixture(scope="module")
def fig4():
    g = Grid(n=256)
    p = Params(1.0, 16.0, -8.0, 0.0, Forcing.sine(g))
    cfg = EvolveConfig(t_end=3000.0, dt_init=1e-6, dt_max=0.5,
                       snapshot_times=[1000.0, 2000.0, 3000.0],
                       knobs=RegularizationKnobs(epsilon=1e-4, theta=0.3))
    traj, wall = timed_run(g.constant(0.3), p, cfg)
    return SimpleNamespace(p=p, traj=traj, wall=wall)


@pytest.fixture(scope="module")
def fig5():
    g = Grid(n=256)
    p = Params(1.0, 16.0, -8.0, 3.0, Forcing.sine(g))
    cfg = EvolveConfig(t_end=20.0, dt_init=1e-6, dt_max=0.05,
                       snapshot_times=[5.0, 10.0, 20.0],
                       knobs=RegularizationKnobs(epsilon=1e-4, theta=0.3))
    traj, wall = timed_run(g.constant(0.3), p, cfg)
    return SimpleNamespace(p=p, traj=traj, wall=wall)


def test_criterion_01_mass_conservation(fig3):
    m0 = fig3.traj.records[0].mass
    drift = max(abs(r.mass - m0) for r in fig3.traj.records) / abs(m0)
    ok = drift <= 1e-11 and fig3.wall <= 120.0
    assert report(1, ok, f"relative mass drift {drift:.3e}, wall {fig3.wall:.1f}s")


def test_criterion_02_constant_preservation():
    g = Grid(n=256)
    p = Params(1.0, 1.0, 0.0, 5.0, Forcing.sine(g))
    cfg = EvolveConfig(t_end=10.0, dt_init=1.0, dt_max=1.0,
                       snapshot_times=[5.0, 10.0],
                       knobs=RegularizationKnobs(epsilon=0.0))
    traj = run(g.constant(0.3), p, cfg)
    sup = max(float(np.max(np.abs(s.field.values - 0.3)))
              for s in traj.snapshots)
    covered = traj.snapshots[-1].t >= 10.0 - 1e-12
    ok = sup <= 1e-12 and covered
    assert report(2, ok, f"sup deviation {sup:.3e} through t={traj.snapshots[-1].t:g}")


def test_criterion_03_energy_monotone(fig3):
    worst = fig3.traj.energy_rise_max
    ok = worst <= 1e-8
    assert report(3, ok, f"worst per-step energy rise {worst:.3e}")


def test_criterion_03_dissipation_ledger_closes(fig3):
    # E_h(T) + D(T) + R(T) = E_h(0) up to the Newton residuals (K = 0 here).
    rep = dissipation_check(fig3.traj, fig3.p)
    gap = rep.lhs - rep.rhs
    ok = rep.satisfied and abs(gap) <= 1e-6 * abs(rep.rhs)
    assert report(3, ok, f"energy ledger lhs - rhs {gap:.3e} against E_h(0) = {rep.rhs:.6g}")


def test_criterion_04_four_droplets(fig3):
    final = fig3.traj.snapshots[-1]
    n_max = len(count_local_maxima(final.field))
    recs = [r for r in fig3.traj.records if r.t >= 0.9 * 140.0]
    l2 = [r.l2 for r in recs]
    h1 = [r.h1 for r in recs]
    rel_l2 = (max(l2) - min(l2)) / abs(l2[-1])
    rel_h1 = (max(h1) - min(h1)) / abs(h1[-1])
    ok = n_max == 4 and rel_l2 <= 1e-3 and rel_h1 <= 1e-3
    assert report(4, ok, f"{n_max} maxima, L2 change {rel_l2:.2e}, "
                         f"H1 change {rel_h1:.2e} over last 10%")


def test_criterion_05_single_droplet_with_thin_film(fig4):
    final = fig4.traj.snapshots[-1]
    idx = count_local_maxima(final.field)
    x = final.field.grid.x
    loc = x[idx[0]] if len(idx) == 1 else math.nan
    min_h = float(np.min(final.field.values))
    ok = (len(idx) == 1 and math.pi < loc < 2.0 * math.pi
          and 1e-5 <= min_h <= 1e-2 and fig4.wall <= 900.0)
    assert report(5, ok, f"{len(idx)} maxima, peak at x={loc:.4f}, "
                         f"min h {min_h:.2e}, wall {fig4.wall:.1f}s")


def test_criterion_06_drift_displaces_droplet(fig5):
    final = fig5.traj.snapshots[-1]
    idx = count_local_maxima(final.field)
    x = final.field.grid.x
    loc = x[idx[0]] if len(idx) == 1 else math.nan
    min_h = float(np.min(final.field.values))
    ok = len(idx) == 1 and loc > 1.5 * math.pi and min_h >= 0.01
    assert report(6, ok, f"peak at x={loc:.4f} (3pi/2={1.5 * math.pi:.4f}), "
                         f"min h {min_h:.3f}, final t={final.t:g}")


def test_criterion_07_critical_flux_bisection():
    g = Grid(n=256)
    lo, hi = 0.1, 1.0
    moffatt_profile(1.0, lo, g)
    with pytest.raises(BranchLost):
        moffatt_profile(1.0, hi, g)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        try:
            moffatt_profile(1.0, mid, g)
            lo = mid
        except BranchLost:
            hi = mid
    err = abs(0.5 * (lo + hi) - 2.0 / 3.0)
    ok = err <= 1e-6
    assert report(7, ok, f"bracketed critical flux within {err:.2e}")


def test_criterion_08_flux_bound_on_random_sample():
    thresh_err = abs(nonexistence_threshold(1.0) - 0.9428090415820634)
    g = Grid(n=256)
    rng = np.random.default_rng(20260817)
    betas = []
    converged = 0
    for _ in range(20):
        chi = rng.uniform(0.5, 5.0)
        mu = rng.uniform(0.5, 5.0)
        q = rng.uniform(0.05, 1.05) * nonexistence_threshold(mu)
        try:
            prof = capillary_solve(asymptotic_guess(q, g), q, q, Continuation((q,), mu, chi))
        except (BranchLost, NoConvergence):
            continue
        converged += 1
        betas.append(prof.q**2 * prof.mu / 3.0)
    bound = 8.0 / 27.0 + 1e-9
    ok = thresh_err <= 1e-12 and converged >= 5 and all(b <= bound for b in betas)
    assert report(8, ok, f"threshold err {thresh_err:.1e}, {converged}/20 "
                         f"converged, max beta {max(betas):.4f} <= 8/27")


def test_criterion_09_solvability_residuals():
    g = Grid(n=256)
    worst = 0.0
    for q in (0.05, 0.1, 0.2):
        prof = capillary_solve(asymptotic_guess(q, g), q, q, Continuation((q,), mu=3.0, chi=3.0))
        rep = solvability_residuals(prof)
        worst = max(worst, abs(rep.r0), abs(rep.r1))
    ok = worst <= 1e-6
    assert report(9, ok, f"largest integral identity residual {worst:.2e}")


def test_criterion_10_small_flux_asymptotics():
    g = Grid(n=256)
    q = 0.1
    prof = moffatt_profile(1.0, q, g)
    dev = float(np.max(np.abs(prof.h.values - asymptotic_guess(q, g).values)))
    ok = dev <= 5.0 * q**5
    assert report(10, ok, f"sup deviation {dev:.2e} <= {5.0 * q**5:.1e}")


def test_criterion_11_interpolation_inequality():
    g = Grid(n=128)
    rng = np.random.default_rng(42)
    holds = 0
    for _ in range(1000):
        v = np.zeros(g.n)
        for k in range(1, 6):
            a, b = rng.normal(size=2) / k
            v += a * np.cos(k * g.x) + b * np.sin(k * g.x)
        rep = interpolation_check(PeriodicField(g, np.abs(v)))
        holds += int(rep.satisfied)
    const = interpolation_check(g.constant(rng.uniform(0.1, 2.0)))
    eq_gap = abs(const.lhs - const.rhs) / max(1.0, abs(const.rhs))
    ok = holds == 1000 and eq_gap <= 1e-12
    assert report(11, ok, f"{holds}/1000 random fields satisfied, "
                          f"constant-field equality gap {eq_gap:.1e}")


def test_criterion_12_entropy_derivative_identities():
    z = np.logspace(math.log10(0.1), 1.0, 200)
    worst = 0.0
    for eps in (0.0, 0.1):
        knobs = RegularizationKnobs(delta=0.0, epsilon=eps)
        eta = 1e-4 * z
        inv_f = (z + eps) / z**4 if eps > 0.0 else z**-3

        def second_diff(fn):
            return (fn(z + eta) - 2.0 * fn(z) + fn(z - eta)) / eta**2

        gpp = second_diff(lambda v: entropy_G(v, eps))
        worst = max(worst, float(np.max(np.abs(gpp - inv_f) / np.abs(inv_f))))
        for alpha in (-0.25, 0.5):
            app = second_diff(lambda v: alpha_entropy(v, eps, alpha))
            target = z**alpha * inv_f
            worst = max(worst,
                        float(np.max(np.abs(app - target) / np.abs(target))))
        assert np.max(np.abs(1.0 / mobility(z, knobs) - inv_f)) <= 1e-12 * np.max(inv_f)
    ok = worst <= 1e-6
    assert report(12, ok, f"worst relative derivative mismatch {worst:.2e}")


def test_criterion_13_h1_growth_bound(fig5):
    traj, p = fig5.traj, fig5.p
    e0 = traj.records[0].energy
    mass = traj.records[0].mass
    k1 = traj.k1_observed
    worst_ratio = 0.0
    for r in traj.records:
        rhs = h1_growth_bound(e0, mass, r.t, p, k1)
        worst_ratio = max(worst_ratio, r.h1**2 / rhs)
    ok = worst_ratio <= 1.0
    assert report(13, ok, f"max ||h||_H1^2 / bound = {worst_ratio:.2e} "
                          f"(K1 observed {k1:.3g})")


def test_criterion_14_dispersion_relation():
    g = Grid(n=128)
    p = Params(1.0, 16.0, 0.0, 0.0, Forcing.sine(g))
    h0 = PeriodicField(g, 0.3 + 1e-4 * np.cos(g.x))
    cfg = EvolveConfig(t_end=0.1, dt_init=1e-3, dt_max=1e-3,
                       knobs=RegularizationKnobs(epsilon=0.0))
    traj = run(h0, p, cfg)
    amp = [2.0 * abs(np.fft.rfft(s.field.values)[1]) / g.n
           for s in (traj.snapshots[0], traj.snapshots[-1])]
    T = traj.snapshots[-1].t
    sigma_obs = math.log(amp[1] / amp[0]) / T
    sigma = mobility(0.3, cfg.knobs) * (16.0 * 1.0 - 1.0 * 1.0)
    rel = abs(sigma_obs - sigma) / sigma
    ok = rel <= 0.05
    assert report(14, ok, f"sigma observed {sigma_obs:.4f} vs {sigma:.4f} "
                          f"({100.0 * rel:.2f}%)")


def test_criterion_15_refinement_convergence():
    def solve(n, dt):
        g = Grid(n=n)
        p = Params(1.0, 16.0, 0.0, 0.0, Forcing.sine(g))
        h0 = PeriodicField(g, 0.3 + 0.02 * np.cos(g.x) + 0.02 * np.cos(2.0 * g.x))
        cfg = EvolveConfig(t_end=1.0, dt_init=dt, dt_min=dt * 0.5, dt_max=dt,
                           knobs=RegularizationKnobs())
        return run(h0, p, cfg).snapshots[-1].field.values

    h128 = solve(128, 1e-3)
    h256 = solve(256, 2.5e-4)
    h512 = solve(512, 6.25e-5)
    e128 = float(np.max(np.abs(h128 - h256[::2])))
    e256 = float(np.max(np.abs(h256 - h512[::2])))
    ratio = e128 / e256
    ok = e256 <= e128 / 4.0
    assert report(15, ok, f"sup-norm increments {e128:.3e} -> {e256:.3e}, "
                          f"ratio {ratio:.2f} >= 4")
