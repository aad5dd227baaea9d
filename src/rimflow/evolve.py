"""Conservative implicit time integrator for the regularized film equation.

Space is discretized in flux form on the periodic grid: the interface flux

    F_{i+1/2} = f_de(h_{i+1/2}) (a0 (h_xxx)_{i+1/2} + a1 (h_x)_{i+1/2}
                + a2 w'(x_{i+1/2})) + a3 h_{i+1/2}

uses the arithmetic interface mean for h_{i+1/2}, the compact difference
(h_{i+1} - h_i)/dx for the interface gradient, and the difference of the
centred second differences at i+1 and i for the interface third
derivative.  Both are formed from the jumps d_i = h_{i+1} - h_i of one
periodic pad: the gradient is d_i/dx, the third derivative
(d_{i+1} - 2 d_i + d_{i-1})/dx^3, and the driving term g_i is
grid.jump_terms' form with c3 = a0/dx^3 and c1 = a1/dx, fixed once per
_System, plus a2 w'(x_{i+1/2}).  The flux is evaluated on the n + 1
interfaces i = -1..n-1, interface -1 being interface n - 1 bit for bit, so
the update dh_i/dt = -(F_{i+1/2} - F_{i-1/2})/dx is one difference of two
slices.  It telescopes, so the discrete mass is conserved identically.

The per-step monitors reuse these interface values: the dissipation sums
and the K1 gradient/entropy functional use the interface gradient and third
derivative: energy, dissipation and the remainder R close the discrete
energy identity.  They read the terms (d, g, f) that _System keeps of its
last flux evaluation: Newton's last residual is taken at the very array it
returns, so step hands that evaluation over.  run queues each accepted
step's dt, state and terms, and evaluates the monitors over a stack of up
to MONITOR_BLOCK_VALUES // n steps: one numpy call per term for the whole
block, each row reduced along the last axis, since at n = 256 numpy's fixed
cost per call, not arithmetic, is what the monitors cost.  It forms t3
there from the queued jumps, so Newton's residuals do not.  The per-step
scalars are then folded into the running sums and maxima in step order.
The queue is emptied at every snapshot and before a StepFailure propagates,
so each record and a partial trajectory cover every accepted step.
Elementwise operations and row reductions on a stack give the bits of the
same calls on each row, so no monitor depends on the block size.  Only what
steers the run is read at every step: the steady-exit rate and the Newton
tolerance in force.  K1 is evaluated only when p.k_coefficient, its factor
in bounds.k_constant, is nonzero; else k1_observed is NaN.

Time stepping is backward Euler (L-stable, first order), split the way
implicit integrators are (Hairer & Wanner, Solving ODEs II, IV.8): one
implicit solve and one step-size controller around it.  _System.solve
solves u - hold + dt div F(u) = 0 with the shared damped simplified-Newton
solver rimflow.newton.newton on an analytic cyclic pentadiagonal
Jacobian, and is the only caller of newton here.  It keeps the Jacobian's
CyclicBandedFactor (one banded LU in a node order that puts the periodic
corners inside the band) from solve to solve while dt is unchanged and the
reused factor keeps contracting the residual by 0.3 a step, or lands within
the tolerance; a new dt (a rejection, a step growth or a snapshot
landing) or a poorer step refactors (see rimflow.newton).  It projects the
mass defect out of every Newton direction, floors the tolerance at the
representable residual, corrects a start other than hold at least once, so
a prediction is never accepted as it stands, and leaves its flux terms at
the solution it returns.  step is the controller: it sets the tolerance
from sup|hold|, starts each solve from the linear extrapolation
h_n + (dt/dt_prev)(h_n - h_{n-1}) of the last accepted step (the first step
of a run starts from h_n), grows dt by 1.2x on success up to dt_max, halves
it on failure, and fails the run when dt underflows dt_min.  There is no
positivity clamp; a step whose minimum undershoots -10x the Newton
tolerance is rejected instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .grid import Grid, PeriodicField, gradient_sq, integrate, jump_coefficients, jump_terms, periodic_pad
from .model import (
    Params,
    RegularizationKnobs,
    energy,
    entropy_G,
    mobility,
    mobility_derivative,
)
from .newton import NewtonStats, newton

DT_GROWTH = 1.2
STEADY_RATE = 1e-9
STEADY_RUN_LENGTH = 10
# No double-precision vector can push the residual of the implicit system
# below roughly ||J||_inf * machine_eps * ||u||: one ulp of u already moves
# the stiff flux divergence by that much.  The Newton tolerance is therefore
# floored at a small multiple of this representable limit; the configured
# tolerance applies whenever it is attainable.
NEWTON_FLOOR_SAFETY = 4.0
# run evaluates the monitors over blocks of max(1, MONITOR_BLOCK_VALUES // n)
# accepted steps: 32 at n = 256, a stack of 64 KB per term.
MONITOR_BLOCK_VALUES = 8192


@dataclass(frozen=True)
class EvolveConfig:
    """Run horizon, step sizes, Newton settings, snapshot times and knobs.

    snapshot_times must be finite and nonnegative.  Times at or past t_end
    are dropped (a sweep may vary t_end), as are times within 1e-14 of t = 0
    or of a later target; run records t = 0 and t_end anyway.
    """

    t_end: float
    dt_init: float = 1e-6
    dt_min: float = 1e-13
    dt_max: float = 0.1
    newton_tol: float = 1e-10
    newton_max_iter: int = 12
    snapshot_times: Sequence[float] = ()
    knobs: RegularizationKnobs = field(default_factory=RegularizationKnobs)

    def __post_init__(self) -> None:
        if not (0.0 < self.t_end < math.inf):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max < math.inf):
            raise ValueError(
                f"need 0 < dt_min <= dt_init <= dt_max < inf, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not (0.0 < self.newton_tol < math.inf):
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")
        bad = [t for t in self.snapshot_times if not (0.0 <= t < math.inf)]
        if bad:
            raise ValueError(f"snapshot times must be finite and nonnegative, got {bad}")


@dataclass(frozen=True)
class EvolveState:
    t: float
    h: PeriodicField
    dt: float
    newton: Optional[NewtonStats] = None

    @property
    def newton_iters_last(self) -> int:
        return self.newton.iterations if self.newton is not None else 0


class StepFailure(RuntimeError):
    """Raised when the step size underflows dt_min; the message names the last attempt's cause.

    That cause is a Newton failure (diverged says whether the iterate or the
    linear algebra broke down) or a converged iterate whose minimum
    undershoots -10x the Newton tolerance in force.
    """

    def __init__(self, message: str, residual_sup: float, t: float, dt: float, diverged: bool):
        super().__init__(message)
        self.residual_sup = residual_sup
        self.t = t
        self.dt = dt
        self.diverged = diverged
        self.trajectory = None


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-snapshot scalar diagnostics of an evolution run."""

    t: float
    mass: float
    l2: float
    h1: float
    min_h: float
    energy: float
    entropy0: float
    entropy_eps: float
    gradient_sq: float
    dissipation_cum: float
    remainder_cum: float


@dataclass(frozen=True)
class Snapshot:
    t: float
    field: PeriodicField
    record: DiagnosticsRecord


@dataclass
class Trajectory:
    snapshots: list
    termination: str
    step_count: int
    energy_rise_max: float  # largest energy rise over one accepted step, the first included; 0 before any
    newton_tol_effective: float  # largest tolerance in force over accepted steps
    k1_observed: float  # largest K1 over the run; NaN when p.k_coefficient is 0
    supcube_time_integral: float

    @property
    def records(self) -> list:
        return [s.record for s in self.snapshots]

    @property
    def fields(self) -> list:
        return [s.field for s in self.snapshots]


def initial_lift(h0: PeriodicField, knobs: RegularizationKnobs) -> PeriodicField:
    """Shift nonnegative initial data up by eps^theta so the run starts strictly positive."""
    if float(h0.values.min()) < 0.0:
        raise ValueError("initial data must be nonnegative")
    return h0.with_values(h0.values + knobs.lift)


class _System:
    """Discrete flux, residual, and Jacobian for a fixed (grid, params, knobs).

    Interface i lies between nodes i and i + 1.  Interface arrays hold the
    n + 1 interfaces i = -1..n-1, so the divergence at node i is the
    difference of entries i + 1 and i; interface -1 equals interface n - 1
    bit for bit.
    """

    def __init__(self, grid: Grid, params: Params, knobs: RegularizationKnobs):
        if grid != params.grid:
            raise ValueError("state grid and forcing grid differ")
        self.params = params
        self.knobs = knobs
        self.dx = grid.dx
        self.c1, self.c3 = params.a1 / grid.dx, params.a0 / grid.dx**3
        # The a2 w' term of g on interfaces -1..n-1, fixed in time; None when a2 = 0.
        self.drive = None if params.a2 == 0.0 else params.a2 * periodic_pad(params.w.wp_mid, 1)[:-1]
        self._factor, self._factor_dt = None, None  # kept by solve() while dt holds
        self.last_step = None  # (h_{n-1}, dt) of the last step step() accepted
        self.last_flux = None  # (d, g, f) of the last interface_flux call

    def interface_values(self, u: np.ndarray):
        """(m, d, g): interface mean and driving term on interfaces -1..n-1, jumps on -2..n.

        d holds the n + 3 jumps u_{i+1} - u_i; g is a0 u_xxx + a1 u_x + a2 w',
        grid.jump_terms' g plus the drive.
        """
        pad, d, g = jump_terms(u, self.c1, self.c3)
        m = 0.5 * (pad[1:-2] + pad[2:-1])
        if self.drive is not None:
            g += self.drive
        return m, d, g

    def interface_flux(self, u: np.ndarray) -> np.ndarray:
        """f(m) g + a3 m on interfaces -1..n-1."""
        m, d, g = self.interface_values(u)
        f = mobility(m, self.knobs)
        self.last_flux = (d, g, f)
        F = f * g
        if self.params.a3 != 0.0:
            F += self.params.a3 * m
        return F

    def residual(self, u: np.ndarray, hold: np.ndarray, dt: float) -> np.ndarray:
        """(dt/dx) (F_i - F_{i-1}) + u - hold, formed in one buffer."""
        F = self.interface_flux(u)
        r = np.subtract(F[1:], F[:-1])
        r *= dt / self.dx
        r += u
        r -= hold
        return r

    def jacobian(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Residual Jacobian as (5, n) bands: [k][i] = dR_i/du_{i+k-2}.

        A, B, C, D are dF_i/du_{i-1..i+2} on interfaces -1..n-1, f times
        grid.jump_coefficients plus, in B and C, the interface mean's share.
        """
        m, _, g = self.interface_values(u)
        f = mobility(m, self.knobs)
        half_fp_g = 0.5 * mobility_derivative(m, self.knobs) * g
        half_a3 = 0.5 * self.params.a3
        ka, kb, kc, kd = jump_coefficients(self.c1, self.c3)
        A, D = f * ka, f * kd
        B = half_fp_g + f * kb + half_a3
        C = half_fp_g + f * kc + half_a3
        s = dt / self.dx
        return np.stack([
            -s * A[:-1],
            s * (A[1:] - B[:-1]),
            1.0 + s * (B[1:] - C[:-1]),
            s * (C[1:] - D[:-1]),
            s * D[1:],
        ])

    def solve(self, hold: np.ndarray, dt: float, u0: np.ndarray, tol: float, max_iter: int):
        """Solve u - hold + dt div F(u) = 0 by Newton from u0: (u, NewtonStats).

        The Jacobian factor is kept from call to call while dt is unchanged,
        and a start other than hold is corrected at least once.  On success
        last_flux holds the flux terms at u, where newton took its last residual.
        """
        if dt != self._factor_dt:
            self._factor, self._factor_dt = None, dt

        def direction(lu, u, r):
            # Project out the mass defect: every Jacobian of the flux divergence,
            # reused or not, has zero column sums, so the exact step keeps
            # sum(u + du - hold) at zero; this removes rounding along that mode.
            du = -lu.solve(r)
            return du - ((u - hold) + du).sum() / hold.size

        u, stats, self._factor = newton(
            lambda u: self.residual(u, hold, dt), lambda u: self.jacobian(u, dt), u0,
            tol, max_iter, self._factor, direction, floor=NEWTON_FLOOR_SAFETY,
            min_iter=0 if u0 is hold else 1,
        )
        return u, stats


def step(state: EvolveState, cfg: EvolveConfig, sysm: _System) -> EvolveState:
    """One adaptive backward Euler step from state.t using trial size state.dt.

    The step-size controller around sysm.solve, the run's _System built from
    its params and cfg.knobs.  Each attempt solves from the linear
    extrapolation of sysm.last_step, the last accepted step (from state.h on
    a run's first step).  An attempt is rejected, and dt halved, when Newton
    fails or the minimum undershoots -10x the Newton tolerance in force;
    StepFailure is raised, naming the last attempt's cause, when dt would
    drop below dt_min.  On success the returned state carries the grown
    trial size min(1.2 dt, dt_max) for the next attempt, and sysm.last_flux
    holds the flux terms at the accepted state.
    """
    hold = state.h.values
    tol = cfg.newton_tol * max(1.0, float(np.abs(hold).max()))
    dt = state.dt
    if not (dt > 0.0):
        raise ValueError("step size must be positive")
    while True:
        u0 = hold
        if sysm.last_step is not None:
            h_prev, dt_prev = sysm.last_step
            u0 = hold + (dt / dt_prev) * (hold - h_prev)
        u, stats = sysm.solve(hold, dt, u0, tol, cfg.newton_max_iter)
        u_min, bound = float(u.min()), -10.0 * stats.tol_used
        if stats.failure is None and u_min >= bound:
            break
        dt *= 0.5
        if dt < cfg.dt_min:
            cause = stats.message or f"min u {u_min:.3e} below the undershoot bound {bound:.3e}"
            raise StepFailure(
                f"step size underflow below dt_min={cfg.dt_min} at t={state.t}: {cause}",
                residual_sup=stats.residual,
                t=state.t,
                dt=dt,
                diverged=stats.diverged,
            )
    sysm.last_step = (hold, dt)
    return EvolveState(
        t=state.t + dt,
        h=state.h.with_values(u),
        dt=min(dt * DT_GROWTH, cfg.dt_max),
        newton=stats,
    )


def _k1_terms(u: np.ndarray, dx: float, epsilon: float) -> tuple:
    """Per row of the stack u: (positive, gradient_sq, entropy), as lists.

    Only rows with min > 0 reach entropy_G; the others read inf, and their
    K1 is inf.
    """
    positive = u.min(axis=-1) > 0.0
    ent = np.full(len(u), math.inf)
    if positive.any():
        ent[positive] = integrate(entropy_G(u[positive], epsilon), dx)
    return positive.tolist(), gradient_sq(u, dx).tolist(), ent.tolist()


def _record(h: PeriodicField, t: float, p: Params, cfg: EvolveConfig, diss_cum: float,
            rem_cum: float) -> DiagnosticsRecord:
    v, dx = h.values, h.grid.dx
    l2_sq = integrate(v * v, dx)
    grad_sq = gradient_sq(v, dx)
    min_h = float(v.min())
    if min_h > 0.0:
        entropy0 = integrate(entropy_G(v, 0.0), dx)
        entropy_eps = integrate(entropy_G(v, cfg.knobs.epsilon), dx)
    else:
        entropy0 = entropy_eps = math.inf
    return DiagnosticsRecord(
        t=t,
        mass=integrate(v, dx),
        l2=math.sqrt(l2_sq),
        h1=math.sqrt(l2_sq + grad_sq),
        min_h=min_h,
        energy=energy(v, p),
        entropy0=entropy0,
        entropy_eps=entropy_eps,
        gradient_sq=grad_sq,
        dissipation_cum=diss_cum,
        remainder_cum=rem_cum,
    )


def run(h0: PeriodicField, p: Params, cfg: EvolveConfig) -> Trajectory:
    """Integrate lifted initial data to t_end, recording snapshots and monitors.

    Stops early with termination "steady" once sup|dh/dt| stays below 1e-9
    for 10 consecutive accepted steps.  A StepFailure raised by the stepper
    propagates with the partial trajectory attached to the exception.
    """
    state = EvolveState(t=0.0, h=initial_lift(h0, cfg.knobs), dt=cfg.dt_init)
    sysm = _System(state.h.grid, p, cfg.knobs)
    dx, epsilon = sysm.dx, cfg.knobs.epsilon
    with_k1 = p.k_coefficient != 0.0  # else bounds.k_constant never reads K1
    k1_weight = (p.a1 / p.a0) * (p.a1 / p.a0 + 2.0 * cfg.knobs.delta)
    block = max(1, MONITOR_BLOCK_VALUES // state.h.grid.n)
    pending = []  # (dt_used, u, du, d, g, f) of accepted steps not yet in the monitors
    diss_cum = diss3_cum = rem_cum = e_prev = 0.0

    def k1(positive: bool, grad: float, ent: float) -> float:
        return grad + k1_weight * ent + p.a0 * diss3_cum if positive else math.inf

    def flush() -> None:
        """Evaluate the monitors on the pending steps and fold them in, in step order."""
        nonlocal diss_cum, diss3_cum, rem_cum, e_prev
        if not pending:
            return
        dts, u, du, d, g, f = zip(*pending)
        pending.clear()
        # The monitors read interfaces 0..n-1: g and f[1:], and t3 the jumps d[1:].
        u, du, g, f = np.stack(u), np.stack(du), np.stack(g)[:, 1:], np.stack(f)[:, 1:]
        diss = integrate(f * g**2, dx).tolist()
        # The backward-Euler remainder R_k = 1/2 du^T H du, E_h's quadratic part at du = u_k - u_{k-1}.
        rem = (0.5 * (p.a0 * gradient_sq(du, dx) - p.a1 * integrate(du**2, dx))).tolist()
        if with_k1:
            d = np.stack(d)
            t3 = (d[:, 3:] - 2.0 * d[:, 2:-1] + d[:, 1:-2]) / dx**3
            diss3 = integrate(f * t3**2, dx).tolist()
            positive, grad, ent = _k1_terms(u, dx, epsilon)
        sup = np.abs(u).max(axis=-1).tolist()
        energies = energy(u, p).tolist()
        if traj.step_count == 0:
            e_prev = traj.records[0].energy  # E(h_0): the first step's rise counts too
        for i, dt_used in enumerate(dts):
            diss_cum += dt_used * diss[i]
            rem_cum += rem[i]
            traj.supcube_time_integral += dt_used * sup[i]**3
            if with_k1:
                diss3_cum += dt_used * diss3[i]
                traj.k1_observed = max(traj.k1_observed, k1(positive[i], grad[i], ent[i]))
            rise = energies[i] - e_prev
            traj.energy_rise_max = rise if traj.step_count == 0 else max(traj.energy_rise_max, rise)
            traj.step_count += 1
            e_prev = energies[i]

    traj = Trajectory(snapshots=[], termination="t_end", step_count=0, energy_rise_max=0.0,
                      newton_tol_effective=0.0, k1_observed=math.nan, supcube_time_integral=0.0)
    if with_k1:
        positive, grad, ent = _k1_terms(state.h.values[None], dx, epsilon)
        traj.k1_observed = k1(positive[0], grad[0], ent[0])

    # A requested time within 1e-14 (relative) of the next target, or of t = 0,
    # is dropped: no step fits between them, so both would record one state.
    # Merging here, not at record time, keeps targets close but apart.
    asked = sorted({float(t) for t in cfg.snapshot_times if 1e-14 < t < cfg.t_end})
    targets = [t for t, later in zip(asked, asked[1:] + [cfg.t_end]) if later - t > 1e-14 * max(1.0, later)]

    steady_run = 0
    for target in [0.0, *targets, cfg.t_end]:
        # Every target but t = 0 is ahead of the state, and gets at least one step.
        landed = state.t >= target
        while not landed and steady_run < STEADY_RUN_LENGTH:
            dt_try = min(state.dt, target - state.t)
            try:
                new = step(state if dt_try == state.dt else replace(state, dt=dt_try), cfg, sysm)
            except StepFailure as exc:
                flush()
                traj.termination, exc.trajectory = "failed", traj
                raise

            # The monitors are evaluated at the accepted implicit state, from
            # the flux terms step left there, a block of steps at a time.
            dt_used = new.t - state.t
            du = new.h.values - state.h.values
            pending.append((dt_used, new.h.values, du, *sysm.last_flux))
            if len(pending) == block:
                flush()
            traj.newton_tol_effective = max(traj.newton_tol_effective, new.newton.tol_used)
            rate = float(np.abs(du).max()) / dt_used
            steady_run = steady_run + 1 if rate < STEADY_RATE else 0

            # Rounding in the summed step sizes leaves up to 1e-12 at a landing.
            landed = abs(new.t - target) <= 1e-12 * max(1.0, target)
            # A step cut short to land on the target keeps the nominal size.
            if dt_try < state.dt and landed:
                new = replace(new, dt=state.dt)
            state = new
        flush()
        traj.snapshots.append(Snapshot(state.t, state.h, _record(state.h, state.t, p, cfg, diss_cum, rem_cum)))
        if steady_run >= STEADY_RUN_LENGTH:
            traj.termination = "steady"
            break
    return traj
