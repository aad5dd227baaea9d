"""Workload inputs (INI configs drawn from a seed) and their correctness gates.

Each workload is a list of CLI runs.  `configs(seed)` returns them; the same
seed always gives the same config text.  `gates(tree, runs)` reads the
output trees the CLI wrote and returns {run label: {gate: (value, limit, ok)}},
where ok is value <= limit; a gate that compares runs is filed under the last
of them.  The gates recompute what they check from the written files with
numpy alone, so they do not depend on rimflow's own monitors or API.
"""
from __future__ import annotations

import csv
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CliRun:
    label: str      # output subdirectory and config file stem
    command: str    # rimflow subcommand: evolve or steady
    text: str       # INI config


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(repr(float(v)) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _perturbation(rng: random.Random) -> dict:
    """h0 = 0.3 + A1 cos x + A2 cos 2x, each A_k within 5% of the reference 0.02.

    The phases stay at the reference 0.  A phase of even 0.003 rad breaks the
    mirror symmetry of the reference data: the film then touches down, the
    run ends as "steady" near t = 110 instead of reaching t_end with four
    droplets, and the amount of work changes from seed to seed.
    """
    return {
        "kind": "trig",
        "mean": 0.3,
        "cos": [0.02 * rng.uniform(0.95, 1.05) for _ in range(2)],
    }


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


def _gate(value: float, limit: float) -> tuple:
    return (float(value), float(limit), bool(value <= limit))


# --- coarsen: the four-droplet reference run -------------------------------

COARSEN_MASS_DRIFT = 1e-11
COARSEN_DT_MAX = 0.05
# The dissipation report compares E(T) + D(T), the energy plus the ledger of
# dissipation summed over the backward-Euler steps, with the continuous-time
# budget E(0) + K T (K = 0 here, as a2 a3 = 0), within a tolerance of about
# 1e-5 that leaves out the scheme's O(dt) time error.  On the reference data
# E(T) + D(T) exceeds E(0) = -4.6623 by 0.01226, 0.00249 and -0.00247 at
# dt_max = 0.05, 0.025 and 0.0125: the excess halves with dt (first order)
# and tends to -0.0074, so the budget holds in the limit and the report's
# `satisfied` is false at dt_max = 0.05 on every seed.  The gate allows that
# first-order term: excess / |E(0)| <= COARSEN_DISSIPATION_SLOPE * dt_max.
# The measured slope is 0.084 per unit dt (0.0026 at dt_max = 0.05); 0.1
# gives 0.005, so a ledger error of about 0.25% of |E(0)| beyond today's
# fails it.
COARSEN_DISSIPATION_SLOPE = 0.1


def coarsen_configs(seed: int) -> list:
    rng = random.Random(f"coarsen:{seed}")
    text = _ini({
        "run": {"mode": "evolve", "seed": seed},
        "grid": {"n": 256},
        "params": {"a0": 1.0, "a1": 16.0, "a2": 0.0, "a3": 0.0},
        "initial": _perturbation(rng),
        "evolve": {
            "t_end": 140.0,
            "dt_init": 1e-6,
            "dt_max": COARSEN_DT_MAX,
            "snapshots": [2.0 * k for k in range(1, 71)],
        },
    })
    return [CliRun("coarsen", "evolve", text)]


def coarsen_gates(tree: Path, runs: list) -> dict:
    out = tree / runs[0].label
    diag = _read_csv(out / "diagnostics.csv")
    mass, energy = diag["mass"], diag["energy"]
    gates = {
        "mass_drift": _gate(np.max(np.abs(mass - mass[0])) / abs(mass[0]), COARSEN_MASS_DRIFT),
        "energy_rise": _gate(np.max(np.diff(energy)), 0.0),
    }
    # One gate per kind of bound report (gradient_growth, mass_conservation,
    # interpolation@t for every snapshot), each counting its unsatisfied
    # entries, so a kind that newly fails shows in `failed`.  The dissipation
    # report is gated on its excess instead: see COARSEN_DISSIPATION_SLOPE.
    unsatisfied = defaultdict(int)
    for report in json.loads((out / "bound_reports.json").read_text()):
        kind = report["name"].split("@")[0]
        if kind == "dissipation":
            excess = (report["lhs"] - report["rhs"]) / abs(report["rhs"])
            gates["dissipation_excess"] = _gate(excess, COARSEN_DISSIPATION_SLOPE * COARSEN_DT_MAX)
        else:
            unsatisfied[kind] += not report["satisfied"]
    for kind, count in sorted(unsatisfied.items()):
        gates[f"bound_reports.{kind}"] = _gate(count, 0)
    return {runs[0].label: gates}


# --- refine: the criterion-15 refinement ladder, one rung finer -------------

REFINE_RUNGS = ((256, 2.5e-4), (512, 6.25e-5), (1024, 1.5625e-5))
REFINE_T_END = 0.02
# With dt ~ dx^2 the scheme's error falls by 4 per halving of dx, so the ratio
# of successive sup-norm increments tends to 4; at t_end = 0.02 it reads
# 3.9975 on the reference data, from higher-order terms, so criterion 15's
# literal ">= 4" would fail.  The gate asks for an observed order
# log2(ratio) within 0.05 of 2 (ratio in [3.86, 4.14]): loose enough for those
# terms, tight enough that a first-order defect (ratio 2) or a broken rung
# fails it.
REFINE_ORDER_TOL = 0.05


def refine_configs(seed: int) -> list:
    initial = _perturbation(random.Random(f"refine:{seed}"))
    return [
        CliRun(f"refine_n{n}", "evolve", _ini({
            "run": {"mode": "evolve", "seed": seed},
            "grid": {"n": n},
            "params": {"a0": 1.0, "a1": 16.0, "a2": 0.0, "a3": 0.0},
            "initial": initial,
            "evolve": {
                "t_end": REFINE_T_END,
                "dt_init": dt,
                "dt_min": 0.5 * dt,
                "dt_max": dt,
                "snapshots": [REFINE_T_END],
            },
        }))
        for n, dt in REFINE_RUNGS
    ]


def refine_gates(tree: Path, runs: list) -> dict:
    finals = []
    for run in runs:
        manifest = json.loads((tree / run.label / "manifest.json").read_text())
        final = manifest["snapshots"][-1]
        finals.append(_read_csv(tree / run.label / final["file"])["h"])
    coarse = np.max(np.abs(finals[0] - finals[1][::2]))
    fine = np.max(np.abs(finals[1] - finals[2][::2]))
    return {runs[-1].label: {
        "order_error": _gate(abs(math.log2(coarse / fine) - 2.0), REFINE_ORDER_TOL),
    }}


# --- steady_branch: capillary continuation and the cubic branch -------------

# Criterion 9's tolerance on the integral solvability identities, not widened.
# Near the fold the residual is the O(dx^2) truncation of the continuous r1
# identity on the grid (1.01e-6, 2.6e-7, 6.7e-8 at n = 512, 1024, 2048 for
# mu = 2.99, chi = 4.49), not a solver error.  At n = 512 it exceeds 1e-6 by
# up to 1% for some (mu, chi) near the fold, such as (2.67, 3.95) and
# (3.13, 4.97) on seed 6002.  At n = 768 the worst residual over seeds 6002
# and 101-105 is 1.0e-7, so the tolerance holds with a tenfold margin.  The
# worst value is reported with every run.
STEADY_N = 768
STEADY_TOL = 1e-10
IDENTITY_TOL = 1e-6
FLUX_BOUND = 8.0 / 27.0
# (mu, chi) are stratified: one pair drawn uniformly inside each cell of a
# 4 x 3 partition of [0.5, 5]^2, so every seed covers the whole square.  The
# cost of a pair depends on where it falls, so the amount of work still
# varies from seed to seed; with 6 pairs (3 x 2) that alone spread the run
# medians over seeds by 0.08, and 12 pairs halve its variance.
STEADY_CELLS = (4, 3)
STEADY_RANGE = (0.5, 5.0)


def _nonexistence_threshold(mu: float) -> float:
    return (2.0 / 3.0) * math.sqrt(2.0 / mu)


def _critical_flux(mu: float) -> float:
    return 2.0 / (3.0 * math.sqrt(mu))


def steady_pairs(seed: int) -> list:
    rng = random.Random(f"steady_branch:{seed}")
    lo, hi = STEADY_RANGE
    nmu, nchi = STEADY_CELLS
    wmu, wchi = (hi - lo) / nmu, (hi - lo) / nchi
    return [
        (lo + wmu * (i + rng.random()), lo + wchi * (j + rng.random()))
        for i in range(nmu)
        for j in range(nchi)
    ]


def steady_configs(seed: int) -> list:
    runs = []
    for k, (mu, chi) in enumerate(steady_pairs(seed)):
        qn = _nonexistence_threshold(mu)
        schedules = {
            # Ends above the nonexistence threshold, so continuation bisects
            # into the last gap to the end of the branch.
            "flux": ("fixed_flux", chi, [qn * f for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1)]),
            # Stays well inside the branch: no bisection, a fixed amount of work.
            "mass": ("fixed_mass", chi, [TWO_PI * qn * f for f in (0.1, 0.2, 0.3, 0.4, 0.5)]),
            # Surface-tension-free branch, every target below critical_flux(mu).
            "cubic": ("fixed_flux", 0.0, [_critical_flux(mu) * f for f in (0.2, 0.4, 0.6, 0.8, 0.95)]),
        }
        for name, (mode, c, targets) in schedules.items():
            runs.append(CliRun(f"pair{k}_{name}", "steady", _ini({
                "run": {"mode": "steady", "seed": seed},
                "grid": {"n": STEADY_N},
                "steady": {"mode": mode, "targets": targets, "mu": mu, "chi": c, "tol": STEADY_TOL},
            })))
    return runs


def _identities(h: np.ndarray, q: float, mu: float) -> tuple:
    """Integral identities of a positive steady profile, with y = h/q.

    mean(1/y^2 - 1/y^3) = 0 and its cos-weighted integral equals pi q^2 mu / 3.
    """
    x = TWO_PI / h.size * np.arange(h.size)
    y = h / q
    f = 1.0 / y**2 - 1.0 / y**3
    dx = TWO_PI / h.size
    r0 = dx * np.sum(f)
    r1 = dx * np.sum(f * np.cos(x)) - math.pi * q * q * mu / 3.0
    return abs(r0), abs(r1)


def steady_gates(tree: Path, runs: list) -> dict:
    return {run.label: _profile_gates(tree / run.label) for run in runs}


def _profile_gates(out: Path) -> dict:
    worst_identity = worst_beta = worst_residual = 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    mu = float(manifest["config"]["steady"]["mu"])
    for prof in manifest["profiles"]:
        h = _read_csv(out / prof["file"])["h"]
        if np.min(h) <= 0.0:
            worst_identity = math.inf
            continue
        worst_identity = max(worst_identity, *_identities(h, prof["q"], mu))
        worst_beta = max(worst_beta, prof["q"] ** 2 * mu / 3.0)
        worst_residual = max(worst_residual, prof["residual_sup"])
    return {
        "identity_residual": _gate(worst_identity, IDENTITY_TOL),
        "beta": _gate(worst_beta, FLUX_BOUND),
        "residual_sup": _gate(worst_residual, STEADY_TOL),
    }


WORKLOADS = {
    "coarsen": (coarsen_configs, coarsen_gates),
    "refine": (refine_configs, refine_gates),
    "steady_branch": (steady_configs, steady_gates),
}
