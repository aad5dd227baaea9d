"""Command line front end: evolve / steady / sweep / check over sectioned config files.

Config files are INI-style (configparser syntax).  One schema, _SECTION_KEYS,
names every section's keys and the type each is read as; unknown sections or
keys are errors, as are missing required keys.  A key that is left out takes
the default of the dataclass field it sets, and each value is checked there;
[initial] sets none, and is read straight into the field the run starts from.
A sweep config is its runs: one evolve RunConfig per value, each built once.
This module alone reads or writes files: the config, an [initial] field CSV,
and every file of the output trees; the solver modules return values, and
nothing here reads back a file it wrote.  Outputs are deterministic in the
config and the seed: CSV numbers have 17 significant digits and JSON sorted
keys and no timestamps, so identical inputs give bit-identical output trees.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bounds import (
    BoundReport,
    count_local_maxima,
    dissipation_check,
    gradient_bound_check,
    h1_growth_bound,
    interpolation_check,
    local_existence_time,
)
from .evolve import DiagnosticsRecord, EvolveConfig, StepFailure, run
from .grid import Grid, PeriodicField, gradient_sq, require_full_period
from .model import Forcing, Params, RegularizationKnobs, from_physical
from .steady import (
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

OUTPUT_DIR_ENV = "RIMFLOW_OUTPUT_DIR"
# Largest [grid] n: 8 MB per field; a larger n would fail as a MemoryError.
MAX_GRID_N = 1 << 20


def _floats(text: str) -> tuple:
    """A comma-separated list of numbers; empty items are skipped."""
    return tuple(float(s) for s in text.split(",") if s.strip())


# {section: {key: type}}: the whitelist, and how each given key is read.
_SECTION_KEYS = {
    "run": {"mode": str, "output_dir": str, "seed": int},
    "params": {"a0": float, "a1": float, "a2": float, "a3": float, "chi": float, "mu": float,
               "forcing": str},
    "grid": {"n": int, "length": float, "origin": float},
    "initial": {"kind": str, "value": float, "mean": float, "cos": _floats, "sin": _floats,
                "path": str},
    "evolve": {"t_end": float, "dt_init": float, "dt_min": float, "dt_max": float,
               "newton_tol": float, "newton_max_iter": int, "snapshots": _floats,
               "delta": float, "epsilon": float, "theta": float},
    "steady": {"mode": str, "targets": _floats, "mu": float, "chi": float, "tol": float,
               "max_newton": int},
    "sweep": {"vary": str, "values": _floats, "workers": int},
}
_TYPE_NAMES = {float: "a number", int: "an integer", _floats: "a comma-separated list of numbers"}

# mode -> (required sections, optional sections) besides [run].
_MODE_SECTIONS = {
    "evolve": ({"params", "initial", "evolve"}, {"grid"}),
    "steady": ({"steady"}, {"grid"}),
    "sweep": ({"params", "initial", "evolve", "sweep"}, {"grid"}),
    "check": (set(), set()),
}
_MODES = tuple(_MODE_SECTIONS)
_SWEEP_SECTIONS = set.union(*_MODE_SECTIONS["evolve"])
# [initial] kind -> the keys that kind reads, the one it requires first.
_INITIAL_KINDS = {"constant": ("value",), "trig": ("mean", "cos", "sin"), "file": ("path",)}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending section/key."""


def _sweep_dir(vary: str, value: float) -> str:
    """Output subdirectory of one sweep run."""
    return f"{vary.split('.', 1)[1]}={value:g}"


@dataclass(frozen=True)
class SweepSpec:
    """[sweep]: one evolve run per value of the key vary names, each in its own directory."""

    vary: str
    values: tuple
    workers: int = 2

    def __post_init__(self) -> None:
        # Each run's config gets repr(value), so only a number key an evolve run reads can vary.
        section, _, key = self.vary.partition(".")
        if section not in _SWEEP_SECTIONS or _SECTION_KEYS[section].get(key) is not float:
            raise ValueError(f"vary: unknown target {self.vary!r} (use section.key naming a "
                             f"number in {sorted(_SWEEP_SECTIONS)}, e.g. params.a3)")
        if not self.values:
            raise ValueError("values must not be empty")
        # Two values with one directory name would write one tree twice.
        dirs = [_sweep_dir(self.vary, v) for v in self.values]
        shared = next((d for i, d in enumerate(dirs) if d in dirs[:i]), None)
        if shared is not None:
            raise ValueError(f"values: two runs share the output directory {shared!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


@dataclass(frozen=True)
class RunConfig:
    mode: str
    grid: Grid
    params: Optional[Params]
    initial: Optional[PeriodicField]
    evolve: Optional[EvolveConfig]
    steady: Optional[Continuation]
    sweep: Optional[SweepSpec]
    output_dir: str = "out"
    seed: int = 0
    raw: dict = field(default_factory=dict, compare=False)
    runs: tuple = ()  # a sweep's evolve RunConfigs, one per value; no config key sets it


def _value(section: str, key: str, text: str):
    """text read as the schema type of [section] key."""
    kind = _SECTION_KEYS[section][key]
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not {_TYPE_NAMES[kind]}: {text!r}") from None


def _read(raw: dict, section: str, *required: str) -> dict:
    """{key: value} for the keys given in [section]; each of required must be given."""
    sec = raw.get(section, {})
    for key in required:
        if key not in sec:
            raise ConfigError(f"[{section}] missing required key {key!r}")
    return {key: _value(section, key, text) for key, text in sec.items()}


@contextlib.contextmanager
def _section(name: str):
    """Report a ValueError raised while building section [name] as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _initial(keys: dict, grid: Grid) -> PeriodicField:
    """[initial] as the field a run starts from: a constant, a mean plus cos/sin terms, or a field CSV."""
    kind = keys.pop("kind")
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"[initial] kind must be constant, trig, or file, got {kind!r}")
    key = _INITIAL_KINDS[kind][0]
    if key not in keys:
        raise ConfigError(f"[initial] kind={kind} requires key {key!r}")
    # A key its kind does not read would be dropped, and a sweep over it would repeat one run.
    unread = sorted(set(keys) - set(_INITIAL_KINDS[kind]))
    if unread:
        raise ConfigError(f"[initial] kind={kind} does not take key(s) {unread}")
    if kind == "file":
        try:
            h0 = PeriodicField(grid, read_field_csv(keys[key], grid))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[initial] path: {exc}") from None
    else:
        # |v| <= |mean| + sum |c|, summed in v's order (rounding is monotonic): if finite, nothing overflows.
        if not math.isfinite(sum(map(abs, keys.get("cos", ()) + keys.get("sin", ())), abs(keys[key]))):
            raise ConfigError("[initial] field values must be finite")
        x, v = grid.x, np.full(grid.n, keys[key])
        for wave, coeffs in ((np.cos, keys.get("cos", ())), (np.sin, keys.get("sin", ()))):
            for k, c in enumerate(coeffs, start=1):
                v += c * wave(k * x)
        h0 = PeriodicField(grid, v)
    if float(np.min(h0.values)) < 0.0:
        raise ConfigError("[initial] evaluated initial data must be nonnegative")
    return h0


def _sections(text: str) -> dict:
    """The config text as {section: {key: text}}, [DEFAULT] an ordinary section; only the syntax is checked."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",), default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    return {s: dict(cp[s]) for s in cp.sections()}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key/value config into a RunConfig."""
    return _build(_sections(text))


def _build(raw: dict) -> RunConfig:
    """Validate {section: {key: text}} into a RunConfig."""
    for section in raw:
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in raw[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if "run" not in raw:
        raise ConfigError("missing required section [run]")
    run_keys = _read(raw, "run")
    mode = run_keys.get("mode")
    if mode not in _MODES:
        raise ConfigError(f"[run] mode must be one of {_MODES}, got {mode!r}")
    if run_keys.get("seed", 0) < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {run_keys['seed']}")

    required, optional = _MODE_SECTIONS[mode]
    present = set(raw) - {"run"}
    extra = present - required - optional
    if extra:
        raise ConfigError(f"mode {mode!r} does not accept section(s) {sorted(extra)}")
    missing = required - present
    if missing:
        raise ConfigError(f"mode {mode!r} requires section(s) {sorted(missing)}")

    with _section("grid"):
        grid = Grid(**_read(raw, "grid"))
    if grid.n > MAX_GRID_N:
        raise ConfigError(f"[grid] n: at most {MAX_GRID_N}, got {grid.n}")
    if mode == "steady":
        with _section("grid"):
            require_full_period(grid, "length: steady profiles are")
    if mode == "sweep":
        with _section("sweep"):
            spec = SweepSpec(**_read(raw, "sweep", "vary", "values"))
        # Each run, its initial field included, is built before the sweep writes anything.
        runs = tuple(_sweep_run(raw, spec.vary, v) for v in spec.values)
        return RunConfig(**run_keys, grid=grid, params=None, initial=None, evolve=None,
                         steady=None, sweep=spec, runs=runs, raw=raw)

    params = None
    if "params" in raw:
        physical = any(k in raw["params"] for k in ("chi", "mu"))
        if physical and any(k in raw["params"] for k in ("a0", "a1", "a2", "a3")):
            raise ConfigError("[params] give either a0..a3 or chi/mu, not both")
        if physical and "forcing" in raw["params"]:
            raise ConfigError("[params] forcing: the chi/mu form always uses sine forcing")
        keys = _read(raw, "params", *(("chi", "mu") if physical else ("a0", "a1", "a2", "a3")))
        forcing = keys.pop("forcing", "sine")
        if physical or forcing == "sine":
            with _section("grid"):
                require_full_period(grid, "length: sine forcing is")
        with _section("params"):
            if physical:
                params = from_physical(grid=grid, **keys)
            elif forcing in ("sine", "constant"):
                params = Params(**keys, w=getattr(Forcing, forcing)(grid))
            else:
                raise ValueError(f"forcing: unknown kind {forcing!r} (use sine or constant)")

    initial = None
    if "initial" in raw:
        initial = _initial(_read(raw, "initial", "kind"), grid)

    evolve_cfg = None
    if "evolve" in raw:
        keys = _read(raw, "evolve", "t_end")
        if "snapshots" in keys:
            keys["snapshot_times"] = keys.pop("snapshots")
        with _section("evolve"):
            knobs = RegularizationKnobs(
                **{f.name: keys.pop(f.name) for f in fields(RegularizationKnobs) if f.name in keys}
            )
            evolve_cfg = EvolveConfig(**keys, knobs=knobs)

    steady_spec = None
    if "steady" in raw:
        with _section("steady"):
            steady_spec = Continuation(**_read(raw, "steady", "targets", "mu"))

    return RunConfig(
        **run_keys,
        grid=grid,
        params=params,
        initial=initial,
        evolve=evolve_cfg,
        steady=steady_spec,
        sweep=None,
        raw=raw,
    )


def _sweep_run(raw: dict, vary: str, value: float) -> RunConfig:
    """The evolve run of one sweep value: the sweep's sections with vary set to value, errors naming it."""
    section, key = vary.split(".", 1)
    sections = {s: dict(kv) for s, kv in raw.items() if s != "sweep"}
    sections.setdefault(section, {})[key] = repr(value)
    sections["run"]["mode"] = "evolve"
    try:
        return _build(sections)
    except ConfigError as exc:
        raise ConfigError(f"[sweep] run {_sweep_dir(vary, value)}: {exc}") from None


def write_csv(path, columns: Sequence[str], rows) -> None:
    """A header line, then one line per row, every value to 17 significant digits, in one write."""
    cells = np.asarray(rows, dtype=float).ravel().tolist()
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n" + (line * (len(cells) // len(columns))) % tuple(cells))


@functools.lru_cache(maxsize=8)
def _field_csv_template(grid: Grid) -> str:
    """write_csv's text for the columns (x, h) on grid, with a %.17g slot per value.

    Every field written on one grid repeats the same x column, so it is
    formatted once here.
    """
    return "x,h\n" + "".join("%.17g,%%.17g\n" % x for x in grid.x.tolist())


def write_field_csv(f: PeriodicField, path) -> None:
    """Serialize as CSV under the header x,h, one row per sample, every value to 17 significant digits."""
    text = _field_csv_template(f.grid) % tuple(f.values.tolist())
    with open(path, "w") as fh:
        fh.write(text)


def read_field_csv(path, grid: Grid) -> np.ndarray:
    """The h column of a field CSV whose x column is grid's nodes, each within 1e-9 * max(1, length):
    write_field_csv's 17 digits of grid.x read back exactly at any origin."""
    with warnings.catch_warnings():
        # An empty or header-only file is reported by its shape, not by numpy's warning.
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (grid.n, 2):
        raise ValueError(f"expected two CSV columns (x,h), one row per [grid] node, in {path}: "
                         f"shape {data.shape} does not match ({grid.n}, 2)")
    if not np.all(np.abs(data[:, 0] - grid.x) <= 1e-9 * max(1.0, grid.length)):
        raise ValueError(f"x column in {path} does not match the [grid] nodes")
    return data[:, 1]


DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def write_diagnostics_csv(records: Sequence[DiagnosticsRecord], path) -> None:
    write_csv(path, DIAGNOSTICS_COLUMNS, [[getattr(r, c) for c in DIAGNOSTICS_COLUMNS] for r in records])


def write_branch_csv(profiles: Sequence[SteadyProfile], path) -> None:
    cols = ("step", "q", "mass", "min_h", "max_h", "residual_sup", "beta")
    rows = []
    for i, pr in enumerate(profiles):
        min_h, max_h = float(np.min(pr.h.values)), float(np.max(pr.h.values))
        rows.append((i, pr.q, pr.mass, min_h, max_h, pr.residual_sup, pr.beta))
    write_csv(path, cols, rows)


def _strict(value):
    """value with every non-finite float, at any depth, as None: strict JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """The one JSON format of the output trees: strict, sorted keys, indent 2, final newline."""
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_reports_json(reports: Sequence[BoundReport], path) -> None:
    write_json(path, [asdict(r) for r in reports])


def _write_manifest(out: Path, cfg: RunConfig, **entries) -> None:
    header = {"version": __version__, "mode": cfg.mode, "config": cfg.raw, "seed": cfg.seed}
    write_json(out / "manifest.json", {**header, **entries})


def _emit_error(exc: Exception) -> None:
    """One strict-JSON line on stderr: a non-finite number is written as null."""
    record = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("residual_sup", "iterations", "reason", "min_h", "t", "dt", "diverged"):
        if hasattr(exc, attr):
            record[attr] = getattr(exc, attr)
    print(json.dumps(_strict(record), sort_keys=True, allow_nan=False), file=sys.stderr)


def _mass_drift(traj) -> float:
    """Largest relative deviation of the snapshot masses from the initial mass."""
    m0 = traj.records[0].mass
    return max(abs(r.mass - m0) for r in traj.records) / max(abs(m0), 1e-300)


def _run_reports(traj, params) -> list[BoundReport]:
    """The run's bound monitors; per snapshot, the interpolation bound and the H1 growth bound."""
    reports = [
        dissipation_check(traj, params),
        gradient_bound_check(traj, params),
        BoundReport.check("mass_conservation", _mass_drift(traj), 1e-11),
    ]
    first = traj.records[0]
    for snap in traj.snapshots:
        if float(np.min(snap.field.values)) >= 0.0:
            rep = interpolation_check(snap.field)
            reports.append(replace(rep, name=f"interpolation@t={snap.t:g}"))
        bound = h1_growth_bound(first.energy, first.mass, snap.t, params, traj.k1_observed)
        reports.append(BoundReport.check(f"h1_growth@t={snap.t:g}", snap.record.h1**2, bound))
    return reports


def cmd_evolve(cfg: RunConfig) -> int:
    return _evolve(cfg)[0]


def _evolve(cfg: RunConfig) -> tuple:
    """(exit code, termination) of one evolve run; a failed run still writes its tree."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    code = 0
    try:
        traj = run(cfg.initial, cfg.params, cfg.evolve)
    except StepFailure as exc:
        _emit_error(exc)
        traj, code = exc.trajectory, 1
    snap_dir = out / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, snap in enumerate(traj.snapshots):
        fname = f"snapshot_{i:04d}.csv"
        write_field_csv(snap.field, snap_dir / fname)
        index.append({"index": i, "t": snap.t, "file": f"snapshots/{fname}",
                      "droplets": len(count_local_maxima(snap.field))})
    write_diagnostics_csv(traj.records, out / "diagnostics.csv")
    write_reports_json(_run_reports(traj, cfg.params), out / "bound_reports.json")
    _write_manifest(out, cfg, initial_lift=cfg.evolve.knobs.lift, termination=traj.termination,
                    snapshots=index)
    return code, traj.termination


def cmd_steady(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = cfg.steady
    grid = cfg.grid
    profiles, lost = [], None
    try:
        if spec.chi == 0.0:
            for q in spec.targets:
                profiles.append(moffatt_profile(spec.mu, q, grid))
        else:
            first = spec.targets[0]
            if spec.mode == "fixed_flux":
                h0, q0 = asymptotic_guess(first, grid), first
            else:
                q0 = first / grid.length
                h0 = grid.constant(q0)
            profiles = continue_branch(capillary_solve(h0, q0, first, spec), spec)
    except (BranchLost, NoConvergence) as exc:
        # Past the fold, or no first profile: the profiles before it are still written.
        lost = exc
    write_branch_csv(profiles, out / "branch.csv")
    prof_dir = out / "profiles"
    prof_dir.mkdir(exist_ok=True)
    index = []
    for i, prof in enumerate(profiles):
        fname = f"profile_{i:04d}.csv"
        write_field_csv(prof.h, prof_dir / fname)
        index.append(
            {
                "index": i,
                "q": prof.q,
                "mass": prof.mass,
                "residual_sup": prof.residual_sup,
                "beta": prof.beta,
                "file": f"profiles/{fname}",
            }
        )
    thresholds = None
    if spec.mu > 0.0:
        thresholds = {"critical_flux": critical_flux(spec.mu),
                      "nonexistence_threshold": nonexistence_threshold(spec.mu),
                      "pukhnachov_bound": pukhnachov_bound(spec.mu)}
    _write_manifest(out, cfg, profiles=index, thresholds=thresholds)
    if lost is not None:
        _emit_error(lost)
        return 1
    return 0


def _sweep_worker(args) -> dict:
    """Run one sweep value; its index entry names the run's directory relative to the
    sweep root, so the tree does not depend on where the sweep is written."""
    run_cfg, value, name = args
    code, termination = _evolve(run_cfg)
    return {"value": value, "dir": name, "exit_code": code, "termination": termination}


def cmd_sweep(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    spec = cfg.sweep
    jobs = []
    for run_cfg, v in zip(cfg.runs, spec.values):
        name = _sweep_dir(spec.vary, v)
        jobs.append((replace(run_cfg, output_dir=str(out / name)), v, name))
    out.mkdir(parents=True, exist_ok=True)
    # Never more processes than runs or cores, whatever the config asks for.
    workers = min(spec.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the pool's module costs every other CLI call about 20 ms to load.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]
    write_json(
        out / "sweep_index.json",
        {"version": __version__, "vary": spec.vary, "seed": cfg.seed, "runs": results},
    )
    return 0 if all(r["exit_code"] == 0 for r in results) else 1


def _check_battery(seed: int):
    """Deterministic invariant battery; yields one BoundReport per check."""
    rng = np.random.default_rng(seed)
    grid = Grid(n=64)

    # gradient_sq against pi sum k^2 c_k^2, the integral of v_x^2 of random trigonometric
    # data: it reads mode k's k^2 as 4 sin^2(k dx/2)/dx^2, within k^4 dx^2 / 12 below it.
    x, dx = grid.x, grid.dx
    for trial in range(3):
        c = rng.normal(size=4) * 0.1
        v = 1.0 + c[0] * np.cos(x) + c[1] * np.sin(x) + c[2] * np.cos(2 * x) + c[3] * np.sin(2 * x)
        k2, k4 = (c[0]**2 + c[1]**2 + 2.0**p * (c[2]**2 + c[3]**2) for p in (2, 4))  # sum k^p c_k^2
        yield BoundReport.check(f"gradient_sq_truncation[{trial}]", abs(math.pi * k2 - gradient_sq(v, dx)),
                                math.pi * dx**2 / 12.0 * k4, tolerance=1e-12)

    # Interpolation bound on random positive fields.
    for trial in range(3):
        coeffs = rng.normal(size=3) * 0.05
        v = 0.5 + coeffs[0] * np.cos(grid.x) + coeffs[1] * np.sin(2 * grid.x) \
            + coeffs[2] * np.cos(3 * grid.x)
        rep = interpolation_check(PeriodicField(grid, np.abs(v) + 0.01))
        yield replace(rep, name=f"interpolation[{trial}]")

    # Short unstable evolution: conservation, energy decay, dissipation ledger.
    params = Params(a0=1.0, a1=16.0, a2=0.0, a3=0.0, w=Forcing.sine(grid))
    h0 = PeriodicField(grid, 0.3 + 0.02 * np.cos(grid.x) + 0.02 * np.cos(2 * grid.x))
    cfg = EvolveConfig(t_end=1.0, dt_init=1e-4, dt_max=0.02, snapshot_times=[0.5, 1.0])
    traj = run(h0, params, cfg)
    yield BoundReport.check("evolve_mass_conservation", _mass_drift(traj), 1e-11)
    yield BoundReport.check("evolve_energy_monotone", traj.energy_rise_max, 1e-8)
    yield dissipation_check(traj, params)
    yield gradient_bound_check(traj, params)
    tloc = local_existence_time(traj.fields[0], params)
    # 0 <= tloc - ulp(0) holds exactly when tloc > 0, the smallest positive float included.
    yield BoundReport.check("local_existence_positive", 0.0, tloc, tolerance=-math.ulp(0.0))

    # Steady-state residual identities at a modest flux.
    prof = moffatt_profile(1.0, 0.5, Grid(n=256))
    rep = solvability_residuals(prof)
    yield BoundReport.check("steady_mean_identity", abs(rep.r0), 1e-6)
    yield BoundReport.check("steady_weighted_identity", abs(rep.r1), 1e-6)
    yield BoundReport.check("steady_flux_bound", prof.beta, FLUX_BOUND_RATIO + 1e-9)


def cmd_check(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for report in _check_battery(cfg.seed):
        reports.append(report)
        status = "PASS" if report.satisfied else "FAIL"
        print(f"{status} {report.name}: lhs={report.lhs:.6g} rhs={report.rhs:.6g}")
    write_reports_json(reports, out / "check_reports.json")
    return 0 if all(r.satisfied for r in reports) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rimflow",
        description="Numerical laboratory for a long-wave unstable thin-film equation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODES:
        p = sub.add_parser(name, help=f"run a config file in {name} mode")
        p.add_argument("config", help="path to the config file")
        p.add_argument("--output-dir", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "--snapshots",
            default=None,
            help="comma-separated snapshot times (evolve mode)",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        raw = _sections(Path(args.config).read_text())
        # The overrides are config edits: every run built from the sections,
        # each sweep run included, sees them, and each manifest echoes them.
        if args.seed is not None and "run" in raw:
            raw["run"]["seed"] = str(args.seed)
        if args.snapshots is not None:
            if "evolve" not in raw:
                raise ConfigError("--snapshots only applies to configs with an [evolve] section")
            raw["evolve"]["snapshots"] = args.snapshots
        cfg = _build(raw)
        if cfg.mode != args.command:
            raise ConfigError(
                f"config declares mode {cfg.mode!r} but was invoked as {args.command!r}"
            )
        cfg = replace(cfg, output_dir=args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
        return {
            "evolve": cmd_evolve,
            "steady": cmd_steady,
            "sweep": cmd_sweep,
            "check": cmd_check,
        }[cfg.mode](cfg)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except (OSError, ValueError, StepFailure, BranchLost, NoConvergence) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
