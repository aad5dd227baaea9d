"""End-to-end command line runs against temporary output trees."""
import concurrent.futures
import csv
import dataclasses
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rimflow.evolve
from rimflow import cli
from rimflow.bounds import BoundReport
from rimflow.cli import (OUTPUT_DIR_ENV, ConfigError, main, parse_config, read_field_csv,
                         write_field_csv)
from rimflow.evolve import EvolveConfig
from rimflow.grid import Grid, PeriodicField
from rimflow.model import Forcing, RegularizationKnobs
from rimflow.steady import (
    Continuation,
    NoConvergence,
    critical_flux,
    nonexistence_threshold,
    pukhnachov_bound,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

EVOLVE_TEMPLATE = """
[run]
mode = evolve
output_dir = {out}

[grid]
n = 64

[params]
a0 = 1.0
a1 = 16.0
a2 = 0.0
a3 = 0.0

[initial]
kind = trig
mean = 0.3
cos = 0.02, 0.02

[evolve]
t_end = 0.5
dt_init = 1e-4
dt_max = 0.001
epsilon = 0.0
snapshots = 0.25
"""


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def single_error(capsys, kind):
    """The one JSON line main printed on stderr, checked to name the error kind."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == kind
    return record


# parse_config samples the forcing on the grid when there is a [params]
# section; a huge [grid] n must be refused before that (MAX_GRID_N).
FUZZ_TOKENS = (
    "-1", "0", "1", "2", "7", "8", "64", "4096", "1000000000000000", "0.5", "1e-300", "-0.0",
    "nan", "inf",
    "-inf", "1e999", "abc", "", "6.283185307179586", "0.1, 0.1000001", "1, 1", "0, 1",
    "evolve", "steady", "sweep", "check", "constant", "trig", "file", "sine", "fixed_flux",
    "fixed_mass", "params.a3", "grid.n", "run.seed",
)


FUZZ_BASES = {
    "evolve": {"params": {"a0": "1", "a1": "16", "a2": "0", "a3": "0"},
               "initial": {"kind": "constant", "value": "0.3"},
               "evolve": {"t_end": "0.5"}},
    "steady": {"steady": {"mu": "1", "targets": "0.2"}},
    "check": {},
}
FUZZ_BASES["sweep"] = {**FUZZ_BASES["evolve"], "sweep": {"vary": "params.a3", "values": "0, 1"}}


def knob_text(key, value):
    """A valid evolve config with one [evolve] regularization knob set to value."""
    return ("[run]\nmode = evolve\n[params]\na0 = 1\na1 = 16\na2 = 0\na3 = 0\n"
            "[initial]\nkind = constant\nvalue = 0.3\n"
            f"[evolve]\nt_end = 0.5\n{key} = {value}\n")


@st.composite
def config_texts(draw):
    """A valid config of a drawn mode with up to four keys set to drawn tokens or removed."""
    mode = draw(st.sampled_from(sorted(FUZZ_BASES)))
    sections = {"run": {"mode": mode}}
    sections.update((name, dict(keys)) for name, keys in FUZZ_BASES[mode].items())
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(cli._SECTION_KEYS)))
        key = draw(st.sampled_from(sorted(cli._SECTION_KEYS[name])))
        value = draw(st.sampled_from((None,) + FUZZ_TOKENS))
        if value is None:
            sections.get(name, {}).pop(key, None)
        else:
            sections.setdefault(name, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


class TestParseConfig:
    def test_minimal_evolve(self, tmp_path):
        cfg = parse_config(EVOLVE_TEMPLATE.format(out=tmp_path / "out"))
        assert cfg.mode == "evolve"
        assert cfg.grid.n == 64
        assert cfg.params.a1 == 16.0
        assert cfg.evolve.t_end == 0.5
        assert cfg.evolve.snapshot_times == (0.25,)
        assert cfg.evolve.knobs.epsilon == 0.0

    def test_trig_initial_data_samples_cos_and_sin_terms(self, tmp_path):
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace(
            "cos = 0.02, 0.02", "cos = 0.02, 0.01\nsin = 0.03, 0, -0.04")
        cfg = parse_config(text)
        x = cfg.grid.x
        want = 0.3 + 0.02 * np.cos(x) + 0.01 * np.cos(2 * x) \
            + 0.03 * np.sin(x) + 0.0 * np.sin(2 * x) - 0.04 * np.sin(3 * x)
        np.testing.assert_allclose(cfg.initial.values, want, rtol=0, atol=1e-15)

    def test_grid_defaults_when_section_missing(self):
        text = ("[run]\nmode = evolve\n[params]\na0=1\na1=1\na2=0\na3=0\n"
                "[initial]\nkind = constant\nvalue = 0.3\n[evolve]\nt_end = 0.1\n")
        cfg = parse_config(text)
        assert cfg.grid.n == 256
        assert cfg.grid.length == pytest.approx(2.0 * math.pi)

    def test_physical_parameters_map(self):
        text = ("[run]\nmode = evolve\n[params]\nchi = 3.0\nmu = 3.0\n"
                "[initial]\nkind = constant\nvalue = 0.3\n[evolve]\nt_end = 0.1\n")
        cfg = parse_config(text)
        assert (cfg.params.a0, cfg.params.a1) == (1.0, 1.0)
        assert (cfg.params.a2, cfg.params.a3) == (-1.0, 1.0)

    @pytest.mark.parametrize("mutation,needle", [
        ("[bogus]\nx = 1\n", "unknown section"),
        ("[sweep]\nteeth = 3\n", "unknown key"),
        ("[steady]\ntargets = 0.1\nmu = 1\n", "does not accept"),
        # configparser would copy a [DEFAULT]'s keys into every other section.
        ("[DEFAULT]\nmode = check\n", r"^unknown section \[DEFAULT\]$"),
        ("[DEFAULT]\nfoo = 1\n", r"^unknown section \[DEFAULT\]$"),
    ])
    def test_rejects_unknown_structure(self, tmp_path, mutation, needle):
        text = EVOLVE_TEMPLATE.format(out=tmp_path) + mutation
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    def test_requires_run_section(self):
        with pytest.raises(ConfigError, match="missing required section"):
            parse_config("[grid]\nn = 64\n")

    def test_requires_known_mode(self):
        with pytest.raises(ConfigError, match="mode must be one of"):
            parse_config("[run]\nmode = dance\n")

    def test_requires_mode_sections(self):
        with pytest.raises(ConfigError, match="requires section"):
            parse_config("[run]\nmode = evolve\n[params]\na0=1\na1=1\na2=0\na3=0\n")

    def test_rejects_mixed_parameterizations(self):
        text = ("[run]\nmode = evolve\n[params]\na0 = 1\nchi = 3\n"
                "[initial]\nkind = constant\nvalue = 0.3\n[evolve]\nt_end = 0.1\n")
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_physical_form_rejects_forcing(self):
        text = ("[run]\nmode = evolve\n[params]\nchi = 3\nmu = 3\nforcing = constant\n"
                "[initial]\nkind = constant\nvalue = 0.3\n[evolve]\nt_end = 0.1\n")
        with pytest.raises(ConfigError, match=r"\[params\] forcing"):
            parse_config(text)

    def test_readme_config_blocks_parse(self):
        # The first block is a whole evolve config; the [steady] and [sweep]
        # blocks parse under a [run] of their mode, the sweep on top of the
        # first block's evolve sections.
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        sections = {}
        for block in blocks:
            for chunk in re.split(r"(?m)^(?=\[)", block):
                if chunk.strip():
                    sections[re.match(r"\[(\w+)\]", chunk).group(1)] = chunk
        assert parse_config(blocks[0]).mode == "evolve"
        steady = parse_config("[run]\nmode = steady\n" + sections["steady"])
        assert steady.steady.targets == (0.1, 0.2, 0.3)
        body = "".join(sections[s] for s in ("params", "initial", "evolve", "sweep"))
        sweep = parse_config("[run]\nmode = sweep\n" + body)
        assert sweep.sweep.values == (0.0, 1.0, 2.0, 3.0)

    def test_rejects_bad_number(self, tmp_path):
        text = EVOLVE_TEMPLATE.format(out=tmp_path).replace("a1 = 16.0", "a1 = wide")
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(text)

    def test_rejects_unknown_initial_kind(self, tmp_path):
        text = EVOLVE_TEMPLATE.format(out=tmp_path).replace("kind = trig",
                                                            "kind = wavelet")
        with pytest.raises(ConfigError, match="kind must be"):
            parse_config(text)

    def test_steady_needs_targets(self):
        text = "[run]\nmode = steady\n[steady]\nmu = 1.0\n"
        with pytest.raises(ConfigError, match="targets"):
            parse_config(text)

    @settings(max_examples=300, deadline=None)
    @given(text=config_texts())
    @example(text=knob_text("epsilon", "nan"))
    @example(text=knob_text("epsilon", "inf"))
    @example(text=knob_text("delta", "nan"))
    @example(text=knob_text("delta", "inf"))
    def test_fuzzed_configs_raise_only_config_errors(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    def test_sweep_vary_must_name_known_key(self, tmp_path):
        text = EVOLVE_TEMPLATE.format(out=tmp_path).replace(
            "mode = evolve", "mode = sweep")
        text += "[sweep]\nvary = params.zeta\nvalues = 1, 2\n"
        with pytest.raises(ConfigError, match="unknown target"):
            parse_config(text)


# (section, key) -> (config text, value it must reach) for every key in the
# schema, none of them at its default.  grid.length stays 2*pi where the sine
# forcing of chi/mu or a steady profile needs it.
EVERY_KEY = {
    "grid": {"n": ("64", 64), "length": ("4.0", 4.0), "origin": ("0.25", 0.25)},
    "params": {"a0": ("2", 2.0), "a1": ("3", 3.0), "a2": ("-1", -1.0), "a3": ("0.5", 0.5),
               "forcing": ("constant", "constant")},
    "evolve": {"t_end": ("0.5", 0.5), "dt_init": ("2e-6", 2e-6), "dt_min": ("1e-12", 1e-12),
               "dt_max": ("0.02", 0.02), "newton_tol": ("1e-9", 1e-9),
               "newton_max_iter": ("9", 9), "snapshots": ("0.1, 0.2", (0.1, 0.2)),
               "delta": ("1e-3", 1e-3), "epsilon": ("1e-5", 1e-5), "theta": ("0.2", 0.2)},
    "steady": {"mode": ("fixed_mass", "fixed_mass"), "targets": ("0.8, 0.9", (0.8, 0.9)),
               "mu": ("2", 2.0), "chi": ("3", 3.0), "tol": ("1e-9", 1e-9),
               "max_newton": ("20", 20)},
    "sweep": {"vary": ("params.chi", "params.chi"), "values": ("2, 4", (2.0, 4.0)),
              "workers": ("1", 1)},
}
# [initial] per kind: each kind takes only the keys it reads.  [initial]
# sets no dataclass field; its keys are checked against the starting field.
INITIAL_KEYS = {
    "constant": {"kind": ("constant", "constant"), "value": ("0.4", 0.4)},
    "trig": {"kind": ("trig", "trig"), "mean": ("0.35", 0.35),
             "cos": ("0.01, 0.02", (0.01, 0.02)), "sin": ("0.03", (0.03,))},
    "file": {"kind": ("file", "file"), "path": ("h0.csv", "h0.csv")},
}
PHYSICAL = {"chi": ("6", 6.0), "mu": ("1.5", 1.5)}
MODE_SECTIONS = {"evolve": ("grid", "params", "initial", "evolve"), "steady": ("grid", "steady"),
                 "sweep": ("grid", "params", "initial", "evolve", "sweep"), "check": ()}
# The fewest keys each mode accepts.
REQUIRED = {"params": {"a0": "1", "a1": "16", "a2": "0", "a3": "0"},
            "initial": {"kind": "constant", "value": "0.3"}, "evolve": {"t_end": "0.5"},
            "steady": {"mu": "1", "targets": "0.2"}, "sweep": {"vary": "params.a3", "values": "0"}}
# The dataclass a key sets when it is left out.
OWNER = {"run": cli.RunConfig, "grid": Grid, "evolve": EvolveConfig,
         "steady": Continuation, "sweep": cli.SweepSpec}
# The samples of each INITIAL_KEYS kind at the nodes x; the file kind's h0.csv holds these.
INITIAL_SAMPLES = {
    "constant": lambda x: np.full(x.shape, 0.4),
    "trig": lambda x: 0.35 + 0.01 * np.cos(x) + 0.02 * np.cos(2 * x) + 0.03 * np.sin(x),
    "file": lambda x: 0.3 + 0.1 * np.sin(x) ** 2,
}


def reached(cfg, section, key):
    """The RunConfig field that [section] key sets."""
    if section == "run":
        return getattr(cfg, key)
    if section == "evolve" and key == "snapshots":
        return cfg.evolve.snapshot_times
    if section == "evolve" and key in ("delta", "epsilon", "theta"):
        return getattr(cfg.evolve.knobs, key)
    return getattr(getattr(cfg, section), key)


def field_default(cls, name):
    f = {f.name: f for f in dataclasses.fields(cls)}[name]
    return f.default_factory() if f.default is dataclasses.MISSING else f.default


def render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


class TestSchema:
    @pytest.mark.parametrize("mode", sorted(MODE_SECTIONS))
    def test_every_key_reaches_its_field(self, mode, tmp_path, monkeypatch):
        # [initial] is given once per kind, with the keys that kind reads.
        monkeypatch.chdir(tmp_path)
        run = {"mode": (mode, mode), "output_dir": ("elsewhere", "elsewhere"), "seed": ("7", 7)}
        kinds = INITIAL_KEYS if "initial" in MODE_SECTIONS[mode] else [None]
        for kind in kinds:
            given = {"run": run, **{s: dict(EVERY_KEY[s]) for s in MODE_SECTIONS[mode] if s != "initial"}}
            if kind is not None:
                given["initial"] = INITIAL_KEYS[kind]
            if mode == "sweep":
                # The other form of [params]; its sine forcing needs a 2*pi domain.
                given["params"] = PHYSICAL
            if mode in ("sweep", "steady"):
                given["grid"]["length"] = (repr(2.0 * math.pi), 2.0 * math.pi)
            if kind == "file":
                grid = Grid(**{k: v for k, (_, v) in given["grid"].items()})
                write_field_csv(PeriodicField(grid, INITIAL_SAMPLES["file"](grid.x)), "h0.csv")
            cfg = parse_config(render({s: {k: t for k, (t, _) in kv.items()} for s, kv in given.items()}))
            # A sweep's [evolve], [params] and [initial] reach each of its runs.
            runs = cfg.runs if mode == "sweep" else (cfg,)
            for section, keys in given.items():
                for key, (_, value) in keys.items():
                    if section not in ("params", "initial"):
                        for owner in (runs if section == "evolve" else (cfg,)):
                            assert reached(owner, section, key) == value, (section, key)
            if kind is not None:
                for r in runs:
                    assert r.initial.grid == r.grid == cfg.grid
                    np.testing.assert_allclose(r.initial.values, INITIAL_SAMPLES[kind](r.grid.x),
                                               rtol=0, atol=1e-15)
            if mode == "evolve":
                assert (cfg.params.a0, cfg.params.a1, cfg.params.a2, cfg.params.a3) == (2.0, 3.0, -1.0, 0.5)
                assert not np.any(cfg.params.w.w) and not np.any(cfg.params.w.wp)
            if mode == "sweep":
                assert (cfg.params, cfg.initial, cfg.evolve) == (None, None, None)
                # vary = params.chi: each run's chi is its value, and mu = 1.5 gives a2.
                assert [(r.params.a0, r.params.a2) for r in runs] == [(2 / 3, -0.5), (4 / 3, -0.5)]
            if mode == "steady":
                assert cfg.steady == Continuation((0.8, 0.9), 2.0, 3.0, "fixed_mass", 1e-9, 20)

    def test_every_schema_key_is_covered(self):
        covered = {s: set(EVERY_KEY[s]) for s in EVERY_KEY}
        covered["initial"] = set().union(*INITIAL_KEYS.values())
        covered["params"] |= set(PHYSICAL)
        covered["run"] = {"mode", "output_dir", "seed"}
        assert covered == {s: set(keys) for s, keys in cli._SECTION_KEYS.items()}

    @pytest.mark.parametrize("mode", sorted(MODE_SECTIONS))
    def test_left_out_keys_take_the_dataclass_defaults(self, mode):
        given = {"run": {"mode": mode},
                 **{s: REQUIRED[s] for s in MODE_SECTIONS[mode] if s in REQUIRED}}
        cfg = parse_config(render(given))
        runs = cfg.runs if mode == "sweep" else (cfg,)
        checked = 0
        for section in ("run", *MODE_SECTIONS[mode]):
            for key in cli._SECTION_KEYS[section]:
                if section in ("params", "initial") or key in given.get(section, {}):
                    continue
                if section == "evolve" and key in ("delta", "epsilon", "theta"):
                    default = field_default(RegularizationKnobs, key)
                elif section == "evolve" and key == "snapshots":
                    default = field_default(EvolveConfig, "snapshot_times")
                else:
                    default = field_default(OWNER[section], key)
                for owner in (runs if section == "evolve" else (cfg,)):
                    assert reached(owner, section, key) == default, (section, key)
                checked += 1
        assert checked >= 2
        if mode == "steady":
            assert cfg.steady == Continuation((0.2,), 1.0)
        if mode in ("evolve", "sweep"):
            for r in runs:
                # No cos or sin terms: the constant value at every node.
                assert np.array_equal(r.initial.values, np.full(r.grid.n, 0.3))
                assert np.array_equal(r.params.w.wp_mid, Forcing.sine(r.grid).wp_mid)
                assert r.evolve.knobs == RegularizationKnobs()


class TestEvolveCommand:
    def test_tracer_counts_match_an_untraced_run(self, tmp_path, monkeypatch):
        # perfbench's tracer wraps rimflow.evolve.step and reads each accepted
        # step's attempt, result and Newton iterations (its _step_tag).  Its
        # counts must equal those read off the attempts of an untraced run.
        text = (EVOLVE_TEMPLATE.replace("t_end = 0.5", "t_end = 2.0")
                .replace("dt_init = 1e-4", "dt_init = 0.5")
                .replace("dt_max = 0.001", "dt_max = 0.5\nnewton_max_iter = 4")
                .replace("snapshots = 0.25", "snapshots = 0.7"))
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "out"))
        attempts = []  # (hold, dt, stats) of every solve, rejected ones too
        solve = rimflow.evolve._System.solve

        def recording_solve(sysm, hold, dt, *args):
            u, stats = solve(sysm, hold, dt, *args)
            attempts.append((hold, dt, stats))
            return u, stats

        with monkeypatch.context() as patch:
            patch.setattr(rimflow.evolve._System, "solve", recording_solve)
            assert main(["evolve", cfg]) == 0
        # Attempts from one state share its array; the last of them is accepted.
        steps = []
        for hold, dt, stats in attempts:
            if steps and steps[-1][0] is hold:
                steps[-1][1].append((dt, stats))
            else:
                steps.append((hold, [(dt, stats)]))
        counts = {"evolve.accepted_steps": len(steps),
                  "evolve.rejected_attempts": sum(len(tries) - 1 for _, tries in steps),
                  "evolve.newton_iters": sum(tries[-1][1].iterations for _, tries in steps)}
        assert counts["evolve.accepted_steps"] == 10 and counts["evolve.rejected_attempts"] == 3
        # One step is cut short to land on t = 0.7; the tracer must not count it as rejected.
        ends = np.cumsum([tries[-1][0] for _, tries in steps])
        assert np.abs(ends - 0.7).min() <= 1e-12 and ends[-1] == pytest.approx(2.0, abs=1e-12)

        spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        traced = tracer.Tracer()
        traced.install()
        try:
            assert main(["evolve", cfg]) == 0
        finally:
            traced.restore()
        metrics = tracer.layer_metrics(traced.spans, traced.absent, 0)
        assert {name: metrics[name] for name in counts} == counts

    def test_non_finite_reports_are_strict_json_nulls(self, tmp_path):
        # A flat film without forcing has int h_x^2 = 0 at both ends, so the
        # gradient_growth report compares log 0 = -inf with -inf: the tree
        # writes each non-finite number as null, which a strict parser reads.
        out = tmp_path / "out"
        text = ("[run]\nmode = evolve\n[grid]\nn = 32\n"
                "[params]\na0 = 1\na1 = 1\na2 = 0\na3 = 0\nforcing = constant\n"
                "[initial]\nkind = constant\nvalue = 0.3\n[evolve]\nt_end = 0.01\n")
        assert main(["evolve", write_cfg(tmp_path, text), "--output-dir", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        for path in sorted(out.glob("*.json")):
            json.loads(path.read_text(), parse_constant=refuse)
        reports = json.loads((out / "bound_reports.json").read_text())
        growth = next(r for r in reports if r["name"] == "gradient_growth")
        assert growth["lhs"] is growth["rhs"] is growth["slack"] is None
        assert growth["satisfied"]

    def test_end_to_end_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=out))
        assert main(["evolve", cfg]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "evolve"
        assert manifest["termination"] == "t_end"
        assert [s["t"] for s in manifest["snapshots"]] == pytest.approx(
            [0.0, 0.25, 0.5], abs=1e-12)
        for entry in manifest["snapshots"]:
            assert (out / entry["file"]).exists()
        # 0.3 + 0.02 (cos x + cos 2x) peaks at x = 0 and, lower, at x = pi.
        assert manifest["snapshots"][0]["droplets"] == 2

        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        masses = [float(r["mass"]) for r in rows]
        assert masses[1] == pytest.approx(masses[0], rel=1e-12)

        reports = json.loads((out / "bound_reports.json").read_text())
        names = [r["name"] for r in reports]
        assert "dissipation" in names
        assert "gradient_growth" in names
        assert "mass_conservation" in names
        assert any(n.startswith("interpolation@t=") for n in names)
        # One H1 growth entry per snapshot: ||h(t)||_H1^2 against its bound.
        h1 = [r for r in reports if r["name"].startswith("h1_growth@t=")]
        assert [r["name"] for r in h1] == ["h1_growth@t=0", "h1_growth@t=0.25", "h1_growth@t=0.5"]
        assert [r["lhs"] for r in h1] == [float(row["h1"]) ** 2 for row in rows]
        assert all(r["satisfied"] for r in reports)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=tmp_path / "a"))
        assert main(["evolve", cfg, "--output-dir", str(tmp_path / "b")]) == 0
        assert main(["evolve", cfg, "--output-dir", str(tmp_path / "c")]) == 0
        for name in ("diagnostics.csv", "bound_reports.json", "manifest.json",
                     "snapshots/snapshot_0002.csv"):
            assert (tmp_path / "b" / name).read_bytes() == \
                (tmp_path / "c" / name).read_bytes()

    def test_snapshots_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=out))
        assert main(["evolve", cfg, "--snapshots", "0.1,0.2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["t"] for s in manifest["snapshots"]] == pytest.approx(
            [0.0, 0.1, 0.2, 0.5], abs=1e-12)

    def test_failure_writes_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = """
[run]
mode = evolve
output_dir = {out}

[grid]
n = 64

[params]
a0 = 1.0
a1 = 400.0
a2 = 0.0
a3 = 0.0

[initial]
kind = trig
mean = 0.3
cos = 0.05

[evolve]
t_end = 10.0
dt_init = 1.0
dt_min = 1.0
dt_max = 1.0
newton_max_iter = 2
epsilon = 0.0
""".format(out=out)
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 1
        assert single_error(capsys, "StepFailure")["diverged"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "failed"
        assert (out / "diagnostics.csv").exists()

    def test_file_initial_data(self, tmp_path):
        g = Grid(n=64)
        field_path = tmp_path / "h0.csv"
        write_field_csv(PeriodicField(g, 0.3 + 0.02 * np.cos(g.x)), field_path)
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02",
            f"kind = file\npath = {field_path}")
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 0

    def test_file_initial_data_far_from_the_origin_runs_on_the_config_grid(self, tmp_path):
        # An x column is checked against the [grid] nodes and not read
        # further: the run uses the [grid] section's grid, exactly as a trig
        # start with the same values does.
        text = EVOLVE_TEMPLATE.replace("n = 64", "n = 96\norigin = 10000.0")
        trig = text.format(out=tmp_path / "trig")
        cfg = parse_config(trig)
        field_path = tmp_path / "h0.csv"
        write_field_csv(cfg.initial, field_path)
        from_file = text.format(out=tmp_path / "file").replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02", f"kind = file\npath = {field_path}")
        assert main(["evolve", write_cfg(tmp_path, trig, "trig.ini")]) == 0
        assert main(["evolve", write_cfg(tmp_path, from_file, "file.ini")]) == 0
        names = ["diagnostics.csv", "bound_reports.json"]
        names += [f"snapshots/{p.name}" for p in sorted((tmp_path / "trig" / "snapshots").iterdir())]
        assert len(names) == 5
        for name in names:
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "trig" / name).read_bytes()

    @pytest.mark.parametrize("origin", ["0", "1e4", "1e6", "1e8"])
    def test_file_initial_data_restarts_from_its_own_snapshot(self, tmp_path, origin):
        # write_field_csv writes x to 17 digits from grid.x, and the file kind
        # reads it back against the same nodes, so a run at any origin can
        # restart from its last snapshot.
        text = EVOLVE_TEMPLATE.replace("n = 64", f"n = 64\norigin = {origin}")
        first = tmp_path / "first"
        assert main(["evolve", write_cfg(tmp_path, text.format(out=first), "first.ini")]) == 0
        last = json.loads((first / "manifest.json").read_text())["snapshots"][-1]["file"]
        restart = text.format(out=tmp_path / "restart").replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02", f"kind = file\npath = {first / last}")
        assert main(["evolve", write_cfg(tmp_path, restart, "restart.ini")]) == 0
        assert (tmp_path / "restart" / "manifest.json").exists()
        assert (tmp_path / "restart" / "snapshots" / "snapshot_0002.csv").exists()

    def test_file_grid_mismatch_fails(self, tmp_path, capsys):
        g = Grid(n=32)
        field_path = tmp_path / "h0.csv"
        write_field_csv(g.constant(0.3), field_path)
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02",
            f"kind = file\npath = {field_path}")
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("table, needle", [
        # One row per [grid] node, n = 64.
        ("x,h\n" + "".join(f"{0.5 * i},0.3\n" for i in range(9)), "shape (9, 2) does not match (64, 2)"),
        ("x,h,extra\n" + "".join(f"{0.5 * i},0.3,0\n" for i in range(8)),
         "expected two CSV columns"),
        # No rows: a ConfigError, not numpy's "input contained no data" warning.
        ("x,h\n", "does not match (64, 2)"),
        ("", "does not match (64, 2)"),
    ], ids=["odd_rows", "three_columns", "header_only", "empty"])
    def test_malformed_field_file_is_config_error(self, tmp_path, capsys, table, needle):
        field_path = tmp_path / "h0.csv"
        field_path.write_text(table)
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02",
            f"kind = file\npath = {field_path}")
        assert main(["evolve", write_cfg(tmp_path, text)]) == 2
        message = single_error(capsys, "ConfigError")["message"]
        assert message.startswith("[initial] path: ") and needle in message
        assert not out.exists()

    def test_missing_field_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02",
            f"kind = file\npath = {tmp_path / 'nope.csv'}")
        assert main(["evolve", write_cfg(tmp_path, text)]) == 2
        message = single_error(capsys, "ConfigError")["message"]
        assert message.startswith("[initial] path: ") and "nope.csv" in message
        assert not out.exists()

    def test_negative_initial_data_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace(
            "mean = 0.3", "mean = 0.001")
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 2
        assert "nonnegative" in capsys.readouterr().err


class TestOutputDirPrecedence:
    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=tmp_path / "cfgdir"))
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envdir"))
        assert main(["evolve", cfg, "--output-dir", str(tmp_path / "flagdir")]) == 0
        assert (tmp_path / "flagdir" / "manifest.json").exists()
        assert not (tmp_path / "envdir").exists()
        assert not (tmp_path / "cfgdir").exists()

        assert main(["evolve", cfg]) == 0
        assert (tmp_path / "envdir" / "manifest.json").exists()
        assert not (tmp_path / "cfgdir").exists()

    def test_config_dir_used_by_default(self, tmp_path):
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=tmp_path / "cfgdir"))
        assert main(["evolve", cfg]) == 0
        assert (tmp_path / "cfgdir" / "manifest.json").exists()

    def test_seed_override_lands_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=out))
        assert main(["evolve", cfg, "--seed", "7"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7


class TestModeAndParseErrors:
    def test_mode_mismatch_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, EVOLVE_TEMPLATE.format(out=tmp_path / "out"))
        assert main(["steady", cfg]) == 2

    def test_bad_syntax_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "not an ini file [\n")
        assert main(["evolve", cfg]) == 2

    @pytest.mark.parametrize("key", ["positivity_floor", "alpha"])
    def test_removed_evolve_keys_are_config_errors(self, tmp_path, capsys, key):
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out") + f"{key} = 0.5\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,needle", [
        ("n = 7", "grid size must be even"),
        ("length = -1", "grid length must be positive and finite"),
        ("length = inf", "grid length must be positive and finite"),
        # Steady profiles need the full period, within 1e-9 of 2*pi.
        ("length = 4.0", "length: steady profiles are defined on a full period of length 2*pi, got 4.0"),
        ("length = 6.2831853", "length: steady profiles are defined on a full period"),
    ])
    def test_bad_grid_values_are_config_errors(self, tmp_path, capsys, line, needle):
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\n{}\n"
                "[steady]\nmu = 1.0\ntargets = 0.2\n").format(tmp_path / "out", line)
        with pytest.raises(ConfigError, match=r"\[grid\] " + re.escape(needle)):
            parse_config(text)
        assert main(["steady", write_cfg(tmp_path, text)]) == 2
        assert needle in single_error(capsys, "ConfigError")["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params", [
        "chi = 1.0\nmu = 1.0",
        "a0 = 1.0\na1 = 16.0\na2 = 0.0\na3 = 0.0",
        "a0 = 1.0\na1 = 16.0\na2 = 0.0\na3 = 0.0\nforcing = sine",
    ], ids=["chi_mu", "default_forcing", "sine_forcing"])
    def test_sine_forcing_off_two_pi_is_a_grid_length_error(self, tmp_path, capsys, params):
        # The steady profiles' 2*pi rule, with the same message form and exit code.
        out = tmp_path / "out"
        text = (EVOLVE_TEMPLATE.format(out=out).replace("n = 64\n", "n = 64\nlength = 4.0\n")
                .replace("a0 = 1.0\na1 = 16.0\na2 = 0.0\na3 = 0.0", params))
        message = "[grid] length: sine forcing is defined on a full period of length 2*pi, got 4.0"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message
        assert main(["evolve", write_cfg(tmp_path, text)]) == 2
        assert single_error(capsys, "ConfigError")["message"] == message
        assert not out.exists()
        constant = text.replace(params, "a0 = 1.0\na1 = 16.0\na2 = 0.0\na3 = 0.0\nforcing = constant")
        assert parse_config(constant).grid.length == 4.0

    @pytest.mark.parametrize("initial,unread", [
        ("kind = constant\nvalue = 0.3\nmean = 0.5\ncos = 0.1\npath = nowhere.csv",
         "kind=constant does not take key(s) ['cos', 'mean', 'path']"),
        ("kind = trig\nmean = 0.3\ncos = 0.02\nvalue = 0.3", "kind=trig does not take key(s) ['value']"),
        ("kind = file\npath = h0.csv\nsin =", "kind=file does not take key(s) ['sin']"),
    ], ids=["constant", "trig", "file"])
    def test_initial_keys_the_kind_does_not_read_are_config_errors(self, tmp_path, capsys,
                                                                  initial, unread):
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace("kind = trig\nmean = 0.3\ncos = 0.02, 0.02",
                                                       initial)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == f"[initial] {unread}"
        assert main(["evolve", write_cfg(tmp_path, text)]) == 2
        assert single_error(capsys, "ConfigError")["message"] == f"[initial] {unread}"
        assert not out.exists()

    def test_sweep_over_a_key_the_initial_kind_does_not_read_is_config_error(self, tmp_path, capsys):
        # Each run would drop the varied mean: N identical trees.
        out = tmp_path / "out"
        text = (EVOLVE_TEMPLATE.format(out=out).replace("mode = evolve", "mode = sweep")
                .replace("kind = trig\nmean = 0.3\ncos = 0.02, 0.02", "kind = constant\nvalue = 0.3")
                + "[sweep]\nvary = initial.mean\nvalues = 0.3, 0.4\n")
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        assert single_error(capsys, "ConfigError")["message"] == (
            "[sweep] run mean=0.3: [initial] kind=constant does not take key(s) ['mean']")
        assert not out.exists()

    @pytest.mark.parametrize("n", [cli.MAX_GRID_N + 2, 10**15, 2**70])
    def test_huge_grid_is_config_error_before_sampling(self, tmp_path, capsys, monkeypatch, n):
        # Nothing of size n may be built: sampling the forcing would fail the test.
        class NoForcing:
            @staticmethod
            def sine(grid):
                raise AssertionError(f"forcing sampled on n={grid.n}")

        monkeypatch.setattr(cli, "Forcing", NoForcing)
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("n = 64", f"n = {n}")
        with pytest.raises(ConfigError, match=rf"\[grid\] n: at most {cli.MAX_GRID_N}, got {n}"):
            parse_config(text)
        assert main(["evolve", write_cfg(tmp_path, text)]) == 2
        assert "at most" in single_error(capsys, "ConfigError")["message"]
        assert not (tmp_path / "out").exists()

    def test_manifest_records_the_initial_lift(self, tmp_path):
        out = tmp_path / "out"
        text = (EVOLVE_TEMPLATE.format(out=out).replace("epsilon = 0.0", "epsilon = 1e-4")
                .replace("t_end = 0.5", "t_end = 0.002"))
        assert main(["evolve", write_cfg(tmp_path, text)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["initial_lift"] == RegularizationKnobs(epsilon=1e-4).lift == 1e-4**0.3
        cfg = parse_config(text)
        h0 = cfg.initial.values
        first = read_field_csv(out / manifest["snapshots"][0]["file"], cfg.grid)
        assert first.tobytes() == (h0 + manifest["initial_lift"]).tobytes()

    def test_largest_grid_parses(self):
        # A steady config builds no field at parse time, so the bound itself
        # is accepted without allocating it.
        text = f"[run]\nmode = steady\n[grid]\nn = {cli.MAX_GRID_N}\n[steady]\nmu = 1.0\ntargets = 0.2\n"
        assert parse_config(text).grid.n == cli.MAX_GRID_N

    @pytest.mark.parametrize("mode,section,key,value,needle", [
        ("evolve", "evolve", "epsilon", "nan", "[evolve] epsilon must be nonnegative and finite"),
        ("evolve", "evolve", "delta", "inf", "[evolve] delta must be nonnegative and finite"),
        ("evolve", "initial", "value", "-0.5", "[initial] evaluated initial data must be nonnegative"),
        ("evolve", "initial", "value", "inf", "[initial] field values must be finite"),
        # The sum would overflow: a ConfigError, not numpy's overflow warning.
        ("evolve", "initial", "cos", "1e308, 1e308", "[initial] field values must be finite"),
        ("steady", "steady", "mode", "fixed_mass", "[steady] chi=0 profiles support only fixed_flux"),
        ("steady", "steady", "mu", "0", "[steady] chi=0 profiles need mu > 0"),
        ("steady", "steady", "tol", "-1", "[steady] tol must be positive"),
        ("steady", "steady", "max_newton", "0", "[steady] max_newton must be at least 1"),
        ("steady", "steady", "chi", "-2", "[steady] chi must be nonnegative and finite"),
        ("steady", "steady", "targets", "-0.1", "[steady] continuation target must be positive"),
        ("steady", "steady", "targets", "nan", "[steady] continuation target must be positive"),
        ("steady", "steady", "targets", "", "[steady] targets must not be empty"),
        ("sweep", "sweep", "values", "", "[sweep] values must not be empty"),
        ("evolve", "initial", "kind", "constant", "[initial] kind=constant requires key 'value'"),
        ("evolve", "params", "forcing", "cosine", "[params] forcing: unknown kind 'cosine'"),
        ("evolve", "grid", "origin", "inf", "[grid] grid origin must be finite"),
        ("evolve", "evolve", "t_end", "inf", "[evolve] t_end must be positive"),
        ("evolve", "evolve", "dt_max", "inf", "[evolve] need 0 < dt_min <= dt_init <= dt_max"),
        ("evolve", "evolve", "newton_tol", "inf", "[evolve] newton_tol must be positive"),
        ("evolve", "evolve", "snapshots", "nan, -1, 0.005, 5",
         "[evolve] snapshot times must be finite and nonnegative, got [nan, -1.0]"),
        ("steady", "steady", "tol", "inf", "[steady] tol must be positive"),
        ("evolve", "run", "seed", "-1", "[run] seed must be nonnegative, got -1"),
        ("steady", "run", "seed", "-1", "[run] seed must be nonnegative, got -1"),
        ("sweep", "run", "seed", "-1", "[run] seed must be nonnegative, got -1"),
    ])
    def test_bad_values_exit_two(self, tmp_path, capsys, mode, section, key, value, needle):
        out = tmp_path / "out"
        evolve = {"run": {"mode": "evolve", "output_dir": out}, "grid": {"n": "32"},
                  "params": {"a0": "1", "a1": "16", "a2": "0", "a3": "0"},
                  "initial": {"kind": "trig", "mean": "0.5", "cos": "0.1"},
                  "evolve": {"t_end": "0.01"}}
        sections = {
            "evolve": evolve,
            "steady": {"run": {"mode": "steady", "output_dir": out},
                       "steady": {"mu": "1", "targets": "0.2"}},
            "sweep": {**evolve, "run": {"mode": "sweep", "output_dir": out},
                      "sweep": {"vary": "params.a3", "values": "1"}},
        }[mode]
        if key == "value":
            sections["initial"] = {"kind": "constant"}
        sections[section][key] = value
        assert main([mode, write_cfg(tmp_path, render(sections))]) == 2
        assert needle in single_error(capsys, "ConfigError")["message"]
        assert not out.exists()

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["evolve", str(tmp_path / "nope.ini")]) == 1

    def test_snapshots_flag_needs_evolve_section(self, tmp_path):
        text = ("[run]\nmode = steady\noutput_dir = {}\n"
                "[steady]\nmu = 1.0\ntargets = 0.2\n").format(tmp_path / "out")
        cfg = write_cfg(tmp_path, text)
        assert main(["steady", cfg, "--snapshots", "1.0"]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "rimflow" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert cli._parser() is cli._parser()
        # A flag given to one call is not carried into the next.
        first = cli._parser().parse_args(["check", "a.ini", "--seed", "7", "--output-dir", "o"])
        second = cli._parser().parse_args(["check", "b.ini"])
        assert (first.seed, first.output_dir) == (7, "o")
        assert (second.config, second.seed, second.output_dir, second.snapshots) == (
            "b.ini", None, None, None)
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["steady", "a.ini", "--seed", "x"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert "invalid int value: 'x'" in errors[0]
        assert errors[0] == errors[1]

    def test_import_does_not_load_the_process_pool(self):
        # Only a parallel sweep imports concurrent.futures.process, when it starts.
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, rimflow.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSteadyCommand:
    def test_surface_tension_free_branch(self, tmp_path):
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n"
                "[steady]\nmu = 1.0\ntargets = 0.2, 0.3\n").format(out)
        cfg = write_cfg(tmp_path, text)
        assert main(["steady", cfg]) == 0
        with open(out / "branch.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["q"]) for r in rows] == pytest.approx([0.2, 0.3])
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["profiles"]) == 2
        for entry in manifest["profiles"]:
            assert (out / entry["file"]).exists()
            assert entry["beta"] == pytest.approx(entry["q"] ** 2 / 3.0, rel=1e-12)
        assert manifest["thresholds"] == {"critical_flux": critical_flux(1.0),
                                          "nonexistence_threshold": nonexistence_threshold(1.0),
                                          "pukhnachov_bound": pukhnachov_bound(1.0)}

    def test_capillary_branch_without_rotation_has_no_thresholds(self, tmp_path):
        # mu = 0 is valid with chi > 0; every threshold is infinite there, so none is written.
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\nn = 64\n"
                "[steady]\nmu = 0\nchi = 1\ntargets = 0.1, 0.2\n").format(out)
        assert main(["steady", write_cfg(tmp_path, text)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["profiles"]) == 2
        assert manifest["thresholds"] is None

    @pytest.mark.parametrize("steady", ["mu = 3.0\nchi = 3.0\ntargets = 0.1, 0.2",
                                        "mu = 1.0\nchi = 0\ntargets = 0.2, 0.3"],
                             ids=["capillary", "cubic"])
    def test_beta_agrees_across_outputs(self, tmp_path, monkeypatch, steady):
        profiles, write_branch_csv = [], cli.write_branch_csv

        def keep(profs, path):
            profiles.extend(profs)
            write_branch_csv(profs, path)

        monkeypatch.setattr(cli, "write_branch_csv", keep)
        out = tmp_path / "out"
        text = f"[run]\nmode = steady\noutput_dir = {out}\n[grid]\nn = 128\n[steady]\n{steady}\n"
        assert main(["steady", write_cfg(tmp_path, text)]) == 0
        with open(out / "branch.csv") as fh:
            csv_beta = [float(r["beta"]) for r in csv.DictReader(fh)]
        manifest_beta = [e["beta"] for e in json.loads((out / "manifest.json").read_text())["profiles"]]
        profile_beta = [prof.beta for prof in profiles]
        assert len(profile_beta) == 2
        assert csv_beta == manifest_beta == profile_beta

    def test_capillary_branch(self, tmp_path):
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\nn = 128\n"
                "[steady]\nmu = 3.0\nchi = 3.0\ntargets = 0.1, 0.2\n").format(out)
        cfg = write_cfg(tmp_path, text)
        assert main(["steady", cfg]) == 0
        with open(out / "branch.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(float(r["residual_sup"]) <= 1e-10 for r in rows)

    def test_capillary_fixed_mass(self, tmp_path):
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\nn = 128\n"
                "[steady]\nmode = fixed_mass\nmu = 3.0\nchi = 3.0\n"
                "targets = 0.8\n").format(out)
        cfg = write_cfg(tmp_path, text)
        assert main(["steady", cfg]) == 0
        with open(out / "branch.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mass"]) == pytest.approx(0.8, rel=1e-9)

    def test_flux_above_fold_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n"
                "[steady]\nmu = 1.0\ntargets = 0.7\n").format(out)
        cfg = write_cfg(tmp_path, text)
        assert main(["steady", cfg]) == 1
        assert "BranchLost" in capsys.readouterr().err

    def test_fold_past_the_first_target_keeps_the_profiles_before_it(self, tmp_path, capsys):
        # q = 0.7 lies past the fold of mu = 1: the run fails there, but the
        # q = 0.2 profile is written, and the error line is strict JSON.
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\nn = 64\n"
                "[steady]\nmu = 1\nchi = 0\ntargets = 0.2, 0.7\n").format(out)
        assert main(["steady", write_cfg(tmp_path, text)]) == 1
        with open(out / "branch.csv") as fh:
            assert [float(r["q"]) for r in csv.DictReader(fh)] == [0.2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["file"] for entry in manifest["profiles"]] == ["profiles/profile_0000.csv"]
        assert (out / "profiles" / "profile_0000.csv").exists()
        (line,) = capsys.readouterr().err.splitlines()

        def reject(name):
            raise ValueError(f"{name} is not strict JSON")

        record = json.loads(line, parse_constant=reject)
        assert record["error"] == "BranchLost" and record["min_h"] is None

    @pytest.mark.parametrize("steady, error", [
        # No positive capillary profile at q = 2.0 for mu = 1: an iterate turns negative.
        ("targets = 2.0, 1.5", "BranchLost"),
        # Nor at q = 1.4, where Newton stalls without descent first.
        ("targets = 1.4, 1.5", "NoConvergence"),
        # One Newton iteration does not reach the tolerance.
        ("targets = 0.3, 0.4\nmax_newton = 1", "NoConvergence"),
    ])
    def test_failed_first_capillary_target_writes_an_empty_tree(self, tmp_path, capsys,
                                                                steady, error):
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\nn = 64\n"
                "[steady]\nmu = 1\nchi = 1\n{}\n").format(out, steady)
        assert main(["steady", write_cfg(tmp_path, text)]) == 1
        record = single_error(capsys, error)
        if error == "NoConvergence":  # the line says why Newton stopped
            assert record["reason"] == ("budget" if "max_newton" in steady else "stalled")
        assert (out / "branch.csv").read_text() == "step,q,mass,min_h,max_h,residual_sup,beta\n"
        assert json.loads((out / "manifest.json").read_text())["profiles"] == []
        assert list((out / "profiles").iterdir()) == []

    def test_first_gap_is_bisected(self, tmp_path):
        # The branch ends between the first two targets: continuation bisects
        # that gap and writes the branch up to its end.
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n[grid]\nn = 256\n"
                "[steady]\nmu = 1\nchi = 1\ntargets = 0.0943, 1.4\n").format(out)
        assert main(["steady", write_cfg(tmp_path, text)]) == 0
        with open(out / "branch.csv") as fh:
            qs = [float(r["q"]) for r in csv.DictReader(fh)]
        assert len(qs) >= 2 and qs[0] == 0.0943
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert qs[-1] < nonexistence_threshold(1.0)

    def test_fixed_mass_without_capillarity_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = ("[run]\nmode = steady\noutput_dir = {}\n"
                "[steady]\nmode = fixed_mass\nmu = 1.0\ntargets = 1.5\n").format(out)
        cfg = write_cfg(tmp_path, text)
        assert main(["steady", cfg]) == 2
        assert "fixed_flux" in capsys.readouterr().err


def sweep_text(out, workers) -> str:
    """A two-value sweep over params.a3 to t_end = 0.01."""
    text = EVOLVE_TEMPLATE.format(out=out).replace("mode = evolve", "mode = sweep")
    text = text.replace("t_end = 0.5", "t_end = 0.01")
    return text + f"\n[sweep]\nvary = params.a3\nvalues = 0, 1\nworkers = {workers}\n"


OVERRIDES = ["--seed", "7", "--snapshots", "0.002,0.004"]


def tree_bytes(root: Path) -> dict:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


class TestSweepCommand:
    def test_overrides_reach_every_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", write_cfg(tmp_path, sweep_text(out, 1)), *OVERRIDES]) == 0
        assert json.loads((out / "sweep_index.json").read_text())["seed"] == 7
        for sub in ("a3=0", "a3=1"):
            manifest = json.loads((out / sub / "manifest.json").read_text())
            assert manifest["seed"] == 7
            assert manifest["config"]["run"]["seed"] == "7"
            assert manifest["config"]["evolve"]["snapshots"] == "0.002,0.004"
            assert [s["t"] for s in manifest["snapshots"]] == pytest.approx(
                [0.0, 0.002, 0.004, 0.01], abs=1e-12)

    def test_pool_and_serial_sweeps_write_the_same_tree(self, tmp_path, monkeypatch):
        sizes = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        trees = []
        for workers in (2, 1):
            cwd = tmp_path / f"workers{workers}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main(["sweep", write_cfg(cwd, sweep_text("out", workers)), *OVERRIDES]) == 0
            trees.append(tree_bytes(cwd / "out"))
        assert sizes == [2]
        assert len(trees[0]) == 15  # sweep_index.json and 7 files per run
        assert trees[0] == trees[1]

    def test_tree_does_not_depend_on_the_output_root(self, tmp_path, monkeypatch):
        # sweep_index.json names each run's directory relative to the sweep
        # root, and no run manifest echoes the root: a relative and an
        # absolute --output-dir give the same bytes.
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, sweep_text("out", 1))
        assert main(["sweep", cfg, "--output-dir", "swA", *OVERRIDES]) == 0
        assert main(["sweep", cfg, "--output-dir", str(tmp_path / "swB"), *OVERRIDES]) == 0
        tree_a, tree_b = tree_bytes(tmp_path / "swA"), tree_bytes(tmp_path / "swB")
        assert len(tree_a) == 15 and tree_a == tree_b
        index = json.loads(tree_a["sweep_index.json"])
        assert [r["dir"] for r in index["runs"]] == ["a3=0", "a3=1"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_initial_path_fails_before_the_sweep_root_exists(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        text = sweep_text(out, workers).replace("values = 0, 1", "values = 0, 1, 2").replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02", "kind = file\npath = nope.csv")
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        assert "nope.csv" in single_error(capsys, "ConfigError")["message"]
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_builds_each_run_once(self, tmp_path, monkeypatch, workers):
        # Each run's [initial] CSV is read when the config is parsed, and
        # cmd_sweep runs the runs it was given: one read per value.
        paths = []

        def counting_read(path, grid):
            paths.append(path)
            return read_field_csv(path, grid)

        monkeypatch.setattr(cli, "read_field_csv", counting_read)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        grid = Grid(n=64)
        write_field_csv(PeriodicField(grid, 0.3 + 0.02 * np.cos(grid.x)), tmp_path / "h0.csv")
        out = tmp_path / "out"
        text = sweep_text(out, workers).replace("values = 0, 1", "values = 0, 1, 2").replace(
            "kind = trig\nmean = 0.3\ncos = 0.02, 0.02", f"kind = file\npath = {tmp_path / 'h0.csv'}")
        assert main(["sweep", write_cfg(tmp_path, text)]) == 0
        assert len(paths) == 3
        assert sorted(p.name for p in out.iterdir()) == ["a3=0", "a3=1", "a3=2", "sweep_index.json"]

    def test_the_varied_key_may_be_left_out(self, tmp_path):
        # No run reads the varied key's own [params] value.
        text = sweep_text(tmp_path / "out", 1).replace("a3 = 0.0\n", "")
        cfg = parse_config(text)
        assert "a3" not in cfg.raw["params"]
        assert [r.params.a3 for r in cfg.runs] == [0.0, 1.0]

    def test_serial_sweep_over_drift(self, tmp_path):
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace("mode = evolve",
                                                       "mode = sweep")
        text = text.replace("t_end = 0.5", "t_end = 0.05")
        text += "\n[sweep]\nvary = params.a3\nvalues = 0, 1\nworkers = 1\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", cfg]) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        assert index["vary"] == "params.a3"
        assert [r["value"] for r in index["runs"]] == [0.0, 1.0]
        for record in index["runs"]:
            assert record["exit_code"] == 0
            assert record["termination"] == "t_end"
            sub = out / f"a3={record['value']:g}"
            assert (sub / "manifest.json").exists()
            assert (sub / "diagnostics.csv").exists()


    def test_failed_runs_are_indexed_with_their_termination(self, tmp_path, capsys):
        # Both runs underflow dt_min on their first step; each index entry
        # carries the exit code and termination of the run that was made.
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace("mode = evolve", "mode = sweep")
        text = text.replace("a1 = 16.0", "a1 = 400.0").replace("cos = 0.02, 0.02", "cos = 0.05")
        text = text.replace("dt_init = 1e-4\ndt_max = 0.001",
                            "dt_init = 1.0\ndt_min = 1.0\ndt_max = 1.0\nnewton_max_iter = 2")
        text += "\n[sweep]\nvary = params.a3\nvalues = 0, 1\nworkers = 1\n"
        assert main(["sweep", write_cfg(tmp_path, text)]) == 1
        assert [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()] == \
            ["StepFailure", "StepFailure"]
        index = json.loads((out / "sweep_index.json").read_text())
        assert [(r["exit_code"], r["termination"]) for r in index["runs"]] == [(1, "failed")] * 2
        for record in index["runs"]:
            manifest = json.loads((out / record["dir"] / "manifest.json").read_text())
            assert manifest["termination"] == "failed"

    @pytest.mark.parametrize("values", ["0.1, 0.1000001", "1, 1"])
    def test_values_sharing_a_directory_are_config_errors(self, tmp_path, capsys, values):
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("mode = evolve", "mode = sweep")
        text += f"[sweep]\nvary = params.a3\nvalues = {values}\nworkers = 1\n"
        with pytest.raises(ConfigError, match="share the output directory"):
            parse_config(text)
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        single_error(capsys, "ConfigError")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("vary", ["grid.n", "run.seed", "initial.kind", "steady.mu",
                                      "sweep.workers", "evolve.newton_max_iter"])
    def test_vary_must_name_a_number_an_evolve_run_reads(self, tmp_path, capsys, vary):
        # Every run would fail: "64.0" is no integer, and an evolve run has no [steady].
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("mode = evolve", "mode = sweep")
        text += f"[sweep]\nvary = {vary}\nvalues = 64, 128\nworkers = 1\n"
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        assert "unknown target" in single_error(capsys, "ConfigError")["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("physical,vary", [(True, "params.a3"), (False, "params.chi")])
    def test_vary_clashing_with_params_is_config_error(self, tmp_path, capsys, physical, vary):
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("mode = evolve", "mode = sweep")
        if physical:
            text = re.sub(r"a0 = .*\na1 = .*\na2 = .*\na3 = .*\n", "chi = 3.0\nmu = 3.0\n", text)
        text += f"[sweep]\nvary = {vary}\nvalues = 0.5, 1\nworkers = 1\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        single_error(capsys, "ConfigError")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("vary", ["params.a1", "grid.origin", "initial.mean", "evolve.epsilon"])
    def test_vary_accepts_number_keys(self, tmp_path, vary):
        # Mean 0 with the template's cos terms gives negative data, a ConfigError.
        values = "0.3, 1" if vary == "initial.mean" else "0, 1"
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("mode = evolve", "mode = sweep")
        text += f"[sweep]\nvary = {vary}\nvalues = {values}\n"
        assert parse_config(text).sweep.vary == vary

    def test_sweep_value_giving_negative_initial_data_is_config_error(self, tmp_path, capsys):
        # Each run's initial field is built when the sweep is parsed.
        out = tmp_path / "out"
        text = EVOLVE_TEMPLATE.format(out=out).replace("mode = evolve", "mode = sweep")
        text += "[sweep]\nvary = initial.mean\nvalues = 0.3, 0\n"
        message = "[sweep] run mean=0: [initial] evaluated initial data must be nonnegative"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        assert single_error(capsys, "ConfigError")["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -5])
    def test_nonpositive_workers_is_config_error(self, tmp_path, capsys, workers):
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("mode = evolve", "mode = sweep")
        text += f"[sweep]\nvary = params.a3\nvalues = 0, 1\nworkers = {workers}\n"
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            parse_config(text)
        assert main(["sweep", write_cfg(tmp_path, text)]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers,values,cpus,expected", [
        (100000, 2, 64, 2),
        (100000, 8, 2, 2),
        (3, 8, 64, 3),
        (8, 8, None, None),
    ])
    def test_pool_size_is_capped(self, tmp_path, monkeypatch, workers, values, cpus, expected):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        def fake_worker(args):
            return {"value": args[1], "dir": args[2], "exit_code": 0, "termination": "t_end"}

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_sweep_worker", fake_worker)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        text = EVOLVE_TEMPLATE.format(out=tmp_path / "out").replace("mode = evolve", "mode = sweep")
        text += "[sweep]\nvary = params.a3\nvalues = {}\nworkers = {}\n".format(
            ", ".join(str(v) for v in range(values)), workers)
        assert main(["sweep", write_cfg(tmp_path, text)]) == 0
        # cpu_count() of None counts as one core, so the sweep runs serially.
        assert sizes == ([] if expected is None else [expected])


class TestCheckCommand:
    def test_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = f"[run]\nmode = check\noutput_dir = {out}\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["check", cfg]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "FAIL" not in printed
        reports = json.loads((out / "check_reports.json").read_text())
        names = [r["name"] for r in reports]
        assert "evolve_mass_conservation" in names
        assert "steady_flux_bound" in names
        assert len(reports) >= 10

    @pytest.mark.parametrize("tloc, status, code", [(0.0, "FAIL", 1), (math.ulp(0.0), "PASS", 0)])
    def test_local_existence_must_be_positive(self, tmp_path, capsys, monkeypatch, tloc, status, code):
        monkeypatch.setattr(cli, "local_existence_time", lambda h, p: tloc)
        cfg = write_cfg(tmp_path, f"[run]\nmode = check\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["check", cfg]) == code
        printed = capsys.readouterr().out
        assert f"{status} local_existence_positive: lhs=0 rhs={tloc:.6g}\n" in printed
        assert printed.count("FAIL") == (status == "FAIL")

    def test_centred_gradient_fails_gradient_sq_truncation(self, tmp_path, capsys, monkeypatch):
        # The gradient_sq checks hold the compact jumps to their sharp
        # k^4 dx^2 / 12 bound: centred jumps, which read k^2 as
        # sin^2(k dx)/dx^2, are off by about four times as much.
        monkeypatch.setattr(cli, "gradient_sq",
                            lambda v, dx: float(((np.roll(v, -1) - np.roll(v, 1)) ** 2).sum() / (4.0 * dx)))
        cfg = write_cfg(tmp_path, f"[run]\nmode = check\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["check", cfg]) == 1
        printed = capsys.readouterr().out
        assert printed.count("FAIL") == printed.count("FAIL gradient_sq_truncation[") == 3

    def test_negative_seed_is_config_error_before_anything_is_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"[run]\nmode = check\noutput_dir = {out}\n")
        assert main(["check", cfg, "--seed", "-1"]) == 2
        assert single_error(capsys, "ConfigError")["message"] == "[run] seed must be nonnegative, got -1"
        assert not out.exists()

    def test_same_seed_reproduces_battery(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nmode = check\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["check", cfg, "--output-dir", str(a), "--seed", "3"]) == 0
        assert main(["check", cfg, "--output-dir", str(b), "--seed", "3"]) == 0
        assert (a / "check_reports.json").read_bytes() == \
            (b / "check_reports.json").read_bytes()

    @pytest.mark.parametrize("exc", [
        ValueError("bad value"),
        OSError("disk full"),
        NoConvergence("no convergence", residual_sup=1.0, iterations=3, reason="budget"),
    ], ids=lambda e: type(e).__name__)
    def test_battery_error_exits_one_without_reports(self, tmp_path, capsys, monkeypatch, exc):
        def failing_battery(seed):
            yield BoundReport.check("first", 0.0, 1.0)
            raise exc

        monkeypatch.setattr(cli, "_check_battery", failing_battery)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"[run]\nmode = check\noutput_dir = {out}\n")
        assert main(["check", cfg]) == 1
        single_error(capsys, type(exc).__name__)
        assert not (out / "check_reports.json").exists()
