"""Grid construction, discrete calculus, quadrature, and CSV round trips."""
import ast
import importlib.machinery
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import rimflow
from rimflow import grid
from rimflow.grid import (
    TWO_PI,
    CyclicBandedFactor,
    Grid,
    PeriodicField,
    integrate,
    periodic_pad,
)
from rimflow.cli import read_field_csv, write_csv, write_field_csv

from oracles import d1, d3, sample, shift


def random_trig(grid, seed, modes=3, mean=1.0, amp=0.1):
    rng = np.random.default_rng(seed)
    v = np.full(grid.n, mean)
    for k in range(1, modes + 1):
        a, b = rng.normal(size=2) * amp / k
        v += a * np.cos(k * grid.x) + b * np.sin(k * grid.x)
    return PeriodicField(grid, v)


def d1_field(f):
    """d1 in the field form of the d3 oracle."""
    return f.with_values(d1(f.values, f.grid.dx))


class TestGrid:
    def test_defaults(self):
        g = Grid(n=64)
        assert g.length == TWO_PI
        assert g.origin == 0.0
        assert g.dx == TWO_PI / 64
        assert g.x.shape == (64,)
        assert g.x[0] == 0.0

    def test_origin_offsets_samples(self):
        g = Grid(n=16, length=2.0, origin=-1.0)
        assert_allclose(g.x, -1.0 + 0.125 * np.arange(16))

    @pytest.mark.parametrize("n", [4, 6, 7, 9, 15])
    def test_rejects_small_or_odd_n(self, n):
        with pytest.raises(ValueError):
            Grid(n=n)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_length(self, length):
        with pytest.raises(ValueError):
            Grid(n=16, length=length)


class TestPeriodicField:
    def test_values_copied_and_frozen(self):
        g = Grid(n=8)
        src = np.ones(8)
        f = PeriodicField(g, src)
        src[0] = 5.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_shape_and_finiteness_checks(self):
        g = Grid(n=8)
        with pytest.raises(ValueError):
            PeriodicField(g, np.ones(9))
        with pytest.raises(ValueError):
            PeriodicField(g, [1.0] * 7 + [math.nan])

    def test_shift_rolls_periodically(self):
        g = Grid(n=8)
        f = PeriodicField(g, np.arange(8.0))
        assert_allclose(shift(f, 2).values, np.roll(np.arange(8.0), 2))

    def test_grid_helpers(self):
        g = Grid(n=16)
        assert_allclose(g.constant(0.3).values, 0.3)
        assert_allclose(sample(g, np.sin).values, np.sin(g.x))


class TestDerivatives:
    def test_d1_sin_is_cos(self):
        g = Grid(n=128)
        err = np.max(np.abs(d1(np.sin(g.x), g.dx) - np.cos(g.x)))
        assert err < g.dx**2

    def test_d3_sin_is_minus_cos(self):
        g = Grid(n=128)
        err = np.max(np.abs(d3(sample(g, np.sin)).values + np.cos(g.x)))
        assert err < 2.0 * g.dx**2

    def test_second_order_convergence(self):
        # Doubling n divides the d1 error by four.
        errs = []
        for n in (64, 128, 256):
            g = Grid(n=n)
            errs.append(np.max(np.abs(d1(np.sin(g.x), g.dx) - np.cos(g.x))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("seed", range(5))
    def test_derivative_mean_vanishes(self, seed):
        g = Grid(n=64)
        f = random_trig(g, seed)
        assert abs(integrate(d1(f.values, g.dx), g.dx)) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_summation_by_parts(self, seed):
        g = Grid(n=64)
        f, v = random_trig(g, seed).values, random_trig(g, seed + 100).values
        lhs = integrate(f * d1(v, g.dx), g.dx)
        rhs = -integrate(d1(f, g.dx) * v, g.dx)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    @pytest.mark.parametrize("op", [d1_field, d3], ids=["d1", "d3"])
    @pytest.mark.parametrize("seed", range(3))
    def test_shift_equivariance(self, op, seed):
        # Stencils commute with periodic translation exactly.
        g = Grid(n=64)
        f = random_trig(g, seed)
        assert_allclose(op(shift(f, 5)).values, shift(op(f), 5).values, rtol=0, atol=0)

    @pytest.mark.parametrize("n", [8, 10, 256])
    def test_bit_identical_to_roll_formulas(self, n):
        g = Grid(n=n)
        v = np.random.default_rng(n).normal(size=n)
        f, dx = PeriodicField(g, v), g.dx
        r = {k: np.roll(v, k) for k in (-2, -1, 1, 2)}
        assert np.array_equal(d1(v, dx), (r[-1] - r[1]) / (2.0 * dx))
        assert np.array_equal(
            d3(f).values, (r[-2] - 2.0 * r[-1] + 2.0 * r[1] - r[2]) / (2.0 * dx**3))


class TestPeriodicPad:
    def test_layout(self):
        v = np.arange(8.0)
        assert np.array_equal(periodic_pad(v, 2), [6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1])
        stacked = periodic_pad(np.stack([v, -v]), 1)
        assert stacked.shape == (2, 10)
        assert np.array_equal(stacked[1], periodic_pad(-v, 1))

    @pytest.mark.parametrize("width", [1, 2])
    def test_slices_are_rolls(self, width):
        v = np.random.default_rng(width).normal(size=10)
        p = periodic_pad(v, width)
        for k in range(-width, width + 1):
            assert np.array_equal(p[width + k: width + k + v.size], np.roll(v, -k))

    def test_no_roll_outside_field_shift(self):
        # Hot-path stencils read neighbours from one periodic_pad copy; only
        # the tests' shift (tests/oracles.py), an arbitrary-cell translation,
        # may roll, and no rimflow code does.
        def roll_sites(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = scope + (child.name,)
                if (isinstance(child, ast.Attribute) and child.attr == "roll") or (
                        isinstance(child, ast.alias) and child.name == "roll"):
                    yield ".".join(scope)
                yield from roll_sites(child, inner)

        probe = "class F:\n    def s(self, v):\n        return np.roll(v, 1)\nfrom numpy import roll\n"
        assert sorted(roll_sites(ast.parse(probe), ())) == ["", "F.s"]
        src = Path(rimflow.__file__).parent
        sites = {
            (path.name, site)
            for path in sorted(src.glob("*.py"))
            for site in roll_sites(ast.parse(path.read_text()), ())
        }
        assert sites == set()


SAME_BITS_SCRIPT = """
import sys
import numpy as np
import rimflow.grid as grid
assert "scipy.linalg" not in sys.modules
direct = (grid.dgbtrf, grid.dgbtrs)
from scipy.linalg import lapack
assert direct == (lapack.dgbtrf, lapack.dgbtrs)
rng = np.random.default_rng(0)
for n in (16, 256, 768, 1024):
    ab = np.zeros((13, n), order="F")
    ab[4:] = rng.normal(size=(9, n))
    b = rng.normal(size=n)
    results = []
    for trf, trs in (direct, (lapack.dgbtrf, lapack.dgbtrs)):
        lu, piv, info = trf(ab.copy(order="F"), 4, 4)
        x, info_s = trs(lu, 4, 4, b.copy(), piv)
        results.append((lu.tobytes(), piv.tobytes(), info, x.tobytes(), info_s))
    assert results[0] == results[1], n
    print(n)
"""


def weighted_bands(n, seed, weight):
    """Random (5, n) bands whose centre entry is weight times its row's off-band sum."""
    rng = np.random.default_rng(seed)
    bands = rng.normal(size=(5, n))
    off = np.sum(np.abs(bands), axis=0) - np.abs(bands[2])
    bands[2] = np.where(bands[2] < 0.0, -1.0, 1.0) * weight * off
    return bands


class TestCyclicBandedSolve:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 64, 768]),
        weight=st.floats(1.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, n, weight, seed, dense_from_bands):
        bands = weighted_bands(n, seed, weight)
        rhs = np.random.default_rng(seed + 1).normal(size=n)
        x = CyclicBandedFactor(bands).solve(rhs)
        assert x.shape == rhs.shape
        expect = np.linalg.solve(dense_from_bands(bands), rhs)
        assert np.max(np.abs(x - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    @settings(max_examples=24, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 64, 768]),
        weight=st.floats(0.05, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    # Pinned: a factor that pivots only inside the band, with the wrapped
    # entries added by a low-rank correction, loses 118, 332 and 79 eps here.
    @example(n=10, weight=0.1678, seed=18)
    @example(n=64, weight=0.1583, seed=73)
    @example(n=768, weight=0.05, seed=0)
    def test_backward_stable_without_diagonal_dominance(self, n, weight, seed, dense_from_bands):
        # Partial pivoting keeps the normwise backward error at a few eps
        # when no diagonal dominates its row.
        bands = weighted_bands(n, seed, weight)
        rhs = np.random.default_rng(seed + 1).normal(size=n)
        x = CyclicBandedFactor(bands).solve(rhs)
        a = dense_from_bands(bands)
        backward = np.max(np.abs(a @ x - rhs)) / (
            np.max(np.sum(np.abs(a), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert backward <= 16.0 * np.finfo(float).eps

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 64, 768]),
        column=st.integers(0, 767),
        seed=st.integers(0, 2**32 - 1),
        matrix=st.sampled_from(["zero column", "I - S^2"]),
    )
    @example(n=8, column=0, seed=0, matrix="I - S^2")
    @example(n=768, column=0, seed=0, matrix="I - S^2")
    def test_singular_bands_raise(self, n, column, seed, matrix):
        # A zero column, corner columns included, is an exact zero pivot.
        # I - S^2, (S^2 v)_i = v_{i+2}, annihilates the constants; without
        # its two wrapped entries it would be unit upper triangular.
        bands = weighted_bands(n, seed, 2.0)
        if matrix == "I - S^2":
            bands = np.zeros((5, n))
            bands[2], bands[4] = 1.0, -1.0
        else:
            j = column % n
            bands[np.arange(5), (j + 2 - np.arange(5)) % n] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            CyclicBandedFactor(bands).solve(np.ones(n))

    def test_node_order_keeps_neighbours_within_the_band(self):
        # In the factor's order every cyclic neighbour within two nodes lies
        # within four places: the four sub- and superdiagonals it factors.
        for n in range(8, 1025, 2):
            lu = CyclicBandedFactor(weighted_bands(n, n, 2.0))
            assert np.array_equal(np.sort(lu.order), np.arange(n))
            assert np.array_equal(lu.order[lu.position], np.arange(n))
            nodes = np.arange(n)
            for k in (-2, -1, 1, 2):
                assert np.max(np.abs(lu.position[(nodes + k) % n] - lu.position)) <= 4, (n, k)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 64, 768]),
        solves=st.integers(2, 5),
        weight=st.floats(1.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_factor_serves_many_right_hand_sides(self, n, solves, weight, seed,
                                                     dense_from_bands):
        # The factor step runs once; every later solve must still match a
        # dense solve, and the bands and right-hand sides stay untouched.
        bands = weighted_bands(n, seed, weight)
        kept = bands.copy()
        lu = CyclicBandedFactor(bands)
        dense = dense_from_bands(bands)
        assert lu.row_norm == pytest.approx(np.max(np.sum(np.abs(dense), axis=1)), rel=1e-15)
        rng = np.random.default_rng(seed + 2)
        for _ in range(solves):
            rhs = rng.normal(size=n)
            kept_rhs = rhs.copy()
            x = lu.solve(rhs)
            assert x.shape == rhs.shape
            expect = np.linalg.solve(dense, rhs)
            assert np.max(np.abs(x - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))
            assert np.array_equal(rhs, kept_rhs)
        assert np.array_equal(bands, kept)

    def test_solve_rejects_wrong_length(self):
        # One right-hand side of shape (n,), and nothing else.
        lu = CyclicBandedFactor(weighted_bands(16, 0, 2.0))
        for shape in ((15,), (17,), (15, 2), (16, 1), (16, 2)):
            with pytest.raises(ValueError):
                lu.solve(np.ones(shape))

    def test_rejects_short_bands(self):
        with pytest.raises(ValueError):
            CyclicBandedFactor(np.ones((5, 4))).solve(np.ones(4))
        with pytest.raises(ValueError):
            CyclicBandedFactor(np.ones((3, 16))).solve(np.ones(16))

    @pytest.mark.parametrize("package", ["sparse", "linalg"])
    def test_import_leaves_out_scipy_subpackage(self, package):
        # grid loads scipy.linalg._flapack on its own, without its package.
        src = Path(rimflow.__file__).resolve().parents[1]
        code = ("import sys; import rimflow, rimflow.cli; "
                f"print([m for m in sys.modules if m.split('.')[:2] == ['scipy', {package!r}] "
                "and m != 'scipy.linalg._flapack'])")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_direct_load_matches_scipy_linalg_lapack_bit_for_bit(self):
        # rimflow.grid is imported first, so its routines come from the direct
        # load; scipy.linalg.lapack, imported after, must agree to the bit.
        # Today it reuses the module grid loaded; the bits hold either way.
        src = Path(rimflow.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", SAME_BITS_SCRIPT], cwd=src,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["16", "256", "768", "1024"]

    @pytest.mark.parametrize("found", ["nothing", "junk"])
    def test_fallback_gives_scipy_linalg_lapack_routines(self, found, tmp_path, monkeypatch):
        from scipy.linalg import lapack
        junk = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        junk.write_bytes(b"not a shared object")
        monkeypatch.setattr(grid, "_flapack_path", lambda: None if found == "nothing" else str(junk))
        routines = grid._banded_lapack()
        assert routines == (lapack.dgbtrf, lapack.dgbtrs)
        bands = weighted_bands(256, 5, 1.5)
        rhs = np.random.default_rng(6).normal(size=256)
        expect = CyclicBandedFactor(bands).solve(rhs)
        monkeypatch.setattr(grid, "dgbtrf", routines[0])
        monkeypatch.setattr(grid, "dgbtrs", routines[1])
        assert CyclicBandedFactor(bands).solve(rhs).tobytes() == expect.tobytes()


class TestQuadratureAndNorms:
    def test_integrate_sin_is_zero(self):
        g = Grid(n=64)
        assert abs(integrate(np.sin(g.x), g.dx)) < 1e-13

    def test_integrate_sin_squared_is_pi(self):
        for n in (16, 64, 256):
            g = Grid(n=n)
            assert integrate(np.sin(g.x) ** 2, g.dx) == pytest.approx(math.pi, abs=1e-12)


class TestCsvRoundTrip:
    def test_roundtrip_is_exact(self, tmp_path):
        g = Grid(n=32, length=4.0, origin=-2.0)
        f = random_trig(g, 3)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        assert path.read_text().splitlines()[0] == "x,h"
        assert np.array_equal(read_field_csv(path, g), f.values)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.sampled_from([8, 10, 64, 768]),
        length=st.floats(1e-3, 1e3),
        origin=st.floats(-1e3, 1e3),
    )
    def test_roundtrip_is_bit_exact_on_random_fields(self, tmp_path_factory, data, n, length,
                                                     origin):
        g = Grid(n=n, length=length, origin=origin)
        v = data.draw(arrays(np.float64, n, elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)))
        f = PeriodicField(g, v)
        path = tmp_path_factory.mktemp("csv") / "field.csv"
        write_field_csv(f, path)
        # The bulk writer gives the bytes of one formatted line per sample.
        rows = "".join(f"{xi:.17g},{vi:.17g}\n" for xi, vi in zip(g.x, f.values))
        assert path.read_text() == "x,h\n" + rows
        assert np.array_equal(read_field_csv(path, g), f.values)

    @pytest.mark.parametrize("grid", [Grid(), Grid(n=64, origin=-1.25), Grid(n=48, length=3.5)],
                             ids=["default", "shifted", "non-2pi"])
    def test_field_writer_matches_the_generic_writer(self, tmp_path, grid):
        # The field writer formats each grid's x column once and reuses it;
        # its bytes stay those of write_csv, for every field on the grid.
        for k in range(2):
            f = random_trig(grid, k)
            path, generic = tmp_path / f"{k}.csv", tmp_path / f"{k}.generic.csv"
            write_field_csv(f, path)
            write_csv(generic, ("x", "h"), np.column_stack((grid.x, f.values)))
            assert path.read_bytes() == generic.read_bytes()
            assert np.array_equal(read_field_csv(path, grid), f.values)

    def test_write_csv_table(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ("step", "a"), [(0, 0.1), (1, -2.5e-300), (2, math.inf)])
        assert path.read_text() == "step,a\n0,0.10000000000000001\n1,-2.5e-300\n2,inf\n"
        write_csv(path, ("step", "a"), [])
        assert path.read_text() == "step,a\n"

    def test_rejects_nonuniform_x(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["x,value"] + [f"{x},{1.0}" for x in (0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"x column in .*bad\.csv does not match the \[grid\] nodes"):
            read_field_csv(path, Grid(n=8, length=0.8))

    def test_rejects_too_few_samples(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,value\n0.0,1.0\n0.1,1.0\n")
        with pytest.raises(ValueError, match=re.escape("shape (2, 2) does not match (8, 2)")):
            read_field_csv(path, Grid(n=8, length=0.8))

    @pytest.mark.parametrize("origin", [0.0, -3.0, 1e4])
    def test_x_column_is_read_within_1e_9_of_the_length(self, tmp_path, origin):
        # Each x may lie 1e-9 * max(1, length) from its node, whatever the origin.
        g = Grid(n=16, length=10.0, origin=origin)
        v = random_trig(g, 5).values
        path = tmp_path / "field.csv"
        write_csv(path, ("x", "h"), np.column_stack((g.x + 1e-10 * g.length, v)))
        assert np.array_equal(read_field_csv(path, g), v)
        write_csv(path, ("x", "h"), np.column_stack((g.x - 1e-8 * g.length, v)))
        with pytest.raises(ValueError, match="does not match the"):
            read_field_csv(path, g)
