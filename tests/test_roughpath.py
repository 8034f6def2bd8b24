"""Driving-path sampling, enhancements, Chen algebra and controlled integrals."""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    is_exact,
    node_times,
    pair_tensor,
    reference_prefix,
    reference_sample_brownian,
    refinement_rate,
    set_block_rows,
    subsample_path,
)
from vortexlab import roughpath as rpm
from vortexlab import transform as tr

Q = rpm.INCREMENT_QUANTUM


def lattice(x: float) -> float:
    return round(x / Q) * Q


def two_step_path(grid2: rpm.TimeGrid, *rows) -> rpm.DrivingPath:
    vals = np.array([[0.0, 0.0]] + [[lattice(a), lattice(b)] for a, b in rows])
    return rpm.DrivingPath(grid2, vals)


# Oracles: plain all-pairs definitions that the tests compare against.


def chen_defect_of(pair_map, values: np.ndarray, iu: int, iw: int, iv: int) -> np.ndarray:
    """Chen defect of an arbitrary pair-indexed tensor map (test oracle).

    ``pair_map(u, v)`` supplies the candidate level-2 tensor; the defect is
    linear in it, so perturbing the map on a cell shows up in every triple
    whose middle node splits that cell.
    """
    cross = (values[iw] - values[iu])[:, None] * (values[iv] - values[iw])[None, :]
    return pair_map(iu, iv) - pair_map(iu, iw) - pair_map(iw, iv) - cross


def holder_norm(times: np.ndarray, values: np.ndarray, exponent: float) -> float:
    """sup over node pairs of |X_v - X_u| / (v-u)^exponent.

    ``values`` may be (K,) scalar or (K, d) vector samples; vector increments
    are measured in the Euclidean norm.
    """
    times = np.asarray(times, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise rpm.GridError("window must contain at least two nodes")
    if vals.ndim == 1:
        vals = vals[:, None]
    best = 0.0
    for i in range(times.size - 1):
        d = vals[i + 1 :] - vals[i]
        mag = np.sqrt(np.sum(d * d, axis=1))
        q = mag / (times[i + 1 :] - times[i]) ** exponent
        best = max(best, float(np.max(q)))
    return best


def rough_norms(rp: rpm.RoughPath, start: int, end: int, exponent: float) -> tuple[float, float]:
    """(level-1, level-2) Hoelder norms over grid indices [start, end].

    Level 1 uses the exponent itself, level 2 twice the exponent, matching
    the usual alpha / 2*alpha grading of a rough path.
    """
    if not (0 <= start < end <= rp.grid.steps):
        raise rpm.GridError(f"invalid index window [{start}, {end}]")
    times = node_times(rp.grid)
    level1 = holder_norm(times[start : end + 1], rp.values[start : end + 1], exponent)
    best = 0.0
    for u in range(start, end):
        vs = np.arange(u + 1, end + 1)
        tensors = rp.levy_area_pairs(np.full(vs.shape, u), vs)
        mag = np.sqrt(np.sum(tensors * tensors, axis=(1, 2)))
        q = mag / (times[vs] - times[u]) ** (2 * exponent)
        best = max(best, float(np.max(q)))
    return level1, best


class TestSampling:
    def test_initial_value_and_minimal_grid(self):
        grid = rpm.TimeGrid(1.0, 2)
        path = rpm.sample_brownian(123, 1, grid)
        assert path.values.shape == (3, 1)
        assert path.values[0, 0] == 0.0

    def test_same_seed_bit_identical(self, fine_grid):
        a = rpm.sample_brownian(7, 2, fine_grid)
        b = rpm.sample_brownian(7, 2, fine_grid)
        assert a.values.tobytes() == b.values.tobytes()

    def test_variance_of_endpoint(self):
        # sample-variance oracle: var of the estimator is 2/(n-1) for unit
        # variance Gaussians, so a 3-sigma band around 1 is the acceptance set
        grid = rpm.TimeGrid(1.0, 4096)
        ends = np.array(
            [rpm.sample_brownian(s, 1, grid).values[-1, 0] for s in range(1000)]
        )
        sample_var = np.var(ends, ddof=1)
        assert abs(sample_var - 1.0) < 3.0 * np.sqrt(2.0 / 999.0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(rpm.GridError, match="power of two"):
            rpm.TimeGrid(1.0, 3)
        with pytest.raises(rpm.GridError):
            rpm.TimeGrid(1.0, 1)

    def test_window_starts_after_zero(self, fine_grid):
        assert np.array_equal(fine_grid.window_indices(0.25, 0.5), np.arange(1024, 2049))
        for start in (0.0, -0.25):
            with pytest.raises(rpm.GridError, match="0 < start"):
                fine_grid.window_indices(start, 0.5)

    def test_bad_channel_count(self, fine_grid):
        with pytest.raises(ValueError, match="channel count"):
            rpm.sample_brownian(0, 0, fine_grid)

    def test_values_frozen_in_place(self, fine_grid):
        values = reference_sample_brownian(3, 2, fine_grid)
        path = rpm.DrivingPath(fine_grid, values)
        assert path.values is values
        with pytest.raises(ValueError, match="read-only"):
            values[1, 0] = 0.0


# Horizons and power-of-two step counts of the grids checked against the
# linspace oracle.
HORIZONS = (1.0, 4.0, 1.5, 0.7, 3.3, 1e-3, 123.456)
STEP_COUNTS = tuple(2 ** k for k in (2, 5, 12, 18))


class TestTimeGrid:
    def test_grid_holds_no_per_step_array(self):
        rpm.TimeGrid(1.0, 4).time_at(3)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            grid = rpm.TimeGrid(1.0, 1 << 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.steps == 1 << 22
        assert peak < 1024

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    def test_time_at_equals_linspace_byte_for_byte(self, steps):
        for horizon in HORIZONS:
            grid = rpm.TimeGrid(horizon, steps)
            want = node_times(grid)
            assert grid.time_at(np.arange(steps + 1)).tobytes() == want.tobytes()
            for j in (0, 1, steps // 3, steps - 1, steps):
                assert np.float64(grid.time_at(j)).tobytes() == want[j].tobytes()

    @pytest.mark.parametrize("steps", STEP_COUNTS[:3])
    def test_window_indices_equal_searchsorted_on_the_oracle(self, steps):
        # Window ends on nodes, one ulp either side of them, between two
        # nodes, and at the horizon.
        rng = np.random.default_rng(steps)
        for horizon in HORIZONS:
            grid = rpm.TimeGrid(horizon, steps)
            times = node_times(grid)
            on = times[rng.integers(1, steps + 1, 6)]
            between = 0.5 * (on - grid.spacing + on)
            ends = np.concatenate(
                [on, np.nextafter(on, 0.0), np.nextafter(on, np.inf), between, [horizon]]
            )
            ends = np.unique(ends[ends <= horizon])
            for start, end in itertools.combinations(ends, 2):
                lo = np.searchsorted(times, start, side="left")
                want = np.arange(lo, np.searchsorted(times, end, side="right"))
                if want.size < 2:
                    with pytest.raises(rpm.GridError, match="fewer than two"):
                        grid.window_indices(start, end)
                else:
                    assert np.array_equal(grid.window_indices(start, end), want)


# Block sizes of the streamed layer: (steps, rows per block); the blocks
# split the 4,096 steps once, twice and four times, and 4-row blocks cross
# 15 block boundaries of a 64-step path.
BLOCKINGS = pytest.mark.parametrize(
    "steps, rows",
    [(4096, 4096), (4096, 2048), (4096, 1024), (64, 4)],
    ids=["1-block", "2-blocks", "4-blocks", "16-blocks-of-4"],
)


class TestStreaming:
    @BLOCKINGS
    def test_sample_matches_whole_array_oracle(self, monkeypatch, steps, rows):
        set_block_rows(monkeypatch, rows)
        grid = rpm.TimeGrid(1.0, steps)
        for seed, channels in ((42, 2), (5, 1), (9, 3)):
            got = rpm.sample_brownian(seed, channels, grid).values
            assert got.tobytes() == reference_sample_brownian(seed, channels, grid).tobytes()

    @BLOCKINGS
    @pytest.mark.parametrize("flavor", rpm.FLAVORS)
    def test_prefix_matches_whole_array_oracle(self, monkeypatch, steps, rows, flavor):
        set_block_rows(monkeypatch, rows)
        for seed, channels in ((42, 2), (9, 3)):
            path = rpm.sample_brownian(seed, channels, rpm.TimeGrid(1.0, steps))
            rp = rpm.enhance(path, flavor)
            assert rp.prefix.tobytes() == reference_prefix(path, flavor).tobytes()

    @BLOCKINGS
    def test_store_matches_whole_array_oracle(self, monkeypatch, tmp_path, steps, rows):
        set_block_rows(monkeypatch, rows)
        path = rpm.sample_brownian(42, 2, rpm.TimeGrid(1.0, steps))
        _, vp = rpm.save_rough_path(rpm.enhance(path, rpm.ITO), tmp_path)
        units = np.diff(path.values, axis=0) / Q
        assert vp.read_bytes() == units.astype("<i4").tobytes()
        assert rpm.load_rough_path(tmp_path).values.tobytes() == path.values.tobytes()

    def test_table_built_on_first_read_only(self, brownian):
        rp = rpm.enhance(brownian, rpm.ITO)
        assert "prefix" not in vars(rp)
        rp.levy_area_pairs([0], [1])
        table = rp.prefix
        assert rp.levy_area_pairs([0], [2]).shape == (1, 2, 2)
        assert rp.prefix is table
        assert not table.flags.writeable


class TestEnhancement:
    def test_single_step_ito_is_zero(self):
        grid = rpm.TimeGrid(1.0, 2)
        path = two_step_path(grid, (0.25, -0.5), (0.75, 0.25))
        rp = rpm.enhance(path, rpm.ITO)
        for u in (0, 1):
            assert np.all(rp.levy_area_pairs([u], [u + 1])[0] == 0.0)

    def test_single_step_trapezoid_outer_product(self):
        grid = rpm.TimeGrid(1.0, 2)
        a, b = lattice(0.3), lattice(-0.7)
        path = two_step_path(grid, (a, b), (a + lattice(0.1), b + lattice(0.2)))
        rp = rpm.enhance(path, rpm.STRATONOVICH)
        first = np.array([[a, b]])
        expect = 0.5 * first.T @ first
        assert np.array_equal(rp.levy_area_pairs([0], [1])[0], expect)

    def test_ito_diagonal_closed_form(self, brownian, rp_ito):
        # telescoping-sum oracle: the left-point sums over the whole horizon
        # collapse to (beta_T^2 - quadratic variation) / 2 per channel
        inc = brownian.increments
        closed = 0.5 * (brownian.values[-1] ** 2 - np.sum(inc * inc, axis=0))
        tensor = rp_ito.levy_area_pairs([0], [brownian.grid.steps])[0]
        assert np.array_equal(np.diag(tensor), closed)

    def test_flavor_difference_is_half_covariation(self, brownian, rp_ito, rp_strat):
        inc = brownian.increments
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v = np.sort(rng.choice(brownian.grid.steps + 1, 2, replace=False))
            cov = inc[u:v].T @ inc[u:v]
            diff = rp_strat.levy_area_pairs([u], [v])[0] - rp_ito.levy_area_pairs([u], [v])[0]
            assert np.array_equal(diff, 0.5 * cov)

    def test_symmetric_part_exact(self, rp_strat):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u, v = np.sort(rng.choice(rp_strat.grid.steps + 1, 2, replace=False))
            t = rp_strat.levy_area_pairs([u], [v])[0]
            db = rp_strat.values[v] - rp_strat.values[u]
            assert np.array_equal(0.5 * (t + t.T), 0.5 * np.outer(db, db))

    def test_unknown_flavor_rejected(self, brownian):
        with pytest.raises(ValueError, match="flavor"):
            rpm.enhance(brownian, "midpoint")

    def test_off_lattice_path_rejected(self, monkeypatch):
        grid = rpm.TimeGrid(1.0, 2)
        vals = np.array([[0.0], [0.1], [0.2]])  # 0.1 is not a lattice point
        path = rpm.DrivingPath(grid, vals)
        with pytest.raises(rpm.PrecisionError, match="lattice"):
            rpm.enhance(path, rpm.ITO)
        # Past the first of 16 blocks, and ahead of an envelope breach in an
        # earlier block: the lattice is checked first, as one whole-path
        # check would.
        set_block_rows(monkeypatch, 4)
        for bad in (0.1, np.nan):
            column = np.arange(65) * Q
            column[10], column[40] = 64.0, bad
            path = rpm.DrivingPath(rpm.TimeGrid(1.0, 64), column[:, None])
            for flavor in rpm.FLAVORS:
                with pytest.raises(rpm.PrecisionError, match="not on the increment lattice"):
                    rpm.enhance(path, flavor)

    @pytest.mark.parametrize(
        "column, message",
        [
            ([0.0, 64.0, 128.0], "exact-product"),
            ([0.0, 30.0, 0.0, 30.0, 0.0], "exact-sum"),
            ([0.0] * 40 + [64.0] + [0.0] * 24, "exact-product"),
            ([0.0] * 37 + [30.0, 0.0] * 14, "exact-sum"),
            ([0.0] * 40 + [np.inf] + [0.0] * 24, "exact-product"),
            ([0.0] * 40 + [-np.inf] + [0.0] * 24, "exact-product"),
        ],
        ids=["product", "prefix", "product-late", "prefix-late", "inf", "minus-inf"],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_off_envelope_path_rejected(self, monkeypatch, column, message):
        set_block_rows(monkeypatch, 4)
        grid = rpm.TimeGrid(1.0, len(column) - 1)
        path = rpm.DrivingPath(grid, np.array(column)[:, None])
        with pytest.raises(rpm.PrecisionError, match=message):
            rpm.enhance(path, rpm.ITO)

    @pytest.mark.parametrize("rows", [(40,), (40, 41), (64,)], ids=["one", "two", "last"])
    @pytest.mark.parametrize("flavor", rpm.FLAVORS)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_path_rejected(self, monkeypatch, rows, flavor):
        # Each of these leaves a NaN among the maxima the envelope compares
        # (inf - inf, 0 * inf), and a NaN maximum fails the envelope.
        set_block_rows(monkeypatch, 4)
        column = np.zeros(65)
        column[list(rows)] = np.inf
        path = rpm.DrivingPath(rpm.TimeGrid(1.0, 64), column[:, None])
        with pytest.raises(rpm.PrecisionError, match="exact-product"):
            rpm.enhance(path, flavor)


class TestChen:
    def test_constructed_defect_exactly_zero(self, rp_ito, rp_strat):
        rng = np.random.default_rng(0)
        times = node_times(rp_ito.grid)
        for rp in (rp_ito, rp_strat):
            tri = np.sort([rng.choice(times.size, 3, replace=False) for _ in range(100)], axis=1)
            d = rpm.chen_defect(rp, tri[:, 0], tri[:, 1], tri[:, 2])
            assert d.shape == (100, 2, 2) and np.all(d == 0.0)

    def test_exhaustive_small_grid(self):
        grid = rpm.TimeGrid(1.0, 16)
        rp = rpm.enhance(rpm.sample_brownian(5, 2, grid), rpm.STRATONOVICH)
        tri = np.array(list(itertools.combinations(range(17), 3)))
        d = rpm.chen_defect(rp, tri[:, 0], tri[:, 1], tri[:, 2])
        assert np.all(d == 0.0)

    def test_perturbed_pair_map_shows_in_split_triples(self, rp_ito):
        # linearity of the defect: bumping a pair-map entry on a coarse cell
        # is seen exactly by triples whose middle node falls inside the cell
        lo, hi = 100, 200

        def perturbed(u, v):
            base = pair_tensor(rp_ito, u, v)
            if u <= lo and hi <= v:
                base = base.copy()
                base[0, 1] += 1.0
            return base

        d = chen_defect_of(perturbed, rp_ito.values, 50, 150, 250)
        assert d[0, 1] == 1.0 and abs(d).sum() == 1.0
        d = chen_defect_of(perturbed, rp_ito.values, 50, 250, 300)
        assert np.all(d == 0.0)

    @pytest.mark.parametrize(
        "us, ws, vs",
        [([10, 30], [20, 20], [40, 50]), ([10], [40], [40]), ([-1], [5], [9]), ([0], [5], [4097])],
        ids=["w-before-u", "w-equals-v", "negative", "past-end"],
    )
    def test_out_of_order_indices_rejected(self, rp_ito, us, ws, vs):
        with pytest.raises(rpm.GridError, match="u < w < v"):
            rpm.chen_defect(rp_ito, us, ws, vs)


class TestHolderNorm:
    def test_constant_path_zero(self):
        t = np.linspace(0, 1, 9)
        assert holder_norm(t, np.ones(9), 0.4) == 0.0

    def test_linear_path_half_exponent(self):
        t = np.linspace(0, 2, 17)
        c = 1.5
        got = holder_norm(t, c * t, 0.5)
        assert got == pytest.approx(c * 2.0 ** 0.5, rel=1e-12)

    def test_brownian_matches_all_pairs_loop(self):
        # all-pairs oracle: plain double loop over every node pair
        grid = rpm.TimeGrid(1.0, 256)
        path = rpm.sample_brownian(11, 1, grid)
        got = holder_norm(node_times(grid), path.values[:, 0], 0.4)
        brute = 0.0
        t, x = node_times(grid), path.values[:, 0]
        for i in range(257):
            for j in range(i + 1, 257):
                brute = max(brute, abs(x[j] - x[i]) / (t[j] - t[i]) ** 0.4)
        assert got == pytest.approx(brute, rel=1e-13)
        assert np.isfinite(holder_norm(node_times(grid), path.values, 0.4))

    def test_window_monotone_and_translation_invariant(self, brownian):
        t = node_times(brownian.grid)
        x = brownian.values
        inner = holder_norm(t[100:200], x[100:200], 0.4)
        outer = holder_norm(t[50:250], x[50:250], 0.4)
        assert outer >= inner
        shifted = holder_norm(t[100:200] - t[100], x[100:200], 0.4)
        assert shifted == inner

    def test_empty_window_rejected(self):
        with pytest.raises(rpm.GridError, match="two nodes"):
            holder_norm(np.array([1.0]), np.array([2.0]), 0.4)

    def test_rough_norms_finite(self, rp_ito):
        l1, l2 = rough_norms(rp_ito, 0, 512, 0.4)
        assert np.isfinite(l1) and np.isfinite(l2) and l1 > 0 and l2 > 0


def window_controlled(rp, lo, hi, values, derivative):
    idx = np.arange(lo, hi + 1)
    return rpm.ControlledPath(idx, node_times(rp.grid)[idx], values, derivative)


class TestRoughIntegral:
    def test_constant_integrand_telescopes(self, rp_ito):
        K = 2049
        y = window_controlled(
            rp_ito, 1024, 3072, np.ones((K, 1)), np.zeros((K, 1, 2))
        )
        target = rp_ito.values[3072] - rp_ito.values[1024]
        rng = np.random.default_rng(5)
        for _ in range(10):
            interior = np.sort(rng.choice(np.arange(1025, 3072), 31, replace=False))
            part = np.concatenate([[1024], interior, [3072]])
            got = rpm.rough_integral(y, rp_ito, part)
            assert np.array_equal(got[0], target)

    def test_identity_controlled_partition_independent(self, rp_ito):
        K = 2049
        idx = np.arange(1024, 3073)
        y = window_controlled(
            rp_ito,
            1024,
            3072,
            rp_ito.values[idx],
            np.tile(np.eye(2)[None], (K, 1, 1)),
        )
        expect = (
            rp_ito.values[1024][:, None] * (rp_ito.values[3072] - rp_ito.values[1024])[None, :]
            + pair_tensor(rp_ito, 1024, 3072)
        )
        rng = np.random.default_rng(6)
        for _ in range(10):
            interior = np.sort(rng.choice(np.arange(1025, 3072), 53, replace=False))
            part = np.concatenate([[1024], interior, [3072]])
            got = rpm.rough_integral(y, rp_ito, part)
            assert np.array_equal(got, expect)

    def test_deterministic_ramp_matches_summation_by_parts(self, rp_ito):
        idx = np.arange(1024, 3073)
        t = node_times(rp_ito.grid)[idx]
        y = window_controlled(rp_ito, 1024, 3072, t[:, None].copy(), np.zeros((idx.size, 1, 2)))
        got = rpm.rough_integral(y, rp_ito, idx)
        s, e = t[0], t[-1]
        sbp = (
            e * rp_ito.values[3072]
            - s * rp_ito.values[1024]
            - np.sum(rp_ito.values[idx[1:]] * np.diff(t)[:, None], axis=0)
        )
        assert np.abs(got[0] - sbp).max() < 10.0 * (1.0 / 4096.0)

    def test_partition_not_nested_rejected(self, rp_ito):
        K = 101
        y = window_controlled(
            rp_ito, 1000, 1100, np.ones((K, 1)), np.zeros((K, 1, 2))
        )
        with pytest.raises(rpm.PartitionError):
            rpm.rough_integral(y, rp_ito, np.array([1000, 1150]))
        with pytest.raises(rpm.PartitionError):
            rpm.rough_integral(y, rp_ito, np.array([1000, 1000, 1100]))

    def test_window_must_start_after_zero(self, rp_ito):
        with pytest.raises(ValueError, match="strictly after"):
            window_controlled(rp_ito, 0, 100, np.ones((101, 1)), np.zeros((101, 1, 2)))


class TestRefinementRate:
    def test_exact_cases_report_sentinel(self, rp_ito):
        K = 2049
        idx = np.arange(1024, 3073)
        const = window_controlled(rp_ito, 1024, 3072, np.ones((K, 1)), np.zeros((K, 1, 2)))
        assert is_exact(refinement_rate(const, rp_ito))
        ident = window_controlled(
            rp_ito, 1024, 3072, rp_ito.values[idx], np.tile(np.eye(2)[None], (K, 1, 1))
        )
        assert refinement_rate(ident, rp_ito).slope == np.inf

    def test_smooth_controlled_rate(self, rp_ito):
        idx = np.arange(1024, 3073)
        b1 = rp_ito.values[idx, :1]
        deriv = np.zeros((idx.size, 1, 2))
        deriv[:, 0, 0] = np.cos(b1[:, 0])
        y = window_controlled(rp_ito, 1024, 3072, np.sin(b1), deriv)
        fit = refinement_rate(y, rp_ito, levels=6)
        assert fit.slope >= 3 * 0.4 - 1.0

    def test_short_window_rejected(self, rp_ito):
        y = window_controlled(rp_ito, 100, 110, np.ones((11, 1)), np.zeros((11, 1, 2)))
        with pytest.raises(rpm.GridError, match="16"):
            refinement_rate(y, rp_ito)


class TestStore:
    def test_roundtrip_bit_identical(self, rp_ito, rp_strat, tmp_path):
        for rp in (rp_ito, rp_strat):
            rpm.save_rough_path(rp, tmp_path / rp.flavor)
            back = rpm.load_rough_path(tmp_path / rp.flavor)
            assert back.values.tobytes() == rp.values.tobytes()
            assert back.prefix.tobytes() == rp.prefix.tobytes()
            assert back.flavor == rp.flavor
            assert back.path.seed == rp.path.seed and back.grid == rp.grid
            assert np.all(rpm.chen_defect(back, [10], [1000], [4000]) == 0.0)

    def test_header_holds_the_path_only(self, rp_ito, tmp_path):
        # Verify's exponent alpha is no store field; the alpha key of an
        # older schema-4 header is not read.
        hp, _ = rpm.save_rough_path(rp_ito, tmp_path)
        header = json.loads(hp.read_text())
        assert set(header) == {
            "schema_version", "seed", "channels", "horizon", "steps", "flavor", "layout", "increment_type"
        }
        hp.write_text(json.dumps({**header, "alpha": 0.4}))
        back = rpm.load_rough_path(tmp_path)
        assert back.values.tobytes() == rp_ito.values.tobytes() and back.flavor == rp_ito.flavor

    def test_header_fields(self, rp_ito, tmp_path):
        hp, vp = rpm.save_rough_path(rp_ito, tmp_path)
        header = json.loads(hp.read_text())
        assert header["schema_version"] == 4
        assert header["channels"] == 2 and header["steps"] == 4096
        assert header["flavor"] == "ito" and header["seed"] == 42
        assert header["increment_type"] == "<i4"
        assert hp.name == "rough_path.json" and vp.name == "rough_path.bin"
        raw = np.fromfile(vp, dtype="<i4").reshape(4096, 2)  # the increments only
        assert np.array_equal(raw * Q, np.diff(rp_ito.values, axis=0))

    @pytest.mark.parametrize(
        "steps, horizon, kind",
        [(4096, 1.0, "<i4"), (1 << 16, 0.25, "<i2")],
        ids=["fixture-4096", "2^16"],
    )
    def test_narrowest_increment_type(self, tmp_path, steps, horizon, kind):
        # Seed 42 at 4,096 steps over horizon 1 is the rp_ito fixture's path.
        rp = rpm.enhance(rpm.sample_brownian(42, 2, rpm.TimeGrid(horizon, steps)), rpm.ITO)
        hp, vp = rpm.save_rough_path(rp, tmp_path)
        assert json.loads(hp.read_text())["increment_type"] == kind
        itemsize = np.dtype(kind).itemsize
        assert vp.stat().st_size == itemsize * steps * 2
        units = np.abs(np.diff(rp.values, axis=0) / Q).max()
        assert units <= np.iinfo(kind).max
        if itemsize > 2:
            assert units > np.iinfo(f"<i{itemsize // 2}").max
        assert rpm.load_rough_path(tmp_path).values.tobytes() == rp.values.tobytes()

    def test_int64_increments_roundtrip(self, tmp_path):
        # A 2**11 jump on the last step is 2**32 quanta, past int32; the left
        # points before it vanish, so the path is inside the envelope.
        path = rpm.DrivingPath(rpm.TimeGrid(1.0, 2), np.array([[0.0], [0.0], [2.0 ** 11]]))
        hp, vp = rpm.save_rough_path(rpm.enhance(path, rpm.ITO), tmp_path)
        assert json.loads(hp.read_text())["increment_type"] == "<i8"
        assert vp.stat().st_size == 8 * 2
        assert rpm.load_rough_path(tmp_path).values.tobytes() == path.values.tobytes()
        # 2**91 quanta pass the envelope the same way but fit no store type.
        path = rpm.DrivingPath(rpm.TimeGrid(1.0, 2), np.array([[0.0], [0.0], [2.0 ** 70]]))
        with pytest.raises(rpm.PrecisionError, match="exceed int64"):
            rpm.save_rough_path(rpm.enhance(path, rpm.ITO), tmp_path / "wide")
        assert not (tmp_path / "wide" / "rough_path.json").exists()

    def test_increment_rounding_to_zero_from_below_roundtrips(self, tmp_path):
        # At std = q/2 a standard draw in (-1, 0) rounds to -0.0 quanta;
        # seed 4's first draws of both channels are such draws.
        grid = rpm.TimeGrid(2.0 ** -40, 16)
        first = np.random.default_rng(4).standard_normal(2) * math.sqrt(grid.spacing)
        assert np.all((-Q / 2 < first) & (first < 0.0))
        path = rpm.sample_brownian(4, 2, grid)
        assert not np.any(np.signbit(path.values[path.values == 0.0]))
        rpm.save_rough_path(rpm.enhance(path, rpm.ITO), tmp_path)
        assert rpm.load_rough_path(tmp_path).values.tobytes() == path.values.tobytes()

    @pytest.mark.parametrize(
        "resize",
        [lambda n: n - 4, lambda n: n - 1, lambda n: n + 1, lambda n: n + 4, lambda n: 4 * 3000 * 2],
        ids=["short-value", "short-byte", "long-byte", "long-value", "rows-3000"],
    )
    def test_wrong_size_rejected(self, rp_strat, tmp_path, resize):
        # The 4,096-step fixture is stored as int32 increments.
        _, vp = rpm.save_rough_path(rp_strat, tmp_path)
        data = vp.read_bytes()
        size = resize(len(data))
        vp.write_bytes(data[:size] + bytes(max(0, size - len(data))))
        with pytest.raises(ValueError, match=f"holds {size} bytes.*needs exactly {len(data)}"):
            rpm.load_rough_path(tmp_path)

    def test_schema_1_refused(self, rp_ito, tmp_path):
        hp, _ = rpm.save_rough_path(rp_ito, tmp_path)
        header = json.loads(hp.read_text())
        hp.write_text(json.dumps({**header, "schema_version": 1}))
        with pytest.raises(ValueError, match="schema_version 1.*re-run `vortexlab enhance`"):
            rpm.load_rough_path(tmp_path)

    def test_schema_2_refused(self, rp_ito, tmp_path):
        # A schema-2 store: the values followed by the (zero) Ito step tensors.
        hp, vp = rpm.save_rough_path(rp_ito, tmp_path)
        header = json.loads(hp.read_text())
        hp.write_text(json.dumps({**header, "schema_version": 2}))
        vp.write_bytes(rp_ito.values.astype("<f8").tobytes() + bytes(8 * 4096 * 2 * 2))
        with pytest.raises(ValueError, match="schema_version 2.*re-run `vortexlab enhance`"):
            rpm.load_rough_path(tmp_path)

    def test_schema_3_refused(self, rp_ito, tmp_path):
        # A schema-3 store: the float64 values, 8*(steps+1)*N bytes.
        hp, vp = rpm.save_rough_path(rp_ito, tmp_path)
        header = json.loads(hp.read_text())
        del header["increment_type"]
        hp.write_text(json.dumps({**header, "schema_version": 3, "value_format": "little-endian float64"}))
        vp.write_bytes(rp_ito.values.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="schema_version 3.*re-run `vortexlab enhance`"):
            rpm.load_rough_path(tmp_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.update(channels=None), "channels"),
            (lambda h: h.pop("steps"), "steps"),
            (lambda h: h.update(increment_type="<f8"), "increment_type '<f8'"),
            (lambda h: [h], "holds a JSON list"),
        ],
        ids=["null-channels", "no-steps", "float-type", "list"],
    )
    def test_malformed_header_is_value_error(self, rp_ito, tmp_path, edit, message):
        hp, _ = rpm.save_rough_path(rp_ito, tmp_path)
        header = json.loads(hp.read_text())
        edited = edit(header)
        hp.write_text(json.dumps(edited if isinstance(edited, list) else header))
        with pytest.raises(ValueError, match=re.escape(message)):
            rpm.load_rough_path(tmp_path)


class TestLayerMemory:
    """tracemalloc bounds of the rough-path layer at 2^16 steps, 2 channels."""

    STEPS = 1 << 16

    @staticmethod
    def _warm_up(noise):
        # Any lazy import happens before tracing.
        small = rpm.sample_brownian(0, 2, rpm.TimeGrid(1.0, 64))
        for flavor in rpm.FLAVORS:
            rpm.enhance(small, flavor).levy_area_pairs([0], [64])
        assert tr.bound_series(noise, small) > 0.0

    @pytest.mark.parametrize("flavor", rpm.FLAVORS)
    def test_layer_memory_is_what_is_kept_plus_one_block(self, flavor):
        noise = tr.NoiseModel((0.8, -0.9), (None, None))
        self._warm_up(noise)
        grid = rpm.TimeGrid(1.0, self.STEPS)
        tracemalloc.start()
        try:
            path = rpm.sample_brownian(0, 2, grid)
            rp = rpm.enhance(path, flavor)
            assert tr.bound_series(noise, path) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = rp.channels
        kept = path.values.nbytes
        # One block of the table and a copy the cumulative sum may take of
        # it, and four path-shaped blocks (increments, left points, the
        # lattice check's two copies); the bound series keeps only its sup.
        block = 8 * rpm.BLOCK_ROWS * (2 * n * n + 4 * n)
        assert "prefix" not in vars(rp)
        assert peak <= kept + block

    def test_layer_memory_load_holds_no_table_until_read(self, tmp_path):
        self._warm_up(tr.NoiseModel((0.8, -0.9), (None, None)))
        path = rpm.sample_brownian(0, 2, rpm.TimeGrid(1.0, self.STEPS))
        rpm.save_rough_path(rpm.enhance(path, rpm.STRATONOVICH), tmp_path)
        table = 8 * (self.STEPS + 1) * 2 * 2
        tracemalloc.start()
        try:
            rp = rpm.load_rough_path(tmp_path)
            loaded = tracemalloc.get_traced_memory()[0]
            rp.levy_area_pairs([0], [self.STEPS])
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        held = rp.values.nbytes
        assert loaded < held + table // 4
        assert read - loaded >= table
        assert rp.prefix.tobytes() == reference_prefix(path, rpm.STRATONOVICH).tobytes()

    def test_memory_bounds_hold_in_a_fresh_interpreter(self):
        # A tracemalloc bound that holds only once earlier tests have made
        # numpy's lazy imports fails here.
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             __file__, "-k", "layer_memory"],
            cwd=Path(__file__).resolve().parents[1],
            env=dict(os.environ),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
        assert re.search(r"\b3 passed\b", run.stdout)


class TestSubsample:
    def test_dyadic_coarsening(self, brownian):
        coarse = subsample_path(brownian, 4)
        assert coarse.grid.steps == 1024
        assert np.array_equal(coarse.values, brownian.values[::4])
        rp = rpm.enhance(coarse, rpm.ITO)
        assert np.all(rpm.chen_defect(rp, [3], [500], [900]) == 0.0)

    def test_bad_stride(self, brownian):
        with pytest.raises(rpm.GridError):
            subsample_path(brownian, 3)
