"""Catalog correctness: closed forms against published optima and invariants."""

import math

import numpy as np
import pytest

from smoothgp import benchmarks
from smoothgp.benchmarks import BenchmarkFunction

# Tolerance for |f(known_argmin) - known_minimum| on verified entries;
# bounded by the 4-decimal argminima the reference table reports.
OPTIMUM_TOL = 1e-3

NONNEGATIVE = ("alpine", "griewank", "rastrigin", "rosenbrock", "xinsheyang2")


class TestKnownOptima:
    def test_verified_optima_within_tolerance(self):
        for fn in benchmarks.catalog():
            if not fn.verified:
                continue
            residual = abs(fn.evaluate(fn.known_argmin) - fn.known_minimum)
            assert residual <= OPTIMUM_TOL, (fn.name, fn.dimension, residual)

    def test_rastrigin_origin_exact(self):
        assert benchmarks.get("rastrigin", 2).evaluate([0.0, 0.0]) == 0.0

    def test_schwefel_reference_point(self):
        fn = benchmarks.get("schwefel", 2)
        assert abs(fn.evaluate([420.9687, 420.9687])) <= 1e-3

    def test_michalewicz_2d_reference(self):
        fn = benchmarks.get("michalewicz", 2)
        assert abs(fn.evaluate([2.2044, 1.5692]) - (-1.801)) <= 1e-3

    def test_rosenbrock_all_ones(self):
        assert benchmarks.get("rosenbrock", 3).evaluate([1.0, 1.0, 1.0]) == 0.0

    def test_griewank_origin_4d(self):
        assert benchmarks.get("griewank", 4).evaluate([0.0] * 4) == 0.0

    def test_ackley_origin_near_zero(self):
        assert abs(benchmarks.get("ackley", 3).evaluate([0.0] * 3)) <= 1e-12

    def test_vincent_not_verified_and_stored_verbatim(self):
        for dim in (2, 3, 4):
            fn = benchmarks.get("vincent", dim)
            assert not fn.verified
            assert fn.known_minimum == -float(dim)
            assert fn.known_argmin == (0.25,) * dim
            # the stored optimum really is inconsistent with the closed form
            assert abs(fn.evaluate(fn.known_argmin) - fn.known_minimum) > 1e-2

    def test_michalewicz_high_dims_have_no_reference(self):
        for dim in (3, 4):
            fn = benchmarks.get("michalewicz", dim)
            assert fn.known_minimum is None
            assert fn.known_argmin is None
            assert not fn.verified


class TestEvaluate:
    def test_pure_bit_identical(self):
        rng = np.random.default_rng(7)
        for fn in benchmarks.catalog(dimensions=(2, 4)):
            x = rng.uniform(fn.lower, fn.upper, size=fn.dimension)
            assert fn.evaluate(x) == fn.evaluate(x)

    def test_dimension_mismatch_rejected(self):
        fn = benchmarks.get("ackley", 2)
        with pytest.raises(ValueError, match=r"^point must have length 2, got shape \(3,\)$"):
            fn.evaluate([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^points must have shape \(n, 2\), got \(2,\)$"):
            fn.evaluate_batch([1.0, 2.0])

    def test_out_of_bounds_rejected(self):
        fn = benchmarks.get("vincent", 2)
        with pytest.raises(ValueError, match=r"^point outside \[0\.25, 10\.0\]\^D box$"):
            fn.evaluate([0.1, 1.0])
        with pytest.raises(ValueError, match=r"^point outside \[0\.25, 10\.0\]\^D box$"):
            fn.evaluate_batch([[1.0, 1.0], [0.1, 1.0]])
        with pytest.raises(ValueError):
            benchmarks.get("rastrigin", 2).evaluate([6.0, 0.0])

    def test_nan_coordinate_rejected(self):
        fn = benchmarks.get("rastrigin", 2)
        with pytest.raises(ValueError):
            fn.evaluate([math.nan, 0.0])
        with pytest.raises(ValueError):
            fn.evaluate_batch(np.array([[0.0, 0.0], [1.0, math.nan]]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        for fn in benchmarks.catalog(dimensions=(3,)):
            pts = rng.uniform(fn.lower, fn.upper, size=(20, 3))
            batch = fn.evaluate_batch(pts)
            for row, value in zip(pts, batch):
                assert fn.evaluate(row) == value

    def test_finite_on_random_in_bounds_points(self):
        rng = np.random.default_rng(3)
        for fn in benchmarks.catalog():
            pts = rng.uniform(fn.lower, fn.upper, size=(200, fn.dimension))
            assert np.all(np.isfinite(fn.evaluate_batch(pts)))

    def test_nonnegative_where_forced(self):
        rng = np.random.default_rng(5)
        for name in NONNEGATIVE:
            for dim in (2, 3, 4):
                fn = benchmarks.get(name, dim)
                pts = rng.uniform(fn.lower, fn.upper, size=(500, dim))
                values = fn.evaluate_batch(pts)
                assert np.all(values >= 0.0), (name, dim, values.min())


class TestSampleUniform:
    def test_reproducible_with_same_seed(self):
        fn = benchmarks.get("griewank", 3)
        pts_a, vals_a = fn.sample_uniform(50, np.random.default_rng(42))
        pts_b, vals_b = fn.sample_uniform(50, np.random.default_rng(42))
        assert np.array_equal(pts_a, pts_b)
        assert np.array_equal(vals_a, vals_b)

    def test_points_inside_bounds(self):
        fn = benchmarks.get("ackley", 2)
        pts, vals = fn.sample_uniform(100, np.random.default_rng(0))
        assert pts.shape == (100, 2)
        assert np.all(pts >= -30.0) and np.all(pts <= 30.0)
        assert np.array_equal(vals, fn.evaluate_batch(pts))

    def test_coordinate_means_match_uniform_law(self):
        # mean of U(-10, 10) is 0 with sd (20 / sqrt(12)) / sqrt(n); 3-sigma band
        fn = benchmarks.get("alpine", 2)
        pts, _ = fn.sample_uniform(1000, np.random.default_rng(123))
        band = 3.0 * (20.0 / np.sqrt(12.0)) / np.sqrt(1000.0)
        assert np.all(np.abs(pts.mean(axis=0)) <= band)

    def test_degenerate_box_stub(self):
        stub = BenchmarkFunction(
            name="stub", dimension=2, lower=0.0, upper=0.0,
            evaluator=lambda pts: np.zeros(len(pts)))
        pts, vals = stub.sample_uniform(1, np.random.default_rng(1))
        assert np.array_equal(pts, [[0.0, 0.0]])
        assert vals[0] == 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            benchmarks.get("ackley", 2).sample_uniform(0, np.random.default_rng(0))


class TestCatalog:
    def test_lookup_case_insensitive(self):
        assert benchmarks.get("AcKlEy", 2).name == "ackley"
        assert benchmarks.get("XinSheYang2", 3).name == "xinsheyang2"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            benchmarks.get("sphere", 2)

    def test_nine_functions_three_dimensions(self):
        entries = benchmarks.catalog()
        assert len(entries) == 27
        assert len(benchmarks.names()) == 9

    def test_catalog_bounds_strict(self):
        for fn in benchmarks.catalog():
            assert fn.lower < fn.upper
            if fn.known_argmin is not None:
                assert all(fn.lower <= v <= fn.upper for v in fn.known_argmin)

    def test_argmin_length_validated(self):
        with pytest.raises(ValueError):
            BenchmarkFunction(
                name="bad", dimension=2, lower=0.0, upper=1.0,
                known_argmin=(0.5,), evaluator=lambda pts: np.zeros(len(pts)))
