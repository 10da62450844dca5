"""Swarm optimizer tests: fuzzy inference, stepping invariants, convergence."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from smoothgp import fstpso, stackgp
from smoothgp.fstpso import SwarmState, init_swarm, optimize, step, swarm_size

SPHERE_BOUNDS = np.array([[-5.0, 5.0], [-5.0, 5.0]])
TABLES = (fstpso._INERTIA, fstpso._COGNITIVE, fstpso._SOCIAL,
          fstpso._VMAX_SCALE, fstpso._VMIN_SCALE)


def fuzzy_settings(phi, delta):
    """The rule base's settings at (P,) ``phi`` in [-1, 1] and ``delta`` in
    [0, 1], as a (P, 5) array with columns inertia, cognitive, social, vmax
    scale and vmin scale."""
    signals, settings, infer = fstpso._rule_base(len(phi))
    signals[0] = phi
    signals[1] = 2.0 * delta - 1.0
    infer()
    return settings.copy()


def reference_fuzzy_update(phi, delta):
    """Scalar zero-order Sugeno inference, the oracle for the rule base."""
    mu_phi = (max(0.0, -phi), 1.0 - abs(phi), max(0.0, phi))
    mu_delta = (max(0.0, 1.0 - 2.0 * delta),
                1.0 - 2.0 * abs(delta - 0.5),
                max(0.0, 2.0 * delta - 1.0))
    num = [0.0] * 5
    den = 0.0
    for i in range(3):
        if mu_phi[i] == 0.0:
            continue
        for j in range(3):
            w = mu_phi[i] * mu_delta[j]
            if w == 0.0:
                continue
            den += w
            for k, table in enumerate(TABLES):
                num[k] += w * table[i][j]
    return tuple(v / den for v in num)


def reference_settings(state, bounds):
    """The (P, 5) settings and the (P, D) vmin and vmax that the next
    iteration from ``state`` derives."""
    _, _, span, diagonal = fstpso._box(bounds)
    phi = (state.values - state.prev_values) / (np.abs(state.prev_values) + 1.0)
    phi = np.minimum(np.maximum(phi, -1.0), 1.0)
    phi = np.where(np.isnan(phi), 0.0, phi)
    if diagonal > 0.0:
        offset = state.positions - state.global_best_position
        dist = np.sqrt(np.add.reduce(offset * offset, axis=1))
        delta = np.minimum(dist / diagonal, 1.0)
    else:
        delta = np.zeros(len(state.positions))
    settings = fuzzy_settings(phi, delta)
    vmax = settings[:, 3, None] * span
    vmin = settings[:, 4, None] * fstpso.VMIN_BASE_FRACTION * span
    return settings, vmin, vmax


def reference_step(state, objective, bounds, rng):
    """One swarm iteration as a plain sequence of array expressions, the
    oracle for the fused loop in ``fstpso``."""
    rng = np.random.default_rng(rng)
    lo, hi, _, _ = fstpso._box(bounds)
    size, dim = state.positions.shape
    settings, vmin, vmax = reference_settings(state, bounds)
    inertia, cognitive, social = settings[:, 0], settings[:, 1], settings[:, 2]

    # one draw of both factors keeps the stream of two consecutive draws
    r_cog, r_soc = rng.random((2, size, dim))
    velocity = (inertia[:, None] * state.velocities
                + cognitive[:, None] * r_cog * (state.best_positions - state.positions)
                + social[:, None] * r_soc * (state.global_best_position - state.positions))
    # Magnitude clamp preserves sign; exact zeros stay zero.
    velocity = np.sign(velocity) * np.minimum(np.maximum(np.abs(velocity), vmin), vmax)

    moved = state.positions + velocity
    clamped = np.minimum(np.maximum(moved, lo), hi)
    velocity = np.where(moved != clamped, 0.0, velocity)

    values = np.asarray(objective(clamped), dtype=float)

    state.prev_values = state.values
    state.positions = clamped
    state.velocities = velocity
    state.values = values
    improved = values < state.best_values
    state.best_positions = np.where(improved[:, None], clamped, state.best_positions)
    state.best_values = np.where(improved, values, state.best_values)
    gi = int(state.best_values.argmin())
    if state.best_values[gi] < state.global_best_value:
        state.global_best_value = float(state.best_values[gi])
        state.global_best_position = state.best_positions[gi].copy()
    state.evaluations_used += size
    return state


def settings_at(phi, delta):
    """The rule base's (inertia, cognitive, social, vmax, vmin) at one input."""
    return tuple(fuzzy_settings(np.array([phi]), np.array([delta]))[0].tolist())


def sphere(points):
    return np.sum(points * points, axis=1)


class TestFuzzyInference:
    def test_single_rule_corner_worse_far(self):
        assert settings_at(1.0, 1.0) == (0.90, 1.00, 2.50, 1.00, 0.30)

    def test_single_rule_corner_better_near(self):
        assert settings_at(-1.0, 0.0) == (0.40, 2.20, 1.00, 0.20, 0.00)

    def test_outputs_within_documented_ranges(self):
        phi, delta = np.meshgrid(np.linspace(-1.0, 1.0, 41),
                                 np.linspace(0.0, 1.0, 21))
        out = fuzzy_settings(phi.ravel(), delta.ravel())
        inertia, cognitive, social, vmax_scale, vmin_scale = out.T
        assert np.all((0.3 <= inertia) & (inertia <= 1.0))
        assert np.all((0.1 <= cognitive) & (cognitive <= 3.0))
        assert np.all((0.1 <= social) & (social <= 3.0))
        assert np.all((0.0 <= vmax_scale) & (vmax_scale <= 1.0))
        assert np.all((0.0 <= vmin_scale) & (vmin_scale <= 1.0))

    def test_outputs_are_convex_combinations(self):
        rng = np.random.default_rng(1)
        out = fuzzy_settings(rng.uniform(-1, 1, size=500),
                             rng.uniform(0, 1, size=500))
        for column, table in zip(out.T, TABLES):
            flat = [v for row in table for v in row]
            assert np.all(column >= min(flat) - 1e-12)
            assert np.all(column <= max(flat) + 1e-12)

    def test_lipschitz_on_dense_grid(self):
        # membership supports are 0.5 wide at the narrowest (delta sets), so
        # each output moves at most span/0.5 per unit input
        phis = np.linspace(-1.0, 1.0, 81)
        deltas = np.linspace(0.0, 1.0, 41)
        spans = np.array([max(v for r in t for v in r) - min(v for r in t for v in r)
                          for t in TABLES])
        phi, delta = np.meshgrid(phis, deltas, indexing="ij")
        grid = fuzzy_settings(phi.ravel(), delta.ravel()).reshape(
            len(phis), len(deltas), 5)
        dp = phis[1] - phis[0]
        dd = deltas[1] - deltas[0]
        assert np.all(np.abs(np.diff(grid, axis=0)) <= spans / 0.5 * dp + 1e-9)
        assert np.all(np.abs(np.diff(grid, axis=1)) <= spans / 0.5 * dd + 1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(-1.0, 1.0, size=200)
        delta = rng.uniform(0.0, 1.0, size=200)
        batch = fuzzy_settings(phi, delta)
        for i in range(200):
            scalar = reference_fuzzy_update(float(phi[i]), float(delta[i]))
            assert np.allclose(batch[i], scalar, rtol=0, atol=1e-12)
            assert settings_at(float(phi[i]), float(delta[i])) == tuple(batch[i])


class TestSwarmSize:
    def test_reference_heuristic(self):
        assert swarm_size(2) == 12
        assert swarm_size(3) == 13
        assert swarm_size(4) == 14
        assert swarm_size(9) == 16

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            swarm_size(0)


class TestStep:
    def _stationary_state(self):
        # every particle exactly at the global best with zero velocity
        size = swarm_size(2)
        point = np.full((size, 2), 1.5)
        values = sphere(point)
        return SwarmState(
            positions=point.copy(),
            velocities=np.zeros((size, 2)),
            values=values.copy(),
            prev_values=values.copy(),
            best_positions=point.copy(),
            best_values=values.copy(),
            global_best_position=point[0].copy(),
            global_best_value=float(values[0]),
            evaluations_used=size,
        )

    def test_zero_velocity_fixed_point(self):
        state = self._stationary_state()
        before = state.positions.copy()
        step(state, sphere, SPHERE_BOUNDS, np.random.default_rng(0))
        assert np.array_equal(state.positions, before)
        assert np.all(state.velocities == 0.0)

    def test_global_best_monotone(self):
        rng = np.random.default_rng(3)
        state = init_swarm(sphere, SPHERE_BOUNDS, rng)
        best = state.global_best_value
        for _ in range(50):
            step(state, sphere, SPHERE_BOUNDS, rng)
            assert state.global_best_value <= best
            best = state.global_best_value

    def test_personal_bests_never_worsen(self):
        rng = np.random.default_rng(4)
        state = init_swarm(sphere, SPHERE_BOUNDS, rng)
        for _ in range(20):
            before = state.best_values.copy()
            step(state, sphere, SPHERE_BOUNDS, rng)
            assert np.all(state.best_values <= before)

    def test_positions_and_velocities_bounded(self):
        rng = np.random.default_rng(5)
        state = init_swarm(sphere, SPHERE_BOUNDS, rng)
        for _ in range(30):
            # the limits the step derives from the state it starts from
            _, vmin, vmax = reference_settings(state, SPHERE_BOUNDS)
            step(state, sphere, SPHERE_BOUNDS, rng)
            assert np.all(state.positions >= -5.0)
            assert np.all(state.positions <= 5.0)
            speed = np.abs(state.velocities)
            ok = (speed == 0.0) | ((speed >= vmin - 1e-12)
                                   & (speed <= vmax + 1e-12))
            assert np.all(ok)

    def test_step_deterministic(self):
        states = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            state = init_swarm(sphere, SPHERE_BOUNDS, rng)
            step(state, sphere, SPHERE_BOUNDS, rng)
            states.append(state)
        a, b = states
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.best_values, b.best_values)
        assert a.global_best_value == b.global_best_value


class TestOptimize:
    def test_sphere_reaches_analytic_optimum(self):
        argmin, value = optimize(sphere, SPHERE_BOUNDS, 4000, 11)
        assert np.linalg.norm(argmin) <= 1e-3
        assert value <= 1e-5

    def test_no_worse_than_random_search(self):
        rng = np.random.default_rng(13)
        samples = rng.uniform(-5.0, 5.0, size=(1_000_000, 2))
        random_best = float(sphere(samples).min())
        _, value = optimize(sphere, SPHERE_BOUNDS, 4000, 13)
        assert value <= random_best

    def test_constant_objective(self):
        argmin, value = optimize(lambda pts: np.full(len(pts), 7.0),
                                 SPHERE_BOUNDS, 500, 3)
        assert value == 7.0
        assert np.all(argmin >= -5.0) and np.all(argmin <= 5.0)

    def test_identity_program_boundary_minimum(self):
        program = stackgp.parse("x0", 1)
        argmin, value = optimize(
            lambda pts: stackgp.interpret_batch(program, pts),
            np.array([[-10.0, 10.0]]), 2000, 7)
        assert abs(argmin[0] - (-10.0)) <= 1e-2
        assert abs(value - (-10.0)) <= 1e-2

    def test_budget_exactness(self):
        calls = {"n": 0}

        def counting(points):
            calls["n"] += len(points)
            return sphere(points)

        for budget in (12, 100, 555, 4000):
            calls["n"] = 0
            optimize(counting, SPHERE_BOUNDS, budget, 1)
            assert calls["n"] <= budget
            # whole swarm passes only: nothing smaller fits in the remainder
            assert budget - calls["n"] < swarm_size(2)

    def test_budget_below_swarm_size_rejected(self):
        with pytest.raises(ValueError):
            optimize(sphere, SPHERE_BOUNDS, swarm_size(2) - 1, 0)

    @pytest.mark.parametrize("bounds", [[[0.0, np.inf]], [[np.nan, 1.0]],
                                        [[-np.inf, 0.0], [0.0, 1.0]],
                                        [[-1e308, 1e308]]])
    def test_non_finite_bounds_rejected(self, bounds):
        # 1e308 - -1e308 overflows to an infinite edge length
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            optimize(sphere, bounds, 120, 0)

    def test_seed_determinism(self):
        a = optimize(sphere, SPHERE_BOUNDS, 2000, 42)
        b = optimize(sphere, SPHERE_BOUNDS, 2000, 42)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_argmin_value_consistent(self):
        argmin, value = optimize(sphere, SPHERE_BOUNDS, 1000, 9)
        assert sphere(argmin[None, :])[0] == value

    def test_convergence_statistics(self):
        # statistical oracle: nearly all seeded runs solve the 2-D sphere
        hits = sum(
            optimize(sphere, SPHERE_BOUNDS, 4000, seed)[1] <= 1e-4
            for seed in range(20))
        assert hits >= 19


STATE_FIELDS = ("positions", "velocities", "values", "prev_values",
                "best_positions", "best_values", "global_best_position",
                "global_best_value", "evaluations_used")


def oracle_case(seed):
    """A random (objective, bounds, budget, seed) over the edge cases: a
    random program at D = 1..4, NaN on half the box, values near 1e308 so
    that phi overflows, a constant, and a box with lo == hi."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    program = stackgp.random_program(dim, int(rng.integers(2, 12)),
                                     ((-5.0, 5.0),), rng)
    lo = rng.uniform(-600.0, 0.0, dim)
    hi = lo + rng.uniform(0.0, 900.0, dim)
    kind = seed % 5
    if kind == 4:
        hi = lo.copy() if seed % 10 == 4 else np.where(np.arange(dim) == 0, lo, hi)
    mid = (lo[0] + hi[0]) / 2

    def objective(points):
        values = stackgp.interpret_batch(program, points)
        if kind == 1:
            return np.where(points[:, 0] > mid, np.nan, values)
        if kind == 2:
            return values * 1e305 + 1e307 * np.sign(points[:, 0] - mid)
        if kind == 3:
            return np.full(len(points), 3.5)
        return values

    size = swarm_size(dim)
    budget = int(rng.integers(size, 40 * size))
    return objective, np.column_stack([lo, hi]), budget, int(rng.integers(2**31))


def assert_same_state(a, b):
    for field in STATE_FIELDS:
        x, y = np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), field


class TestLoopMatchesReferenceStep:
    @pytest.mark.parametrize("case", range(30))
    def test_optimize(self, case):
        objective, bounds, budget, seed = oracle_case(case)
        rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            state = init_swarm(objective, bounds, rng)
            size = len(state.positions)
            while state.evaluations_used + size <= budget:
                reference_step(state, objective, bounds, rng)
            argmin, value = optimize(objective, bounds, budget, seed)
        assert argmin.tobytes() == state.global_best_position.tobytes()
        assert np.float64(value).tobytes() == np.float64(
            state.global_best_value).tobytes()

    @pytest.mark.parametrize("case", range(30, 45))
    def test_step(self, case):
        objective, bounds, _, seed = oracle_case(case)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            state = init_swarm(objective, bounds, ours)
            expected = init_swarm(objective, bounds, theirs)
            for _ in range(8):
                step(state, objective, bounds, ours)
                reference_step(expected, objective, bounds, theirs)
                assert_same_state(state, expected)

    def test_step_leaves_earlier_arrays_alone(self):
        rng = np.random.default_rng(6)
        state = init_swarm(sphere, SPHERE_BOUNDS, rng)
        arrays = {f: getattr(state, f) for f in STATE_FIELDS
                  if isinstance(getattr(state, f), np.ndarray)}
        held = {f: array.copy() for f, array in arrays.items()}
        step(state, sphere, SPHERE_BOUNDS, rng)
        for field, array in arrays.items():
            assert np.array_equal(array, held[field], equal_nan=True), field


def result_bytes(result):
    argmin, value = result
    return argmin.tobytes() + np.float64(value).tobytes()


class TestWorkspaceReuse:
    """Swarms of one shape share a process's scratch arrays, never at once."""

    def test_objective_calling_optimize_matches_plain_calls(self):
        inner = []

        def nesting(points):
            # a swarm of the outer swarm's shape, run inside its iteration
            inner.append(optimize(sphere, SPHERE_BOUNDS, 60, len(inner)))
            return sphere(points)

        nested = optimize(nesting, SPHERE_BOUNDS, 600, 9)
        assert result_bytes(nested) == result_bytes(optimize(sphere, SPHERE_BOUNDS, 600, 9))
        assert len(inner) == 50
        for seed, result in enumerate(inner):
            assert result_bytes(result) == result_bytes(
                optimize(sphere, SPHERE_BOUNDS, 60, seed))

    def test_concurrent_threads_match_serial_calls(self):
        seeds = range(24)
        expected = [result_bytes(optimize(sphere, SPHERE_BOUNDS, 240, s)) for s in seeds]
        results = {}
        barrier = threading.Barrier(4)

        def worker(offset):
            barrier.wait(timeout=10)
            for seed in seeds[offset::4]:
                results[seed] = result_bytes(optimize(sphere, SPHERE_BOUNDS, 240, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(s) for s in seeds] == expected

    def test_state_holds_no_scratch_array(self):
        rng = np.random.default_rng(8)
        first = init_swarm(sphere, SPHERE_BOUNDS, rng)
        step(first, sphere, SPHERE_BOUNDS, rng)
        arrays = {f: getattr(first, f) for f in STATE_FIELDS
                  if isinstance(getattr(first, f), np.ndarray)}
        held = {f: array.copy() for f, array in arrays.items()}

        def later_swarm_matches_reference():
            ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
            state = init_swarm(sphere, SPHERE_BOUNDS, ours)
            expected = init_swarm(sphere, SPHERE_BOUNDS, theirs)
            for _ in range(8):
                step(state, sphere, SPHERE_BOUNDS, ours)
                reference_step(expected, sphere, SPHERE_BOUNDS, theirs)
                assert_same_state(state, expected)

        # a later swarm of the same shape leaves the first swarm's arrays alone
        later_swarm_matches_reference()
        for field, array in arrays.items():
            assert np.array_equal(array, held[field]), field
        # and writing into them does not move a later swarm
        for array in arrays.values():
            array.fill(np.nan)
        later_swarm_matches_reference()


class TestBox:
    """A process derives one box per distinct bounds and shares it read-only."""

    def test_equal_bounds_share_one_box(self):
        box = fstpso._box(SPHERE_BOUNDS)
        assert fstpso._box(SPHERE_BOUNDS.tolist()) is box
        assert fstpso._box(((-5.0, 5.0), (-5.0, 5.0))) is box
        assert fstpso._box(np.asfortranarray(SPHERE_BOUNDS)) is box
        assert fstpso._box([[-5.0, 5.0]]) is not box

    def test_box_does_not_follow_the_callers_array(self):
        bounds = SPHERE_BOUNDS.copy()
        box = fstpso._box(bounds)
        bounds[0, 0] = -1.0
        assert box.lo.tolist() == [-5.0, -5.0]
        assert fstpso._box(SPHERE_BOUNDS) is box

    @pytest.mark.parametrize("field", ["lo", "hi", "span"])
    def test_box_arrays_are_read_only(self, field):
        array = getattr(fstpso._box(SPHERE_BOUNDS), field)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0

    @pytest.mark.parametrize("bounds, message", [
        ([[1.0, 0.0]], "lo <= hi"), ([[0.0, np.inf]], "finite"),
        ([[0.0, 1.0, 2.0]], r"\(D, 2\)")])
    def test_invalid_bounds_raise_on_every_call(self, bounds, message):
        # a raised error is not cached
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                optimize(sphere, bounds, 120, 0)

    def test_array_and_list_bounds_give_identical_swarms(self):
        pairs = SPHERE_BOUNDS.tolist()
        assert result_bytes(optimize(sphere, pairs, 600, 5)) == result_bytes(
            optimize(sphere, SPHERE_BOUNDS, 600, 5))
        states = []
        for bounds in SPHERE_BOUNDS, pairs:
            rng = np.random.default_rng(5)
            state = init_swarm(sphere, bounds, rng)
            for _ in range(5):
                step(state, sphere, bounds, rng)
            states.append(state)
        assert_same_state(*states)


def test_scratch_memory_does_not_grow_with_the_budget():
    # a first call loads numpy internals lazily; keep that out of the peak
    optimize(sphere, SPHERE_BOUNDS, 120, 0)
    tracemalloc.start()
    try:
        optimize(sphere, SPHERE_BOUNDS, 120_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
