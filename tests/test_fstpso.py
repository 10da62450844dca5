"""Swarm optimizer tests: fuzzy inference, stepping invariants, convergence."""

import numpy as np
import pytest

from smoothgp import fstpso, stackgp
from smoothgp.fstpso import (SwarmState, fuzzy_settings, init_swarm, optimize,
                             step, swarm_size)

SPHERE_BOUNDS = np.array([[-5.0, 5.0], [-5.0, 5.0]])
TABLES = (fstpso._INERTIA, fstpso._COGNITIVE, fstpso._SOCIAL,
          fstpso._VMAX_SCALE, fstpso._VMIN_SCALE)


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
        inertia, cognitive, social, vmax_scale, vmin_scale = settings_at(0.0, 0.5)
        span = SPHERE_BOUNDS[:, 1] - SPHERE_BOUNDS[:, 0]
        return SwarmState(
            positions=point.copy(),
            velocities=np.zeros((size, 2)),
            values=values.copy(),
            prev_values=values.copy(),
            best_positions=point.copy(),
            best_values=values.copy(),
            global_best_position=point[0].copy(),
            global_best_value=float(values[0]),
            inertia=np.full(size, inertia),
            cognitive=np.full(size, cognitive),
            social=np.full(size, social),
            vmax=np.tile(vmax_scale * span, (size, 1)),
            vmin=np.tile(vmin_scale * 0.01 * span, (size, 1)),
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
            step(state, sphere, SPHERE_BOUNDS, rng)
            assert np.all(state.positions >= -5.0)
            assert np.all(state.positions <= 5.0)
            speed = np.abs(state.velocities)
            ok = (speed == 0.0) | ((speed >= state.vmin - 1e-12)
                                   & (speed <= state.vmax + 1e-12))
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
