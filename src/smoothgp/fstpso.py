"""Self-tuning particle swarm optimizer over box bounds.

Every iteration, each particle's inertia, cognitive and social factors and
its velocity limits are re-derived by a zero-order Sugeno fuzzy rule base
from two normalized signals:

* ``phi`` in [-1, 1]: performance change versus the previous iteration,
  ``(value - previous_value) / (|previous_value| + 1)`` clamped; negative
  means the particle improved, positive means it got worse,
* ``delta`` in [0, 1]: Euclidean distance from the swarm best divided by
  the diagonal of the bounds box.

Both linguistic variables use triangular membership partitions (phi:
Better/Same/Worse peaking at -1/0/+1; delta: Near/Mid/Far peaking at
0/0.5/1), so memberships always sum to one and the inferred settings are
convex combinations of the rule consequents below. Rough corners of the
table: a worsening particle far from the swarm best explores (high inertia,
high social pull, full velocity cap), an improving particle near the best
exploits (low inertia, high cognitive pull, tight velocity cap).

Velocity limits derive from the box edge lengths: ``vmax = vmax_scale *
(hi - lo)`` and ``vmin = vmin_scale * 0.01 * (hi - lo)`` per dimension.
Positions are clamped to the box with the velocity zeroed on clamped
dimensions (absorbing walls). ``optimize`` derives the box constants
(bounds, edge lengths, diagonal) once per swarm and runs all iterations in
one ``_advance`` loop, which reads the ``SwarmState`` into locals once,
works in scratch arrays allocated once, and writes the state back once at
the end; ``step`` is one iteration of that loop. A single ``optimize`` call
is strictly sequential; independent calls with independent generators may
run in parallel. The swarm size is ``floor(10 + 2 * sqrt(dimension))`` so
no user-supplied setting is needed.

Objectives are batch objectives: each maps an (n, D) array of points to an
(n,) array of values, and the swarm evaluates all its particles in one call
per iteration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# Rule consequents, indexed [phi set, delta set] with rows Better/Same/Worse
# and columns Near/Mid/Far.
_INERTIA = (
    (0.40, 0.50, 0.60),
    (0.50, 0.65, 0.80),
    (0.60, 0.75, 0.90),
)
_COGNITIVE = (
    (2.20, 1.90, 1.60),
    (1.90, 1.60, 1.30),
    (1.60, 1.30, 1.00),
)
_SOCIAL = (
    (1.00, 1.30, 1.60),
    (1.30, 1.60, 1.90),
    (1.60, 2.00, 2.50),
)
_VMAX_SCALE = (
    (0.20, 0.40, 0.60),
    (0.35, 0.55, 0.75),
    (0.50, 0.70, 1.00),
)
_VMIN_SCALE = (
    (0.00, 0.05, 0.10),
    (0.00, 0.10, 0.20),
    (0.10, 0.20, 0.30),
)

# The tables stacked as one (5, 3, 3) array, in the column order of
# fuzzy_settings.
_TABLES = np.array([_INERTIA, _COGNITIVE, _SOCIAL, _VMAX_SCALE, _VMIN_SCALE])

VMIN_BASE_FRACTION = 0.01


def swarm_size(dimension: int) -> int:
    """Population heuristic floor(10 + 2*sqrt(D)); no user tuning."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return int(10 + 2 * math.sqrt(dimension))


def _rule_base(size: int):
    """Buffers of the rule base for ``size`` particles, and their filler.

    Returns ``(signals, settings, infer)``. ``infer()`` reads the (2, P)
    ``signals`` array, ``phi`` then ``2 * delta - 1``, and writes the (P, 5)
    ``settings``. Both partitions are then Better/Near ``max(0, -s)``,
    Same/Mid ``1 - |s|`` and Worse/Far ``max(0, s)``. The firing strengths
    go into a C-ordered (P, 3, 3) buffer, which fixes the summation order of
    their total and of ``einsum``.
    """
    signals = np.empty((2, size))
    mu = np.empty((3, 2, size))
    near, mid, far = mu
    phi_mu, delta_mu = mu[:, 0].T[:, :, None], mu[:, 1].T[:, None, :]
    weights = np.empty((size, 3, 3))
    total = np.empty(size)
    total_column = total[:, None]
    settings = np.empty((size, 5))

    def infer() -> None:
        np.negative(signals, out=near)
        np.maximum(0.0, near, out=near)
        np.abs(signals, out=mid)
        np.subtract(1.0, mid, out=mid)
        np.maximum(0.0, signals, out=far)
        np.multiply(phi_mu, delta_mu, out=weights)
        np.add.reduce(weights, axis=(1, 2), out=total)
        np.einsum("pij,kij->pk", weights, _TABLES, out=settings)
        np.divide(settings, total_column, out=settings)

    return signals, settings, infer


def fuzzy_settings(phi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Zero-order Sugeno inference per particle.

    ``phi`` in [-1, 1] and ``delta`` in [0, 1] are (P,) arrays. Returns the
    firing-strength-weighted consequents as a (P, 5) array with columns
    inertia, cognitive, social, vmax scale and vmin scale.
    """
    signals, settings, infer = _rule_base(phi.shape[0])
    signals[0] = phi
    np.subtract(2.0 * delta, 1.0, out=signals[1])
    infer()
    return settings


# settings of a fresh swarm: no performance change, mid distance
_NEUTRAL = tuple(fuzzy_settings(np.array([0.0]), np.array([0.5]))[0].tolist())


@dataclass
class SwarmState:
    """Struct-of-arrays swarm; mutated in place by step()."""

    positions: np.ndarray
    velocities: np.ndarray
    values: np.ndarray
    prev_values: np.ndarray
    best_positions: np.ndarray
    best_values: np.ndarray
    global_best_position: np.ndarray
    global_best_value: float
    inertia: np.ndarray
    cognitive: np.ndarray
    social: np.ndarray
    vmax: np.ndarray
    vmin: np.ndarray
    iteration: int = 0
    evaluations_used: int = 0


# constants of a bounds box, derived once per swarm by _box
_Box = namedtuple("_Box", "lo hi span diagonal")


def _box(bounds) -> _Box:
    if isinstance(bounds, _Box):
        return bounds
    box = np.asarray(bounds, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] < 1:
        raise ValueError("bounds must be a (D, 2) array of (lo, hi) pairs")
    lo, hi = box[:, 0], box[:, 1]
    if np.any(lo > hi):
        raise ValueError("bounds must satisfy lo <= hi per dimension")
    span = hi - lo
    return _Box(lo, hi, span, float(np.linalg.norm(span)))


def init_swarm(objective, bounds, rng) -> SwarmState:
    """Place the swarm uniformly in the box and evaluate it once."""
    rng = np.random.default_rng(rng)
    lo, _, span, _ = _box(bounds)
    dim = lo.shape[0]
    size = swarm_size(dim)
    inertia, cognitive, social, vmax_scale, vmin_scale = _NEUTRAL
    positions = lo + rng.random((size, dim)) * span
    values = np.asarray(objective(positions), dtype=float)
    gi = int(np.argmin(values))
    return SwarmState(
        positions=positions,
        velocities=np.zeros((size, dim)),
        values=values,
        prev_values=values.copy(),
        best_positions=positions.copy(),
        best_values=values.copy(),
        global_best_position=positions[gi].copy(),
        global_best_value=float(values[gi]),
        inertia=np.full(size, inertia),
        cognitive=np.full(size, cognitive),
        social=np.full(size, social),
        vmax=np.tile(vmax_scale * span, (size, 1)),
        vmin=np.tile(vmin_scale * VMIN_BASE_FRACTION * span, (size, 1)),
        evaluations_used=size,
    )


def _advance(state: SwarmState, objective, box: _Box, rng, iterations: int) -> None:
    """Run ``iterations`` swarm iterations on ``state``.

    The state is read into locals once and written back once at the end;
    the scratch arrays and their views are made once per call. All particles
    move against the global best from the iteration start; personal and
    global bests are updated afterwards and never worsen. No array the state
    held before the call is modified, and every objective call gets a fresh
    array of points.
    """
    if iterations <= 0:
        return
    lo, hi, span, diagonal = box
    size, dim = state.positions.shape
    positions, values, prev_values = state.positions, state.values, state.prev_values
    best_positions = state.best_positions.copy()
    best_values = state.best_values.copy()
    global_best_position = state.global_best_position
    global_best_value = state.global_best_value

    signals, settings, infer = _rule_base(size)
    phi, unit_delta = signals  # unit_delta holds 2 * delta - 1
    vmax_scale, vmin_scale = settings[:, 3, None], settings[:, 4, None]
    vmax = np.empty((size, dim))
    vmin = np.empty((size, dim))
    vmin_fraction = np.empty((size, 1))
    # velocity = (inertia * v + cognitive * r_cog * (pbest - x))
    #            + social * r_soc * (gbest - x), as one (3, P, D) product
    coefficients = settings[:, :3].T[:, :, None]
    draws = np.ones((3, size, dim))
    random_draws = draws[1:]
    factors = np.empty((3, size, dim))
    terms = np.empty((3, size, dim))
    velocity, to_best, to_global_best = terms
    velocity[...] = state.velocities
    offset = np.empty((size, dim))
    speed = np.empty((size, dim))
    moved = np.empty((size, dim))
    walled = np.empty((size, dim), dtype=bool)
    improved = np.empty(size, dtype=bool)
    improved_rows = improved[:, None]

    for _ in range(iterations):
        np.subtract(values, prev_values, out=phi)
        np.abs(prev_values, out=unit_delta)
        unit_delta += 1.0
        phi /= unit_delta
        np.maximum(phi, -1.0, out=phi)
        np.minimum(phi, 1.0, out=phi)
        # after the clamp phi is finite unless it holds a NaN
        if math.isnan(phi.dot(phi)):
            phi[np.isnan(phi)] = 0.0
        if diagonal > 0.0:
            np.subtract(positions, global_best_position, out=offset)
            offset *= offset
            np.add.reduce(offset, axis=1, out=unit_delta)
            np.sqrt(unit_delta, out=unit_delta)
            unit_delta /= diagonal
            np.minimum(unit_delta, 1.0, out=unit_delta)
            unit_delta *= 2.0
            unit_delta -= 1.0
        else:
            unit_delta.fill(-1.0)
        infer()
        np.multiply(vmax_scale, span, out=vmax)
        np.multiply(vmin_scale, VMIN_BASE_FRACTION, out=vmin_fraction)
        np.multiply(vmin_fraction, span, out=vmin)

        # one draw of both factors keeps the stream of two consecutive draws
        rng.random(out=random_draws)
        np.multiply(coefficients, draws, out=factors)
        np.subtract(best_positions, positions, out=to_best)
        np.subtract(global_best_position, positions, out=to_global_best)
        factors *= terms
        np.add.reduce(factors, axis=0, out=velocity)
        # Magnitude clamp preserves sign; exact zeros stay zero.
        np.abs(velocity, out=speed)
        np.maximum(speed, vmin, out=speed)
        np.minimum(speed, vmax, out=speed)
        np.sign(velocity, out=velocity)
        velocity *= speed

        np.add(positions, velocity, out=moved)
        positions = np.maximum(moved, lo)
        np.minimum(positions, hi, out=positions)
        np.not_equal(moved, positions, out=walled)
        np.copyto(velocity, 0.0, where=walled)

        prev_values = values
        values = np.asarray(objective(positions), dtype=float)
        np.less(values, best_values, out=improved)
        np.copyto(best_positions, positions, where=improved_rows)
        np.copyto(best_values, values, where=improved)
        gi = int(best_values.argmin())
        if best_values[gi] < global_best_value:
            global_best_value = float(best_values[gi])
            global_best_position = best_positions[gi].copy()

    state.positions, state.velocities = positions, velocity
    state.values, state.prev_values = values, prev_values
    state.best_positions, state.best_values = best_positions, best_values
    state.global_best_position = global_best_position
    state.global_best_value = global_best_value
    state.inertia, state.cognitive, state.social = settings[:, :3].T
    state.vmax, state.vmin = vmax, vmin
    state.iteration += iterations
    state.evaluations_used += iterations * size


def step(state: SwarmState, objective, bounds, rng) -> SwarmState:
    """Advance the swarm one iteration (one objective pass); returns state.

    One iteration of the loop ``optimize`` runs. ``bounds`` may also be the
    box ``optimize`` derived once for the swarm.
    """
    _advance(state, objective, _box(bounds), np.random.default_rng(rng), 1)
    return state


def optimize(objective, bounds, budget: int, rng) -> tuple[np.ndarray, float]:
    """Minimize ``objective`` over the box within an evaluation budget.

    Args:
        objective: batch objective mapping an (n, D) array of points to an
            (n,) array of values; called once per swarm pass with n equal
            to the swarm size.
        bounds: (D, 2) array of per-dimension (lo, hi).
        budget: maximum number of objective evaluations; must cover at
            least one full swarm pass.
        rng: seed or numpy Generator; identical seeds give identical runs.

    Returns:
        (argmin, min_value): the best position found (inside the box) and
        its objective value.
    """
    rng = np.random.default_rng(rng)
    box = _box(bounds)
    size = swarm_size(box.lo.shape[0])
    if budget < size:
        raise ValueError(f"budget {budget} below swarm size {size}")
    state = init_swarm(objective, box, rng)
    _advance(state, objective, box, rng, budget // size - 1)
    assert state.evaluations_used <= budget
    return state.global_best_position.copy(), float(state.global_best_value)
