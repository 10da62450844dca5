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
(bounds, edge lengths, diagonal) once per swarm and hands them to every
``step``. A single ``optimize`` call is strictly sequential; independent
calls with independent generators may run in parallel. The swarm size is
``floor(10 + 2 * sqrt(dimension))`` so no user-supplied setting is needed.

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


def fuzzy_settings(phi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Zero-order Sugeno inference per particle.

    ``phi`` in [-1, 1] and ``delta`` in [0, 1] are (P,) arrays. Returns the
    firing-strength-weighted consequents as a (P, 5) array with columns
    inertia, cognitive, social, vmax scale and vmin scale.
    """
    mu = np.empty((6, phi.shape[0]))  # phi memberships, then delta memberships
    np.maximum(0.0, -phi, out=mu[0])
    np.subtract(1.0, np.abs(phi), out=mu[1])
    np.maximum(0.0, phi, out=mu[2])
    two_delta = 2.0 * delta
    np.maximum(0.0, 1.0 - two_delta, out=mu[3])
    np.subtract(1.0, 2.0 * np.abs(delta - 0.5), out=mu[4])
    np.maximum(0.0, two_delta - 1.0, out=mu[5])
    # C order keeps the summation order of the sum and einsum below
    weights = np.multiply(mu[:3].T[:, :, None], mu[3:].T[:, None, :], order="C")
    total = np.add.reduce(weights, axis=(1, 2))
    return np.einsum("pij,kij->pk", weights, _TABLES) / total[:, None]


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


def step(state: SwarmState, objective, bounds, rng) -> SwarmState:
    """Advance the swarm one iteration (one objective pass); returns state.

    All particles move against the global best from the iteration start;
    personal and global bests are updated afterwards and never worsen.
    ``bounds`` may also be the box ``optimize`` derived once for the swarm.
    """
    rng = np.random.default_rng(rng)
    lo, hi, span, diagonal = _box(bounds)
    size, dim = state.positions.shape

    phi = (state.values - state.prev_values) / (np.abs(state.prev_values) + 1.0)
    phi = np.minimum(np.maximum(phi, -1.0), 1.0)
    phi = np.where(np.isnan(phi), 0.0, phi)
    if diagonal > 0.0:
        offset = state.positions - state.global_best_position
        dist = np.sqrt(np.add.reduce(offset * offset, axis=1))
        delta = np.minimum(dist / diagonal, 1.0)
    else:
        delta = np.zeros(size)

    settings = fuzzy_settings(phi, delta)
    inertia, cognitive, social = settings[:, 0], settings[:, 1], settings[:, 2]
    vmax = settings[:, 3, None] * span
    vmin = settings[:, 4, None] * VMIN_BASE_FRACTION * span

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
    state.inertia, state.cognitive, state.social = inertia, cognitive, social
    state.vmax, state.vmin = vmax, vmin
    state.iteration += 1
    state.evaluations_used += size
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
    while state.evaluations_used + size <= budget:
        step(state, objective, box, rng)
    assert state.evaluations_used <= budget
    return state.global_best_position.copy(), float(state.global_best_value)
