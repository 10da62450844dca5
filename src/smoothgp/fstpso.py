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

The bounds and their edge lengths must be finite. Velocity limits derive
from the edge lengths: ``vmax = vmax_scale * (hi - lo)`` and
``vmin = vmin_scale * 0.01 * (hi - lo)`` per dimension.
Positions are clamped to the box with the velocity zeroed on clamped
dimensions (absorbing walls). ``optimize`` derives the box constants
(bounds, edge lengths, diagonal) once per swarm, or takes a box derived
once by its caller, and runs all iterations in one ``_advance`` loop. The
loop reads the ``SwarmState`` into locals once, works in scratch arrays
that a process allocates once per swarm shape and reuses across calls, and
writes the state back once at the end; ``step`` is one iteration of that
loop. A single ``optimize`` call is strictly sequential; independent calls
with independent generators may run in parallel, in threads too, and an
objective may itself call ``optimize``. The swarm size is
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

# 0-d operands: a ufunc takes a 0-d array faster than a Python float
_ZERO, _ONE, _TWO, _MINUS_ONE = (np.array(v) for v in (0.0, 1.0, 2.0, -1.0))
# vmax and vmin scales times these give the fractions of the edge lengths
_LIMIT_FRACTIONS = np.array([1.0, VMIN_BASE_FRACTION])


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
    negative, maximum, absolute, subtract = np.negative, np.maximum, np.abs, np.subtract
    multiply, divide, add_reduce, einsum = np.multiply, np.divide, np.add.reduce, np.einsum
    zero, one = _ZERO, _ONE

    def infer() -> None:
        negative(signals, near)
        maximum(zero, near, out=near)
        absolute(signals, mid)
        subtract(one, mid, mid)
        maximum(zero, signals, out=far)
        multiply(phi_mu, delta_mu, weights)
        add_reduce(weights, (1, 2), None, total)
        einsum("pij,kij->pk", weights, _TABLES, out=settings)
        divide(settings, total_column, settings)

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
# inertia, cognitive and social factors of a fresh swarm as a (3, 1) column,
# and its vmax and vmin fractions of the edge lengths as (2, 1, 1)
_NEUTRAL_FACTORS = np.array(_NEUTRAL[:3])[:, None]
_NEUTRAL_LIMITS = np.array([_NEUTRAL[3], _NEUTRAL[4] * VMIN_BASE_FRACTION])[:, None, None]


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
    if (lo > hi).any():
        raise ValueError("bounds must satisfy lo <= hi per dimension")
    span = hi - lo
    # a non-finite bound gives a non-finite edge length, like an overflow
    if not np.isfinite(span).all():
        raise ValueError("bounds and their edge lengths must be finite")
    # the Euclidean norm exactly as np.linalg.norm computes it
    return _Box(lo, hi, span, math.sqrt(span.dot(span)))


def init_swarm(objective, bounds, rng) -> SwarmState:
    """Place the swarm uniformly in the box and evaluate it once."""
    rng = np.random.default_rng(rng)
    lo, _, span, _ = _box(bounds)
    dim = lo.shape[0]
    size = swarm_size(dim)
    positions = lo + rng.random((size, dim)) * span
    values = np.asarray(objective(positions), dtype=float)
    gi = int(values.argmin())
    neutral = np.empty((3, size))
    neutral[...] = _NEUTRAL_FACTORS
    limits = np.empty((2, size, dim))
    np.multiply(_NEUTRAL_LIMITS, span, limits)
    return SwarmState(
        positions=positions,
        velocities=np.zeros((size, dim)),
        values=values,
        prev_values=values.copy(),
        best_positions=positions.copy(),
        best_values=values.copy(),
        global_best_position=positions[gi].copy(),
        global_best_value=float(values[gi]),
        inertia=neutral[0],
        cognitive=neutral[1],
        social=neutral[2],
        vmax=limits[0],
        vmin=limits[1],
        evaluations_used=size,
    )


def _workspace(size: int, dim: int) -> tuple:
    """Scratch arrays and views of one ``_advance`` call, in its unpack order.

    Each iteration writes every buffer before reading it, except the row of
    ones in ``draws`` that multiplies the inertia term, which nothing writes.
    """
    signals, settings, infer = _rule_base(size)
    limit_scales = np.empty((size, 2))
    limits = np.empty((2, size, dim))
    # velocity = (inertia * v + cognitive * r_cog * (pbest - x))
    #            + social * r_soc * (gbest - x), as one (3, P, D) product
    draws = np.ones((3, size, dim))
    terms = np.empty((3, size, dim))
    improved = np.empty(size, dtype=bool)
    return (*signals, settings, infer, settings[:, 3:], limit_scales,
            limit_scales.T[:, :, None], limits, *limits,
            settings[:, :3].T[:, :, None], draws, draws[1:],
            np.empty((3, size, dim)), terms, *terms, np.empty((size, dim)),
            np.empty((size, dim)), np.empty((size, dim)),
            np.empty((size, dim), dtype=bool), improved, improved[:, None])


# Free workspaces by (swarm size, dimension). A call takes one, or builds one
# when none is free, and puts it back when it returns, so nested and
# concurrent calls never share one; a call that raises drops its workspace.
# A key's list grows only to the most calls of that key ever running at once.
_FREE_WORKSPACES: dict[tuple[int, int], list] = {}


def _advance(state: SwarmState, objective, box: _Box, rng, iterations: int) -> None:
    """Run ``iterations`` swarm iterations on ``state``.

    The state is read into locals once and written back once at the end.
    The scratch arrays and their views come from a free list, so a process
    makes them once per swarm shape, not once per call. All particles move
    against the global best from the iteration start; personal and global
    bests are updated afterwards and never worsen. No array the state held
    before the call is modified, the state keeps no scratch array, and every
    objective call gets a fresh array of points.
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

    free = _FREE_WORKSPACES.setdefault((size, dim), [])
    try:
        workspace = free.pop()
    except IndexError:
        workspace = _workspace(size, dim)
    # unit_delta holds 2 * delta - 1
    (phi, unit_delta, settings, infer, limit_settings, limit_scales,
     scale_columns, limits, vmax, vmin, coefficients, draws, random_draws,
     factors, terms, velocity, to_best, to_global_best, offset, speed, moved,
     walled, improved, improved_rows) = workspace
    velocity[...] = state.velocities
    box_diagonal = np.array(diagonal)
    zero, one, two, minus_one = _ZERO, _ONE, _TWO, _MINUS_ONE
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    maximum, minimum, absolute, sign = np.maximum, np.minimum, np.abs, np.sign
    sqrt, less, not_equal, copyto = np.sqrt, np.less, np.not_equal, np.copyto
    add_reduce, asarray, random = np.add.reduce, np.asarray, rng.random

    # maximum and minimum take out= as a keyword: numpy deprecates it
    # positionally for them
    for _ in range(iterations):
        subtract(values, prev_values, phi)
        absolute(prev_values, unit_delta)
        add(unit_delta, one, unit_delta)
        divide(phi, unit_delta, phi)
        maximum(phi, minus_one, out=phi)
        minimum(phi, one, out=phi)
        # after the clamp phi is finite unless it holds a NaN
        if math.isnan(phi.dot(phi)):
            phi[np.isnan(phi)] = 0.0
        # (x - gbest)^2 == (gbest - x)^2 exactly, so one difference serves
        # the distance and the social term
        subtract(global_best_position, positions, to_global_best)
        if diagonal > 0.0:
            multiply(to_global_best, to_global_best, offset)
            add_reduce(offset, 1, None, unit_delta)
            sqrt(unit_delta, unit_delta)
            divide(unit_delta, box_diagonal, unit_delta)
            minimum(unit_delta, one, out=unit_delta)
            multiply(unit_delta, two, unit_delta)
            subtract(unit_delta, one, unit_delta)
        else:
            unit_delta.fill(-1.0)
        infer()
        multiply(limit_settings, _LIMIT_FRACTIONS, limit_scales)
        multiply(scale_columns, span, limits)

        # one draw of both factors keeps the stream of two consecutive draws
        random(out=random_draws)
        multiply(coefficients, draws, factors)
        subtract(best_positions, positions, to_best)
        multiply(factors, terms, factors)
        add_reduce(factors, 0, None, velocity)
        # Magnitude clamp preserves sign; exact zeros stay zero.
        absolute(velocity, speed)
        maximum(speed, vmin, out=speed)
        minimum(speed, vmax, out=speed)
        sign(velocity, velocity)
        multiply(velocity, speed, velocity)

        add(positions, velocity, moved)
        positions = maximum(moved, lo)
        minimum(positions, hi, out=positions)
        not_equal(moved, positions, walled)
        copyto(velocity, zero, where=walled)

        prev_values = values
        values = asarray(objective(positions), dtype=float)
        less(values, best_values, improved)
        copyto(best_positions, positions, where=improved_rows)
        copyto(best_values, values, where=improved)
        gi = int(best_values.argmin())
        if best_values[gi] < global_best_value:
            global_best_value = float(best_values[gi])
            global_best_position = best_positions[gi].copy()

    state.positions, state.velocities = positions, velocity.copy()
    state.values, state.prev_values = values, prev_values
    state.best_positions, state.best_values = best_positions, best_values
    state.global_best_position = global_best_position
    state.global_best_value = global_best_value
    state.inertia, state.cognitive, state.social = settings[:, :3].T.copy()
    state.vmax, state.vmin = limits.copy()
    state.iteration += iterations
    state.evaluations_used += iterations * size
    free.append(workspace)


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
        bounds: (D, 2) array of per-dimension (lo, hi), finite and with
            finite edge lengths hi - lo.
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
