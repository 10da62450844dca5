"""Catalog of nine rugged minimization benchmarks with domains and optima.

Each entry carries its box bounds (identical in every coordinate), the
reference minimum value and argminimum where one is known, and a
``verified`` flag. Vincent's catalog values are stored verbatim from the
source tables even though they are internally inconsistent (the sine of
ten times the natural log of 0.25 is about -0.963 per coordinate, not -1),
so Vincent rows carry ``verified=False`` and optimum-consistency checks
skip them. Michalewicz has reference values for dimension 2 only.

Evaluators are pure and vectorized; both ``evaluate`` and ``evaluate_batch``
reject points outside the box, and a NaN coordinate as outside, since
domain-restricted functions (Vincent's logarithm) are undefined there. All
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SCHWEFEL_OFFSET = 418.9829
MICHALEWICZ_K = 10


def _ackley(x: np.ndarray) -> np.ndarray:
    return (20.0 + math.e
            - 20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x, axis=1)))
            - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=1)))


def _alpine(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x * np.sin(x) + 0.1 * x), axis=1)


def _griewank(x: np.ndarray) -> np.ndarray:
    idx = np.arange(1, x.shape[1] + 1, dtype=float)
    return (np.sum(x * x, axis=1) / 4000.0
            - np.prod(np.cos(x / np.sqrt(idx)), axis=1) + 1.0)


def _michalewicz(x: np.ndarray) -> np.ndarray:
    idx = np.arange(1, x.shape[1] + 1, dtype=float)
    return -np.sum(np.sin(x) * np.sin(idx * x * x / np.pi) ** (2 * MICHALEWICZ_K),
                   axis=1)


def _rastrigin(x: np.ndarray) -> np.ndarray:
    return 10.0 * x.shape[1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=1)


def _rosenbrock(x: np.ndarray) -> np.ndarray:
    # Valley coefficient 10 (not the canonical 100), as printed in the
    # reference table; the minimum at the all-ones point is unaffected.
    a, b = x[:, :-1], x[:, 1:]
    return np.sum(10.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)


def _schwefel(x: np.ndarray) -> np.ndarray:
    return SCHWEFEL_OFFSET * x.shape[1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=1)


def _vincent(x: np.ndarray) -> np.ndarray:
    return np.sum(np.sin(10.0 * np.log(x)), axis=1)


def _xinsheyang2(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x), axis=1) * np.exp(-np.sum(np.sin(x * x), axis=1))


@dataclass(frozen=True)
class BenchmarkFunction:
    """One benchmark at a fixed dimension, with bounds and known optimum."""

    name: str
    dimension: int
    lower: float
    upper: float
    known_minimum: float | None = None
    known_argmin: tuple[float, ...] | None = None
    verified: bool = False
    evaluator: Callable[[np.ndarray], np.ndarray] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")
        if self.known_argmin is not None:
            argmin = tuple(float(v) for v in self.known_argmin)
            object.__setattr__(self, "known_argmin", argmin)
            if len(argmin) != self.dimension:
                raise ValueError("known_argmin length differs from dimension")
            if any(not self.lower <= v <= self.upper for v in argmin):
                raise ValueError("known_argmin outside bounds")

    @property
    def bounds(self) -> np.ndarray:
        """Per-dimension (lo, hi) pairs, shape (dimension, 2)."""
        return np.array(((self.lower, self.upper),) * self.dimension)

    def evaluate_batch(self, points) -> np.ndarray:
        """Evaluate each row of ``points``; rows must lie inside the box."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"points must have shape (n, {self.dimension}), got {pts.shape}")
        return self._evaluate_inside(pts)

    def evaluate(self, x) -> float:
        """Closed-form value at a single in-bounds point."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dimension:
            raise ValueError(
                f"point must have length {self.dimension}, got shape {x.shape}")
        return float(self._evaluate_inside(x[None, :])[0])

    def _evaluate_inside(self, pts: np.ndarray) -> np.ndarray:
        # written so that a NaN coordinate counts as outside
        if not ((pts >= self.lower).all() and (pts <= self.upper).all()):
            raise ValueError(f"point outside [{self.lower}, {self.upper}]^D box")
        return self.evaluator(pts)

    def sample_uniform(self, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` i.i.d. uniform points from the box, with their values.

        Returns parallel arrays (points with shape (n, dimension), values
        with shape (n,)); reproducible for a given generator state. Only the
        caller-owned generator is mutated.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng)
        pts = rng.uniform(self.lower, self.upper, size=(n, self.dimension))
        return pts, self.evaluate_batch(pts)


# name -> (evaluator, lo, hi, minimum at any D, argmin coordinate, verified)
_CATALOG = {
    "ackley": (_ackley, -30.0, 30.0, 0.0, 0.0, True),
    "alpine": (_alpine, -10.0, 10.0, 0.0, 0.0, True),
    "griewank": (_griewank, -600.0, 600.0, 0.0, 0.0, True),
    "michalewicz": (_michalewicz, 0.0, math.pi, None, None, False),
    "rastrigin": (_rastrigin, -5.12, 5.12, 0.0, 0.0, True),
    "rosenbrock": (_rosenbrock, -5.0, 10.0, 0.0, 1.0, True),
    "schwefel": (_schwefel, -500.0, 500.0, 0.0, 420.9687, True),
    "vincent": (_vincent, 0.25, 10.0, None, None, False),
    "xinsheyang2": (_xinsheyang2, -2.0 * math.pi, 2.0 * math.pi, 0.0, 0.0, True),
}

MICHALEWICZ_2D_MINIMUM = -1.801
MICHALEWICZ_2D_ARGMIN = (2.2044, 1.5692)

CATALOG_DIMENSIONS = (2, 3, 4)


def names() -> list[str]:
    """Canonical benchmark names, in catalog order."""
    return list(_CATALOG)


def get(name: str, dimension: int) -> BenchmarkFunction:
    """Look up a benchmark by (case-insensitive) name at a given dimension."""
    key = name.strip().lower()
    if key not in _CATALOG:
        raise ValueError(f"unknown benchmark function {name!r}")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    evaluator, lo, hi, minimum, argmin_coord, verified = _CATALOG[key]
    known_minimum = minimum
    known_argmin = None if argmin_coord is None else (argmin_coord,) * dimension
    if key == "michalewicz":
        if dimension == 2:
            known_minimum = MICHALEWICZ_2D_MINIMUM
            known_argmin = MICHALEWICZ_2D_ARGMIN
            verified = True
    elif key == "vincent":
        # Stored verbatim from the reference table; inconsistent, hence
        # verified stays False.
        known_minimum = -float(dimension)
        known_argmin = (0.25,) * dimension
    return BenchmarkFunction(
        name=key,
        dimension=dimension,
        lower=lo,
        upper=hi,
        known_minimum=known_minimum,
        known_argmin=known_argmin,
        verified=verified,
        evaluator=evaluator,
    )


def catalog(dimensions=CATALOG_DIMENSIONS) -> list[BenchmarkFunction]:
    """All nine benchmarks instantiated at each of the given dimensions."""
    return [get(name, d) for name in names() for d in dimensions]
