"""Reference computations for the benchmark's output checks.

Nothing here imports ``smoothgp``: the checks compare the program's
outputs with values computed apart from it.

* ``FUNCTIONS`` holds scalar closed forms of the nine catalog functions,
  written from their textbook definitions with the catalog's constants
  (Schwefel offset 418.9829, Michalewicz m = 10, Rosenbrock valley
  coefficient 10 as the catalog documents).
* ``evaluate_program`` is a scalar postfix evaluator that follows the
  semantics stated in the ``smoothgp.stackgp`` module docstring.
* ``rmse_sample`` regenerates a run's RMSE sample from the run seed, the
  way ``smoothgp.surrogate.evolve`` draws it (see README).
"""

from __future__ import annotations

import math

DIV_GUARD = 1e-9
SCHWEFEL_OFFSET = 418.9829
RMSE_SAMPLES_PER_DIMENSION = 100
MINIMUM_TOL = 1e-3


def ackley(x):
    n = len(x)
    squares = sum(v * v for v in x) / n
    cosines = sum(math.cos(2.0 * math.pi * v) for v in x) / n
    return (20.0 + math.e - 20.0 * math.exp(-0.2 * math.sqrt(squares))
            - math.exp(cosines))


def alpine(x):
    return sum(abs(v * math.sin(v) + 0.1 * v) for v in x)


def griewank(x):
    product = 1.0
    for i, v in enumerate(x, start=1):
        product *= math.cos(v / math.sqrt(i))
    return sum(v * v for v in x) / 4000.0 - product + 1.0


def michalewicz(x):
    return -sum(math.sin(v) * math.sin(i * v * v / math.pi) ** 20
                for i, v in enumerate(x, start=1))


def rastrigin(x):
    return 10.0 * len(x) + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v)
                               for v in x)


def rosenbrock(x):
    return sum(10.0 * (a * a - b) ** 2 + (a - 1.0) ** 2
               for a, b in zip(x[:-1], x[1:]))


def schwefel(x):
    return SCHWEFEL_OFFSET * len(x) - sum(v * math.sin(math.sqrt(abs(v)))
                                          for v in x)


def vincent(x):
    return sum(math.sin(10.0 * math.log(v)) for v in x)


def xinsheyang2(x):
    return sum(abs(v) for v in x) * math.exp(-sum(math.sin(v * v) for v in x))


# name -> (closed form, lower box bound, upper box bound)
FUNCTIONS = {
    "ackley": (ackley, -30.0, 30.0),
    "alpine": (alpine, -10.0, 10.0),
    "griewank": (griewank, -600.0, 600.0),
    "michalewicz": (michalewicz, 0.0, math.pi),
    "rastrigin": (rastrigin, -5.12, 5.12),
    "rosenbrock": (rosenbrock, -5.0, 10.0),
    "schwefel": (schwefel, -500.0, 500.0),
    "vincent": (vincent, 0.25, 10.0),
    "xinsheyang2": (xinsheyang2, -2.0 * math.pi, 2.0 * math.pi),
}

# Global minima at every dimension; Michalewicz is known at D=2 only.
_MINIMA = {"ackley": 0.0, "alpine": 0.0, "griewank": 0.0, "rastrigin": 0.0,
           "rosenbrock": 0.0, "schwefel": 0.0, "xinsheyang2": 0.0}


def known_minimum(name: str, dimension: int) -> float | None:
    """The global minimum value, or None where it is not established."""
    if name == "michalewicz":
        return -1.8013 if dimension == 2 else None
    if name == "vincent":
        return -float(dimension)  # sin(10 ln x) reaches -1 inside the box
    return _MINIMA[name]


def parse_program(text: str) -> list:
    """Postfix text to tokens: operator strings, ('x', index) or floats."""
    tokens = []
    for token in text.split():
        if token in ("+", "-", "*", "/", "DUP", "SWAP"):
            tokens.append(token)
        elif token[0] == "x" and token[1:].isdigit():
            tokens.append(("x", int(token[1:])))
        else:
            tokens.append(float(token))
    return tokens


def _finite(v: float) -> float:
    return v if math.isfinite(v) else 0.0


def evaluate_program(tokens, x) -> float:
    """Value of a parsed postfix program at one point.

    Binary operators pop b then a and push ``a op b``; an instruction with
    too few operands on the stack is skipped; ``a b /`` is 1.0 when
    ``|b| < 1e-9``; a non-finite result becomes 0.0 after every binary
    operator and every partial sum; the result is the bottom-to-top sum
    of the stack, 0.0 when it is empty.
    """
    stack = []
    for tok in tokens:
        if isinstance(tok, float):
            stack.append(tok)
        elif isinstance(tok, tuple):
            stack.append(float(x[tok[1]]))
        elif tok == "DUP":
            if stack:
                stack.append(stack[-1])
        elif tok == "SWAP":
            if len(stack) >= 2:
                stack[-1], stack[-2] = stack[-2], stack[-1]
        elif len(stack) >= 2:
            b = stack.pop()
            a = stack.pop()
            if tok == "+":
                v = a + b
            elif tok == "-":
                v = a - b
            elif tok == "*":
                v = a * b
            else:
                v = 1.0 if abs(b) < DIV_GUARD else a / b
            stack.append(_finite(v))
    if not stack:
        return 0.0
    total = stack[0]
    for term in stack[1:]:
        total = _finite(total + term)
    return _finite(total)


def rmse_sample(name: str, dimension: int, seed: int, n: int | None = None):
    """The run's RMSE points: first of two SeedSequence(seed) children,
    ``n`` uniform draws of ``dimension`` coordinates over the box."""
    # Imported here: the benchmark process launches commands before it
    # checks, and a child's peak RSS counts its parent's.
    import numpy as np

    _, lo, hi = FUNCTIONS[name]
    n = n or RMSE_SAMPLES_PER_DIMENSION * dimension
    sample_seq, _ = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(sample_seq).uniform(lo, hi, size=(n, dimension))


def rmse(name: str, tokens, points) -> float:
    """Root mean squared difference between target and program."""
    fn = FUNCTIONS[name][0]
    total = 0.0
    for p in points.tolist():
        r = fn(p) - evaluate_program(tokens, p)
        total += r * r
    return math.sqrt(total / len(points))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal up to summation-order and libm rounding."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def median_lower(values):
    """Lower-middle element for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def linspace_point(lo: float, hi: float, res: int, k: int) -> float:
    """k-th of ``res`` corner-inclusive, evenly spaced values on [lo, hi]."""
    if res == 1:
        return lo
    return lo + (hi - lo) * k / (res - 1)
