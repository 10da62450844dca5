"""Linear, stack-based genetic programming: genomes, interpreter, operators.

A program is a flat sequence of postfix instructions executed on a value
stack. The instruction set is deliberately tiny (push constant, push input
variable, +, -, *, protected /, DUP, SWAP) so every genome encodes a smooth
function of its inputs, division-protection jumps aside.

Execution semantics (fixed for reproducibility):

* binary operators pop two operands; the second value popped is the LEFT
  operand, so ``a b -`` computes a - b,
* an instruction whose operand requirement exceeds the current stack depth
  is skipped (no-op),
* the protected division ``a b /`` yields 1.0 whenever ``|b| < 1e-9``,
* any non-finite arithmetic result (overflow) is replaced by 0.0 on the
  spot, which keeps the interpreter total,
* the result is the SUM of the values left on the stack after the last
  instruction, or 0.0 when the stack ends up empty. A program that reduces
  to a single expression therefore evaluates to exactly that expression,
  while loose terms accumulate additively; no instruction is ever dead
  code, which is what lets fitness gradients act on every fragment of a
  genome instead of only on its tail.

Programs are immutable values and the interpreter is pure and reentrant;
the genetic operators draw all randomness from a caller-owned generator.
A program is its dimension and code alone: the constant ranges its
payloads are drawn from are a setting of the run, a sequence of
``(lo, hi)`` intervals passed to ``random_program`` and ``mutate``.

``interpret_batch`` compiles each program once, on its first call, and
keeps the result on the program. The static pass drops the instructions
that would be skipped (the "structural introns" of linear GP), turns DUP
and SWAP into register aliasing, and folds operations on constants alone
and a leading run of constant terms of the final sum. On finite inputs the
plan runs without per-operation finiteness checks, with floating-point
errors raising; a raised error reruns it with the checks. The semantics
above are unchanged, bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

MAX_PROGRAM_LENGTH = 200
DIV_GUARD = 1e-9

_N_OPERATORS = 6


class Op(IntEnum):
    CONST = 0
    VAR = 1
    ADD = 2
    SUB = 3
    MUL = 4
    DIV = 5
    DUP = 6
    SWAP = 7


class Instruction(NamedTuple):
    op: Op
    arg: float | int | None = None


ADD = Instruction(Op.ADD)
SUB = Instruction(Op.SUB)
MUL = Instruction(Op.MUL)
DIV = Instruction(Op.DIV)
DUP = Instruction(Op.DUP)
SWAP = Instruction(Op.SWAP)

_OPERATORS = (ADD, SUB, MUL, DIV, DUP, SWAP)

_OP_TOKENS = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.DIV: "/",
              Op.DUP: "DUP", Op.SWAP: "SWAP"}
_TOKEN_OPS = {tok: Instruction(op) for op, tok in _OP_TOKENS.items()}
_VAR_TOKEN = re.compile(r"x(\d+)")


def _as_ranges(const_range) -> tuple[tuple[float, float], ...]:
    """A constant range, a non-empty sequence of ``(lo, hi)`` intervals, as
    a tuple of float pairs.

    Constants are drawn by first picking an interval uniformly, then a value
    uniformly inside it.
    """
    try:
        ranges = tuple((float(lo), float(hi)) for lo, hi in const_range)
    except (TypeError, ValueError):
        ranges = ()
    if not ranges:
        raise ValueError("const_range must be a non-empty sequence of (lo, hi) "
                         f"intervals, got {const_range!r}")
    for lo, hi in ranges:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"invalid constant interval ({lo}, {hi})")
    return ranges


@dataclass(frozen=True)
class Program:
    """An immutable linear genome encoding a function R^dimension -> R."""

    dimension: int
    code: tuple[Instruction, ...]
    # compiled by the first interpret_batch call; not part of the value
    _plan: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        object.__setattr__(self, "code", tuple(self.code))
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 1 <= len(self.code) <= MAX_PROGRAM_LENGTH:
            raise ValueError(
                f"program length must be in [1, {MAX_PROGRAM_LENGTH}], got {len(self.code)}")
        for ins in self.code:
            if ins.op == Op.VAR:
                if not 0 <= ins.arg < self.dimension:
                    raise ValueError(f"variable index {ins.arg} out of range")
            elif ins.op == Op.CONST:
                if not math.isfinite(ins.arg):
                    raise ValueError("constant payload must be finite")

    def __len__(self) -> int:
        return len(self.code)


_UFUNCS = {Op.ADD: np.add, Op.SUB: np.subtract, Op.MUL: np.multiply,
           Op.DIV: np.divide}


def _fold(op: Op, a: float, b: float) -> float:
    # constant arithmetic under the runtime's rules
    with np.errstate(all="ignore"):
        value = 1.0 if op == Op.DIV and abs(b) < DIV_GUARD else float(_UFUNCS[op](a, b))
    return value if math.isfinite(value) else 0.0


def _compile(program: Program) -> tuple:
    """Static pass (see the module docstring) to ``(registers, steps, terms)``.

    Per register, a 0-d array for a constant or None (registers below the
    dimension are the input columns); ``(ufunc, left, right, result)`` per
    operation, where a None ufunc is a guarded division; and the registers
    of the final stack, bottom to top.
    """
    constants: list = [None] * program.dimension
    steps = []
    stack: list[int] = []

    def push(value) -> None:
        stack.append(len(constants))
        constants.append(value)

    for op, arg in program.code:
        if op == Op.CONST:
            push(arg)
        elif op == Op.VAR:
            stack.append(arg)
        elif op == Op.DUP:  # the slices leave a too shallow stack as it is
            stack.extend(stack[-1:])
        elif op == Op.SWAP:
            stack[-2:] = stack[-2:][::-1]
        elif len(stack) >= 2:
            b = stack.pop()
            a = stack.pop()
            if None not in (constants[a], constants[b]):
                push(_fold(op, constants[a], constants[b]))
            else:
                steps.append((None if op == Op.DIV else _UFUNCS[op], a, b, len(constants)))
                push(None)
    while len(stack) > 1 and None not in (constants[stack[0]], constants[stack[1]]):
        constants.append(_fold(Op.ADD, constants[stack[0]], constants[stack[1]]))
        stack[:2] = [len(constants) - 1]
    if not stack:
        push(0.0)  # an empty final stack sums to 0.0
    registers = tuple(None if c is None else np.array(c) for c in constants)
    return registers, tuple(steps), tuple(stack)


def _finite(values: np.ndarray) -> np.ndarray:
    # a finite self dot product proves every entry finite
    if math.isfinite(values.dot(values)):
        return values
    mask = np.isfinite(values)
    return values if mask.all() else np.where(mask, values, 0.0)


def _run(plan: tuple, columns, checked: bool) -> np.ndarray:
    """One pass of a compiled plan over the input ``columns``.

    A checked pass replaces non-finite values by 0.0 after every operation
    and partial sum; an unchecked one leaves them alone.
    """
    registers, steps, terms = plan
    regs = list(registers)
    regs[:len(columns)] = columns
    for ufunc, a, b, out in steps:
        left, right = regs[a], regs[b]
        if ufunc is None:
            guard = np.abs(right) < DIV_GUARD
            value = np.where(guard, 1.0, left / np.where(guard, 1.0, right))
        else:
            value = ufunc(left, right)
        regs[out] = _finite(value) if checked else value
    # accumulate bottom-to-top so results are bit-reproducible
    total = regs[terms[0]]
    for r in terms[1:]:
        total = total + regs[r]
        if checked:
            total = _finite(total)
    if len(terms) == 1 and terms[0] < len(columns):
        total = total.copy()  # an input column
        if checked:
            total = _finite(total)
    return total


def interpret_batch(program: Program, points) -> np.ndarray:
    """Evaluate ``program`` at each row of ``points`` (shape (n, dimension)).

    Always returns finite values; see module docstring for the semantics.
    When every input is finite, the compiled plan runs once with overflow,
    invalid and divide-by-zero operations raising and no per-operation
    finiteness check: from finite inputs and constants, a non-finite
    intermediate always raises one of those flags. A raised flag, or a
    non-finite input, sends the points through the checked pass instead,
    which replaces non-finite values by 0.0 after every operation. Both give
    the same bits wherever the unchecked pass completes.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != program.dimension:
        raise ValueError(
            f"points must have shape (n, {program.dimension}), got {pts.shape}")
    if program._plan is None:
        object.__setattr__(program, "_plan", _compile(program))
    columns, flat = pts.T, pts.ravel()
    total = None
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # a finite self dot product proves every input finite
            if math.isfinite(flat.dot(flat)):
                total = _run(program._plan, columns, False)
    except FloatingPointError:
        pass
    if total is None:
        with np.errstate(all="ignore"):
            total = _run(program._plan, columns, True)
    return np.full(pts.shape[0], total) if total.ndim == 0 else total


def _random_instruction(dimension: int, ranges, rng) -> Instruction:
    # Terminal with probability 0.5 (then const vs variable 50/50),
    # otherwise a uniform choice among the six operators.
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            lo, hi = ranges[int(rng.integers(len(ranges)))]
            return Instruction(Op.CONST, float(rng.uniform(lo, hi)))
        return Instruction(Op.VAR, int(rng.integers(dimension)))
    return _OPERATORS[int(rng.integers(_N_OPERATORS))]


def random_program(dimension: int, max_length: int, const_range, rng,
                   min_length: int = 2) -> Program:
    """Create a random program of length uniform in {min_length, ..., max_length}.

    With min_length == max_length every draw has that exact length, which is
    how first-generation individuals of a fixed initial size are built.
    """
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    if not 1 <= min_length <= max_length:
        raise ValueError("min_length must lie in [1, max_length]")
    rng = np.random.default_rng(rng)
    ranges = _as_ranges(const_range)
    length = int(rng.integers(min_length, max_length + 1))
    code = tuple(_random_instruction(dimension, ranges, rng) for _ in range(length))
    return Program(dimension, code)


def splice(code_a: Sequence[Instruction], code_b: Sequence[Instruction],
           cuts_a: tuple[int, int], cuts_b: tuple[int, int]):
    """Exchange the middle segments a[i_a:j_a) and b[i_b:j_b)."""
    ia, ja = cuts_a
    ib, jb = cuts_b
    child_a = tuple(code_a[:ia]) + tuple(code_b[ib:jb]) + tuple(code_a[ja:])
    child_b = tuple(code_b[:ib]) + tuple(code_a[ia:ja]) + tuple(code_b[jb:])
    return child_a, child_b


def two_point_crossover(a: Program, b: Program, rng) -> tuple[Program, Program]:
    """Two-point crossover on linear genomes.

    Cut points (i <= j) are drawn uniformly and independently per parent and
    the enclosed segments are exchanged. Offspring longer than the hard cap
    are truncated at the cap; an empty offspring is replaced by a copy of
    the parent that contributed its outer segments.
    """
    if a.dimension != b.dimension:
        raise ValueError("parents must share a dimension")
    rng = np.random.default_rng(rng)
    ia, ja = sorted(int(v) for v in rng.integers(0, len(a.code) + 1, size=2))
    ib, jb = sorted(int(v) for v in rng.integers(0, len(b.code) + 1, size=2))
    code_a, code_b = splice(a.code, b.code, (ia, ja), (ib, jb))
    child_a = a if not code_a else Program(a.dimension, code_a[:MAX_PROGRAM_LENGTH])
    child_b = b if not code_b else Program(b.dimension, code_b[:MAX_PROGRAM_LENGTH])
    return child_a, child_b


def mutate(program: Program, p_m: float, const_range, rng) -> Program:
    """Replace each instruction independently with probability ``p_m``.

    A replacement stays within the slot's instruction family: a constant
    draws a fresh payload from ``const_range``, a variable a fresh index,
    an operator a fresh operator. Length is preserved and the input program
    is left untouched.
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValueError("p_m must be a probability")
    rng = np.random.default_rng(rng)
    ranges = _as_ranges(const_range)
    flags = rng.random(len(program.code)) < p_m
    code = list(program.code)
    for i in np.flatnonzero(flags):
        op = code[i].op
        if op == Op.CONST:
            lo, hi = ranges[int(rng.integers(len(ranges)))]
            code[i] = Instruction(Op.CONST, float(rng.uniform(lo, hi)))
        elif op == Op.VAR:
            code[i] = Instruction(Op.VAR, int(rng.integers(program.dimension)))
        else:
            code[i] = _OPERATORS[int(rng.integers(_N_OPERATORS))]
    return Program(program.dimension, tuple(code))


def render(program: Program) -> str:
    """Serialize a program to space-separated postfix text."""
    tokens = []
    for op, arg in program.code:
        if op == Op.CONST:
            tokens.append(repr(float(arg)))
        elif op == Op.VAR:
            tokens.append(f"x{arg}")
        else:
            tokens.append(_OP_TOKENS[op])
    return " ".join(tokens)


def parse(text: str, dimension: int) -> Program:
    """Parse the textual form back into a Program; inverse of render()."""
    code = []
    for token in text.split():
        if token in _TOKEN_OPS:
            code.append(_TOKEN_OPS[token])
            continue
        m = _VAR_TOKEN.fullmatch(token)
        if m:
            code.append(Instruction(Op.VAR, int(m.group(1))))
            continue
        try:
            code.append(Instruction(Op.CONST, float(token)))
        except ValueError:
            raise ValueError(f"unknown program token {token!r}") from None
    return Program(dimension, tuple(code))
