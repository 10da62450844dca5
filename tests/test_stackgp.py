"""Interpreter and genetic-operator tests, checked against an independent
reference interpreter written with plain Python floats."""

import math

import numpy as np
import pytest

from smoothgp import stackgp
from smoothgp.stackgp import (ADD, DUP, MUL, SWAP,
                              MAX_PROGRAM_LENGTH, Instruction, Op, Program,
                              interpret_batch, mutate, parse, random_program,
                              render, splice, two_point_crossover)

CHI2_99_DF8 = 20.09  # upper 1% quantile of chi-square with 8 dof


def interpret(program, x):
    """``program`` at the single point ``x``, as a one-row batch."""
    return float(interpret_batch(program, [x])[0])


def reference_interpret(program, x):
    """Slow scalar re-implementation used as the oracle.

    Returns (value, events) where events captures, per executed division,
    whether protection fired, plus every overflow replacement; events let
    continuity probes skip points where a semantic branch flips.
    """
    def sanitize(v, events):
        if math.isfinite(v):
            return v
        events.append(("overflow",))
        return 0.0

    stack = []
    events = []
    for ins in program.code:
        if ins.op == Op.CONST:
            stack.append(float(ins.arg))
        elif ins.op == Op.VAR:
            stack.append(float(x[ins.arg]))
        elif ins.op == Op.DUP:
            if len(stack) >= 1:
                stack.append(stack[-1])
        elif ins.op == Op.SWAP:
            if len(stack) >= 2:
                stack[-1], stack[-2] = stack[-2], stack[-1]
        else:
            if len(stack) < 2:
                continue
            b = stack.pop()
            a = stack.pop()
            if ins.op == Op.ADD:
                value = a + b
            elif ins.op == Op.SUB:
                value = a - b
            elif ins.op == Op.MUL:
                value = a * b
            else:
                protected = abs(b) < stackgp.DIV_GUARD
                events.append(("div", protected, abs(b)))
                value = 1.0 if protected else a / b
            stack.append(sanitize(value, events))
    total = 0.0
    for value in stack:
        total = sanitize(total + value, events)
    return total, events


class TestInterpreterExamples:
    def test_var_plus_const(self):
        p = parse("x0 5.0 +", 1)
        assert interpret(p, [2.0]) == 7.0

    def test_protected_division_by_zero(self):
        p = parse("1.0 0.0 /", 1)
        assert interpret(p, [3.0]) == 1.0

    def test_underflow_noop_empty_stack(self):
        p = Program(1, (ADD,))
        assert interpret(p, [9.0]) == 0.0

    def test_swap_then_subtract(self):
        # hand simulation: push 3, push 4, swap -> (4, 3), sub -> 4 - 3 = 1
        p = parse("3.0 4.0 SWAP -", 1)
        value, _ = reference_interpret(p, [0.0])
        assert value == 1.0
        assert interpret(p, [0.0]) == 1.0

    def test_loose_terms_accumulate(self):
        # final stack (2.0, x0^2) sums to x0^2 + 2
        p = parse("2.0 x0 DUP *", 1)
        assert interpret(p, [3.0]) == 11.0

    def test_dimension_mismatch_rejected(self):
        p = Program(2, (Instruction(Op.VAR, 1),))
        with pytest.raises(ValueError):
            interpret(p, [1.0])
        with pytest.raises(ValueError):
            interpret_batch(p, np.zeros((4, 3)))

    def test_overflow_replaced_by_zero(self):
        p = parse("1e308 1e308 * 1.0 +", 1)
        assert interpret(p, [0.0]) == 1.0


class TestInterpreterProperties:
    def test_matches_reference_on_random_programs(self):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(300):
            dim = int(rng.integers(1, 5))
            cases.append((random_program(dim, 30, (-10.0, 10.0), rng),
                          rng.uniform(-50.0, 50.0, size=dim)))
        # edge programs: constant-only, an empty final stack, an overflow
        for text in ("3.0 4.0 * 2.0 - 0.0 /", "+ SWAP DUP *", "1e300 DUP *",
                     "1e300 DUP * x0 1e-12 / 2.0 3.0 - SWAP 1e308 1e308 +"):
            cases.append((parse(text, 1), np.array([-0.5])))
        for p, x in cases:
            expected, _ = reference_interpret(p, x)
            assert interpret(p, x) == expected

    @pytest.mark.parametrize("text, points", [
        ("x0 1e300 * DUP * x0 +", [[-0.5], [2.0]]),      # overflow raises
        ("x0 1e-8 / 2.0 +", [[1e301], [3.0]]),            # in a quotient
        ("x0 x0 * 1.0 SWAP / x0 +", [[math.inf], [2.0]]),  # an inf input
        ("x0 2.0 * x0 -", [[math.nan], [-math.inf]]),
    ])
    def test_checked_fallback(self, text, points):
        program = parse(text, 1)
        pts = np.array(points)
        observed = interpret_batch(program, pts)
        with np.errstate(all="ignore"):
            checked = stackgp._run(program._plan, pts.T, True)
        assert observed.tobytes() == checked.tobytes()
        assert observed.tolist() == [reference_interpret(program, x)[0] for x in pts]
        if np.isfinite(pts).all():  # the unchecked pass gave up on a flag
            with pytest.raises(FloatingPointError), np.errstate(all="raise"):
                stackgp._run(program._plan, pts.T, False)

    def test_total_and_finite_on_fuzzed_programs(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            dim = int(rng.integers(1, 5))
            p = random_program(dim, 200, ((-600.0, 600.0), (-10.0, 10.0)), rng)
            pts = rng.uniform(-600.0, 600.0, size=(10, dim))
            values = interpret_batch(p, pts)
            assert np.all(np.isfinite(values))

    def test_pure(self):
        rng = np.random.default_rng(5)
        p = random_program(3, 40, (-5.0, 5.0), rng)
        x = rng.uniform(-5.0, 5.0, size=3)
        assert interpret(p, x) == interpret(p, x)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_program(2, 25, (-10.0, 10.0), rng)
            pts = rng.uniform(-10.0, 10.0, size=(8, 2))
            batch = interpret_batch(p, pts)
            for row, value in zip(pts, batch):
                assert interpret(p, row) == value

    def test_continuity_away_from_division_branches(self):
        # f(x + h) - f(x) must shrink with h except where a division
        # protection branch flips or an overflow replacement fires
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(50):
            p = random_program(2, 30, (-5.0, 5.0), rng)
            for _ in range(100):
                x = rng.uniform(-5.0, 5.0, size=2)
                h = 1e-5
                x_near = x + h
                f0, ev0 = reference_interpret(p, x)
                f1, ev1 = reference_interpret(p, x_near)
                f2, _ = reference_interpret(p, x + h / 100.0)
                # skip probes across semantic branch changes or near
                # division-operand zeros
                div0 = [e for e in ev0 if e[0] == "div"]
                div1 = [e for e in ev1 if e[0] == "div"]
                if len(ev0) != len(ev1):
                    continue
                if any(a[1] != b[1] for a, b in zip(div0, div1)):
                    continue
                if any(e[2] < 1e-6 for e in div0 + div1):
                    continue
                if any(e[0] == "overflow" for e in ev0 + ev1):
                    continue
                d1 = abs(f1 - f0)
                d2 = abs(f2 - f0)
                scale = 1.0 + abs(f0)
                assert d2 <= max(0.2 * d1, 1e-6 * scale)
                checked += 1
        assert checked > 2000


class TestRandomProgram:
    def test_min_ramp_is_exact_length(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert len(random_program(2, 2, (-1.0, 1.0), rng)) == 2

    def test_single_dimension_var_indices(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_program(1, 10, (-1.0, 1.0), rng)
            for ins in p.code:
                if ins.op == Op.VAR:
                    assert ins.arg == 0

    def test_length_distribution_uniform(self):
        rng = np.random.default_rng(12345)
        counts = np.zeros(9)
        draws = 10_000
        for _ in range(draws):
            counts[len(random_program(2, 10, (-1.0, 1.0), rng)) - 2] += 1
        expected = draws / 9.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 <= CHI2_99_DF8

    def test_max_length_validated(self):
        with pytest.raises(ValueError):
            random_program(2, 1, (-1.0, 1.0), np.random.default_rng(0))

    def test_const_payloads_respect_ranges(self):
        rng = np.random.default_rng(9)
        pairs = ((-2.0, -1.0), (5.0, 6.0))
        # a sequence of (lo, hi) intervals, then a single (lo, hi) pair
        for ranges, intervals in ((pairs, pairs), ((5.0, 6.0), ((5.0, 6.0),))):
            payloads = []
            for _ in range(50):
                p = random_program(2, 10, ranges, rng)
                payloads += [ins.arg for ins in p.code if ins.op == Op.CONST]
            assert payloads
            assert all(any(lo <= v <= hi for lo, hi in intervals) for v in payloads)


class TestCrossover:
    def test_splice_reference_example(self):
        a = tuple(Instruction(Op.CONST, float(v)) for v in (1, 2, 3, 4))
        b = tuple(Instruction(Op.VAR, i % 2) for i in range(2))
        child_a, child_b = splice(a, b, (1, 3), (0, 2))
        assert child_a == (a[0], b[0], b[1], a[3])
        assert child_b == (a[1], a[2])

    def test_empty_cuts_copy_parents(self):
        a = tuple(Instruction(Op.CONST, float(v)) for v in (1, 2, 3))
        b = (Instruction(Op.VAR, 0), Instruction(Op.VAR, 1))
        child_a, child_b = splice(a, b, (0, 0), (0, 0))
        assert child_a == a
        assert child_b == b

    def test_instruction_multiset_conserved(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a = random_program(2, 30, (-5.0, 5.0), rng)
            b = random_program(2, 30, (-5.0, 5.0), rng)
            ca, cb = two_point_crossover(a, b, rng)
            if len(ca) + len(cb) == len(a) + len(b):
                combined = sorted(a.code + b.code)
                assert sorted(ca.code + cb.code) == combined

    def test_offspring_satisfy_invariants(self):
        rng = np.random.default_rng(88)
        for _ in range(500):
            a = random_program(3, 120, (-5.0, 5.0), rng)
            b = random_program(3, 120, (-5.0, 5.0), rng)
            for child in two_point_crossover(a, b, rng):
                assert 1 <= len(child) <= MAX_PROGRAM_LENGTH
                assert child.dimension == 3
                for ins in child.code:
                    if ins.op == Op.VAR:
                        assert 0 <= ins.arg < 3

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        a = random_program(2, 10, (-1.0, 1.0), rng)
        b = random_program(3, 10, (-1.0, 1.0), rng)
        with pytest.raises(ValueError):
            two_point_crossover(a, b, rng)


class TestMutate:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(4)
        p = random_program(2, 20, (-5.0, 5.0), rng)
        assert mutate(p, 0.0, (-5.0, 5.0), rng) == p

    def test_full_rate_changes_constant_slots(self):
        # a slot holding a constant is replaced by an identical instruction
        # with probability zero (continuous payload), so every slot changes
        rng = np.random.default_rng(6)
        p = Program(2, tuple(Instruction(Op.CONST, float(i)) for i in range(100)))
        mutated = mutate(p, 1.0, (-10.0, 10.0), rng)
        assert all(x != y for x, y in zip(p.code, mutated.code))

    def test_replacement_count_binomial(self):
        # 10 000 constant slots in total (50 programs at the length cap);
        # every replacement changes its slot, so changed == replaced
        rng = np.random.default_rng(0)
        n = 10_000
        changed = 0
        for start in range(0, n, MAX_PROGRAM_LENGTH):
            p = Program(2, tuple(Instruction(Op.CONST, float(start + i) / n)
                                 for i in range(MAX_PROGRAM_LENGTH)))
            mutated = mutate(p, 0.2, ((2.0, 3.0),), rng)
            changed += sum(x != y for x, y in zip(p.code, mutated.code))
        sigma = math.sqrt(n * 0.2 * 0.8)
        assert abs(changed - n * 0.2) <= 3.0 * sigma

    def test_length_preserved_and_input_untouched(self):
        rng = np.random.default_rng(10)
        p = random_program(2, 50, (-5.0, 5.0), rng)
        code_before = p.code
        mutated = mutate(p, 0.7, (-5.0, 5.0), rng)
        assert len(mutated) == len(p)
        assert p.code == code_before

    def test_rate_validated(self):
        rng = np.random.default_rng(0)
        p = random_program(2, 5, (-1.0, 1.0), rng)
        with pytest.raises(ValueError):
            mutate(p, 1.5, (-1.0, 1.0), rng)


class TestSerialization:
    def test_documented_example(self):
        p = parse("x0 5.0 + 7.0 /", 1)
        assert render(p) == "x0 5.0 + 7.0 /"
        assert interpret(p, [2.0]) == 1.0

    def test_round_trip_random_programs(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = random_program(3, 60, ((-600.0, 600.0), (-10.0, 10.0)), rng)
            assert parse(render(p), 3) == p

    def test_uppercase_stack_ops(self):
        x0 = Instruction(Op.VAR, 0)
        p = Program(1, (x0, DUP, MUL, x0, SWAP))
        assert render(p) == "x0 DUP * x0 SWAP"

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            parse("x0 sin", 1)


class TestProgramInvariants:
    def test_var_index_validated(self):
        with pytest.raises(ValueError):
            Program(2, (Instruction(Op.VAR, 2),))

    def test_const_payload_must_be_finite(self):
        with pytest.raises(ValueError):
            Program(1, (Instruction(Op.CONST, float("inf")),))

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            Program(1, ())
        with pytest.raises(ValueError):
            Program(1, (Instruction(Op.CONST, 0.0),) * (MAX_PROGRAM_LENGTH + 1))
