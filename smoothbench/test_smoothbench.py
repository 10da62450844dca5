"""Fast tests of the benchmark's reference code and output checks.

Each check must accept real smoothgp output and reject a corrupted copy.
"""

import math
import shutil

import pytest

import checks
import layers
import reference as ref

RUNS = 2
SEED = 5


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    from smoothgp import benchmarks, harness, stackgp

    out = tmp_path_factory.mktemp("campaign")
    harness.run_campaign(harness.Campaign(
        functions=("rastrigin", "schwefel"), dimensions=(2, 3), runs=RUNS,
        base_seed=SEED, output_dir=out,
        overrides={"generations": 1, "population_size": 4, "pso_iterations": 2}))
    harness.export_surface_grid(benchmarks.get("schwefel", 2),
                                stackgp.parse("x0 x1 - 3.5 *", 2), 9, out / "grid.csv")
    return out


PAIRS = [(name, d) for name in ("rastrigin", "schwefel") for d in (2, 3)]


@pytest.fixture
def copy(campaign_dir, tmp_path):
    target = tmp_path / "out"
    shutil.copytree(campaign_dir, target)
    return target


def campaign_errors(out):
    rows, errors = checks.check_campaign(out, PAIRS, RUNS, SEED)
    return errors + [e for row in rows for e in row.errors], rows


def edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_real_output_passes(campaign_dir):
    errors, rows = campaign_errors(campaign_dir)
    assert errors == []
    assert len(rows) == len(PAIRS) * RUNS
    assert all(row.program is not None for row in rows)
    assert checks.check_grid(campaign_dir / "grid.csv", "schwefel",
                             "x0 x1 - 3.5 *", 9) == []


def test_changed_digit_in_f_at_argmin_fails(copy):
    path = copy / "rastrigin_d2.csv"
    cells = path.read_text().splitlines()[1].split(",")
    value = cells[4]
    digit = next(i for i, c in enumerate(value) if c.isdigit() and c != "0")
    changed = value[:digit] + str((int(value[digit]) + 1) % 10) + value[digit + 1:]
    edit(path, "," + value + ",", "," + changed + ",")
    errors, _ = campaign_errors(copy)
    assert any("fitness_f_at_argmin" in e for e in errors)


def test_swapped_program_token_fails(copy):
    path = copy / "schwefel_d2_programs.txt"
    run, seed, text = path.read_text().splitlines()[1].split("\t")
    tokens = text.split()
    points = ref.rmse_sample("schwefel", 2, int(seed))
    before = ref.rmse("schwefel", ref.parse_program(text), points)
    for i in range(len(tokens) - 1):
        swapped = tokens[:i] + [tokens[i + 1], tokens[i]] + tokens[i + 2:]
        after = ref.rmse("schwefel", ref.parse_program(" ".join(swapped)), points)
        if not ref.close(before, after):
            break
    else:
        pytest.skip("no adjacent swap changes this program's value")
    edit(path, "\t" + text, "\t" + " ".join(swapped))
    errors, _ = campaign_errors(copy)
    assert any("rmse" in e for e in errors)


def test_changed_summary_median_fails(copy):
    path = copy / "summary.csv"
    cells = path.read_text().splitlines()[1].split(",")
    edit(path, "," + cells[3] + ",", "," + repr(float(cells[3]) * 1.5) + ",")
    errors, _ = campaign_errors(copy)
    assert any("median f(argmin)" in e for e in errors)


def test_dropped_row_fails(copy):
    path = copy / "schwefel_d3.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    errors, _ = campaign_errors(copy)
    assert any("runs [0]" in e for e in errors)


def test_lost_program_line_marks_row_failed(copy):
    path = copy / "rastrigin_d3_programs.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    errors, rows = campaign_errors(copy)
    assert errors == []
    lost = [(r.function, r.dimension, r.run) for r in rows if r.program is None]
    assert lost == [("rastrigin", 3, RUNS - 1)]


def test_dropped_grid_row_fails(copy):
    path = copy / "grid.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:40] + lines[41:]) + "\n")
    assert checks.check_grid(path, "schwefel", "x0 x1 - 3.5 *", 9) != []


def test_grid_of_another_program_fails(copy):
    assert checks.check_grid(copy / "grid.csv", "schwefel", "x1 x0 - 3.5 *", 9) != []


def test_reference_functions_match_hand_values():
    fns = {name: f for name, (f, _, _) in ref.FUNCTIONS.items()}
    assert fns["rastrigin"]([0.0, 0.0]) == 0.0
    assert fns["rastrigin"]([1.0, 0.0]) == pytest.approx(1.0)
    assert fns["ackley"]([0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert fns["alpine"]([0.0, 0.0]) == 0.0
    assert fns["griewank"]([0.0, 0.0]) == 0.0
    assert fns["rosenbrock"]([1.0, 1.0, 1.0]) == 0.0
    assert fns["rosenbrock"]([0.0, 1.0]) == 11.0  # 10 * (0 - 1)^2 + (0 - 1)^2
    assert fns["schwefel"]([420.9687, 420.9687]) == pytest.approx(0.0, abs=1e-3)
    assert fns["xinsheyang2"]([0.0, 0.0]) == 0.0
    assert fns["michalewicz"]([2.2029, 1.5708]) == pytest.approx(-1.8013, abs=1e-4)
    trough = math.exp(1.5 * math.pi / 10.0)  # 10 ln x = 3 pi / 2
    assert fns["vincent"]([trough, trough]) == pytest.approx(-2.0)


@pytest.mark.parametrize("text, point, value", [
    ("x0 x1 -", (5.0, 3.0), 2.0),            # second value popped is the left operand
    ("x0 x1 /", (6.0, 3.0), 2.0),
    ("x0 x1 /", (6.0, 1e-10), 1.0),          # division guard
    ("+ x0 SWAP", (4.0, 0.0), 4.0),          # underflowing instructions are skipped
    ("DUP", (4.0, 0.0), 0.0),                # empty stack sums to 0
    ("x0 DUP *", (3.0, 0.0), 9.0),
    ("1.0 x1 SWAP -", (0.0, 5.0), 4.0),
    ("1.0 2.0 3.0", (0.0, 0.0), 6.0),        # loose terms are summed
    ("1e308 10.0 *", (0.0, 0.0), 0.0),       # non-finite product becomes 0
    ("1e308 1e308 -1e308", (0.0, 0.0), -1e308),  # partial sums reset to 0 bottom-up
])
def test_reference_evaluator_follows_stack_semantics(text, point, value):
    assert ref.evaluate_program(ref.parse_program(text), point) == value


def test_count_checks_reject_missing_spans():
    spans = [layers.Span("fstpso.optimize", 0.0, 1.0, None, 24)]
    spans.append(layers.Span("stackgp.interpret_batch", 0.1, 0.2, spans[0], 12))
    spans.append(layers.Span("stackgp.interpret_batch", 0.3, 0.4, spans[0], 12))
    spans.append(layers.Span("surrogate.fitness", 0.0, 1.0, None, "x0"))
    expected = layers.Expected(scorings=1, pso_iterations=2, swarm_sizes=frozenset({12}),
                               rmse_sizes=frozenset({200}), grid_size=81)
    assert layers.summarize(spans, [0.1], expected)[1] == []
    assert layers.summarize(spans[:-1], [0.1], expected)[1] != []
    assert layers.summarize(spans[:2] + spans[3:], [0.1], expected)[1] != []
