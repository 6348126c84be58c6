"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from worker import percentile, run_ops

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ops_of(workload, seed, rounds):
    return [op for ops in workloads.first_rounds(workload, seed, rounds) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = ops_of(workload, 7, 20)
    assert first == ops_of(workload, 7, 20)
    assert first != ops_of(workload, 8, 20)


def test_demo_sequence_is_seeded():
    assert workloads.demo_sequence(500, 3) == workloads.demo_sequence(500, 3)
    assert 0.0 in workloads.demo_sequence(500, 3)


def test_drawn_domains():
    ops = ops_of("exact-cli", 1, 50)
    verify = [op for op in ops if op[0] == "verify"]
    assert len(verify) == 300
    assert all(workloads.EXACT_N[0] <= op[1] <= workloads.EXACT_N[1] for op in ops)
    assert all(op[3] is None or 2 <= op[3] <= op[1] for op in verify)
    assert 0 < sum(op[3] is not None for op in verify) < len(verify) / 4
    factors = [op for op in ops_of("weights", 1, 20) if op[0] == "factor"]
    points = [float(workloads.parse_point(op[2])) for op in factors]
    assert min(points) < 1e-2 and max(points) > 1e11
    assert {type(workloads.parse_point(op[2])).__name__ for op in factors} == {"int", "Fraction", "float"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_ops_pass_every_gate(workload):
    runner = workloads.Runner(workload)
    loop = run_ops(runner, [workloads.WARMUP_OPS])
    assert loop.attempted == len(workloads.WARMUP_OPS)
    assert loop.failures == []


def test_seeded_quadrature_ops_pass_their_gates():
    runner = workloads.Runner("quadrature-sweep")
    loop = run_ops(runner, workloads.first_rounds("quadrature-sweep", 5, 10))
    assert (loop.attempted, loop.failures) == (120, [])


class CorruptingRunner(workloads.Runner):
    """Feeds the gate a table with entry 3 overwritten by entry 2."""

    def run(self, op, args):
        table, *rest = super().run(op, args)
        return (self.carleman.corrupted_table(table, 3), *rest)


def test_corrupted_table_counts_as_failure():
    runner = CorruptingRunner("weights")
    ops = [("factor", 6, "2"), ("factor", 6, "0.5"), ("demo", 6, 300, 2)]
    loop = run_ops(runner, [ops])
    assert (loop.attempted, loop.failed) == (3, 3)
    assert "series oracle" in loop.failures[0]["reason"]


def test_demo_starting_with_zero_holds():
    runner = workloads.Runner("weights")
    op, args = ("demo", 3, 3, 0), (3, [0.0, 1.0, 0.5])
    result = runner.run(op, args)
    assert result[1].lhs == 0.0
    assert runner.check(op, args, result) is None


def test_wrong_cli_output_fails_the_gate():
    runner = workloads.Runner("exact-cli")
    op = ("coeffs", 8)
    args = runner.prepare(op)
    code, out = runner.run(op, args)
    assert runner.check(op, args, (code, out)) is None
    wrong = out.replace(workloads.B6, "1945/580608")
    assert "b_6" in runner.check(op, args, (code, wrong))
    op = ("verify", 12, 6, None)
    args = runner.prepare(op)
    code, out = runner.run(op, args)
    assert runner.check(op, args, (code, out)) is None
    assert runner.check(op, args, (1, out)) is not None
    # A fault-injected op that exits 0 is a failure.
    assert runner.check(("verify", 12, 6, 5), args, (0, out)) is not None


def test_raising_op_counts_as_failure():
    runner = workloads.Runner("quadrature-sweep")
    loop = run_ops(runner, [[("moment", 1, 1e-10), ("moment", 5, 1e-10)]])
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "raised" in loop.failures[0]["reason"]


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(100, 0, -1)]
    assert percentile(samples, 90.0) == (90.0, 10)
    assert percentile(samples, 99.9) == (100.0, 0)
    assert percentile([2.0], 50.0) == (2.0, 0)


def test_self_time_excludes_children():
    ticks = iter([0, 10, 30, 100, 150, 160])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    outer = tracer.enter("verify.run_verification")
    inner = tracer.enter("coefficients.from_recurrence")
    tracer.exit(inner)
    second = tracer.enter("quadrature.integrate")
    tracer.exit(second)
    tracer.exit(outer)
    assert tracer.busy_ns["verify.run_verification"] == 160
    assert tracer.self_ns["verify.run_verification"] == 160 - 20 - 50
    parents = {span[1]: span[4] for span in tracer.spans}
    assert parents["coefficients.from_recurrence"] == 0
    assert parents["verify.run_verification"] is None


def test_instrument_wraps_and_restores():
    import carleman
    from carleman import moments, verify

    original = verify.coefficient_by_moment
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert verify.coefficient_by_moment is not original
        carleman.run_verification(max_n=8, quad_max=4)
    finally:
        restore()
    assert verify.coefficient_by_moment is original is moments.coefficient_by_moment
    assert tracer.calls["verify.run_verification"] == 1
    assert tracer.calls["coefficients.from_recurrence"] == 1
    assert tracer.counters["quadrature.evaluations"] > 0
    assert tracer.self_ns["verify.run_verification"] < tracer.busy_ns["verify.run_verification"]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    proc = _run("--workload", "quadrature-sweep", "--seed", "3", "--seconds", "0.2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "weights", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
