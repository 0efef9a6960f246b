"""Self-tests of the benchmark: tracing arithmetic, hook hygiene, counts, checks.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

from dpsparse import _kernels, core, estimators, harness  # noqa: E402


def tiny(name, seed):
    """Each workload's code path at a shape that runs in well under a second."""
    if name == "fit":
        return workloads.FitWorkload(name, 400, 60, 3, seed)
    return workloads.SweepWorkload(name, 300, 40, 3, seed)


def traced_round(workload):
    plain, traced, missing = run.run_traced(workload, seconds=0)
    assert not missing
    assert plain.failed == traced.failed == 0
    assert run.digest_mismatches(plain, traced) == []
    return traced


@pytest.mark.parametrize("name", ["fit", "sweep"])
def test_computed_counts_repeat_exactly_across_traced_runs(name):
    first, second = (tiny(name, 7), tiny(name, 7))
    runs = []
    for workload in (first, second):
        workload.setup()
        try:
            runs.append([op[2] for op in traced_round(workload).layers])
        finally:
            workload.close()
    assert runs[0] == runs[1]
    totals = {key: sum(op[key] for op in runs[0]) for key in tracing.COUNT_UNITS}
    assert all(value > 0 for value in totals.values()), totals


def test_fit_counts_match_the_shapes():
    workload = tiny("fit", 3)
    workload.setup()
    loop = traced_round(workload)
    n, d, s, T = 400, 60, 3, workloads.iterations(400)
    m = n // T
    per_op = [op[2] for op in loop.layers]
    assert [c["estimators.iterations"] for c in per_op] == [T] * 4
    # T folds per fit, plus the response-clipped copy dp-slr makes first.
    assert [c["core.dataset_builds"] for c in per_op] == [T, T, T, T + 1]
    assert all(c["kernels.grad_flops"] == T * 4 * m * d for c in per_op)
    # ada-huber is the non-private one: it draws no noise.
    draws = [c["sampling.laplace_draws"] for c in per_op]
    assert draws == [T * (s + 1) * d, T * (s + 1) * d, 0, T * (s + 1) * d]


@pytest.mark.parametrize("name", ["fit", "sweep"])
def test_traced_outputs_equal_untraced(name):
    workload = tiny(name, 5)
    workload.setup()
    try:
        plain, traced, _ = run.run_traced(workload, seconds=0)
    finally:
        workload.close()
    assert plain.failed == traced.failed == 0
    assert set(traced.digests) == set(range(workload.ops_per_round))
    assert all(traced.digests.values())
    assert run.digest_mismatches(plain, traced) == []


def test_hooks_are_removed_on_exit():
    originals = [(harness, "generate_synthetic"), (estimators, "split_folds"), (_kernels, "peel_select"),
                 (harness, "run_sweep")]
    before = [getattr(mod, attr) for mod, attr in originals]
    post_init = core.Dataset.__post_init__
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            assert estimators.split_folds is not before[1]
            raise RuntimeError("leave the block early")
    assert [getattr(mod, attr) for mod, attr in originals] == before
    assert core.Dataset.__post_init__ is post_init


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    self_ms, total_ms = tracing.self_times(spans)
    assert self_ms == pytest.approx({"root": 6000.0, "a": 3000.0, "b": 1000.0})
    assert total_ms == pytest.approx({"root": 10000.0, "a": 4000.0, "b": 1000.0})


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct = run.tail(values)
    assert value == 90 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)


class _BrokenFit(workloads.FitWorkload):
    def check(self, i, report):
        digest, _ = super().check(i, report)
        return digest, ["injected failure"]


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "make", lambda name, seed: _BrokenFit(name, 400, 60, 3, seed))
    code = run.main(["--workload", "fit-tall", "--seed", "1", "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-tall", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
