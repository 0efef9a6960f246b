"""Smoke test of benchmarks/bench_kernels.py: every cell runs once.

The script calls private kernels by their current signatures, so a signature
change breaks it; this test makes that show in the test run.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_every_bench_cell_runs_once(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "REPEATS", 1)
    bench.main()
    lines = capsys.readouterr().out.splitlines()
    cells = [line.split()[0] for line in lines[2:]]
    peels = len(bench.PEEL_SIZES)
    assert cells == (
        len(bench.SIZES) * ["huber_grad", "l1_grad", "squared_grad"]
        + peels * ["peel_select"]
        + ["peel", "grad", "grad"]
        + peels * ["sparse"]
    )
    selection = [line for line in lines if line.startswith("peel_select")]
    assert all("candidates/round" in line and "fallback rounds" in line for line in selection)
