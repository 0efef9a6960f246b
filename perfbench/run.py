"""dpsparse benchmark: closed-loop workloads with end-to-end and traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fit-tall --seed 1 --seconds 36 --trace 0

One client runs one op at a time; the next op starts when the previous one
returns. BLAS is pinned to one thread before numpy loads. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run (see perfbench/README.md). The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give each metric with its sample count and the environment. The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import COUNT_UNITS, Tracer, instrument, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Per-layer times, each the median over traced rounds of the layer's mean
# time per op. The value is (span name, "self" or "total" time).
LAYER_TIMES = {
    "core.split_folds_ms": ("core.split_folds", "self"),
    "core.clip_features_ms": ("core.clip_features", "self"),
    "core.project_l2_ms": ("core.project_l2", "self"),
    "losses.batch_gradient_self_ms": ("losses.batch_gradient", "self"),
    "kernels.grad_ms": ("kernels.grad", "self"),
    "kernels.peel_select_ms": ("kernels.peel_select", "self"),
    "peeling.peel_self_ms": ("peeling.peel", "self"),
    "sampling.laplace_ms": ("sampling.laplace", "self"),
    "sampling.generate_synthetic_ms": ("sampling.generate_synthetic", "self"),
    "estimators.fit_ms": ("estimators.fit", "total"),
    "estimators.loop_self_ms": ("estimators.fit", "self"),
    "harness.run_sweep_self_ms": ("harness.run_sweep", "self"),
}


class Loop:
    """What one run of ops recorded."""

    def __init__(self):
        self.op_ms: list[float] = []
        self.fit_ms: dict[str, list[float]] = {}
        self.digests: dict[int, str] = {}
        self.layers: list[tuple[dict, dict, dict]] = []  # per op: self ms, total ms, counts
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0


def run_round(workload, r: int, loop: Loop, tracer=None) -> None:
    """Run the ops of round r into ``loop``: time each call, then check its output."""
    k = workload.ops_per_round
    for i in range(r * k, (r + 1) * k):
        arg = workload.prepare(i)
        loop.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.run(arg)
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            spans, counts = tracer.take()
            loop.layers.append((*self_times(spans), counts))
        ok = out is not None
        if ok:
            try:
                digest, problems = workload.check(i, out)
                for est, fit_ms in workload.fit_times(i, out, ms):
                    loop.fit_ms.setdefault(est, []).append(fit_ms)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                digest, problems = "", ["check raised"]
            for problem in problems:
                print(f"perfbench: {workload.name} op {i}: {problem}", file=sys.stderr)
            loop.digests[i] = digest
            ok = not problems
        if tracer is not None:
            tracer.take()  # drop whatever the check itself built
        loop.op_ms.append(ms)
        loop.failed += not ok


def run_ops(workload, seconds=None, rounds=None) -> Loop:
    """Run whole rounds from round 0 until ``seconds`` pass or ``rounds`` are done."""
    loop = Loop()
    start = time.perf_counter()
    r = 0
    while True:
        run_round(workload, r, loop)
        r += 1
        if (rounds is not None and r >= rounds) or (
            seconds is not None and time.perf_counter() - start >= seconds
        ):
            break
    loop.wall_s = time.perf_counter() - start
    return loop


def run_traced(workload, seconds: float) -> tuple[Loop, Loop, list[str]]:
    """Run each round untraced, then again traced, until ``seconds`` pass.

    Interleaving lets both passes see the same machine state, so their ratio
    is the tracing overhead, and it pairs every traced op with its untraced
    twin for the digest check. Returns (untraced, traced, missing hooks).
    """
    plain, traced, tracer = Loop(), Loop(), Tracer()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        run_round(workload, r, plain)
        with instrument(tracer):
            run_round(workload, r, traced, tracer)
        r += 1
    return plain, traced, sorted(tracer.missing)


def round_means(values: list[float], k: int) -> list[float]:
    """Mean of each round's k values.

    A round runs each estimator once on fit-*; their costs differ by up to
    1.7x, so a median over single ops would fall into the gap between two
    estimators. Medians are taken over rounds instead.
    """
    return [statistics.fmean(values[r : r + k]) for r in range(0, len(values), k)]


def digest_mismatches(a: Loop, b: Loop) -> list[int]:
    return [i for i in sorted(a.digests.keys() & b.digests.keys()) if a.digests[i] != b.digests[i]]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def import_seconds() -> float:
    """Time ``import dpsparse.cli`` in a fresh interpreter, as a user's process pays it."""
    code = "import time; t = time.perf_counter(); import dpsparse.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload) -> tuple[list[float], list[float]]:
    """Import and input generation, each repeated; returns (setup s, generation ms) samples."""
    setup_s, gen_ms = [], []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        gen = time.perf_counter() - t0
        setup_s.append(imp + gen)
        gen_ms.append(gen * 1e3)
    return setup_s, gen_ms


def environment(seed: int) -> dict:
    import numpy as np

    import dpsparse

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the config layout differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": dpsparse.backend_name(),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def metric(value, unit, n, note=""):
    return {"value": value, "unit": unit, "n": n, "note": note}


def end_to_end(workload, setup_s, loop: Loop, peak_kb: int, l2_guard: float, failed: int, attempted: int) -> dict:
    p_tail, pct = tail(loop.op_ms)
    k = workload.ops_per_round
    rounds = round_means(loop.op_ms, k)
    out = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s), "import + inputs"),
        "op_ms_p50": metric(statistics.median(rounds), "ms", len(rounds), f"rounds of {k} ops"),
        "op_ms_tail": metric(p_tail, "ms", len(loop.op_ms), f"p{pct:.1f}"),
        "ops_per_s": metric(len(loop.op_ms) / loop.wall_s, "1/s", len(loop.op_ms)),
    }
    for kind in ("dp-iht-h", "dp-iht-l", "ada-huber", "dp-slr"):
        samples = loop.fit_ms.get(kind, [])
        value = statistics.median(samples) if samples else 0.0  # no samples: every such op failed
        out[f"fit_ms_p50.{kind}"] = metric(value, "ms", len(samples))
    out["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB", 1, "ru_maxrss after setup and the warm-up round")
    out["ok_frac"] = metric(max(0, attempted - failed) / attempted, "ratio", attempted)
    out["l2_error_mean"] = metric(l2_guard, "1", 4, "fixed-seed guard problem")
    return out


def per_layer(workload, gen_ms: list[float], plain: Loop, traced: Loop) -> dict:
    """Each layer time is the median over traced rounds of its mean time per op."""
    k = workload.ops_per_round
    n = len(traced.layers)
    out = {}
    accounted = 0.0
    for name, (span, which) in LAYER_TIMES.items():
        if name == "sampling.generate_synthetic_ms" and workload.generates_in_setup:
            out[name] = metric(statistics.median(gen_ms), "ms", len(gen_ms), "in setup, untraced")
            continue
        column = 0 if which == "self" else 1
        value = statistics.median(round_means([op[column].get(span, 0.0) for op in traced.layers], k))
        out[name] = metric(value, "ms", n)
        if which == "self":
            accounted += value
    # Counts are per op over whole rounds, so they repeat exactly.
    for name, unit in COUNT_UNITS.items():
        total = sum(op[2][name] for op in traced.layers)
        out[name] = metric(total / n, unit, n, "computed")
    grad_s = sum(op[0].get("kernels.grad", 0.0) for op in traced.layers) / 1e3
    flops = sum(op[2]["kernels.grad_flops"] for op in traced.layers)
    out["kernels.grad_gflops"] = metric(flops / grad_s / 1e9 if grad_s else 0.0, "GFLOP/s", n)
    traced_p50 = statistics.median(round_means(traced.op_ms, k))
    plain_p50 = statistics.median(round_means(plain.op_ms, k))
    unaccounted = traced_p50 - accounted
    out["trace.op_ms_p50"] = metric(traced_p50, "ms", n)
    out["trace.overhead_ratio"] = metric(traced_p50 / plain_p50, "ratio", n, "over the interleaved untraced p50")
    out["trace.unaccounted_ms"] = metric(unaccounted, "ms", n, "traced p50 minus summed self p50s")
    out["trace.unaccounted_share"] = metric(unaccounted / traced_p50, "ratio", n)
    return out


def report(name: str, trace: bool, env: dict, metrics: dict, extra: dict) -> None:
    print(f"perfbench {name} trace={int(trace)} seed={env['seed']}")
    print(f"{'metric':<34}{'value':>16}  {'unit':<8}{'n':>6}  note")
    for key, m in metrics.items():
        print(f"{key:<34}{m['value']:>16.6g}  {m['unit']:<8}{m['n']:>6}  {m['note']}")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps({"metrics": metrics, **extra}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpsparse" / "__init__.py").is_file():
        print(f"perfbench: no dpsparse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    env = environment(args.seed)
    problems = []
    missing_hooks = []
    try:
        setup_s, gen_ms = measure_setup(workload)
        # The warm-up round fills caches; the measured loops repeat its ops,
        # which doubles as the refit check.
        warm = run_ops(workload, rounds=1)
        # Read before the timed loop: over a long loop the C allocator can
        # keep a freed dataset's pages in some runs and not others (26 MB of
        # 135 MB on a 4000 x 1000 sweep), so a later reading is bimodal.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            # A hook whose attribute a later refactor removed measures
            # nothing; its time lands in the caller's self time.
            plain, traced, missing_hooks = run_traced(workload, args.seconds)
            loops = (warm, plain, traced)
            if digest_mismatches(plain, traced):
                problems.append(f"traced outputs differ from untraced at ops {digest_mismatches(plain, traced)}")
            measured = plain
        else:
            measured = run_ops(workload, seconds=args.seconds)
            loops = (warm, measured)
        if digest_mismatches(warm, measured):
            problems.append(f"refit with the same seed changed outputs at ops {digest_mismatches(warm, measured)}")
        l2_guard = float("nan")
        if not args.trace:
            l2_guard, guard_problems = workloads.quality_guard()
            problems += guard_problems
    finally:
        workload.close()
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops) + len(problems)
    if args.trace:
        metrics = per_layer(workload, gen_ms, plain, traced)
    else:
        metrics = end_to_end(workload, setup_s, measured, peak_kb, l2_guard, failed, attempted)
    report(args.workload, bool(args.trace), env, metrics, {"problems": problems, "missing_hooks": missing_hooks})
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": m["value"], "unit": m["unit"]} for key, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
