"""Benchmark the numpy kernels and the hot-loop stages around them.

Run: python benchmarks/bench_kernels.py
The kernel cells time each gradient kernel and the peeling selection at fixed
shapes (the 500x10000 gradient cells run their product on column blocks, one
thread per CPU; the 1000-column cells as one BLAS call), and beside them a zero-noise ``peel`` (the non-private fit's
selection, which runs no selection rounds). A selection cell runs the
selection of one private peel from its sparse uniforms (the hits outside the
top s, then the top columns), at a noise scale far above the magnitudes as
in the benchmark's private fits, and prints the mean candidates per round
and the share of rounds that fell back to scoring all d indices. The stage
cells time ``batch_gradient`` on a fold within K (read in place) and on a
fold beyond K (clipped first), and the sparse draw of one private peel: its
hit positions and its uniforms, by the helper ``peel`` draws them with (the
Laplace map then runs inside the selection). Each cell is the median and
interquartile range (IQR) over REPEATS separately timed calls, after one
untimed warmup call. BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or
OMP/MKL/BLIS_NUM_THREADS) is set: unpinned OpenBLAS on a 2-vCPU host gave a
huber_grad median of 16 ms at 2000x1000 in one run and 0.8 ms in the next.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import time

import numpy as np

from dpsparse import Dataset, Huber, RngHandle, batch_gradient, peel
from dpsparse import _kernels as k
from dpsparse.peeling import _selection_uniforms

SIZES = [(400, 1000), (2000, 1000), (500, 10000)]
PEEL_SIZES = [(1000, 5), (10000, 50)]
# A private fit's half-step entries are about 1e-3 against a noise scale of
# about 0.05 on the benchmark's fit shapes.
PEEL_MAGNITUDE, PEEL_SCALE = 1e-3, 0.05
FOLD_SHAPE = (1000, 1000)
REPEATS = 41


def bench(fn, *args, refresh=None) -> tuple[float, float]:
    """Median and IQR in ms of REPEATS calls, each timed on its own.

    ``refresh``, when given, runs untimed before every call: it restores
    inputs that the call overwrites.
    """
    refresh = refresh or (lambda: None)
    refresh()
    fn(*args)  # warmup
    samples = []
    for _ in range(REPEATS):
        refresh()
        start = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - start) * 1e3)
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    return median, q3 - q1


def sparse_beta(rng, d: int) -> np.ndarray:
    # A fit's iterate has at most s nonzeros, and the gradients read only
    # those columns for x @ beta: d/200 gives s = 5 at d = 1000, 50 at 10000.
    beta = np.zeros(d)
    beta[rng.choice(d, size=d // 200, replace=False)] = rng.standard_normal(d // 200)
    return beta


def row(name: str, shape: str, fn, args, note: str = "", refresh=None) -> None:
    med, iqr = bench(fn, *args, refresh=refresh)
    print(f"{name:<16}{shape:<16}{med:>10.3f}{iqr:>9.3f}{note}")


def selection_stats(absv, s, pos, u, b, fallback_row) -> str:
    """Mean candidates per round, and the share of rounds scored over all d."""
    dense_round, fallbacks = k._dense_round, []

    def counted(*args):
        fallbacks.append(1)
        return dense_round(*args)

    k._dense_round = counted
    try:
        k.peel_select(absv, s, pos, u, b, fallback_row)
    finally:
        k._dense_round = dense_round
    return f"  candidates/round {u.size / s:.1f}, fallback rounds {len(fallbacks) / s:.3f}"


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"BLAS threads: {os.environ['OPENBLAS_NUM_THREADS']}; median and IQR in ms over n={REPEATS} calls per cell")
    print(f"{'kernel':<16}{'shape':<16}{'median':>10}{'IQR':>9}")
    for m, d in SIZES:
        xc = np.clip(rng.standard_normal((m, d)), -3, 3)
        y = rng.standard_normal(m)
        beta = sparse_beta(rng, d)
        row("huber_grad", f"{m}x{d}", k.huber_grad, (xc, y, beta, 1.0))
        row("l1_grad", f"{m}x{d}", k.l1_grad, (xc, xc, y, beta))
        row("squared_grad", f"{m}x{d}", k.squared_grad, (xc, y, beta))
    for d, s in PEEL_SIZES:
        absv = np.abs(rng.standard_normal(d)) * PEEL_MAGNITUDE
        t0 = k.hit_rate(d)
        args = (absv, s, *_selection_uniforms(rng, s, d), PEEL_SCALE, lambda i: t0 + (1.0 - t0) * rng.random(d))
        row("peel_select", f"d={d},s={s}", k.peel_select, args, selection_stats(*args))
    row("peel zero-noise", "d=10000,s=50", peel, (rng.standard_normal(10000), 50, 0.0))
    stage_rows(rng)


def stage_rows(rng) -> None:
    m, d = FOLD_SHAPE
    K = float(np.log(d))
    x = rng.standard_normal((m, d))
    y = rng.standard_normal(m)
    beta = sparse_beta(rng, d)
    within = Dataset(x, y)
    x[m // 2, d // 2] = 2 * K  # one entry beyond K makes the whole fold clip
    beyond = Dataset(x, y)
    for label, fold in (("within K", within), ("beyond K", beyond)):
        row(f"grad {label}", f"{m}x{d}", batch_gradient, (fold, beta, Huber(1.0), K))
    gen = RngHandle(1).generator()
    for d, s in PEEL_SIZES:
        row("sparse draw", f"d={d},s={s}", _selection_uniforms, (gen, s, d))


if __name__ == "__main__":
    main()
