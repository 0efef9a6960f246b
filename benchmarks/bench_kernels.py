"""Benchmark the numpy kernels and the hot-loop stages around them.

Run: python benchmarks/bench_kernels.py
The kernel cells time each gradient kernel and the peeling selection loop
at fixed shapes, and beside them a zero-noise ``peel`` (the non-private fit's
selection, which runs no selection rounds). The stage cells time ``batch_gradient`` on a fold within K
(read in place) and on a fold beyond K (clipped first), and the Laplace
block draw of one peel with fresh arrays (the public ``laplace``) and with
the reused workspace a fit passes to every iteration. Each cell is the
median and interquartile range (IQR) over REPEATS separately timed calls,
after one untimed warmup call. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS (or OMP/MKL/BLIS_NUM_THREADS) is set: unpinned OpenBLAS
on a 2-vCPU host gave a huber_grad median of 16 ms at 2000x1000 in one run
and 0.8 ms in the next.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import time

import numpy as np

from dpsparse import Dataset, Huber, RngHandle, batch_gradient, laplace, peel
from dpsparse import _kernels as k
from dpsparse.sampling import _laplace_fill

SIZES = [(400, 1000), (2000, 1000), (500, 10000)]
PEEL_SIZES = [(1000, 5), (10000, 5), (10000, 50)]
FOLD_SHAPE = (1000, 1000)
NOISE_SHAPE = (51, 10000)
REPEATS = 41


def bench(fn, *args) -> tuple[float, float]:
    """Median and IQR in ms of REPEATS calls, each timed on its own."""
    fn(*args)  # warmup
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q3 - q1


def sparse_beta(rng, d: int) -> np.ndarray:
    # A fit's iterate has at most s nonzeros, and the gradients read only
    # those columns for x @ beta: d/200 gives s = 5 at d = 1000, 50 at 10000.
    beta = np.zeros(d)
    beta[rng.choice(d, size=d // 200, replace=False)] = rng.standard_normal(d // 200)
    return beta


def row(name: str, shape: str, fn, args) -> None:
    med, iqr = bench(fn, *args)
    print(f"{name:<16}{shape:<16}{med:>10.3f}{iqr:>9.3f}")


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
        absv = np.abs(rng.standard_normal(d))
        noise = rng.standard_normal((s, d)) * 0.1
        row("peel_select", f"d={d},s={s}", k.peel_select, (absv, noise))
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
    row("laplace fresh", "x".join(map(str, NOISE_SHAPE)), laplace, (0.5, RngHandle(1), NOISE_SHAPE))
    out, scratch = np.empty(NOISE_SHAPE), np.empty(NOISE_SHAPE)
    gen = RngHandle(1).generator()
    row("laplace reused", "x".join(map(str, NOISE_SHAPE)), _laplace_fill, (0.5, gen, out, scratch))


if __name__ == "__main__":
    main()
