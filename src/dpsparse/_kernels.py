"""Hot numeric kernels: per-fold gradients and the peeling selection loop.

Plain vectorized numpy. Each gradient takes its residual from
``support_matvec``, which reads only the columns of the features where beta is
nonzero (at most s of them after hard thresholding, none at beta = 0), and
then makes one dense matrix-vector product with the transposed features,
``xt_matvec``: one BLAS call, or on a wide fold one call per column block,
run on one thread per CPU with the bytes of the single call.
Selection scores a few candidates per round and falls back to one argmax over
d only when it cannot certify the winner (see ``peel_select``). All kernels
are deterministic given their inputs; randomness (the sparse selection
uniforms, and a fallback round's row through the callback it is handed) is
drawn by callers. Callers reach the kernels through this module's attributes.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .sampling import _cpu_count, _laplace_icdf


def support_matvec(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta`` from the m x s block of the columns where beta is nonzero.

    Equal to the dense product up to the order of the floating-point sums.
    """
    nz = np.flatnonzero(beta)
    return x.take(nz, axis=1) @ beta[nz]


# A column block is at least this wide, so numpy drops the GIL in its product
# (it keeps it for 500 outputs or fewer), and holds at least this many
# entries, so a block outweighs handing it to a thread (about 17 us).
_BLOCK_COLS = 1024
_BLOCK_ENTRIES = 2**17
# Blocks start at multiples of this many columns. BLAS groups the outputs of
# one call in fours; a cut inside a group changed bits, and cuts at multiples
# of 4 did not. 64 leaves a margin.
_CUT_COLS = 64

# Threads for the column blocks past the first, built on first use; None until
# then and in a forked child, whose copy of the pool has no threads.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# False in a sweep's worker processes, which run their products on one thread.
_threads = True


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


def _product_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cpu_count() - 1)
        return _pool


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


def one_thread() -> None:
    """Run this process's products on the calling thread only.

    The initializer of a sweep's worker processes, which already run one
    unit each side by side: more threads would contend for the CPUs.
    """
    global _threads
    _threads = False


def xt_matvec(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x.T @ w`` for a fold's m x d features (C-contiguous float64).

    A wide fold is cut into k = min(CPUs, d // _BLOCK_COLS, m * d //
    _BLOCK_ENTRIES) column blocks at multiples of _CUT_COLS; the calling
    thread runs block 0 and a pool of CPUs - 1 threads the others. Every
    output entry sums over the same rows in the same order as in the single
    BLAS call, so with BLAS on one thread the bytes are the single call's
    whatever k is. With k < 2 it is the single call.
    """
    m, d = x.shape
    k = min(_cpu_count(), d // _BLOCK_COLS, m * d // _BLOCK_ENTRIES) if _threads else 1
    if k < 2:
        return x.T @ w
    pool = _product_pool()
    cuts = [i * d // k // _CUT_COLS * _CUT_COLS for i in range(k)] + [d]
    out = np.empty(d)

    def block(i: int) -> None:
        np.matmul(x[:, cuts[i] : cuts[i + 1]].T, w, out=out[cuts[i] : cuts[i + 1]])

    futures = [pool.submit(block, i) for i in range(1, k)]
    block(0)
    for future in futures:
        future.result()
    return out


def huber_grad(xc: np.ndarray, y: np.ndarray, beta: np.ndarray, tau: float) -> np.ndarray:
    r = y - support_matvec(xc, beta)
    w = np.clip(r, -tau, tau)
    return -xt_matvec(xc, w) / xc.shape[0]


def l1_grad(x_sign: np.ndarray, xc: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    signs = np.sign(support_matvec(x_sign, beta) - y)
    return xt_matvec(xc, signs) / xc.shape[0]


def squared_grad(xc: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    r = support_matvec(xc, beta) - y
    return xt_matvec(xc, r) / xc.shape[0]


# A uniform at or below Q/d joins its round's candidates: about Q per row,
# besides the s largest |v|.
_Q = 8
# Slack on the certificate's floor, relative and absolute: far above the few
# roundings in a score (the inverse-CDF map, one product, one sum), subnormal
# ones included.
_REL_MARGIN = 1e-12
_ABS_MARGIN = np.finfo(np.float64).tiny


def hit_rate(d: int) -> float:
    """t0 = min(1/2, Q/d): the chance that a uniform outside the top s is a hit."""
    return min(0.5, _Q / d)


def peel_select(
    absv: np.ndarray,
    s: int,
    pos: np.ndarray,
    u: np.ndarray,
    b: float,
    fallback_row: Callable[[int], np.ndarray],
) -> np.ndarray:
    """The s indices one peel selects, in selection order, from its sparse uniforms.

    The peel's s x d selection uniforms are given by their hits. Outside the
    s columns ``top`` of largest absv, the uniforms at or below t0 =
    ``hit_rate(d)`` are the hits: ``pos`` holds their ascending positions in
    the round-major s x (d - s) block of the other columns ``rest``, in
    ascending order, and ``u[:pos.size]`` their values. ``u[pos.size:]``
    holds the s x s uniforms of the top columns, round-major, in ``top``'s
    order. Every other uniform is above t0.

    Round i scores each index j not yet taken as absv[j] + w_ij, with w_ij =
    _laplace_icdf(uniform, b), and takes the highest score, ties to the
    lowest index. Only the round's candidates (its hits and the top columns)
    are scored. A round whose best candidate does not clear the floor of
    ``_candidates`` calls ``fallback_row(i)`` for a d-vector of uniforms,
    writes the candidates' uniforms into it, and runs ``_dense_round`` over
    all d indices. So when the fallback rows' other entries are above t0,
    the result is the selection over the whole block, bit for bit.
    """
    d = absv.shape[0]
    selected = np.empty(s, dtype=np.int64)
    taken = np.zeros(d, dtype=bool)
    flat, cand_u, bounds, floor = _candidates(absv, s, pos, u, b)
    cols = flat % d
    scores = absv[cols] + _laplace_icdf(cand_u.copy(), b)
    bounds = bounds.tolist()
    for i in range(s):
        lo, hi = bounds[i], bounds[i + 1]
        c, sc = cols[lo:hi], scores[lo:hi]
        sc[taken[c]] = -np.inf
        k = sc.argmax()  # candidates ascend, so ties go to the lowest index
        if sc[k] > floor:
            j = c[k]
        else:
            row = fallback_row(i)
            row[c] = cand_u[lo:hi]
            j = _dense_round(absv, _laplace_icdf(row, b), taken)
        selected[i] = j
        taken[j] = True
    return selected


def _candidates(absv: np.ndarray, s: int, pos: np.ndarray, u: np.ndarray, b: float):
    """Each round's candidates and the floor that certifies a round's winner.

    Returns (flat, cand_u, bounds, floor): ``flat`` holds the candidates as
    ascending flat indices i * d + j into the s x d block, ``cand_u`` their
    uniforms, and round i's are at [bounds[i], bounds[i + 1]). ``top`` is
    the s indices of largest absv (all of them when d <= s). Any index j
    that is not a candidate has absv[j] <= a_rest, the largest absv outside
    ``top``, and a uniform above t0, so a draw below b * ln(1 / (2 t0)), as
    the map decreases in r. So its score is below a_rest + b * ln(1 / (2 t0)),
    which ``floor`` bounds with slack for rounding: a candidate scoring above
    ``floor`` beats every index that is not a candidate.
    """
    d = absv.shape[0]
    if d > s:
        part = np.argpartition(absv, d - s - 1)
        top, a_rest = part[d - s :], absv[part[d - s - 1]]
        outside = np.ones(d, dtype=bool)
        outside[top] = False
        rounds, k = np.divmod(pos, d - s)
        hits = rounds * d + np.flatnonzero(outside)[k]
    else:
        top, a_rest, hits = np.arange(d), -np.inf, pos
    keys = np.concatenate((hits, (np.arange(s)[:, None] * d + top).ravel()))
    order = keys.argsort()
    flat = keys[order]
    bounds = np.searchsorted(flat, np.arange(s + 1) * d)
    floor = (a_rest - b * math.log(2.0 * hit_rate(d))) * (1.0 + _REL_MARGIN) + _ABS_MARGIN
    return flat, u[order], bounds, floor


def _dense_round(absv: np.ndarray, noise_row: np.ndarray, taken: np.ndarray) -> int:
    # One round over all d indices: the selection as defined.
    scores = absv + noise_row
    scores[taken] = -np.inf
    return int(np.argmax(scores))  # argmax takes the lowest index on ties


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
