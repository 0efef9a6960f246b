"""Hot numeric kernels, and the library's threads: CPU count, pool and BLAS pin.

Plain vectorized numpy. Each gradient takes its residual from
``support_matvec``, which reads only the columns of the features where beta is
nonzero (at most s of them after hard thresholding, none at beta = 0), and
then makes one dense matrix-vector product with the transposed features,
``xt_matvec``: one BLAS call per column block, on one thread per CPU, with the
bytes of one call, as the library runs its products with BLAS on one thread
(``blas_pinned``). Selection scores a few candidates per round and falls back
to one argmax over d only when it cannot certify the winner (see
``peel_select``). All kernels are deterministic given their inputs;
randomness (the sparse selection uniforms, and a fallback round's row) is
drawn by callers. Callers reach the kernels through this module's attributes.
It imports no other dpsparse module. ``_run_blocks`` also fills a synthetic
draw's row blocks, and ``one_thread`` puts a sweep worker's draws and
products on its one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def support_matvec(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta`` from the m x s block of the columns where beta is nonzero.

    Equal to the dense product up to the order of the floating-point sums.
    """
    nz = np.flatnonzero(beta)
    return x.take(nz, axis=1) @ beta[nz]


# The calling thread's block is at least this wide: numpy holds the GIL
# through a product of 500 outputs or fewer, and the pool's blocks would wait.
_BLOCK_COLS = 512
# A fold of m x d splits into at most m * d // _BLOCK_ENTRIES blocks, so a
# block outweighs handing it to a thread (about 17 us), and the calling
# thread's block takes about _BLOCK_ENTRIES // m columns more than an even
# share, as the pool's blocks start one thread wake-up later.
_BLOCK_ENTRIES = 2**17
# Blocks start at multiples of this many columns and are at least this wide.
# BLAS groups the outputs of one call in fours; a cut inside a group changed
# bits, and cuts at multiples of 4 did not. A block of one column changed
# bits too: numpy takes its product as a dot, which sums in another order.
# 64 leaves a margin.
_CUT_COLS = 64


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The library's threads besides the calling one, CPUs - 1 of them, built on
# first use; no task on the pool submits to it. None until then and in a
# forked child, whose copy of the pool has no threads.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# Held through a thread's outermost pin, while its ``_held.pinned`` is set.
_pin_lock = threading.Lock()
_held = threading.local()


def _forget_after_fork() -> None:
    global _pool, _pool_lock, _pin_lock
    _pool, _pool_lock, _pin_lock = None, threading.Lock(), threading.Lock()


def _thread_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cpu_count() - 1)
        return _pool


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_after_fork)


def one_thread() -> None:
    """Draw and multiply on the calling thread alone: a sweep worker's initializer."""
    global _cpu_count
    _cpu_count = lambda: 1  # noqa: E731


def _run_blocks(fn: Callable[[int], object], count: int):
    """Run fn(0), ..., fn(count - 1); return fn(0)'s result once all have returned.

    The calling thread runs fn(0) while up to CPUs - 1 pool threads take the
    others in order, and then takes its share of what is left: one block per
    CPU at once. With one CPU or one block the calling thread runs them all.
    """
    rest, lock = iter(range(1, count)), threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                k = next(rest, None)
            if k is None:
                return
            fn(k)

    helpers = min(_cpu_count(), count) - 1
    pool = _thread_pool() if helpers > 0 else None
    futures = [pool.submit(drain) for _ in range(helpers)]
    first = fn(0)
    drain()
    for future in futures:
        future.result()
    return first


@functools.cache
def _blas_threads():
    """(get, set) thread count of the scipy-openblas numpy 2 bundles, or no-ops and a warning."""
    import glob  # on the first pin, not at import
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*"):
        lib = ctypes.CDLL(path)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
        return get, set_
    warnings.warn("dpsparse found no OpenBLAS thread control: outputs may vary with BLAS threads")
    return (lambda: 1), (lambda count: None)


@contextlib.contextmanager
def blas_pinned():
    """Run the block with OpenBLAS on one thread; restore its count after, on an error too.

    A pin in a thread that holds one already does nothing.
    """
    if getattr(_held, "pinned", False):
        yield
        return
    get, set_ = _blas_threads()
    with _pin_lock:
        saved = get()
        set_(1)
        _held.pinned = True
        try:
            yield
        finally:
            _held.pinned = False
            set_(saved)


def _cuts(m: int, d: int, cpus: int) -> list[int] | None:
    """The column cuts ``[0, c1, ..., d]`` of an m x d fold's blocks, or None.

    Takes the most blocks k, up to min(cpus, m * d // _BLOCK_ENTRIES), for
    which block 0 keeps at least _BLOCK_COLS columns and every other block
    _CUT_COLS: block 0 takes d / k columns plus a head start of
    _BLOCK_ENTRIES / m, and the others share the rest evenly, every cut
    rounded to a multiple of _CUT_COLS. None when no k >= 2 qualifies.
    """
    head = _BLOCK_ENTRIES / m
    for k in range(min(cpus, m * d // _BLOCK_ENTRIES), 1, -1):
        first = round((d / k + head) / _CUT_COLS) * _CUT_COLS
        rest = (d - first) / (k - 1)
        cuts = [0] + [first + int(i * rest) // _CUT_COLS * _CUT_COLS for i in range(k - 1)] + [d]
        if first >= _BLOCK_COLS and all(b - a >= _CUT_COLS for a, b in zip(cuts, cuts[1:])):
            return cuts
    return None


def xt_matvec(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x.T @ w`` for a fold's m x d features (C-contiguous float64).

    The fold is cut into the column blocks of ``_cuts`` (none on one CPU or
    for a small fold), which ``_run_blocks`` runs, block 0 on the calling
    thread. With BLAS on one thread (``blas_pinned``) each output sums over
    the rows in the order of one BLAS call, so it has its bytes.
    """
    m, d = x.shape
    cuts = _cuts(m, d, _cpu_count())
    if cuts is None:
        return x.T @ w
    out = np.empty(d)

    def block(i: int) -> None:
        np.matmul(x[:, cuts[i] : cuts[i + 1]].T, w, out=out[cuts[i] : cuts[i + 1]])

    _run_blocks(block, len(cuts) - 1)
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


def _laplace_icdf(r: np.ndarray, b: float) -> np.ndarray:
    """Map uniforms r on [0, 1) to Laplace draws at scale b > 0, in place; return r.

    The draws have density exp(-|x|/b) / 2b. This is the one Laplace map: a
    whole block and a gathered handful of entries go through the same ufunc
    sequence, in the order of the plain expression b * sign(u) * log1p(-2|u|)
    with u = r - 1/2, so equal uniforms give equal bytes. On (0, 1) the draw
    decreases in r, so for t <= 1/2 every r > t gives a draw below
    b * ln(1 / (2t)), up to rounding.
    """
    # random() covers [0, 1); remap the measure-zero r == 0 to 0.5 so that
    # u = -1/2 (a log(0)) cannot occur.
    if not r.all():
        r[r == 0.0] = 0.5
    np.subtract(r, 0.5, out=r)  # u
    sign = np.sign(r, out=np.empty_like(r))
    np.multiply(b, sign, out=sign)
    np.multiply(-2.0, np.abs(r, out=r), out=r)
    return np.multiply(sign, np.log1p(r, out=r), out=r)


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
