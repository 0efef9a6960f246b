"""Hot numeric kernels: per-fold gradients and the peeling selection loop.

Plain vectorized numpy. Each gradient takes its residual from
``support_matvec``, which reads only the columns of the features where beta is
nonzero (at most s of them after hard thresholding, none at beta = 0), and
then makes one dense BLAS matrix-vector product with the transposed features.
Selection scores a few candidates per round and falls back to one argmax over
d only when it cannot certify the winner (see ``peel_select``). All kernels
are deterministic given their inputs; randomness (the uniform block that the
selection noise comes from) is drawn by callers. Callers reach the kernels
through this module's attributes.
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import _laplace_icdf


def support_matvec(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta`` from the m x s block of the columns where beta is nonzero.

    Equal to the dense product up to the order of the floating-point sums.
    """
    nz = np.flatnonzero(beta)
    return x.take(nz, axis=1) @ beta[nz]


def huber_grad(xc: np.ndarray, y: np.ndarray, beta: np.ndarray, tau: float) -> np.ndarray:
    r = y - support_matvec(xc, beta)
    w = np.clip(r, -tau, tau)
    return -(xc.T @ w) / xc.shape[0]


def l1_grad(x_sign: np.ndarray, xc: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    signs = np.sign(support_matvec(x_sign, beta) - y)
    return (xc.T @ signs) / xc.shape[0]


def squared_grad(xc: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    r = support_matvec(xc, beta) - y
    return (xc.T @ r) / xc.shape[0]


# A uniform at or below Q/d joins its round's candidates: about Q per row,
# besides the s largest |v|.
_Q = 8
# Slack on the certificate's floor, relative and absolute: far above the few
# roundings in a score (the inverse-CDF map, one product, one sum), subnormal
# ones included.
_REL_MARGIN = 1e-12
_ABS_MARGIN = np.finfo(np.float64).tiny


def peel_select(absv: np.ndarray, uniforms: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The noise of one peel from its (s+1) x d uniforms: (selected, value noise).

    Rows 0..s-1 drive s report-noisy-max rounds. Round i scores each index j
    not yet taken as absv[j] + w_ij, with w_ij = _laplace_icdf(uniforms[i, j],
    b), and takes the highest score, ties to the lowest index. Row s gives
    the value noise, returned at the selected indices in selection order.
    Only the candidates of ``_candidates`` are scored, and a round whose best
    candidate does not clear the floor runs ``_dense_round`` over all d
    indices instead. Every draw, scored or kept, goes through the one map
    ``_laplace_icdf``, so the result is the dense selection's, bit for bit.
    ``uniforms`` is a work array: the call may overwrite it.
    """
    s, d = uniforms.shape[0] - 1, uniforms.shape[1]
    selected = np.empty(s, dtype=np.int64)
    taken = np.zeros(d, dtype=bool)
    flat, bounds, floor = _candidates(absv, uniforms[:s], b)
    cols = flat % d
    # One map call: the candidates' draws, then row s at the same columns.
    w = _laplace_icdf(uniforms.take(np.concatenate((flat, cols + s * d))), b)
    scores, value = absv[cols] + w[: flat.size], w[flat.size :]
    noise = np.empty(s)
    bounds = bounds.tolist()
    for i in range(s):
        lo, hi = bounds[i], bounds[i + 1]
        c, sc = cols[lo:hi], scores[lo:hi]
        sc[taken[c]] = -np.inf
        k = sc.argmax()  # candidates ascend, so ties go to the lowest index
        if sc[k] > floor:
            j, noise[i] = c[k], value[lo + k]
        else:
            j = _dense_round(absv, _laplace_icdf(uniforms[i], b), taken)
            noise[i] = _laplace_icdf(uniforms[s, j : j + 1].copy(), b)[0]
        selected[i] = j
        taken[j] = True
    return selected, noise


def _candidates(absv: np.ndarray, uniforms: np.ndarray, b: float):
    """Each round's candidates and the floor that certifies a round's winner.

    Returns (flat, bounds, floor): ``flat`` holds the flat indices into
    ``uniforms`` of the candidates, in ascending order, with round i's at
    flat[bounds[i]:bounds[i + 1]]. Round i's candidates are the s indices
    of largest absv and every j with uniforms[i, j] <= t0 = min(1/2, Q/d).
    Any other index j has absv[j] <= a_rest, the largest absv outside the
    s, and a draw below b * ln(1 / (2 t0)), as the map decreases in r. So
    its score is below a_rest + b * ln(1 / (2 t0)), which ``floor`` bounds
    with slack for rounding: a candidate scoring above ``floor`` beats every
    index that is not a candidate.
    """
    s, d = uniforms.shape
    t0 = min(0.5, _Q / d)
    hits = uniforms <= t0
    if d > s:
        part = np.argpartition(absv, d - s - 1)
        hits[:, part[d - s :]] = True
        a_rest = absv[part[d - s - 1]]
    else:
        hits[:] = True
        a_rest = -np.inf
    flat = np.flatnonzero(hits)
    bounds = np.searchsorted(flat, np.arange(s + 1) * d)
    floor = (a_rest - b * math.log(2.0 * t0)) * (1.0 + _REL_MARGIN) + _ABS_MARGIN
    return flat, bounds, floor


def _dense_round(absv: np.ndarray, noise_row: np.ndarray, taken: np.ndarray) -> int:
    # One round over all d indices: the selection as defined.
    scores = absv + noise_row
    scores[taken] = -np.inf
    return int(np.argmax(scores))  # argmax takes the lowest index on ties


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
