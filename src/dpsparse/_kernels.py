"""Hot numeric kernels: per-fold gradients and the peeling selection loop.

Plain vectorized numpy. Each gradient takes its residual from
``support_matvec``, which reads only the columns of the features where beta is
nonzero (at most s of them after hard thresholding, none at beta = 0), and
then makes one dense BLAS matrix-vector product with the transposed features.
Selection is one argmax over d per round. All kernels are deterministic
given their inputs; randomness (noise matrices) is drawn by callers. Callers
reach the kernels through this module's attributes.
"""

from __future__ import annotations

import numpy as np


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


def peel_select(absv: np.ndarray, noise: np.ndarray) -> np.ndarray:
    d = absv.shape[0]
    s = noise.shape[0]
    selected = np.empty(s, dtype=np.int64)
    taken = np.zeros(d, dtype=bool)
    for i in range(s):
        scores = absv + noise[i]
        scores[taken] = -np.inf
        j = int(np.argmax(scores))  # argmax takes the lowest index on ties
        selected[i] = j
        taken[j] = True
    return selected


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
