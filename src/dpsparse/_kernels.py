"""Hot numeric kernels: per-fold gradients and the peeling selection loop.

Plain vectorized numpy: each gradient is two BLAS matrix-vector products,
and selection is one argmax over d per round. All kernels are deterministic
given their inputs; randomness (noise matrices) is drawn by callers. Callers
reach the kernels through this module's attributes.
"""

from __future__ import annotations

import numpy as np


def huber_grad(xc: np.ndarray, y: np.ndarray, beta: np.ndarray, tau: float) -> np.ndarray:
    r = y - xc @ beta
    w = np.clip(r, -tau, tau)
    return -(xc.T @ w) / xc.shape[0]


def l1_grad(x_sign: np.ndarray, xc: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    signs = np.sign(x_sign @ beta - y)
    return (xc.T @ signs) / xc.shape[0]


def squared_grad(xc: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    r = xc @ beta - y
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
