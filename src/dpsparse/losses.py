"""Pointwise losses and the per-fold gradients used inside the IHT updates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Dataset, check_fields
from .errors import InvalidInputError


@dataclass(frozen=True)
class Huber:
    """Quadratic below tau, linear beyond; derivative bounded by tau."""

    tau: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class AbsoluteL1:
    """Absolute loss; subgradient is the residual sign, read from the
    unclipped features unless ``sign_on_clipped``."""

    sign_on_clipped: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Squared:
    """Squared loss on responses clipped to [-response_clip, response_clip],
    used by the light-tail baseline."""

    response_clip: float

    def __post_init__(self):
        check_fields(self)


LossKind = Huber | AbsoluteL1 | Squared


@_kernels.blas_pinned()
def batch_gradient(fold: Dataset, beta: np.ndarray, kind: LossKind, K: float | None) -> np.ndarray:
    """Mean per-sample gradient of the chosen loss over one fold.

    Features are clipped entrywise at K before entering the gradient (K=None
    skips clipping). The clip is made only when the fold holds an entry
    beyond K, read from its row peaks; on any other fold it would return the
    features unchanged, so the kernels read the fold in place and the result
    has the same bytes. For the absolute loss the residual sign is computed on
    the unclipped features unless the loss sets ``sign_on_clipped``, while
    the clipped features multiply the sign. The squared loss clips the
    responses at its ``response_clip``. Every per-sample gradient coordinate
    is bounded by tau*K (Huber) or K (l1).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if fold.n < 1:
        raise InvalidInputError("batch_gradient requires a nonempty fold")
    if beta.shape != (fold.d,):
        raise InvalidInputError(f"beta must have shape ({fold.d},), got {beta.shape}")
    if K is not None and not K > 0:
        raise InvalidInputError(f"clip level K must be > 0, got {K}")
    # A fold's arrays were checked finite and frozen when its Dataset was
    # built, and a row view of them is C-contiguous: clip at most once,
    # without re-checking, and hand the views to the kernels as they are.
    xc = fold.x
    if K is not None and fold.row_peak.max() > K:
        xc = np.clip(fold.x, -K, K)
    if isinstance(kind, Huber):
        return _kernels.huber_grad(xc, fold.y, beta, kind.tau)
    if isinstance(kind, AbsoluteL1):
        x_sign = xc if kind.sign_on_clipped else fold.x
        return _kernels.l1_grad(x_sign, xc, fold.y, beta)
    if isinstance(kind, Squared):
        R = kind.response_clip
        return _kernels.squared_grad(xc, np.clip(fold.y, -R, R), beta)
    raise InvalidInputError(f"unknown loss kind: {kind!r}")


def default_clip_level(d: int) -> float:
    """Default feature clip level: natural log of the dimension."""
    if d < 1:
        raise InvalidInputError(f"d must be >= 1, got {d}")
    return math.log(d) if d > 1 else 1.0
