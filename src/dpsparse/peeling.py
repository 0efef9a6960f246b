"""Iterative top-s selection with Laplace perturbation.

One call performs s selection rounds. Round i draws a fresh d-dimensional
Laplace noise vector, picks the unselected index maximizing |v_j| + w_ij
(ties break to the lowest index), then a final noise vector perturbs the kept
entries. With the noise scale at zero this reduces exactly to hard
thresholding onto the s largest-magnitude entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidConfigError
from .sampling import RngHandle, _as_generator, _laplace_fill


@dataclass(frozen=True)
class PeelingParams:
    """Selection size, privacy budget and per-entry sensitivity scale.

    ``epsilon=None`` is the non-private sentinel: the derived noise scale is
    exactly zero and no randomness is consumed.
    """

    s: int
    epsilon: float | None
    delta: float
    lam: float

    def __post_init__(self):
        problems = []
        if self.s < 1:
            problems.append(f"s must be >= 1, got {self.s}")
        if self.epsilon is not None and not self.epsilon > 0:
            problems.append(f"epsilon must be > 0, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            problems.append(f"delta must lie in (0, 1), got {self.delta}")
        if self.lam < 0:
            problems.append(f"lam must be >= 0, got {self.lam}")
        if problems:
            raise InvalidConfigError("; ".join(problems))

    @property
    def is_private(self) -> bool:
        return self.epsilon is not None


def noise_scale(params: PeelingParams) -> float:
    """Laplace scale b = 2 * lam * sqrt(3 * s * ln(1/delta)) / epsilon.

    Returns exactly 0 in non-private mode (and whenever lam is 0). Logs are
    natural throughout.
    """
    if not params.is_private or params.lam == 0.0:
        return 0.0
    return 2.0 * params.lam * math.sqrt(3.0 * params.s * math.log(1.0 / params.delta)) / params.epsilon


def peel(
    v: np.ndarray,
    params: PeelingParams,
    rng: RngHandle | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy top-s selection: returns (selected values + noise, support).

    The output vector equals v on the selected support plus a fresh Laplace
    perturbation there, and is exactly zero elsewhere. The support always has
    exactly s indices and is returned sorted.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidConfigError(f"peel expects a vector, got shape {v.shape}")
    d = v.shape[0]
    if params.s > d:
        raise InvalidConfigError(f"s={params.s} exceeds vector length {d}")
    noise = np.empty((params.s + 1, d))
    return _peel(v, params, rng, noise, np.empty_like(noise))


def _peel(
    v: np.ndarray,
    params: PeelingParams,
    rng: RngHandle | np.random.Generator | None,
    noise: np.ndarray,
    scratch: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    # The body of peel for a checked float64 vector v. ``noise`` is an
    # (s+1) x d C-contiguous work array that is overwritten; ``scratch``, of
    # the same shape, is needed only when the noise scale is positive. A fit
    # passes the same two arrays to every iteration.
    b = noise_scale(params)
    if b > 0.0:
        if rng is None:
            raise InvalidConfigError("peel with positive noise scale needs an rng")
        # Rows 0..s-1 are the per-round selection noise, row s the value noise;
        # one block draw matches s+1 sequential d-sized draws in row order.
        _laplace_fill(b, _as_generator(rng), noise, scratch)
    else:
        noise.fill(0.0)
    selected = _kernels.peel_select(np.abs(v), noise[: params.s])
    out = np.zeros(v.shape[0])
    out[selected] = v[selected] + noise[params.s, selected]
    return out, np.sort(selected)
