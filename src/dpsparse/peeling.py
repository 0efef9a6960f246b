"""Iterative top-s selection with Laplace perturbation.

One call performs s selection rounds. Round i draws a fresh d-dimensional
Laplace noise vector w_i, picks the unselected index maximizing |v_j| + w_ij
(ties break to the lowest index), then a final noise vector perturbs the kept
entries. With the noise scale at zero this is exactly hard thresholding onto
the s largest-magnitude entries, which is computed directly.

With noise, the (s+1) x d uniforms behind the draws are drawn as one block,
and ``_kernels.peel_select`` turns into Laplace draws only the entries that
can win a round or are kept. ``peel_select`` and ``_kernels._candidates``
state the certificate that makes this the dense selection, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .core import PrivacyParams, is_int
from .errors import InvalidConfigError, InvalidInputError, InvalidParameterError
from .sampling import RngHandle, _as_generator


def noise_scale(lam: float, s: int, priv: PrivacyParams) -> float:
    """Laplace scale b = 2 * lam * sqrt(3 * s * ln(1/delta)) / epsilon.

    ``lam`` >= 0 is the per-entry sensitivity and ``s`` the selection size.
    Returns exactly 0 in non-private mode (and whenever lam is 0). Logs are
    natural throughout. A scale that overflows to a non-finite value (say,
    at a subnormal epsilon) raises InvalidParameterError.
    """
    if not priv.is_private or lam == 0.0:
        return 0.0
    b = 2.0 * lam * math.sqrt(3.0 * s * math.log(1.0 / priv.delta)) / priv.epsilon
    if not math.isfinite(b):
        raise InvalidParameterError(
            f"noise scale b={b} is not finite at epsilon={priv.epsilon!r} (lam={lam}, s={s})"
        )
    return b


def peel(
    v: np.ndarray,
    s: int,
    b: float,
    rng: RngHandle | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy top-s selection at Laplace scale ``b``: (selected values + noise, support).

    The output vector equals v on the selected support plus a fresh Laplace
    perturbation there, and is exactly zero elsewhere. The support always has
    exactly s indices and is returned sorted. ``b`` is usually
    ``noise_scale(lam, s, priv)``; ``rng`` is needed only when b > 0.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidConfigError(f"peel expects a vector, got shape {v.shape}")
    if not (is_int(s) and 1 <= s <= v.shape[0]):
        raise InvalidConfigError(f"s must be a positive integer <= {v.shape[0]}, got {s!r}")
    if not (b >= 0 and math.isfinite(b)):
        raise InvalidParameterError(f"scale b must be finite and >= 0, got {b}")
    if not np.isfinite(v).all():
        raise InvalidInputError("peel requires finite input")
    return _peel(v, s, b, rng)


def _peel(
    v: np.ndarray,
    s: int,
    b: float,
    rng: RngHandle | np.random.Generator | None,
    uniforms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    # The body of peel for a checked finite float64 vector v. When b > 0,
    # ``uniforms`` is an (s+1) x d C-contiguous work array that is
    # overwritten (allocated here when None); a private fit passes the same
    # array to every iteration. At b == 0 it is not touched.
    d = v.shape[0]
    absv = np.abs(v)
    if b > 0.0:
        if rng is None:
            raise InvalidConfigError("peel with positive noise scale needs an rng")
        if uniforms is None:
            uniforms = np.empty((s + 1, d))
        # Rows 0..s-1 drive the selection rounds, row s the value noise; one
        # block draw matches s+1 sequential d-sized draws in row order.
        _as_generator(rng).random(out=uniforms)
        selected, noise = _kernels.peel_select(absv, uniforms, b)
        kept = v[selected] + noise
    else:
        # The s rounds without noise keep every entry above the s-th largest
        # magnitude, then the lowest-index entries equal to it.
        cut = np.partition(absv, d - s)[d - s]
        above = np.flatnonzero(absv > cut)
        selected = np.concatenate((above, np.flatnonzero(absv == cut)[: s - above.size]))
        # + 0.0 maps -0.0 to 0.0: the same bits as adding a row of zero noise.
        kept = v[selected] + 0.0
    out = np.zeros(d)
    out[selected] = kept
    return out, np.sort(selected)
