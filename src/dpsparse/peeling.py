"""Iterative top-s selection with Laplace perturbation.

One call performs s selection rounds. Round i draws a fresh d-dimensional
Laplace noise vector w_i, picks the unselected index maximizing |v_j| + w_ij
(ties break to the lowest index), then a final noise vector perturbs the kept
entries. With the noise scale at zero this is exactly hard thresholding onto
the s largest-magnitude entries, which is computed directly.

With noise, the s x d selection uniforms are drawn sparsely, with the law of
the dense block. Outside the s columns ``top`` of largest |v| (as
``np.argpartition(|v|, d - s - 1)`` takes them), each uniform is a hit (at
or below t0 = min(1/2, 8/d)) with chance t0, independently: one peel draws,
in this order from one generator,

1. the hit positions in the round-major s x (d - s) block of the other
   columns, in ascending order, by geometric gaps (``_hit_positions``);
2. one sequence of uniforms: t0 * U for each hit in position order, then
   U for the s x s top-column entries, round-major, in ``top``'s order
   (steps 1 and 2 are ``_selection_uniforms``);
3. for each round whose winner the candidates cannot certify, in round
   order, a full row t0 + (1 - t0) * U (its candidates' uniforms are then
   written in), inside ``_kernels.peel_select``;
4. the s value-noise draws, in selection order.

When d = s every column is in ``top`` and there are no hits. Conditional on
the hit pattern every other uniform is U(t0, 1), so this is
exact in law. ``peel_select`` and ``_kernels._candidates`` state the
certificate that makes the selection that of the whole block, bit for bit.
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
    d = v.shape[0]
    absv = np.abs(v)
    if b > 0.0:
        if rng is None:
            raise InvalidConfigError("peel with positive noise scale needs an rng")
        gen = _as_generator(rng)
        t0 = _kernels.hit_rate(d)
        pos, u = _selection_uniforms(gen, s, d)
        selected = _kernels.peel_select(
            absv, s, pos, u, b, lambda i: t0 + (1.0 - t0) * gen.random(d)
        )
        kept = v[selected] + _kernels._laplace_icdf(gen.random(s), b)
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


def _selection_uniforms(gen: np.random.Generator, s: int, d: int):
    """Steps 1 and 2 of a peel's draw: (hit positions, uniforms), the hits'
    uniforms scaled onto [0, t0) and followed by the top columns'."""
    t0 = _kernels.hit_rate(d)
    pos = _hit_positions(gen, s * (d - s), t0)
    u = gen.random(pos.size + s * s)
    u[: pos.size] *= t0
    return pos, u


def _hit_positions(gen: np.random.Generator, n: int, t0: float) -> np.ndarray:
    """The ascending positions in [0, n) of independent Bernoulli(t0) hits.

    The gaps between hits are geometric: drawn in one chunk sized to cover n
    with high probability, then in further chunks until the last position
    reaches n.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mu = n * t0
    pos = np.cumsum(gen.geometric(t0, size=int(mu + 4 * math.sqrt(mu) + 16))) - 1
    while pos[-1] < n:
        more = pos[-1] + np.cumsum(gen.geometric(t0, size=int(mu) + 16))
        pos = np.concatenate((pos, more))
    return pos[: np.searchsorted(pos, n)]
