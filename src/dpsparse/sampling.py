"""Seeded random sources and the synthetic heavy-tailed data generator.

Reproducibility contract: every draw flows through an SFC64 generator seeded
by ``SeedSequence([seed, stream])``, so identical (seed, stream) pairs yield
identical sequences for the same output version and numpy major version. What
numpy's SIMD loops and BLAS products make of them can depend on the platform
(``core.OUTPUT_VERSION``). Parallel trials take distinct stream ids.

Synthetic features are drawn in row blocks, each from its own stream, on
``_kernels``' threads (a sweep worker's one thread; see ``generate_synthetic``),
so the bytes do not depend on the thread count, and the features of an n-row
draw are the first n rows of any larger draw with the same seed, d and s_star.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Dataset, _adopt, check_fields
from .errors import InvalidConfigError, InvalidParameterError

# (tail index -> Student-t degrees of freedom) anchors; other tail indices use
# the linear rule nu = 1 + 2 * zeta.
_ZETA_NU_ANCHORS = {0.5: 1.75, 1.0: 3.0}

# Feature entries in row block 0 of a synthetic draw (32 MiB of float64); each
# later block holds an eighth of that (4 MiB).
_BLOCK_ENTRIES = 1 << 22
# Feature entries per row chunk within a block (256 KiB of float64): a chunk
# is still in the L2 cache when its row peaks are taken.
_CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class RngHandle:
    """A (seed, stream) pair naming one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        m = 0xFFFFFFFFFFFFFFFF
        return np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([self.seed & m, self.stream & m]))
        )


def _as_generator(rng: RngHandle | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngHandle):
        return rng.generator()
    return rng


def nu_from_zeta(zeta: float) -> float:
    """Map the tail index to Student-t degrees of freedom.

    The anchors 0.5 -> 1.75 and 1.0 -> 3.0 are honored exactly; other values
    interpolate with nu = 1 + 2 * zeta.
    """
    if not (0.0 < zeta <= 1.0):
        raise InvalidParameterError(f"zeta must lie in (0, 1], got {zeta}")
    if zeta in _ZETA_NU_ANCHORS:
        return _ZETA_NU_ANCHORS[zeta]
    return 1.0 + 2.0 * zeta


def student_t(
    nu: float,
    rng: RngHandle | np.random.Generator,
    size: int | tuple[int, ...] | None = None,
):
    """Draw Student-t variates as standard normal over sqrt(chi^2(nu)/nu)."""
    if not nu > 1:
        raise InvalidParameterError(f"degrees of freedom must exceed 1, got {nu}")
    gen = _as_generator(rng)
    z = gen.standard_normal(size)
    chi2 = gen.chisquare(nu, size)
    draws = z / np.sqrt(chi2 / nu)
    return float(draws) if size is None else draws


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic sparse linear model with Student-t noise."""

    n: int
    d: int
    s_star: int
    zeta: float = 1.0
    beta_scale: float = 1.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.s_star > self.d:
            raise InvalidConfigError(f"s_star must be at most d={self.d}, got {self.s_star}")

    @property
    def nu(self) -> float:
        return nu_from_zeta(self.zeta)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, np.ndarray]:
    """Generate (dataset, true coefficients) for y = <x, beta*> + eps.

    Features are i.i.d. standard Gaussian. beta* has exactly s_star nonzeros
    at uniformly chosen distinct indices with values beta_scale * N(0, 1).
    Noise is noise_scale * Student-t(nu(zeta)). y reads only the s_star
    support columns of x: y = x[:, support] @ values + noise.

    The features fill row blocks in place: block 0 is rows [0, R) with
    R = max(1, _BLOCK_ENTRIES // d), and the rows after it are cut into
    blocks of r = max(1, (_BLOCK_ENTRIES >> 3) // d) rows, so block k >= 1
    is rows [R + (k-1)r, R + kr) (the last one may be short). Stream 0 of
    the config seed draws, in this order, the support, the values, block 0
    and the noise; block k >= 1 is the whole of stream k. ``_kernels``'
    ``_run_blocks`` fills the blocks, one per CPU at once, and returns when
    all are filled: the calling thread fills block 0 and draws the noise,
    the longest task, while the short later blocks keep every other thread
    busy until it ends. A thread fills its block in row chunks of
    ``_CHUNK_ENTRIES // d`` rows (at least one), which draw the bytes of one
    whole-block call, and takes each chunk's row peaks while the chunk is in
    cache; the dataset's finiteness check then reads those peaks, not x.
    Every block has its own generator, so the output is a deterministic
    function of the config whatever the thread count, and the features of a
    draw are a row prefix of any larger draw at the same seed, d and s_star
    (its noise is not).
    """
    gen = RngHandle(cfg.seed, stream=0).generator()
    support = np.sort(gen.choice(cfg.d, size=cfg.s_star, replace=False))
    values = cfg.beta_scale * gen.standard_normal(cfg.s_star)
    beta_star = np.zeros(cfg.d)
    beta_star[support] = values
    x = np.empty((cfg.n, cfg.d))
    row_peak = np.empty(cfg.n)
    rows = max(1, _BLOCK_ENTRIES // cfg.d)
    later = max(1, (_BLOCK_ENTRIES >> 3) // cfg.d)
    chunk = max(1, _CHUNK_ENTRIES // cfg.d)
    # Block k is rows [bounds[k], bounds[k + 1]).
    bounds = [0, *range(min(rows, cfg.n), cfg.n, later), cfg.n]
    blocks = len(bounds) - 1

    def fill(k: int) -> np.ndarray | None:
        """Fill block k; block 0 then returns the noise, which ends stream 0."""
        block_gen = gen if k == 0 else RngHandle(cfg.seed, stream=k).generator()
        end = bounds[k + 1]
        for start in range(bounds[k], end, chunk):
            stop = min(start + chunk, end)
            part = block_gen.standard_normal(out=x[start:stop])
            np.maximum(part.max(axis=1), -part.min(axis=1), out=row_peak[start:stop])
        if k > 0:
            return None
        if cfg.noise_scale > 0:
            return cfg.noise_scale * student_t(cfg.nu, gen, size=cfg.n)
        return np.zeros(cfg.n)

    # numpy releases the GIL while it fills a block.
    noise = _kernels._run_blocks(fill, blocks)
    with _kernels.blas_pinned():
        y = x.take(support, axis=1) @ values + noise
    # x and y are fresh and held nowhere else: check and freeze them in place.
    return _adopt(x, y, row_peak), beta_star
