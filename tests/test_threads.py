"""One owner for the library's threads: a draw and a fit start threads only
past one CPU, and a sweep worker (``_kernels.one_thread``) starts none.

Each check runs in a child interpreter, whose pool is not yet built, and
patches the modules there for good. On a host of one CPU (``taskset -c 0``)
both children run every block and product on the calling thread.
"""

import hashlib
import threading

from dpsparse import (
    ConstantStep,
    EstimatorConfig,
    EstimatorKind,
    PrivacyParams,
    SyntheticConfig,
    fit_many,
    generate_synthetic,
    sampling,
)
from dpsparse import _kernels

# test_sampling's small_blocks shapes: at d = 8, block 0 holds 256 // 8 = 32
# rows and every later block 4, so this draw spans 74 blocks.
BLOCK_ENTRIES = 256
BLOCK_DRAW = SyntheticConfig(n=10 * 32 + 7, d=8, s_star=3, zeta=0.5, seed=5)
# Folds of 250 x 2048, whose products split at column 1536 on two CPUs or more.
FIT_DRAW = SyntheticConfig(n=2000, d=2048, s_star=5, seed=3)


def draw_digest(cfg):
    ds, beta_star = generate_synthetic(cfg)
    digest = hashlib.sha256()
    for part in (ds.x, ds.y, ds.row_peak, beta_star):
        digest.update(part.tobytes())
    return digest.hexdigest()


def draw_and_fit(worker):
    """A fit of FIT_DRAW's data and a draw of BLOCK_DRAW at the small blocks,
    after ``one_thread()`` when ``worker`` is set: the process's CPU count,
    the threads started, the streams whose generators were built off the
    calling thread, and the fit's and the draw's sha256."""
    if worker:
        _kernels.one_thread()
    ds, beta_star = generate_synthetic(FIT_DRAW)
    cfg = EstimatorConfig(
        s=10, T=8, K=5.0, L=10.0, schedule=ConstantStep(0.3), tau=1.0, response_clip=10.0, seed=9
    )
    requests = [(kind, cfg, PrivacyParams(5.0, FIT_DRAW.n ** -1.1)) for kind in EstimatorKind]
    fit = hashlib.sha256()
    for rep in fit_many(ds, requests, beta_star):
        fit.update(rep.estimate.beta.tobytes())
    generator, elsewhere = sampling.RngHandle.generator, []

    def spy(handle):
        if threading.current_thread() is not threading.main_thread():
            elsewhere.append(handle.stream)
        return generator(handle)

    sampling.RngHandle.generator = spy
    sampling._BLOCK_ENTRIES = BLOCK_ENTRIES
    draw = draw_digest(BLOCK_DRAW)
    return _kernels._cpu_count(), threading.active_count() - 1, elsewhere, fit.hexdigest(), draw


def test_a_sweep_worker_draws_every_block_on_its_one_thread(one_blas_thread, monkeypatch):
    cpus, started, elsewhere, _, draw = one_blas_thread("test_threads", "draw_and_fit", True)
    assert (cpus, started, elsewhere) == (1, 0, [])
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", BLOCK_ENTRIES)
    assert draw == draw_digest(BLOCK_DRAW)


def test_a_draw_and_a_fit_start_threads_only_past_one_cpu(one_blas_thread):
    cpus, started, elsewhere, fit, draw = one_blas_thread("test_threads", "draw_and_fit", False)
    if cpus == 1:
        assert started == 0 and elsewhere == []
    else:
        # The pool, one thread per CPU besides the calling one.
        assert 1 <= started <= cpus - 1
    assert [fit, draw] == one_blas_thread("test_threads", "draw_and_fit", True)[3:]
