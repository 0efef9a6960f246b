"""fit_many: fits of one dataset in lockstep, each with the bytes it has alone."""

import dataclasses

import numpy as np
import pytest

from dpsparse import (
    ConstantStep,
    DpSparseError,
    EstimatorConfig,
    EstimatorKind,
    ExperimentBase,
    InvalidConfigError,
    InvalidParameterError,
    NumericalFailureError,
    PrivacyParams,
    SweepSpec,
    SyntheticConfig,
    TwoPhaseStep,
    fit_estimator,
    fit_many,
    generate_synthetic,
    run_sweep,
)
from dpsparse import _kernels, sampling
from dpsparse.core import l2_error, project_l2, split_folds
from dpsparse.estimators import ESTIMATORS, _loss
from dpsparse.losses import batch_gradient
from dpsparse.peeling import noise_scale, peel
from dpsparse.sampling import RngHandle

H = EstimatorKind.DP_IHT_H
L = EstimatorKind.DP_IHT_L
ADA = EstimatorKind.ADA_HUBER_LITE
SLR = EstimatorKind.DP_SLR_LITE
PRIV = PrivacyParams(2.0, 1e-3)


def config(seed, **kwargs):
    defaults = dict(
        s=3, T=6, K=3.0, L=10.0, schedule=ConstantStep(0.3), tau=1.5, response_clip=8.0,
        seed=seed,
    )
    defaults.update(kwargs)
    return EstimatorConfig(**defaults)


def reference_fit(kind, ds, cfg, priv, beta_star):
    """The per-fit loop, one fit at a time: the oracle for the lockstep loop."""
    spec = ESTIMATORS[kind]
    if not spec.private:
        priv = PrivacyParams.non_private()
    folds = split_folds(ds, cfg.T)
    gen = RngHandle(cfg.seed, stream=0).generator() if priv.is_private else None
    beta, trace = np.zeros(ds.d), []
    for t in range(cfg.T):
        eta = cfg.schedule.step(t)
        half = beta - eta * batch_gradient(folds[t], beta, _loss(kind, cfg), cfg.K)
        b = noise_scale(spec.lam(cfg, eta, folds[0].n), cfg.s, priv) if priv.is_private else 0.0
        peeled, support = peel(half, cfg.s, b, gen)
        beta = project_l2(peeled, cfg.L)
        trace.append(l2_error(beta, beta_star))
    return beta, support, trace


def solo(kind, ds, cfg, priv, beta_star):
    try:
        return fit_estimator(kind, ds, cfg, priv, beta_star)
    except DpSparseError as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, DpSparseError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.estimate.beta.tobytes() == want.estimate.beta.tobytes()
    assert got.estimate.support.tobytes() == want.estimate.support.tobytes()
    assert got.estimate.trace == want.estimate.trace
    assert got.iterations_run == want.iterations_run


@pytest.fixture(scope="module")
def data():
    return generate_synthetic(SyntheticConfig(n=360, d=40, s_star=3, zeta=0.5, seed=21))


def test_fit_many_matches_solo_fits_byte_for_byte(data):
    ds, beta_star = data
    two_phase = TwoPhaseStep(eta0=0.5, decay=0.2, switch_iter=3, eta_const=0.1)
    # Past its switch the step overflows the half-step: a failure part-way.
    blows_up = TwoPhaseStep(eta0=0.3, decay=0.1, switch_iter=2, eta_const=1e308)
    requests = [
        # A subnormal epsilon overflows the noise scale at iteration 0.
        (L, config(7), PrivacyParams(1e-320, 1e-3)),
        (H, config(1), PRIV),
        (L, config(2, schedule=two_phase), PRIV),
        (SLR, config(8, schedule=blows_up, K=None), PrivacyParams.non_private()),
        (ADA, config(3), PRIV),
        (SLR, config(4), PRIV),
        # A second T group, sharing none of the first group's folds.
        (H, config(5, T=9), PRIV),
        # A fit that cannot start: s > d.
        (H, config(9, s=41), PRIV),
        (SLR, config(6, T=9), PrivacyParams(0.5, 1e-4)),
    ]
    results = fit_many(ds, requests, beta_star)
    assert len(results) == len(requests)
    for (kind, cfg, priv), got in zip(requests, results):
        assert_same(got, solo(kind, ds, cfg, priv, beta_star))
    assert isinstance(results[0], InvalidParameterError) and "epsilon=1e-320" in str(results[0])
    assert isinstance(results[3], NumericalFailureError) and 0 < results[3].iteration < 6
    assert isinstance(results[7], InvalidConfigError)
    for i, (kind, cfg, priv) in enumerate(requests):
        if i not in (0, 3, 7):
            beta, support, trace = reference_fit(kind, ds, cfg, priv, beta_star)
            assert results[i].estimate.beta.tobytes() == beta.tobytes()
            assert results[i].estimate.support.tobytes() == np.sort(support).tobytes()
            assert results[i].estimate.trace == trace


def test_fit_many_without_beta_star_keeps_no_trace(data):
    ds, _ = data
    results = fit_many(ds, [(H, config(1), PRIV), (ADA, config(2), PRIV)])
    assert [r.estimate.trace for r in results] == [None, None]
    assert fit_many(ds, []) == []


def test_fit_estimator_raises_its_fits_error(data):
    ds, _ = data
    with pytest.raises(InvalidParameterError, match="epsilon=1e-320"):
        fit_estimator(H, ds, config(1), PrivacyParams(1e-320, 1e-3))


def test_a_programming_error_in_one_fit_propagates(data, monkeypatch):
    def broken(cfg, eta, m):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(ESTIMATORS, SLR, dataclasses.replace(ESTIMATORS[SLR], lam=broken))
    ds, _ = data
    with pytest.raises(TypeError, match="unsupported operand"):
        fit_many(ds, [(H, config(1), PRIV), (SLR, config(2), PRIV), (ADA, config(3), PRIV)])


@pytest.mark.parametrize("axis, values", [("epsilon", (0.5, 4.0)), ("n", (200, 300))])
def test_adding_an_estimator_leaves_the_other_rows_bytes(axis, values):
    base = ExperimentBase(
        synthetic=SyntheticConfig(n=300, d=30, s_star=3, zeta=0.5, seed=5), eta=0.3, T=5
    )

    def rows(estimators):
        spec = SweepSpec(axis=axis, values=values, base=base, repeats=2, estimators=estimators)
        return {
            (r.value, r.repeat, r.estimator): (repr(r.l2_error), repr(r.mae), r.status)
            for r in run_sweep(spec, workers=1).rows
        }

    alone = rows((H,))
    together = rows(tuple(EstimatorKind))
    assert len(together) == 4 * len(alone)
    assert all(status == "ok" for _, _, status in together.values())
    assert {key: together[key] for key in alone} == alone


# Row peaks taken as the blocks are drawn -----------------------------------


def small_blocks(monkeypatch, block_entries, chunk_entries):
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", chunk_entries)


@pytest.mark.parametrize(
    "n, d", [(200, 30), (7, 200), (1, 5)], ids=["many-blocks", "row-per-chunk", "one-row"]
)
def test_fused_row_peaks_equal_a_recomputation(monkeypatch, n, d):
    # At d=30, a 33-row block 0 and 4-row later blocks, the last one 3 rows,
    # in 2-row chunks: blocks and chunks both end part-way.
    small_blocks(monkeypatch, 1000, 64)
    ds, _ = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=2, seed=3))
    recomputed = np.maximum(ds.x.max(axis=1), -ds.x.min(axis=1))
    assert ds.row_peak.tobytes() == recomputed.tobytes()
    assert not ds.row_peak.flags.writeable


def test_chunked_threaded_and_serial_draws_give_equal_bytes(monkeypatch):
    cfg = SyntheticConfig(n=200, d=30, s_star=2, zeta=0.5, seed=4)

    def draw():
        ds, beta_star = generate_synthetic(cfg)
        return ds.x.tobytes(), ds.y.tobytes(), ds.row_peak.tobytes(), beta_star.tobytes()

    small_blocks(monkeypatch, 1000, 64)
    chunked = draw()
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 1)
    assert draw() == chunked
    # One chunk per block: each block drawn by one whole-block call.
    small_blocks(monkeypatch, 1000, 1000)
    assert draw() == chunked
