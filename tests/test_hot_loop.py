"""Allocation-free IHT hot loop: the feature clip runs only on folds that hold
an entry beyond K, the selection noise is drawn into one workspace per fit,
and generated data is not copied. None of it may change an output bit.

The digests are pinned per output version, on a problem in which some folds
hold entries beyond K and the others do not.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dpsparse import (
    OUTPUT_VERSION,
    AbsoluteL1,
    ConstantStep,
    Dataset,
    EstimatorConfig,
    EstimatorKind,
    Huber,
    PrivacyParams,
    Squared,
    SyntheticConfig,
    batch_gradient,
    fit_estimator,
    generate_synthetic,
    laplace,
    noise_scale,
    peel,
    split_folds,
)
from dpsparse import _kernels, estimators
from dpsparse.peeling import _peel
from dpsparse.sampling import RngHandle, _laplace_icdf

N, D, T = 600, 50, 13
K = math.log(D)
M = N // T
# (row, column, value): entries beyond K in folds 1, 4 and 9 only, and one in
# a trailing row that no fold uses.
PLANTED = ((1 * M + 3, 7, 9.0), (4 * M + 10, 2, -12.0), (9 * M, 40, 5.5), (N - 1, 7, 20.0))
FOLDS_BEYOND_K = {1, 4, 9}

# output version -> estimator -> sha256 of (beta bytes, support as int64
# bytes). The digests of a version are recorded once, in the change that
# bumps OUTPUT_VERSION to it.
DIGESTS = {
    3: {
        "dp-iht-h": (
            "7c56628f19ccaa72500ad04fdef04342c0992c2265d0ac34d1570c69553df53b",
            "7ae721e2d13b6e466ac197a2cbac9cf9d859ef8a92030ee1517e30e45ab6b7a7",
        ),
        "dp-iht-l": (
            "e07bd28aa9567604cff987828882413279e31fc153f9953a67bb3d705c051100",
            "76de4d04f52355e6f4d6d0d507f7a4737cf3e65952d9902a8bca6e0960eeb47e",
        ),
        "ada-huber": (
            "fbabaa7796378f2783e1f6908939c42b19f91c42248d6d3b62253ede68e8273f",
            "7ae721e2d13b6e466ac197a2cbac9cf9d859ef8a92030ee1517e30e45ab6b7a7",
        ),
        "dp-slr": (
            "49bee3fe315c65acdcbb4d0e86ac378708f49a920b0cc2df738ac23646bc8b1f",
            "7ae721e2d13b6e466ac197a2cbac9cf9d859ef8a92030ee1517e30e45ab6b7a7",
        ),
    },
}


def mixed_problem():
    gen = RngHandle(20251018, stream=0).generator()
    x = 0.5 * gen.standard_normal((N, D))
    for i, j, v in PLANTED:
        x[i, j] = v
    beta_star = np.zeros(D)
    beta_star[[2, 7, 30]] = [1.5, -2.0, 1.0]
    y = x @ beta_star + gen.standard_t(1.75, N)
    cfg = EstimatorConfig(
        s=3, T=T, K=K, L=10.0, schedule=ConstantStep(0.05),
        tau=1.0, response_clip=10.0, seed=11,
    )
    # A large epsilon lets the selection follow the signal, so the planted
    # columns 2 and 7 stay selected and their clip reaches every fit's beta.
    return Dataset(x, y), cfg, PrivacyParams(epsilon=500.0, delta=N ** -1.1)


def test_mixed_problem_has_folds_on_both_clip_paths():
    ds, _, _ = mixed_problem()
    beyond = {t for t, fold in enumerate(split_folds(ds, T)) if np.abs(fold.x).max() > K}
    assert beyond == FOLDS_BEYOND_K


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
def test_fit_bytes_match_pinned_digests(kind):
    ds, cfg, priv = mixed_problem()
    est = fit_estimator(kind, ds, cfg, priv).estimate
    got = (
        hashlib.sha256(est.beta.tobytes()).hexdigest(),
        hashlib.sha256(est.support.astype(np.int64).tobytes()).hexdigest(),
    )
    assert got == DIGESTS[OUTPUT_VERSION][kind.value]


LOSSES = [
    (Huber(1.0), False),
    (AbsoluteL1(), False),
    (AbsoluteL1(), True),
    (Squared(), False),
]


def clipped_reference(fold, beta, kind, sign_on_clipped):
    xc = np.clip(fold.x, -K, K)
    if isinstance(kind, Huber):
        return _kernels.huber_grad(xc, fold.y, beta, kind.tau)
    if isinstance(kind, AbsoluteL1):
        return _kernels.l1_grad(xc if sign_on_clipped else fold.x, xc, fold.y, beta)
    return _kernels.squared_grad(xc, fold.y, beta)


@pytest.mark.parametrize("t", [0, 4], ids=["within-K", "beyond-K"])
@pytest.mark.parametrize("kind,sign_on_clipped", LOSSES, ids=["huber", "l1", "l1-sign-clipped", "squared"])
def test_batch_gradient_equals_explicit_clip(t, kind, sign_on_clipped):
    ds, _, _ = mixed_problem()
    fold = split_folds(ds, T)[t]
    beta = np.linspace(-1.0, 1.0, D)
    got = batch_gradient(fold, beta, kind, K, sign_on_clipped)
    want = clipped_reference(fold, beta, kind, sign_on_clipped)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t,in_place", [(0, True), (4, False)], ids=["within-K", "beyond-K"])
def test_kernel_reads_fold_in_place_only_within_K(monkeypatch, t, in_place):
    ds, _, _ = mixed_problem()
    fold = split_folds(ds, T)[t]
    seen = []
    kernel = _kernels.huber_grad

    def spy(xc, *args):
        seen.append(xc)
        return kernel(xc, *args)

    monkeypatch.setattr(_kernels, "huber_grad", spy)
    batch_gradient(fold, np.zeros(D), Huber(1.0), K)
    assert (seen[0] is fold.x) is in_place
    assert np.abs(seen[0]).max() <= K


def old_laplace(b, rng, size):
    # The draw as written before the workspace: one temporary per step.
    r = rng.generator().random(size)
    r = np.where(r == 0.0, 0.5, r)
    u = r - 0.5
    return b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


@pytest.mark.parametrize("size", [None, 7, (51, 1000)], ids=["scalar", "vector", "block"])
def test_laplace_keeps_the_bytes_of_the_plain_expression(size):
    rng = RngHandle(3, stream=9)
    got = np.asarray(laplace(0.37, rng, size))
    assert got.tobytes() == np.asarray(old_laplace(0.37, rng, size)).tobytes()


def test_laplace_through_a_reused_workspace_equals_the_public_call():
    # A private fit draws into one block per fit and maps it in place.
    out = np.full((51, 1000), np.nan)
    for stream in range(3):
        RngHandle(4, stream).generator().random(out=out)
        _laplace_icdf(out, 1.5)
        assert out.tobytes() == laplace(1.5, RngHandle(4, stream), size=(51, 1000)).tobytes()


@pytest.mark.parametrize("epsilon", [0.5, None], ids=["private", "non-private"])
def test_peel_through_a_reused_workspace_equals_the_public_call(epsilon):
    s, d = 4, 300
    b = noise_scale(0.02, s, PrivacyParams(epsilon=epsilon, delta=1e-3))
    uniforms = np.full((s + 1, d), np.nan)
    gen = np.random.default_rng(0)
    for stream in range(3):
        v = gen.standard_normal(d)
        rng = RngHandle(5, stream) if epsilon is not None else None
        got_v, got_s = _peel(v, s, b, rng, uniforms)
        want_v, want_s = peel(v, s, b, rng)
        assert got_v.tobytes() == want_v.tobytes()
        assert got_s.tobytes() == want_s.tobytes()


def test_private_fit_allocates_no_noise_block_per_iteration(monkeypatch):
    # d is large against the fold, so the only per-iteration allocations that
    # could reach (s+1) x d x 8 bytes are selection-noise arrays. Each
    # interval runs from one iteration's projection, when the previous peel
    # has returned and freed what it allocated, to the next iteration's
    # selection, when its uniforms have been drawn. The allocation peak over an
    # interval, above the memory held at its start, must stay below one block.
    n, d, s, iters = 17 * 20, 2000, 50, 17
    ds, _ = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=5, seed=1))
    cfg = EstimatorConfig(
        s=s, T=iters, K=math.log(d), L=10.0, schedule=ConstantStep(0.05), tau=1.0, seed=2
    )
    starts, rises = [], []
    project, select = estimators.project_l2, _kernels.peel_select

    def start_interval(v, L):
        starts.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return project(v, L)

    def end_interval(absv, uniforms, b):
        if starts:
            rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        return select(absv, uniforms, b)

    monkeypatch.setattr(estimators, "project_l2", start_interval)
    monkeypatch.setattr(_kernels, "peel_select", end_interval)
    tracemalloc.start()
    try:
        rep = fit_estimator(EstimatorKind.DP_IHT_H, ds, cfg, PrivacyParams(0.5, n ** -1.1))
    finally:
        tracemalloc.stop()
    assert rep.iterations_run == iters and len(rises) == iters - 1
    assert max(rises) < (s + 1) * d * 8


def test_zero_noise_fit_runs_no_selection_rounds_and_holds_no_noise_block(monkeypatch):
    # ada-huber adds no noise, so each peel takes the top s from one partition
    # threshold: no argmax rounds and no (s+1) x d workspace. The digests
    # above pin its bytes.
    def no_rounds(absv, uniforms, b):
        raise AssertionError("a zero-noise peel ran the selection rounds")

    monkeypatch.setattr(_kernels, "peel_select", no_rounds)
    n, d, s = 17 * 20, 2000, 50
    ds, _ = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=5, seed=1))
    cfg = EstimatorConfig(s=s, T=17, K=math.log(d), L=10.0, schedule=ConstantStep(0.05), tau=1.0)
    tracemalloc.start()
    try:
        rep = fit_estimator(EstimatorKind.ADA_HUBER_LITE, ds, cfg, PrivacyParams(0.5, n ** -1.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations_run == 17 and rep.rng_streams_consumed == 0
    assert peak < (s + 1) * d * 8


def test_generate_synthetic_adopts_its_arrays():
    cfg = SyntheticConfig(n=2000, d=200, s_star=3, seed=4)
    tracemalloc.start()
    try:
        ds, _ = generate_synthetic(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One n x d matrix at the peak: the features were not copied.
    assert peak < 1.5 * ds.x.nbytes
    assert not ds.x.flags.writeable and not ds.y.flags.writeable
    assert not ds.row_peak.flags.writeable
    np.testing.assert_array_equal(ds.row_peak, np.abs(ds.x).max(axis=1))
    again, _ = generate_synthetic(cfg)
    assert again.x.tobytes() == ds.x.tobytes() and again.y.tobytes() == ds.y.tobytes()


def dense_peel_select(absv, uniforms, b):
    # The selection as defined: map the whole block, then s rounds over all d.
    s, d = uniforms.shape[0] - 1, uniforms.shape[1]
    noise = _laplace_icdf(uniforms, b)
    selected, taken = np.empty(s, dtype=np.int64), np.zeros(d, dtype=bool)
    for i in range(s):
        j = selected[i] = _kernels._dense_round(absv, noise[i], taken)
        taken[j] = True
    return selected, noise[s, selected]


@pytest.mark.parametrize(
    "kind", [EstimatorKind.DP_IHT_H, EstimatorKind.DP_IHT_L], ids=lambda kind: kind.value
)
def test_private_fit_through_candidates_equals_the_dense_fit(kind, monkeypatch):
    # At the fit-tall d and above it, a fit through the candidate selection
    # must have the bytes of a fit whose every round scores all d indices.
    n, s = 17 * 20, 20
    for d in (1000, 3000):
        ds, _ = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=5, seed=3))
        cfg = EstimatorConfig(
            s=s, T=17, K=math.log(d), L=10.0, schedule=ConstantStep(0.05), tau=1.0, seed=4
        )
        priv = PrivacyParams(0.5, n ** -1.1)
        got = fit_estimator(kind, ds, cfg, priv).estimate
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "peel_select", dense_peel_select)
            want = fit_estimator(kind, ds, cfg, priv).estimate
        assert got.beta.tobytes() == want.beta.tobytes(), d
        assert got.support.tobytes() == want.support.tobytes(), d
