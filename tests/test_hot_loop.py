"""Allocation-free IHT hot loop: the feature clip runs only on folds that hold
an entry beyond K, the selection noise is drawn sparsely from one generator
per fit, and generated data is not copied. None of it may change an output bit.

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
    fit_many,
    generate_synthetic,
    peel,
    split_folds,
)
from dpsparse import _kernels, estimators
from dpsparse._kernels import _laplace_icdf
from dpsparse.sampling import RngHandle

N, D, T = 600, 50, 13
K = math.log(D)
M = N // T
# (row, column, value): entries beyond K in folds 1, 4 and 9 only, and one in
# a trailing row that no fold uses.
PLANTED = ((1 * M + 3, 7, 9.0), (4 * M + 10, 2, -12.0), (9 * M, 40, 5.5), (N - 1, 7, 20.0))
FOLDS_BEYOND_K = {1, 4, 9}

# output version -> estimator -> sha256 of (beta bytes, support as int64
# bytes), and each name of FIT_MANY_SHAPES -> the sha256 of
# ``fit_many_digests``'s fits. The digests of a version are recorded once, in
# the change that bumps OUTPUT_VERSION to it; "fit-many-wide" was recorded
# under version 6 at the commit before the gradient's product ran on column
# blocks, and "fit-many-1000" at the commit before 1000-column folds did.
DIGESTS = {
    6: {
        "dp-iht-h": (
            "d4844b4d5beaf4464fb13d9f20be4ba84f846acfc5b6ce405dd431dde8ba6fbe",
            "1b198d3a45dbafc6cf0eecd7d7db149be3a9abcc4e3dc657de6f090f46e95409",
        ),
        "dp-iht-l": (
            "ddcc4f795a8510877abacd21e47ad275065a6b59d35e20ee29b3523c4653e2fb",
            "76de4d04f52355e6f4d6d0d507f7a4737cf3e65952d9902a8bca6e0960eeb47e",
        ),
        "ada-huber": (
            "fbabaa7796378f2783e1f6908939c42b19f91c42248d6d3b62253ede68e8273f",
            "7ae721e2d13b6e466ac197a2cbac9cf9d859ef8a92030ee1517e30e45ab6b7a7",
        ),
        "dp-slr": (
            "76353097e48eb19346f0e706942a0a8e24ca600b94466072dcd7ead84b95213e",
            "c6edfd6d828678a8e37c4e0d281a9ae2200ef37cc0cb39c60e2ee894d72932cb",
        ),
        "fit-many-wide": "061597a008e0ed4aa0861c61833b27bcccee69223ecc4b8ed7d6ad1bc481955e",
        "fit-many-1000": "26c94f6101e32859ab9b95b6e11ed24ed30bcc368eb438ebd72ca12754730394",
    },
}
# Version 7 moved the features of draws longer than one row block: the
# estimator digests fit hand-made data and keep their version-6 values.
DIGESTS[7] = {
    **DIGESTS[6],
    "fit-many-wide": "8ca7a689890c9f586f4700243835fd0302bb28bababc8dc9cdd72551c5edebb6",
    "fit-many-1000": "52ed1af086e9f1ee16f419b7c9b528beafdb201387502bb0f65dcee3a822466c",
}
# Version 8 holds BLAS to one thread in every environment; the pinned bytes,
# which these are, did not move.
DIGESTS[8] = DIGESTS[7]
# Version 9 moved only `real`'s default output; no fit or draw here moved.
DIGESTS[9] = DIGESTS[8]


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


# name -> (n, d, T) of a fit_many problem. "fit-many-wide": folds of
# 240 x 4096, up to min(CPUs, 4) column blocks per product. "fit-many-1000":
# folds of 1000 x 1000, fit-tall's fold shape, two blocks on two CPUs or more.
# K = 5 leaves some folds within K and clips the others.
FIT_MANY_SHAPES = {"fit-many-wide": (1200, 4096, 5), "fit-many-1000": (5000, 1000, 5)}


def fit_many_digests(name, cpu_counts, monkeypatch):
    """For each CPU count (None: the host's), the sha256 of a fit_many of the
    four estimators on the problem ``name`` of FIT_MANY_SHAPES, and how many
    products ran on blocks."""
    n, d, T = FIT_MANY_SHAPES[name]
    ds, beta_star = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=5, seed=8))
    cfg = EstimatorConfig(
        s=10, T=T, K=5.0, L=10.0, schedule=ConstantStep(0.3), tau=1.0,
        response_clip=10.0, seed=9,
    )
    requests = [(kind, cfg, PrivacyParams(5.0, n ** -1.1)) for kind in EstimatorKind]
    pool, cpu_count, out = _kernels._thread_pool, _kernels._cpu_count, []
    for cpus in cpu_counts:
        blocked = []

        def counted():
            blocked.append(1)
            return pool()

        monkeypatch.setattr(_kernels, "_thread_pool", counted)
        monkeypatch.setattr(
            _kernels, "_cpu_count", cpu_count if cpus is None else lambda cpus=cpus: cpus
        )
        digest = hashlib.sha256()
        for rep in fit_many(ds, requests, beta_star):
            digest.update(rep.estimate.beta.tobytes())
            digest.update(rep.estimate.support.astype(np.int64).tobytes())
        out.append((digest.hexdigest(), len(blocked)))
    return out


def check_fit_many_bytes_on_column_blocks(monkeypatch, name):
    # The host's CPU count gives two blocks or more on any host with two CPUs;
    # 3 gives two or three on any host.
    host_cpus = _kernels._cpu_count()
    (host, host_blocked), (solo, solo_blocked), (three, three_blocked) = fit_many_digests(
        name, [None, 1, 3], monkeypatch
    )
    assert host == solo == three == DIGESTS[OUTPUT_VERSION][name]
    products = 4 * FIT_MANY_SHAPES[name][2]
    assert solo_blocked == 0 and three_blocked == products
    assert host_blocked == (products if host_cpus > 1 else 0)


def test_wide_fit_many_keeps_its_bytes_on_column_blocks(monkeypatch):
    check_fit_many_bytes_on_column_blocks(monkeypatch, "fit-many-wide")


def test_1000_column_fit_many_keeps_its_bytes_on_column_blocks(monkeypatch):
    check_fit_many_bytes_on_column_blocks(monkeypatch, "fit-many-1000")


LOSSES = [
    (Huber(1.0), False),
    (AbsoluteL1(), False),
    (AbsoluteL1(sign_on_clipped=True), True),
    (Squared(response_clip=2.0), False),
]


def clipped_reference(fold, beta, kind, sign_on_clipped):
    xc = np.clip(fold.x, -K, K)
    if isinstance(kind, Huber):
        return _kernels.huber_grad(xc, fold.y, beta, kind.tau)
    if isinstance(kind, AbsoluteL1):
        return _kernels.l1_grad(xc if sign_on_clipped else fold.x, xc, fold.y, beta)
    y = np.clip(fold.y, -kind.response_clip, kind.response_clip)
    return _kernels.squared_grad(xc, y, beta)


@pytest.mark.parametrize("t", [0, 4], ids=["within-K", "beyond-K"])
@pytest.mark.parametrize("kind,sign_on_clipped", LOSSES, ids=["huber", "l1", "l1-sign-clipped", "squared"])
def test_batch_gradient_equals_explicit_clip(t, kind, sign_on_clipped):
    ds, _, _ = mixed_problem()
    fold = split_folds(ds, T)[t]
    beta = np.linspace(-1.0, 1.0, D)
    got = batch_gradient(fold, beta, kind, K)
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
    # The draw as written before the in-place map: one temporary per step.
    r = rng.generator().random(size)
    r = np.where(r == 0.0, 0.5, r)
    u = r - 0.5
    return b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


@pytest.mark.parametrize("size", [(), 7, (51, 1000)], ids=["scalar", "vector", "block"])
def test_laplace_keeps_the_bytes_of_the_plain_expression(size):
    # The map a peel runs on its uniforms, in place.
    rng = RngHandle(3, stream=9)
    got = _laplace_icdf(rng.generator().random(size), 0.37)
    assert got.tobytes() == np.asarray(old_laplace(0.37, rng, size)).tobytes()


def test_private_fit_allocates_no_noise_block_per_iteration(monkeypatch):
    # d is large against the fold, so the only per-iteration allocations that
    # could reach an (s+1) x d x 8-byte block are selection-noise arrays. Each
    # interval runs from one iteration's projection, when the previous peel
    # has returned and freed what it allocated, to the next iteration's
    # selection, when its uniforms have been drawn. The allocation peak over an
    # interval, above the memory held at its start, must stay below a few
    # d-vectors: the gradient's, the half-step's and the sparse draws.
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

    def end_interval(*args):
        if starts:
            rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        return select(*args)

    monkeypatch.setattr(estimators, "project_l2", start_interval)
    monkeypatch.setattr(_kernels, "peel_select", end_interval)
    tracemalloc.start()
    try:
        rep = fit_estimator(EstimatorKind.DP_IHT_H, ds, cfg, PrivacyParams(0.5, n ** -1.1))
    finally:
        tracemalloc.stop()
    assert rep.iterations_run == iters and len(rises) == iters - 1
    assert max(rises) < 4 * d * 8


def test_zero_noise_fit_runs_no_selection_rounds_and_holds_no_noise_block(monkeypatch):
    # ada-huber adds no noise, so each peel takes the top s from one partition
    # threshold: no argmax rounds and no (s+1) x d block. The digests above
    # pin its bytes.
    def no_rounds(*args):
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
    assert rep.iterations_run == 17
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


def test_peel_at_a_million_columns_holds_no_noise_block():
    # The dense (s+1) x d uniform block would be 408 MB here.
    d, s = 10**6, 50
    v = 1e-3 * RngHandle(6).generator().standard_normal(d)
    tracemalloc.start()
    try:
        _, support = peel(v, s, 0.05, RngHandle(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert support.size == s
    assert peak < 6 * d * 8


def full_block(absv, s, pos, u, rows):
    """The s x d selection uniforms of one peel from its sparse draws.

    The hits and the top columns' uniforms come from (pos, u), with the top
    taken as ``_candidates`` takes it; every other entry comes from ``rows``,
    whose entries off the candidates are above t0.
    """
    d = absv.shape[0]
    top = np.argpartition(absv, d - s - 1)[d - s :] if d > s else np.arange(d)
    rest = np.setdiff1d(np.arange(d), top)
    block = rows.copy()
    if d > s:
        rounds, k = np.divmod(pos, d - s)
        block[rounds, rest[k]] = u[: pos.size]
    block[:, top] = u[pos.size :].reshape(s, s)
    return block


def dense_selection(absv, block, b):
    # The selection as defined: map the whole block, then s rounds over all d.
    s, d = block.shape
    noise = _laplace_icdf(block, b)
    selected, taken = np.empty(s, dtype=np.int64), np.zeros(d, dtype=bool)
    for i in range(s):
        j = selected[i] = _kernels._dense_round(absv, noise[i], taken)
        taken[j] = True
    return selected


@pytest.mark.parametrize(
    "kind", [EstimatorKind.DP_IHT_H, EstimatorKind.DP_IHT_L], ids=lambda kind: kind.value
)
def test_private_fit_through_candidates_equals_the_dense_fit(kind, monkeypatch):
    # At the fit-tall d and above it, every peel of a private fit must select
    # what scoring all d indices in every round selects on the peel's block:
    # its hits and top-column uniforms, the rows its fallback rounds drew, and
    # elsewhere fresh uniforms above t0, which cannot move a certified winner.
    # The fits run fallback rounds too.
    select, fill, fallbacks = _kernels.peel_select, np.random.default_rng(0), []

    def checked(absv, s, pos, u, b, fallback_row):
        d = absv.shape[0]
        t0 = _kernels.hit_rate(d)
        rows = t0 + (1.0 - t0) * fill.random((s, d))

        def recorded(i):
            row = fallback_row(i)
            rows[i] = row
            fallbacks.append(i)
            return row

        got = select(absv, s, pos, u, b, recorded)
        want = dense_selection(absv, full_block(absv, s, pos, u, rows), b)
        assert got.tobytes() == want.tobytes(), d
        return got

    monkeypatch.setattr(_kernels, "peel_select", checked)
    n, s = 17 * 20, 20
    for d in (1000, 3000):
        ds, _ = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=5, seed=3))
        cfg = EstimatorConfig(
            s=s, T=17, K=math.log(d), L=10.0, schedule=ConstantStep(0.05), tau=1.0, seed=4
        )
        fit_estimator(kind, ds, cfg, PrivacyParams(0.5, n ** -1.1))
    assert fallbacks
