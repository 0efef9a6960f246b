"""Zero-copy folds: fits read the dataset in place and keep their output bits.

The digests are pinned per output version; a fit that changes a single
output bit fails here.
"""

import hashlib
import math

import numpy as np
import pytest

from dpsparse import (
    OUTPUT_VERSION,
    ConstantStep,
    Dataset,
    EstimatorConfig,
    EstimatorKind,
    PrivacyParams,
    SyntheticConfig,
    fit_estimator,
    generate_synthetic,
    split_folds,
)
from dpsparse.estimators import _loss, _update

# output version -> estimator -> sha256 of (beta bytes, support as int64
# bytes). The digests of a version are recorded once, in the change that
# bumps OUTPUT_VERSION to it.
DIGESTS = {
    6: {
        "dp-iht-h": (
            "4f1f629e6dfd7a2775c6391dea75d614fbf6a98f6a0f24882ce762e6b556c74b",
            "3a644653f12029bdf1140b049c7d2c1437734bb3235fbebd5ac4249cb1d96ae2",
        ),
        "dp-iht-l": (
            "cfb6bcd61f3cf02afcda74837f3053f69abf8d4c060188a68ff8d9c803571d8e",
            "3a644653f12029bdf1140b049c7d2c1437734bb3235fbebd5ac4249cb1d96ae2",
        ),
        "ada-huber": (
            "2745f40536e181f32d3784c67cf4579e0dc7149961fa8f7db00cd5fd5187f000",
            "2d74025c7732b897e2ab5cbc169e504bb69c69677728343a08f7e19278920a37",
        ),
        "dp-slr": (
            "db56549e846cc9a1ba9009698e57a2da266c1cb02e513db874f9199709db54ab",
            "70d5178c8af27137dd25c7a70f10c8bab4483c62cde83ea40f2d482da73cc754",
        ),
    },
}
# Version 7 moved the features of draws longer than one row block; the
# pinned problem's 600 x 50 draw is one block and keeps its bytes.
DIGESTS[7] = DIGESTS[6]
# Version 8 holds BLAS to one thread in every environment; the pinned bytes,
# which these are, did not move.
DIGESTS[8] = DIGESTS[7]
# Version 9 moved only `real`'s default output; no fit or draw here moved.
DIGESTS[9] = DIGESTS[8]


def pinned_problem():
    # n mod T = 2 rows are dropped, and fold offsets are not all 64-byte
    # aligned, so both edge cases of the views are exercised.
    ds, _ = generate_synthetic(SyntheticConfig(n=600, d=50, s_star=3, zeta=0.5, seed=20250606))
    cfg = EstimatorConfig(
        s=3, T=13, K=math.log(50), L=10.0, schedule=ConstantStep(0.05),
        tau=1.0, response_clip=10.0, seed=7,
    )
    return ds, cfg, PrivacyParams(epsilon=0.5, delta=600.0 ** -1.1)


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
def test_fit_bytes_match_pinned_digests(kind):
    ds, cfg, priv = pinned_problem()
    est = fit_estimator(kind, ds, cfg, priv).estimate
    got = (
        hashlib.sha256(est.beta.tobytes()).hexdigest(),
        hashlib.sha256(est.support.astype(np.int64).tobytes()).hexdigest(),
    )
    assert got == DIGESTS[OUTPUT_VERSION][kind.value]


def test_folds_are_read_only_views_covering_rows_disjointly():
    ds, _, _ = pinned_problem()
    T = 13
    m = ds.n // T
    folds = split_folds(ds, T)
    for t, fold in enumerate(folds):
        assert np.shares_memory(fold.x, ds.x) and np.shares_memory(fold.y, ds.y)
        assert not fold.x.flags.writeable and not fold.y.flags.writeable
        assert fold.x.flags.c_contiguous
        np.testing.assert_array_equal(fold.x, ds.x[t * m : (t + 1) * m])
        np.testing.assert_array_equal(fold.y, ds.y[t * m : (t + 1) * m])
        for other in folds[t + 1 :]:
            assert not np.shares_memory(fold.x, other.x)
            assert not np.shares_memory(fold.y, other.y)
    with pytest.raises(ValueError):
        folds[0].x[0, 0] = 1.0


def test_dataset_still_copies_writeable_caller_arrays():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    ds = Dataset(x, y)
    assert not np.shares_memory(ds.x, x) and not np.shares_memory(ds.y, y)
    assert not ds.x.flags.writeable and not ds.y.flags.writeable
    x[0, 0] = y[0] = 99.0
    assert ds.x[0, 0] != 99.0 and ds.y[0] != 99.0


def test_fit_builds_no_dataset(monkeypatch):
    # Every Dataset built copies and re-checks its arrays; a fit needs none.
    ds, cfg, priv = pinned_problem()
    builds = []
    post_init = Dataset.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    for kind in EstimatorKind:
        fit_estimator(kind, ds, cfg, priv)
    assert builds == []


def test_slr_probe_half_step_is_the_fit_half_step():
    # With T=1, beta0 = 0 and s = d the non-private fit keeps its whole first
    # half-step, -eta * grad on the whole dataset, and the ball (L) leaves it
    # unscaled; the probe's update must be exactly eta * grad.
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 4)) * 3, rng.standard_cauchy(30) * 20)
    cfg = EstimatorConfig(
        s=4, T=1, K=2.0, L=10.0, schedule=ConstantStep(0.1), response_clip=4.0
    )
    rep = fit_estimator(EstimatorKind.DP_SLR_LITE, ds, cfg, PrivacyParams.non_private())
    update = _update(_loss(EstimatorKind.DP_SLR_LITE, cfg), ds, np.zeros(4), 0.1, cfg.K)
    assert np.linalg.norm(update) < cfg.L  # inside the ball
    assert rep.estimate.beta.tobytes() == (-update + 0.0).tobytes()
    assert np.abs(ds.y).max() > cfg.response_clip  # the clip is exercised
