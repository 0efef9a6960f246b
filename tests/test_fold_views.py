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
from dpsparse.core import clip_responses
from dpsparse.estimators import _update

# output version -> estimator -> sha256 of (beta bytes, support as int64
# bytes). The digests of a version are recorded once, in the change that
# bumps OUTPUT_VERSION to it.
DIGESTS = {
    2: {
        "dp-iht-h": (
            "34ae2a0f0e77e4ac5949872bf2520d888b5125cd3a1d1e192778ca6c939210d1",
            "191cd091cabbe98044c0db487d65a456a656fe777350578f45d628ae83ed4bf9",
        ),
        "dp-iht-l": (
            "aa2c2c2546e15cece02c669994e8452739ef39b182058d6a45cd446f7c613b6c",
            "bf24cfcb3baefcf4d95234faeb0c6cc2760187e612e0c7a4de0529ba85e4a0e7",
        ),
        "ada-huber": (
            "2c93198c82be4d87551d29c3da084563d05d50c4e2afe3ad89813fa1d318c1e7",
            "e34f7e32b106247d94c452404ea997392c48889b25dcb7864c561eae809aad1e",
        ),
        "dp-slr": (
            "b8426999ecf8ab9eb66f8d9e55d4f652241436fbf4ba0d0a78230a195e8ab3a7",
            "cf36085ecc216eef8dc225ea204e1636bbe59efc896cfe729d98a29d238ec766",
        ),
    },
}


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


def test_clip_responses_shares_features_and_freezes_responses():
    ds = Dataset(np.ones((4, 2)), np.array([-5.0, -1.0, 2.0, 7.0]))
    clipped = clip_responses(ds, 3.0)
    assert clipped.x is ds.x
    np.testing.assert_array_equal(clipped.y, [-3.0, -1.0, 2.0, 3.0])
    assert not clipped.y.flags.writeable
    np.testing.assert_array_equal(ds.y, [-5.0, -1.0, 2.0, 7.0])


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
    # With T=1 and beta0 = 0 the fit's first half-step is -eta * grad on the
    # whole dataset; the probe's update must be exactly eta * grad.
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 4)) * 3, rng.standard_cauchy(30) * 20)
    cfg = EstimatorConfig(
        s=2, T=1, K=2.0, L=10.0, schedule=ConstantStep(0.1), response_clip=4.0
    )
    rep = fit_estimator(EstimatorKind.DP_SLR_LITE, ds, cfg, PrivacyParams.non_private())
    update = _update(EstimatorKind.DP_SLR_LITE, ds, np.zeros(4), 0.1, cfg)
    assert rep.half_step_linf_trace[0] == float(np.max(np.abs(update)))
    assert np.abs(ds.y).max() > cfg.response_clip  # the clip is exercised
