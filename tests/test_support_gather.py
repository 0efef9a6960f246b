"""The support gather: every gradient and every score reads x @ beta from the
columns where beta is nonzero. The dense product is the oracle; the two may
differ only in the order of the floating-point sums.
"""

import json
import math

import numpy as np
import pytest

from dpsparse import (
    AbsoluteL1,
    Dataset,
    EstimatorKind,
    ExperimentBase,
    Huber,
    Squared,
    SweepSpec,
    SyntheticConfig,
    batch_gradient,
    load_csv,
    mae,
    run_sweep,
    save_csv,
)
from dpsparse import _kernels, harness
from dpsparse.cli import main

M, D, S = 200, 50, 5
K = math.log(D)
RTOL = 1e-12


def dense_gradient(fold, beta, kind, sign_on_clipped):
    """batch_gradient as two dense matrix-vector products on the clipped fold."""
    xc = np.clip(fold.x, -K, K)
    m = fold.n
    if isinstance(kind, Huber):
        return -(xc.T @ np.clip(fold.y - xc @ beta, -kind.tau, kind.tau)) / m
    if isinstance(kind, AbsoluteL1):
        x_sign = xc if sign_on_clipped else fold.x
        return (xc.T @ np.sign(x_sign @ beta - fold.y)) / m
    y = np.clip(fold.y, -kind.response_clip, kind.response_clip)
    return (xc.T @ (xc @ beta - y)) / m


def fold(beyond_k):
    gen = np.random.default_rng(17)
    x = 0.5 * gen.standard_normal((M, D))
    if beyond_k:
        x[3, 7] = 9.0
        x[40, 2] = -12.0
    y = 2.0 * x[:, 7] - x[:, 2] + gen.standard_t(1.5, M)
    return Dataset(x, y)


def beta_with(nonzeros):
    beta = np.zeros(D)
    # The planted columns 2 and 7 are in every nonempty support.
    cols = [2, 7, 11, 30, 44][:nonzeros] if nonzeros <= S else np.arange(D)
    beta[cols] = np.linspace(-1.5, 1.5, len(cols)) + 0.1
    return beta


LOSSES = [
    (Huber(1.0), False),
    (AbsoluteL1(), False),
    (AbsoluteL1(sign_on_clipped=True), True),
    (Squared(response_clip=2.0), False),
]


@pytest.mark.parametrize("nonzeros", [0, S, D], ids=["beta-0", "beta-s", "beta-d"])
@pytest.mark.parametrize("beyond_k", [False, True], ids=["within-K", "beyond-K"])
@pytest.mark.parametrize(
    "kind,sign_on_clipped", LOSSES, ids=["huber", "l1", "l1-sign-clipped", "squared"]
)
def test_batch_gradient_matches_the_dense_product(kind, sign_on_clipped, beyond_k, nonzeros):
    f = fold(beyond_k)
    assert bool(f.row_peak.max() > K) == beyond_k
    beta = beta_with(nonzeros)
    assert np.count_nonzero(beta) == nonzeros
    got = batch_gradient(f, beta, kind, K)
    np.testing.assert_allclose(got, dense_gradient(f, beta, kind, sign_on_clipped), rtol=RTOL)


def test_l1_sign_reads_the_unclipped_support_column():
    # Row 3 holds 9.0 in support column 7. Its prediction is about 9.0
    # unclipped and about K = 3.9 clipped, and y = 6 lies between: the two
    # readings of the residual sign disagree on that row.
    x = np.zeros((4, D))
    x[:, 30] = [0.5, -0.2, 0.1, 0.3]
    x[3, 7] = 9.0
    f = Dataset(x, np.array([0.1, -0.3, 0.2, 6.0]))
    beta = np.zeros(D)
    beta[[7, 30]] = [1.0, 0.5]
    unclipped = batch_gradient(f, beta, AbsoluteL1(), K)
    clipped = batch_gradient(f, beta, AbsoluteL1(sign_on_clipped=True), K)
    np.testing.assert_allclose(unclipped, dense_gradient(f, beta, AbsoluteL1(), False), rtol=RTOL)
    np.testing.assert_allclose(clipped, dense_gradient(f, beta, AbsoluteL1(), True), rtol=RTOL)
    assert unclipped[7] != clipped[7]


def test_support_matvec_at_beta_zero_reads_no_column():
    x = np.full((6, 4), np.nan)  # any column read would make the result NaN
    np.testing.assert_array_equal(_kernels.support_matvec(x, np.zeros(4)), np.zeros(6))


def test_fit_mae_in_sample_matches_dense_scoring(tmp_path):
    gen = np.random.default_rng(3)
    x = gen.standard_normal((120, 30))
    csvp = tmp_path / "data.csv"
    save_csv(Dataset(x, x[:, 4] - 2.0 * x[:, 9] + gen.standard_t(2.0, 120)), csvp)
    out = tmp_path / "fit"
    assert main(["fit", "--estimator", "dp-iht-h", "--data", str(csvp), "--tau", "2.0",
                 "--eta", "0.3", "--T", "4", "--out", str(out)]) == 0
    est = json.loads((out / "estimate.json").read_text())
    ds, _ = load_csv(csvp)
    beta = np.array(est["beta"])
    assert 0 < np.count_nonzero(beta) < ds.d
    assert est["mae_in_sample"] == pytest.approx(mae(ds.x @ beta, ds.y), rel=RTOL, abs=0)


def test_sweep_mae_matches_dense_scoring(monkeypatch):
    fits = {}
    fit_many = harness.fit_many

    def keep(ds, requests, beta_star=None):
        reports = fit_many(ds, requests, beta_star)
        for (kind, _, _), report in zip(requests, reports):
            fits[kind.value] = (ds, report.estimate.beta)
        return reports

    monkeypatch.setattr(harness, "fit_many", keep)
    base = ExperimentBase(
        synthetic=SyntheticConfig(n=400, d=60, s_star=3, zeta=0.5, seed=8), eta=0.3, T=4
    )
    spec = SweepSpec(axis="n", values=[400], base=base, repeats=1,
                     estimators=tuple(EstimatorKind))
    rows = run_sweep(spec, workers=1).rows
    assert {row.estimator for row in rows} == set(fits)
    for row in rows:
        ds, beta = fits[row.estimator]
        assert row.status == "ok" and np.count_nonzero(beta) < ds.d
        assert row.mae == pytest.approx(mae(ds.x @ beta, ds.y), rel=RTOL, abs=0)
