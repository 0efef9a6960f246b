import numpy as np
import pytest

from dpsparse import (
    AbsoluteL1,
    Dataset,
    Huber,
    Squared,
    batch_gradient,
)
from dpsparse.errors import InvalidInputError


def huber_value(r, tau):
    """Huber loss: r^2/2 if |r| < tau, else tau*|r| - tau^2/2."""
    r = np.asarray(r, dtype=np.float64)
    return np.where(np.abs(r) < tau, 0.5 * r * r, tau * np.abs(r) - 0.5 * tau * tau)


def huber_objective(fold, beta, tau, K):
    """Mean Huber loss of the fold at beta, on features clipped at K.

    batch_gradient(Huber) is its exact gradient away from the kinks: the
    finite-difference oracle below.
    """
    return float(np.mean(huber_value(fold.y - np.clip(fold.x, -K, K) @ beta, tau)))


def test_huber_value_branches():
    # The oracle's own pieces.
    assert huber_value(0.5, 1.0) == pytest.approx(0.125)
    assert huber_value(2.0, 1.0) == pytest.approx(1.5)
    # continuity at the knee, from both branches
    tau = 0.7
    assert huber_value(tau, tau) == pytest.approx(tau * tau / 2)
    assert huber_value(tau - 1e-12, tau) == pytest.approx(tau * tau / 2, abs=1e-9)


def _random_fold(rng, m=50, d=8):
    x = rng.standard_normal((m, d)) * 2
    y = rng.standard_normal(m) * 3
    return Dataset(x, y)


def test_batch_gradient_zero_at_truth_noiseless():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6))
    beta_star = rng.standard_normal(6)
    ds = Dataset(x, x @ beta_star)
    g = batch_gradient(ds, beta_star, Huber(1.0), K=1e9)
    assert np.max(np.abs(g)) < 1e-10


def test_batch_gradient_single_sample_l1():
    # m=1 with positive residual: gradient is the clipped feature row.
    x = np.array([[0.5, -3.0, 2.0]])
    y = np.array([-1.0])  # x@beta - y = 1 > 0 at beta=0
    ds = Dataset(x, y)
    g = batch_gradient(ds, np.zeros(3), AbsoluteL1(), K=1.5)
    np.testing.assert_allclose(g, np.clip(x[0], -1.5, 1.5))


def test_batch_gradient_huber_matches_finite_differences():
    # Central differences of the mean Huber objective; points kept away from
    # the kinks so each difference stays inside one quadratic/linear piece.
    rng = np.random.default_rng(2)
    tau, K, h = 1.0, 3.0, 1e-6
    checked = 0
    while checked < 200:
        fold = _random_fold(rng)
        beta = rng.standard_normal(fold.d) * 0.5
        xc = np.clip(fold.x, -K, K)
        r = fold.y - xc @ beta
        if np.min(np.abs(np.abs(r) - tau)) < 1e-3:
            continue
        g = batch_gradient(fold, beta, Huber(tau), K)
        fd = np.empty_like(g)
        for j in range(fold.d):
            e = np.zeros(fold.d)
            e[j] = h
            fd[j] = (
                huber_objective(fold, beta + e, tau, K)
                - huber_objective(fold, beta - e, tau, K)
            ) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)
        checked += 1


def test_batch_gradient_per_sample_bounds():
    # Coordinate bound tau*K for Huber, K for l1, via single-sample folds.
    rng = np.random.default_rng(3)
    tau, K = 0.8, 2.5
    for _ in range(200):
        x = rng.standard_normal((1, 5)) * 10
        y = rng.standard_normal(1) * 50
        ds = Dataset(x, y)
        beta = rng.standard_normal(5)
        gh = batch_gradient(ds, beta, Huber(tau), K)
        gl = batch_gradient(ds, beta, AbsoluteL1(), K)
        assert np.max(np.abs(gh)) <= tau * K + 1e-12
        assert np.max(np.abs(gl)) <= K + 1e-12


def test_batch_gradient_sign_on_clipped_flag():
    # A sample whose residual sign differs between raw and clipped features.
    x = np.array([[10.0, 0.0]])
    y = np.array([5.0])
    beta = np.array([1.0, 0.0])
    ds = Dataset(x, y)
    K = 2.0  # clipped prediction 2.0 < y, raw prediction 10.0 > y
    g_raw = batch_gradient(ds, beta, AbsoluteL1(sign_on_clipped=False), K)
    g_clip = batch_gradient(ds, beta, AbsoluteL1(sign_on_clipped=True), K)
    np.testing.assert_allclose(g_raw, [2.0, 0.0])
    np.testing.assert_allclose(g_clip, [-2.0, 0.0])


def test_batch_gradient_squared():
    rng = np.random.default_rng(4)
    fold = _random_fold(rng, m=30, d=4)
    beta = rng.standard_normal(4)
    K = 1e9
    g = batch_gradient(fold, beta, Squared(response_clip=1e9), K)  # clips no response
    expected = fold.x.T @ (fold.x @ beta - fold.y) / fold.n
    np.testing.assert_allclose(g, expected, rtol=1e-12)


def test_batch_gradient_rejects_empty_and_mismatch():
    ds = Dataset(np.ones((2, 3)), np.ones(2))
    with pytest.raises(InvalidInputError):
        batch_gradient(ds, np.zeros(4), Huber(1.0), K=1.0)
