"""The numpy kernels against per-row Python loops.

The gradient oracles sum in another order than BLAS, so they agree to a
relative 1e-12 (float64 sums over a few dozen terms). Selection involves no
arithmetic order and must agree exactly.
"""

import math

import numpy as np
import pytest

from dpsparse import _kernels as k


def random_fold(m=37, d=11, seed=0):
    rng = np.random.default_rng(seed)
    xc = np.clip(rng.standard_normal((m, d)) * 2, -3, 3)
    y = rng.standard_normal(m) * 4
    beta = rng.standard_normal(d)
    return xc, y, beta


def dot(row, beta):
    return math.fsum(float(a) * float(b) for a, b in zip(row, beta))


def mean_of_rows(weights, xc):
    m, d = xc.shape
    return np.array([math.fsum(weights[i] * xc[i, j] for i in range(m)) / m for j in range(d)])


def huber_oracle(xc, y, beta, tau):
    w = [min(max(y[i] - dot(xc[i], beta), -tau), tau) for i in range(xc.shape[0])]
    return -mean_of_rows(w, xc)


def l1_oracle(x_sign, xc, y, beta):
    signs = []
    for i in range(xc.shape[0]):
        r = dot(x_sign[i], beta) - y[i]
        signs.append(1.0 if r > 0 else -1.0 if r < 0 else 0.0)
    return mean_of_rows(signs, xc)


def squared_oracle(xc, y, beta):
    return mean_of_rows([dot(xc[i], beta) - y[i] for i in range(xc.shape[0])], xc)


def peel_oracle(absv, noise):
    selected = []
    for row in noise:
        best, best_score = -1, -math.inf
        for j, a in enumerate(absv):
            if j not in selected and a + row[j] > best_score:  # strict: lowest index wins ties
                best, best_score = j, a + row[j]
        selected.append(best)
    return selected


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("seed", range(5))
def test_huber_grad_matches_row_loop(seed):
    xc, y, beta = random_fold(seed=seed)
    tau = 1.3
    r = np.abs(y - xc @ beta)
    assert (r > tau).any() and (r < tau).any()  # both branches of the clip
    close(k.huber_grad(xc, y, beta, tau), huber_oracle(xc, y, beta, tau))


@pytest.mark.parametrize("seed", range(5))
def test_l1_grad_matches_row_loop(seed):
    xc, y, beta = random_fold(seed=seed)
    x_sign = xc * 1.7  # distinct sign source
    x_sign[0] = 0.0
    y[0] = 0.0  # a zero residual: sign(0) = 0
    got = k.l1_grad(x_sign, xc, y, beta)
    close(got, l1_oracle(x_sign, xc, y, beta))
    # The signs come from x_sign, not xc.
    assert not np.allclose(got, l1_oracle(xc, xc, y, beta))


@pytest.mark.parametrize("seed", range(5))
def test_squared_grad_matches_row_loop(seed):
    xc, y, beta = random_fold(seed=seed)
    close(k.squared_grad(xc, y, beta), squared_oracle(xc, y, beta))


@pytest.mark.parametrize("seed", range(5))
def test_peel_select_matches_loop(seed):
    rng = np.random.default_rng(seed)
    absv = np.abs(rng.standard_normal(80))
    noise = rng.standard_normal((9, 80)) * 0.5
    np.testing.assert_array_equal(k.peel_select(absv, noise), peel_oracle(absv, noise))


@pytest.mark.parametrize("seed", range(5))
def test_peel_select_ties_match_loop(seed):
    # Small integer scores make ties common; both pick the lowest index.
    rng = np.random.default_rng(100 + seed)
    absv = rng.integers(0, 4, 40).astype(float)
    noise = rng.integers(-2, 3, (12, 40)).astype(float)
    np.testing.assert_array_equal(k.peel_select(absv, noise), peel_oracle(absv, noise))


def test_peel_select_tie_breaks_lowest_index():
    absv = np.array([2.0, 3.0, 3.0, 1.0])
    np.testing.assert_array_equal(k.peel_select(absv, np.zeros((2, 4))), [1, 2])


def test_backend_name_is_numpy():
    assert k.backend_name() == "numpy"
