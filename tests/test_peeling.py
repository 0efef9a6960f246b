import math

import numpy as np
import pytest
from scipy import stats

from dpsparse import (
    InvalidConfigError,
    InvalidInputError,
    InvalidParameterError,
    PrivacyParams,
    RngHandle,
    noise_scale,
    peel,
)
from dpsparse import _kernels
from dpsparse.peeling import _hit_positions
from dpsparse._kernels import _laplace_icdf


def brute_force_top_s(v, s):
    """Oracle: indices of the s largest |v| entries, lowest index on ties."""
    order = sorted(range(len(v)), key=lambda j: (-abs(v[j]), j))
    return sorted(order[:s])


def test_noise_scale_zero_cases():
    assert noise_scale(0.0, 3, PrivacyParams(epsilon=1.0, delta=0.1)) == 0.0
    assert noise_scale(1.0, 3, PrivacyParams.non_private()) == 0.0


def test_noise_scale_arithmetic():
    # 2 * 1 * sqrt(3*3*ln(100)) / 2 = 3*sqrt(ln 100) = 6.43790.
    b = noise_scale(1.0, 3, PrivacyParams(epsilon=2.0, delta=0.01))
    expected = 2.0 * math.sqrt(3 * 3 * math.log(100.0)) / 2.0
    assert b == pytest.approx(expected, rel=1e-12)
    assert b == pytest.approx(6.4379, abs=5e-4)


def test_noise_scale_rejects_bad_delta():
    with pytest.raises(InvalidConfigError):
        noise_scale(1.0, 3, PrivacyParams(epsilon=1.0, delta=1.5))


def test_noise_scale_rejects_a_non_finite_scale_naming_epsilon():
    # A subnormal epsilon passes its rule (> 0) but overflows the scale.
    with pytest.raises(InvalidParameterError, match=r"b=inf .*epsilon=1e-320"):
        noise_scale(1.0, 3, PrivacyParams(epsilon=1e-320, delta=0.01))
    with pytest.raises(InvalidParameterError, match="not finite"):
        noise_scale(math.inf, 3, PrivacyParams(epsilon=1.0, delta=0.01))


def test_peel_zero_noise_example():
    v = np.array([5.0, -7.0, 1.0, 0.0, 3.0])
    out, support = peel(v, 2, 0.0)
    np.testing.assert_array_equal(out, [5.0, -7.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(support, [0, 1])


def test_peel_s_equals_d():
    v = np.array([1.0, -2.0, 0.5])
    out, support = peel(v, 3, 0.0)
    np.testing.assert_array_equal(out, v)
    np.testing.assert_array_equal(support, [0, 1, 2])


def test_peel_zero_noise_equals_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = int(rng.integers(2, 60))
        s = int(rng.integers(1, d + 1))
        # integer-valued entries force magnitude ties, exercising the
        # lowest-index rule
        v = rng.integers(-4, 5, size=d).astype(float)
        out, support = peel(v, s, 0.0)
        np.testing.assert_array_equal(support, brute_force_top_s(v, s))
        expected = np.zeros(d)
        expected[support] = v[support]
        np.testing.assert_array_equal(out, expected)


def test_peel_support_size_and_zeros_outside():
    rng = np.random.default_rng(1)
    b = noise_scale(0.3, 4, PrivacyParams(epsilon=1.0, delta=0.05))
    for trial in range(50):
        v = rng.standard_normal(20)
        out, support = peel(v, 4, b, RngHandle(trial))
        assert support.size == 4
        mask = np.ones(20, dtype=bool)
        mask[support] = False
        assert (out[mask] == 0).all()


def test_peel_deterministic_given_handle():
    v = np.random.default_rng(2).standard_normal(15)
    b = noise_scale(0.5, 3, PrivacyParams(epsilon=0.7, delta=0.01))
    out1, s1 = peel(v, 3, b, RngHandle(9, 4))
    out2, s2 = peel(v, 3, b, RngHandle(9, 4))
    np.testing.assert_array_equal(out1, out2)
    np.testing.assert_array_equal(s1, s2)


def test_peel_rejects_s_larger_than_d():
    with pytest.raises(InvalidConfigError):
        peel(np.ones(3), 4, 0.0)


def test_peel_rejects_a_negative_scale_and_non_finite_input():
    for b in (-0.5, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            peel(np.ones(3), 1, b, RngHandle(0))
    with pytest.raises(InvalidInputError):
        peel(np.array([1.0, np.nan, 2.0]), 1, 0.0)


def test_peel_output_noise_variance():
    # The kept entries carry fresh Laplace(b) noise: empirical variance of
    # (output - v) on a surely-selected coordinate is within 10% of 2b^2.
    v = np.zeros(6)
    v[0] = 100.0  # dominates selection for every noise draw
    b = noise_scale(0.05, 1, PrivacyParams(epsilon=2.0, delta=0.1))
    diffs = []
    for rep in range(10_000):
        out, support = peel(v, 1, b, RngHandle(4242, rep))
        assert support[0] == 0
        diffs.append(out[0] - v[0])
    var = float(np.var(diffs))
    assert abs(var - 2 * b * b) < 0.1 * 2 * b * b


def test_peel_selection_degrades_with_noise():
    # With noise well under the magnitude gap the exact top-s set is found in
    # >= 95% of trials; agreement decays monotonically as b passes the gap.
    rng = np.random.default_rng(3)
    s, d, gap = 5, 40, 1.0
    scales = (0.01, 0.3, 1.0, 4.0)  # lam values; b is proportional to lam
    agreement = {lam: [] for lam in scales}
    for trial in range(200):
        v = rng.uniform(0.0, 0.5, size=d)
        top = rng.choice(d, size=s, replace=False)
        v[top] += 2.0 + gap  # separated top block
        exact = set(brute_force_top_s(v, s))
        for lam in scales:
            b = noise_scale(lam, s, PrivacyParams(epsilon=1.0, delta=0.1))
            _, support = peel(v, s, b, RngHandle(trial, int(lam * 1000)))
            agreement[lam].append(len(exact & set(support)) / s)
    assert np.mean([a == 1.0 for a in agreement[scales[0]]]) >= 0.95
    medians = [float(np.median(agreement[lam])) for lam in scales]
    assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:])), medians


def dense_peel_counts(v, s, b, gen, reps, chunk=500):
    """Selected-index counts of ``reps`` peels that draw the whole (s+1) x d block.

    Each round scores every index not yet taken; ties have probability zero.
    """
    absv, d = np.abs(v), v.size
    counts = np.zeros(d, dtype=np.int64)
    for start in range(0, reps, chunk):
        r = min(chunk, reps - start)
        scores = absv + _laplace_icdf(gen.random((r, s, d)), b)
        rows = np.arange(r)
        for i in range(s):
            j = scores[:, i].argmax(axis=1)
            scores[rows, i + 1 :, j] = -np.inf
            counts += np.bincount(j, minlength=d)
    return counts


@pytest.mark.parametrize("d,s,reps", [(30, 3, 20_000), (1000, 5, 6_000)])
def test_sparse_peel_has_the_law_of_the_dense_peel(d, s, reps, monkeypatch):
    # One generator serves every peel, as in a fit. The magnitudes span 3b,
    # so the hits outside the top s win often and some rounds fall back.
    dense_round, fallbacks = _kernels._dense_round, []

    def counted(*args):
        fallbacks.append(1)
        return dense_round(*args)

    monkeypatch.setattr(_kernels, "_dense_round", counted)
    b = 0.5
    v = np.linspace(0.0, 3.0 * b, d) * np.where(np.arange(d) % 2, 1.0, -1.0)
    gen = RngHandle(31, 0).generator()
    counts, noise = np.zeros(d, dtype=np.int64), []
    for _ in range(reps):
        out, support = peel(v, s, b, gen)
        counts[support] += 1
        noise.append(out[support] - v[support])
    assert 0 < len(fallbacks) < reps * s
    want = dense_peel_counts(v, s, b, RngHandle(32, 0).generator(), reps)
    # Chi-square on the indices both samplers select at least 20 times, the
    # rest pooled into one cell when there are any.
    table = np.array([counts, want])
    keep = table.min(axis=0) >= 20
    pooled = table[:, ~keep].sum(axis=1)
    if pooled.any():
        table = np.column_stack((table[:, keep], pooled))
    assert stats.chi2_contingency(table).pvalue > 1e-3
    # The value noise is Laplace(b), whatever was selected.
    noise = np.concatenate(noise)
    assert stats.kstest(noise, "laplace", args=(0.0, b)).pvalue > 1e-3
    assert abs(np.var(noise) - 2 * b * b) < 0.05 * 2 * b * b


class _ShortFirstChunk:
    """A generator stub whose first chunk of geometric gaps is all ones, so
    it falls short of n; later chunks are real draws. It keeps every gap."""

    def __init__(self, seed):
        self.gen, self.chunks = np.random.default_rng(seed), []

    def geometric(self, p, size):
        gaps = self.gen.geometric(p, size) if self.chunks else np.ones(size, dtype=np.int64)
        self.chunks.append(gaps)
        return gaps


@pytest.mark.parametrize("seed", range(5))
def test_hit_positions_continue_until_they_reach_n(seed):
    n, t0 = 5000, 0.01
    stub = _ShortFirstChunk(seed)
    pos = _hit_positions(stub, n, t0)
    assert len(stub.chunks) >= 2  # the first chunk ended below n
    # Oracle: every gap drawn, summed in order, cut below n.
    oracle = np.cumsum(np.concatenate(stub.chunks)) - 1
    assert oracle[-1] >= n
    np.testing.assert_array_equal(pos, oracle[oracle < n])
