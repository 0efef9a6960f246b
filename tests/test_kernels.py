"""The numpy kernels against per-row Python loops.

The gradient oracles sum in another order than BLAS, so they agree to a
relative 1e-12 (float64 sums over a few dozen terms). Selection involves no
arithmetic order and must agree exactly: its oracle scores every index of
every round, with the noise of a dense uniform block, and the kernel reads
that block's sparse representation.
"""

import math

import numpy as np
import pytest

from dpsparse import RngHandle
from dpsparse import _kernels as k
from dpsparse.sampling import _laplace_icdf


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
    selected, taken = [], set()
    for row in noise.tolist():
        best, best_score = -1, -math.inf
        for j, a in enumerate(absv.tolist()):
            if j not in taken and a + row[j] > best_score:  # strict: lowest index wins ties
                best, best_score = j, a + row[j]
        selected.append(best)
        taken.add(best)
    return selected


def sparse_select(absv, u, b):
    """``peel_select`` on the sparse representation of an (s+1) x d block ``u``.

    Outside the top s columns (as ``_candidates`` takes them), the hits are
    the entries of rows 0..s-1 at or below t0, by their positions in the
    round-major s x (d - s) block of the other columns; the top columns take
    their block values; a fallback round's row is its block row, whose other
    entries are above t0. Returns the selection and the value noise, which
    row s gives at the selected columns.
    """
    s, d = u.shape[0] - 1, u.shape[1]
    top = np.argpartition(absv, d - s - 1)[d - s :] if d > s else np.arange(d)
    rest = np.setdiff1d(np.arange(d), top)
    block = u[:s, rest].ravel()
    pos = np.flatnonzero(block <= k.hit_rate(d))
    values = np.concatenate((block[pos], u[:s, top].ravel()))
    selected = k.peel_select(absv, s, pos, values, b, lambda i: u[i].copy())
    return selected, _laplace_icdf(u[s, selected], b)


def dense_noise(u, b):
    # The Laplace block the dense selection scored: every entry transformed.
    return _laplace_icdf(u.copy(), b)


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


def check_select(absv, u, b):
    s = u.shape[0] - 1
    noise = dense_noise(u, b)
    selected, value = sparse_select(absv, u, b)
    np.testing.assert_array_equal(selected, peel_oracle(absv, noise[:s]))
    assert value.tobytes() == noise[s, selected].tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_peel_select_matches_loop(seed):
    rng = np.random.default_rng(seed)
    absv = np.abs(rng.standard_normal(80))
    u = rng.random((10, 80))
    check_select(absv, u, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_peel_select_ties_match_loop(seed):
    # Small integer magnitudes and four uniform values (noise 0, +-b ln 2)
    # make ties common; both pick the lowest index.
    rng = np.random.default_rng(100 + seed)
    absv = rng.integers(0, 4, 40).astype(float)
    u = rng.integers(0, 4, (13, 40)) / 4.0
    check_select(absv, u, 1.0 / math.log(2.0))


def test_peel_select_tie_breaks_lowest_index():
    absv = np.array([2.0, 3.0, 3.0, 1.0])
    # u = 1/2 is a zero draw: the scores are absv.
    np.testing.assert_array_equal(sparse_select(absv, np.full((3, 4), 0.5), 1.0)[0], [1, 2])


def magnitudes(kind, d, s, rng):
    if kind == "ties":
        return rng.integers(-3, 4, d).astype(float)
    v = rng.standard_normal(d)
    if kind == "signal":  # s entries far above the rest
        v[rng.choice(d, s, replace=False)] += 50.0 * np.sign(rng.standard_normal(s))
    return v


def uniforms(source, shape, seed):
    if source == "zeros":  # every draw hits the r == 0 remap
        return np.zeros(shape)
    u = RngHandle(seed, 3).generator().random(shape)
    if source == "planted zeros":
        u.flat[::7] = 0.0
    return u


# (d, s): s up to d where the loop oracle stays fast.
PEEL_SHAPES = [(1, 1), (2, 1), (2, 2), (5, 1), (5, 3), (5, 5), (30, 1), (30, 7), (30, 30),
               (1000, 5), (1000, 50), (1000, 1000), (10000, 5), (10000, 50)]
SCALES = [1e-300, 1e-12, 0.05, 1e12]
KINDS = ["gaussian", "ties", "signal"]
SOURCES = ["generator", "planted zeros", "zeros"]


def peel_cases():
    # Every (b, kind, source) on the small shapes; at d >= 1000 each scale
    # once, with the kinds and sources in rotation.
    for d, s in PEEL_SHAPES:
        if d < 1000:
            for b in SCALES:
                for kind in KINDS:
                    for source in SOURCES:
                        yield d, s, b, kind, source
        else:
            for i, b in enumerate(SCALES):
                yield d, s, b, KINDS[i % 3], SOURCES[i % 2]


def test_certified_peel_equals_the_dense_oracle_byte_for_byte(monkeypatch):
    # The kernel on each block's sparse representation: selection order and
    # value noise. The case set must run both certified rounds and fallback
    # rounds (every _dense_round call is one).
    dense_round, rounds = k._dense_round, {"all": 0, "dense": 0}

    def counted(*args):
        rounds["dense"] += 1
        return dense_round(*args)

    monkeypatch.setattr(k, "_dense_round", counted)
    for seed, (d, s, b, kind, source) in enumerate(peel_cases()):
        rng = np.random.default_rng(seed)
        absv = np.abs(magnitudes(kind, d, s, rng))
        u = uniforms(source, (s + 1, d), seed)
        noise = dense_noise(u, b)
        selected = np.array(peel_oracle(absv, noise[:s]), dtype=np.int64)
        case = f"d={d} s={s} b={b} {kind} {source}"
        got_s, got_noise = sparse_select(absv, u, b)
        assert got_s.tobytes() == selected.tobytes(), case
        assert got_noise.tobytes() == noise[s, selected].tobytes(), case
        rounds["all"] += s
    assert 0 < rounds["dense"] < rounds["all"]


def test_backend_name_is_numpy():
    assert k.backend_name() == "numpy"
