"""The numpy kernels against per-row Python loops.

The gradient oracles sum in another order than BLAS, so they agree to a
relative 1e-12 (float64 sums over a few dozen terms). Selection involves no
arithmetic order and must agree exactly: its oracle scores every index of
every round, with the noise of a dense uniform block, and the kernel reads
that block's sparse representation. A gradient whose product runs on column
blocks must have the bytes of one plain product, with BLAS on one thread:
the library holds it there, whatever the BLAS thread variables say.
"""

import hashlib
import math

import numpy as np
import pytest

from dpsparse import Dataset, Huber, RngHandle, batch_gradient
from dpsparse import _kernels as k
from dpsparse._kernels import _laplace_icdf


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


# Widths from fit-tall's 1000 through the least that gave two blocks before
# 1000-column folds split (2048) to fit-wide's 10000, fold sizes from one row
# through fit-wide's 235 to fit-tall's 1000, and CPU counts from the single
# call to more blocks than any width here gets. At m = 128 the head start
# would leave d = 2048 an empty block and d = 2049 a block of one column,
# whose product numpy takes as a dot, with other bytes.
BLOCK_DS = (1000, 1100, 2047, 2048, 2049, 4100, 10000)
BLOCK_MS = (1, 31, 64, 128, 235, 1000)
BLOCK_CPUS = (1, 2, 3, 8)
BLOCK_TAU = 1.3


def rule_blocks(d, m, cpus):
    """How many column blocks the product of an m x d fold runs on, by the rule.

    The most blocks k <= min(CPUs, m * d // 2**17) whose block 0, d / k columns
    plus a head start of 2**17 / m rounded to a multiple of 64, keeps at least
    512 columns and leaves at least 64 for each of the k - 1 others; 1 when no
    k >= 2 does.
    """
    for blocks in range(min(cpus, m * d // 2**17), 1, -1):
        first = round((d / blocks + 2**17 / m) / 64) * 64
        if first >= 512 and d - first >= 64 * (blocks - 1):
            return blocks
    return 1


def one_product_grad(kernel, xc, y, beta):
    """The gradient with its product as one plain ``x.T @ w``."""
    m = xc.shape[0]
    if kernel == "huber":
        return -(xc.T @ np.clip(y - k.support_matvec(xc, beta), -BLOCK_TAU, BLOCK_TAU)) / m
    if kernel == "l1":
        return (xc.T @ np.sign(k.support_matvec(1.7 * xc, beta) - y)) / m
    return (xc.T @ (k.support_matvec(xc, beta) - y)) / m


def blocked_grad_mismatches(kernel, monkeypatch):
    """The (d, m, cpus) cases whose gradient bytes differ from ``one_product_grad``'s.

    Also returns how many products ran on column blocks. Both sides run
    under one pin, so BLAS is on one thread whatever the environment.
    """
    grads = {
        "huber": lambda xc, y, beta: k.huber_grad(xc, y, beta, BLOCK_TAU),
        "l1": lambda xc, y, beta: k.l1_grad(1.7 * xc, xc, y, beta),
        "squared": k.squared_grad,
    }
    pool, blocked, mismatches = k._thread_pool, [], []

    def counted():
        blocked.append(1)
        return pool()

    monkeypatch.setattr(k, "_thread_pool", counted)
    with k.blas_pinned():
        for d in BLOCK_DS:
            for m in BLOCK_MS:
                xc, y, beta = random_fold(m, d, seed=d + m)
                beta[np.abs(beta) < 2.0] = 0.0  # sparse, as after hard thresholding
                want = one_product_grad(kernel, xc, y, beta).tobytes()
                for cpus in BLOCK_CPUS:
                    monkeypatch.setattr(k, "_cpu_count", lambda cpus=cpus: cpus)
                    if grads[kernel](xc, y, beta).tobytes() != want:
                        mismatches.append([d, m, cpus])
    return mismatches, len(blocked)


@pytest.mark.parametrize("kernel", ["huber", "l1", "squared"])
def test_blocked_gradient_has_the_bytes_of_one_product(kernel, monkeypatch):
    mismatches, blocked = blocked_grad_mismatches(kernel, monkeypatch)
    assert mismatches == []
    cases = [(d, m, cpus) for d in BLOCK_DS for m in BLOCK_MS for cpus in BLOCK_CPUS]
    assert blocked == sum(rule_blocks(*case) >= 2 for case in cases)
    for d, m, cpus in cases:
        cuts = k._cuts(m, d, cpus) or [0, d]
        assert len(cuts) - 1 == rule_blocks(d, m, cpus)
        assert cuts[0] == 0 and cuts[-1] == d
        if len(cuts) > 2:
            assert all(c % 64 == 0 for c in cuts[:-1])
            assert all(b - a >= 64 for a, b in zip(cuts, cuts[1:]))  # none empty or a sliver
            assert cuts[1] >= 512


def tall_gradient():
    """The sha256 of a Huber gradient at fit-tall's fold shape on two CPUs, and
    whether it built the pool."""
    k._cpu_count = lambda: 2
    xc, y, beta = random_fold(1000, 1000)
    fold = Dataset(xc, y)
    grad = batch_gradient(fold, np.where(np.abs(beta) < 2.0, 0.0, beta), Huber(BLOCK_TAU), None)
    return hashlib.sha256(grad.tobytes()).hexdigest(), k._pool is not None


# OpenBLAS takes the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
# OMP_NUM_THREADS that is set, and with none set a thread per CPU.
@pytest.mark.parametrize(
    "blas_env",
    [
        {},
        {"OPENBLAS_NUM_THREADS": "2"},
        {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
        {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
        {"OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "1"},
    ],
    ids=["unset", "openblas-2", "openblas-2-omp-1", "goto-1-omp-2", "omp-1", "openblas-1"],
)
def test_products_split_with_the_same_bytes_in_every_blas_environment(
    blas_env, one_blas_thread, monkeypatch
):
    digest, started = one_blas_thread("test_kernels", "tall_gradient", blas_env=blas_env)
    assert started
    monkeypatch.setattr(k, "_cpu_count", lambda: 2)
    xc, y, beta = random_fold(1000, 1000)
    with k.blas_pinned():
        want = one_product_grad("huber", xc, y, np.where(np.abs(beta) < 2.0, 0.0, beta))
    assert digest == hashlib.sha256(want.tobytes()).hexdigest()


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
