import hashlib
import threading

import numpy as np
import pytest
from scipy import stats

from dpsparse import (
    InvalidConfigError,
    InvalidParameterError,
    RngHandle,
    SyntheticConfig,
    generate_synthetic,
    nu_from_zeta,
    sampling,
    student_t,
)
from dpsparse import _kernels
from dpsparse._kernels import _laplace_icdf

N_DRAWS = 1_000_000


def test_rng_handle_reproducible():
    a = RngHandle(seed=42, stream=3).generator().random(5)
    b = RngHandle(seed=42, stream=3).generator().random(5)
    np.testing.assert_array_equal(a, b)
    c = RngHandle(seed=42, stream=4).generator().random(5)
    assert not np.array_equal(a, c)


def test_rng_handle_is_sfc64_keyed_by_seed_sequence():
    m = 0xFFFFFFFFFFFFFFFF
    gen = RngHandle(42, 3).generator()
    assert isinstance(gen.bit_generator, np.random.SFC64)
    hand = np.random.Generator(np.random.SFC64(np.random.SeedSequence([42 & m, 3 & m])))
    np.testing.assert_array_equal(gen.random(8), hand.random(8))
    # Negative seeds are masked to 64 bits, so -1 and 2**64 - 1 name one stream.
    np.testing.assert_array_equal(
        RngHandle(-1, 3).generator().random(8), RngHandle(2**64 - 1, 3).generator().random(8)
    )


def draw_laplace(b, rng, size):
    # Laplace draws as a peel makes them: uniforms mapped in place.
    return _laplace_icdf(rng.generator().random(size), b)


def test_laplace_moments():
    # Lap(1): mean 0, variance 2b^2 = 2.
    draws = draw_laplace(1.0, RngHandle(7), size=N_DRAWS)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 2.0) < 0.05


def test_laplace_scaling_is_exact():
    # Inverse-CDF construction: draws at scale c*b are exactly c times draws at b.
    c = 3.7
    a = draw_laplace(1.0, RngHandle(11), size=1000)
    b = draw_laplace(c, RngHandle(11), size=1000)
    np.testing.assert_allclose(b, c * a, rtol=1e-15)


def test_laplace_determinism():
    a = draw_laplace(2.0, RngHandle(5, 1), size=8)
    b = draw_laplace(2.0, RngHandle(5, 1), size=8)
    np.testing.assert_array_equal(a, b)


def test_student_t_rejects_small_nu():
    with pytest.raises(InvalidParameterError):
        student_t(1.0, RngHandle(0))
    with pytest.raises(InvalidParameterError):
        student_t(0.5, RngHandle(0))


def test_student_t_moments_nu3():
    draws = student_t(3.0, RngHandle(13), size=N_DRAWS)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 3.0) < 0.2  # Var = nu/(nu-2) = 3


def test_student_t_tail_nu175():
    # Quadrature oracle (scipy.stats.t.sf(10, 1.75)): one-sided tail 7.547e-3,
    # two-sided 1.509e-2. The empirical two-sided tail must match the
    # integral; the one-sided tail lies in (1e-4, 1e-2).
    draws = student_t(1.75, RngHandle(17), size=N_DRAWS)
    two_sided = float(np.mean(np.abs(draws) > 10.0))
    assert 0.7 * 1.509e-2 < two_sided < 1.3 * 1.509e-2
    one_sided = float(np.mean(draws > 10.0))
    assert 1e-4 < one_sided < 1e-2


def test_student_t_determinism():
    a = student_t(2.5, RngHandle(3, 2), size=6)
    b = student_t(2.5, RngHandle(3, 2), size=6)
    np.testing.assert_array_equal(a, b)


def test_nu_from_zeta_anchors_and_linear_rule():
    assert nu_from_zeta(0.5) == 1.75
    assert nu_from_zeta(1.0) == 3.0
    assert nu_from_zeta(0.25) == pytest.approx(1.5)
    assert nu_from_zeta(0.75) == pytest.approx(2.5)
    with pytest.raises(InvalidParameterError):
        nu_from_zeta(0.0)
    with pytest.raises(InvalidParameterError):
        nu_from_zeta(1.2)


def test_generate_synthetic_noiseless_model():
    cfg = SyntheticConfig(n=50, d=8, s_star=3, noise_scale=0.0, seed=9)
    ds, beta_star = generate_synthetic(cfg)
    support = np.flatnonzero(beta_star)
    # y reads only the support columns; the dense product agrees to rounding.
    np.testing.assert_array_equal(ds.y, ds.x.take(support, axis=1) @ beta_star[support])
    np.testing.assert_allclose(ds.y, ds.x @ beta_star, rtol=1e-12)


def test_generate_synthetic_deterministic():
    cfg = SyntheticConfig(n=30, d=6, s_star=2, seed=21)
    ds1, b1 = generate_synthetic(cfg)
    ds2, b2 = generate_synthetic(cfg)
    np.testing.assert_array_equal(ds1.x, ds2.x)
    np.testing.assert_array_equal(ds1.y, ds2.y)
    np.testing.assert_array_equal(b1, b2)


def test_generate_synthetic_support_size():
    for seed in range(5):
        cfg = SyntheticConfig(n=5, d=40, s_star=7, seed=seed)
        _, beta_star = generate_synthetic(cfg)
        assert int((beta_star != 0).sum()) == 7


def test_generate_synthetic_ols_recovery():
    # Least squares on (n=1e4, d=10) recovers beta* well within
    # 5 * noise_scale * sqrt(d/n); classical OLS oracle.
    cfg = SyntheticConfig(n=10_000, d=10, s_star=10, zeta=1.0, noise_scale=0.5, seed=33)
    ds, beta_star = generate_synthetic(cfg)
    ols, *_ = np.linalg.lstsq(ds.x, ds.y, rcond=None)
    err = float(np.linalg.norm(ols - beta_star))
    assert err < 5 * cfg.noise_scale * np.sqrt(cfg.d / cfg.n)


def test_generate_synthetic_validates_config():
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(n=10, d=5, s_star=6)
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(n=10, d=5, s_star=2, zeta=0.0)


# Row blocks of a synthetic draw, shrunk so that small shapes span many
# blocks: at d = 8, block 0 holds 256 // 8 = 32 rows and every later block an
# eighth of that, 4 rows.
BLOCK_ENTRIES = 256
BLOCK_D = 8
BLOCK_ROWS = BLOCK_ENTRIES // BLOCK_D
LATER_ROWS = BLOCK_ROWS // 8


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", BLOCK_ENTRIES)


def block_config(n, seed=5):
    return SyntheticConfig(n=n, d=BLOCK_D, s_star=3, zeta=0.5, seed=seed)


def later_bounds(n):
    """(start, stop) rows of each block after block 0 in an n-row draw."""
    starts = range(BLOCK_ROWS, n, LATER_ROWS)
    return [(start, min(start + LATER_ROWS, n)) for start in starts]


def test_blocked_bytes_do_not_depend_on_the_thread_count(small_blocks, monkeypatch):
    cfg = block_config(10 * BLOCK_ROWS + 7)
    assert len(later_bounds(cfg.n)) >= 3
    draws = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_kernels, "_cpu_count", lambda cpus=cpus: cpus)
        ds, beta_star = generate_synthetic(cfg)
        draws.append((ds.x.tobytes(), ds.y.tobytes(), beta_star.tobytes()))
    assert draws[0] == draws[1] == draws[2]


def oracle_draw(cfg, blocks):
    """The pinned stream order: stream 0 draws the support, the values, the
    first of ``blocks`` (row counts) and then the noise; the k-th block is
    the whole of stream k. Returns (x, y, beta_star)."""
    gen = RngHandle(cfg.seed, stream=0).generator()
    support = np.sort(gen.choice(cfg.d, size=cfg.s_star, replace=False))
    values = gen.standard_normal(cfg.s_star)
    parts = [gen.standard_normal((blocks[0], cfg.d))]
    z = gen.standard_normal(cfg.n)
    noise = z / np.sqrt(gen.chisquare(cfg.nu, cfg.n) / cfg.nu)
    for k, rows in enumerate(blocks[1:], start=1):
        parts.append(RngHandle(cfg.seed, stream=k).generator().standard_normal((rows, cfg.d)))
    x = np.concatenate(parts)
    beta_star = np.zeros(cfg.d)
    beta_star[support] = values
    return x, x.take(support, axis=1) @ values + noise, beta_star


@pytest.mark.parametrize("n", [BLOCK_ROWS - 5, BLOCK_ROWS])
def test_a_single_block_draw_is_the_one_stream_draw(small_blocks, n):
    # Oracle: every draw in order from stream 0, the features as one n x d
    # array (the layout before row blocks).
    cfg = block_config(n)
    x, y, beta_star = oracle_draw(cfg, [n])
    ds, got_beta = generate_synthetic(cfg)
    assert got_beta.tobytes() == beta_star.tobytes()
    assert ds.x.tobytes() == x.tobytes()
    assert ds.y.tobytes() == y.tobytes()


def test_a_multi_block_draw_is_block_0_then_one_stream_per_later_block(small_blocks):
    # Block 0, three whole later blocks and a short last one of 2 rows.
    n = BLOCK_ROWS + 3 * LATER_ROWS + 2
    cfg = block_config(n)
    x, y, beta_star = oracle_draw(cfg, [BLOCK_ROWS, LATER_ROWS, LATER_ROWS, LATER_ROWS, 2])
    ds, got_beta = generate_synthetic(cfg)
    assert got_beta.tobytes() == beta_star.tobytes()
    assert ds.x.tobytes() == x.tobytes()
    assert ds.y.tobytes() == y.tobytes()


def test_each_later_block_is_its_own_stream(small_blocks):
    cfg = block_config(BLOCK_ROWS + 5 * LATER_ROWS + 3)
    ds, _ = generate_synthetic(cfg)
    bounds = later_bounds(cfg.n)
    assert len(bounds) == 6 and bounds[-1] == (cfg.n - 3, cfg.n)
    for k, (start, stop) in enumerate(bounds, start=1):
        block = ds.x[start:stop]
        want = RngHandle(cfg.seed, stream=k).generator().standard_normal(block.shape)
        assert block.tobytes() == want.tobytes()


def test_features_are_a_row_prefix_of_a_larger_draw(small_blocks):
    full, beta_full = generate_synthetic(block_config(5 * BLOCK_ROWS + 3))
    assert len(later_bounds(full.n)) >= 3
    cuts = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + LATER_ROWS,
            BLOCK_ROWS + 3 * LATER_ROWS + 1, 3 * BLOCK_ROWS + 17)
    for n in cuts:
        ds, beta_star = generate_synthetic(block_config(n))
        assert ds.x.tobytes() == full.x[:n].tobytes()
        assert beta_star.tobytes() == beta_full.tobytes()


def test_blocked_features_are_standard_normal_across_block_boundaries(small_blocks):
    # Block 0 and 992 later blocks. The entries as a whole, and the pairs of
    # entries that face each other across a boundary (last row of block
    # k - 1, first row of block k), which come from different streams.
    ds, _ = generate_synthetic(block_config(125 * BLOCK_ROWS, seed=8))
    starts = np.array([start for start, _ in later_bounds(ds.n)])
    assert stats.kstest(ds.x.ravel(), "norm").pvalue > 1e-3
    last = ds.x[starts - 1].ravel()
    first = ds.x[starts].ravel()
    assert stats.kstest(np.concatenate([last, first]), "norm").pvalue > 1e-3
    assert stats.pearsonr(last, first).pvalue > 1e-3


def test_blocked_draws_share_one_pool_of_a_thread_per_other_cpu(small_blocks, monkeypatch):
    # The first draw builds the pool at 3 CPUs and the later ones reuse it:
    # the threads the draws start stay for the next draw and number at most
    # the pool's 2, also while the blocks fill. (The pool starts a thread
    # only when no started one is idle, so the second may start late.)
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 3)
    monkeypatch.setattr(_kernels, "_pool", None)
    generator, running = RngHandle.generator, []

    def counted(handle):
        running.append(threading.active_count())
        return generator(handle)

    monkeypatch.setattr(RngHandle, "generator", counted)
    cfg = block_config(10 * BLOCK_ROWS)
    before = set(threading.enumerate())
    generate_synthetic(cfg)
    pool = _kernels._pool
    try:
        started = set(threading.enumerate()) - before
        assert started
        for _ in range(3):
            generate_synthetic(cfg)
            assert started <= set(threading.enumerate()) - before
            started = set(threading.enumerate()) - before
            assert len(started) <= 2
        assert len(running) == 4 * len(later_bounds(cfg.n)) + 4
        assert max(running) <= len(before) + 2
    finally:
        pool.shutdown()


def test_the_guard_shape_draw_keeps_its_version_6_bytes():
    # perfbench's quality guard draws this shape; it is one row block
    # (4000 <= 2**22 // 1000 rows), so its bytes are pinned across versions.
    ds, beta_star = generate_synthetic(SyntheticConfig(4000, 1000, 5, zeta=0.5, seed=20250606))
    digest = hashlib.sha256()
    for part in (ds.x, ds.y, beta_star):
        digest.update(part.tobytes())
    assert digest.hexdigest() == "f56c232e007628acd5df287e94a7acc0fff833c34921c44a92f014a2453af015"
