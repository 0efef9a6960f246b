import numpy as np
import pytest

from dpsparse import (
    ConstantStep,
    Dataset,
    EstimatorConfig,
    InvalidConfigError,
    InvalidInputError,
    PrivacyParams,
    Squared,
    TwoPhaseStep,
    batch_gradient,
    l2_error,
    load_csv,
    mae,
    project_l2,
    save_csv,
    split_folds,
)
from dpsparse.errors import CsvParseError


def rand_dataset(n=20, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))


# the feature clip ----------------------------------------------------------


def clipped_row(x, K):
    """The row x as a fit's gradient reads it after the clip at K.

    A one-row fold at beta = 0 with response -1 (within the response clip)
    has squared-loss residual 1, so its gradient is the clipped row itself.
    """
    fold = Dataset(x[None, :], [-1.0])
    return batch_gradient(fold, np.zeros(x.size), Squared(response_clip=1.0), K)


def test_clip_basic():
    np.testing.assert_allclose(
        clipped_row(np.array([0.3, -5.2, 2.0]), 2.0), [0.3, -2.0, 2.0]
    )


def test_clip_identity_inside_ball():
    x = np.array([0.5, -1.0, 1.5])
    np.testing.assert_array_equal(clipped_row(x, 2.0), x)


def test_clip_zero_fixed_point():
    np.testing.assert_array_equal(clipped_row(np.zeros(3), 1.0), np.zeros(3))


def test_clip_idempotent_and_monotone_in_k():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(17) * rng.uniform(0.1, 10)
        k1, k2 = sorted(rng.uniform(0.05, 5, size=2))
        np.testing.assert_array_equal(clipped_row(clipped_row(x, k1), k1), clipped_row(x, k1))
        assert (np.abs(clipped_row(x, k1)) <= np.abs(clipped_row(x, k2)) + 1e-15).all()


def test_clip_rejects_bad_input():
    # A non-finite entry is refused when the dataset is built, before any clip.
    with pytest.raises(InvalidInputError):
        clipped_row(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(InvalidInputError):
        clipped_row(np.array([1.0]), 0.0)


# project_l2 ---------------------------------------------------------------


def test_project_scales_to_radius():
    np.testing.assert_allclose(project_l2(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])


def test_project_interior_point_unchanged():
    v = np.array([0.1, 0.2])
    np.testing.assert_array_equal(project_l2(v, 1.0), v)


def test_project_zero_vector():
    np.testing.assert_array_equal(project_l2(np.zeros(4), 2.0), np.zeros(4))


def test_project_idempotent_and_norm_bounded():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(9) * rng.uniform(0.01, 100)
        L = rng.uniform(0.1, 10)
        p = project_l2(v, L)
        assert np.linalg.norm(p) <= L + 1e-12
        np.testing.assert_allclose(project_l2(p, L), p)
        # direction preserved
        if np.linalg.norm(v) > 0:
            cos = v @ p / (np.linalg.norm(v) * max(np.linalg.norm(p), 1e-300))
            assert cos > 1 - 1e-12 or np.linalg.norm(p) == 0


def test_project_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        project_l2(np.array([np.inf, 0.0]), 1.0)


# split_folds --------------------------------------------------------------


def test_split_exact_division():
    ds = rand_dataset(n=10)
    folds = split_folds(ds, 5)
    assert len(folds) == 5 and all(f.n == 2 for f in folds)


def test_split_discards_remainder():
    ds = rand_dataset(n=11)
    folds = split_folds(ds, 5)
    assert [f.n for f in folds] == [2] * 5
    used = np.vstack([f.x for f in folds])
    np.testing.assert_array_equal(used, ds.x[:10])


def test_split_identity():
    ds = rand_dataset(n=7)
    folds = split_folds(ds, 1)
    assert len(folds) == 1 and folds[0].n == 7
    np.testing.assert_array_equal(folds[0].x, ds.x)


def test_split_folds_disjoint_cover():
    ds = rand_dataset(n=23, seed=3)
    for T in (1, 2, 3, 7, 23):
        folds = split_folds(ds, T)
        m = ds.n // T
        assert all(f.n == m for f in folds)
        stacked = np.vstack([f.x for f in folds])
        np.testing.assert_array_equal(stacked, ds.x[: T * m])


def test_split_rejects_too_many_folds():
    with pytest.raises(InvalidConfigError):
        split_folds(rand_dataset(n=5), 6)


# metrics ------------------------------------------------------------------


def test_l2_error_examples():
    v = np.array([1.0, 2.0, 3.0])
    assert l2_error(v, v) == 0.0
    assert l2_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2))
    assert l2_error(np.array([3.0, 0, 0]), np.array([0, 4.0, 0])) == pytest.approx(5.0)


def test_l2_error_length_mismatch():
    with pytest.raises(InvalidInputError):
        l2_error(np.zeros(2), np.zeros(3))


def test_mae_examples():
    y = np.array([1.0, -2.0])
    assert mae(y, y) == 0.0
    assert mae(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == 1.0


def test_mae_matches_scalar_loop_oracle():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(100), rng.standard_normal(100)
    acc = 0.0
    for x, y in zip(a, b):
        acc += abs(x - y)
    assert abs(mae(a, b) - acc / 100) < 1e-12


def test_mae_empty_rejected():
    with pytest.raises(InvalidInputError):
        mae(np.array([]), np.array([]))


# domain types -------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        Dataset(np.ones((3, 2)), np.ones(4))
    with pytest.raises(InvalidInputError):
        Dataset(np.ones((0, 2)), np.ones(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["x", "y"])
def test_dataset_rejects_non_finite_entries(bad, where):
    x, y = np.ones((3, 4)), np.ones(3)
    if where == "x":
        x[1, 2] = bad
    else:
        y[2] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        Dataset(x, y)


def test_row_peak_is_read_only_and_shared_by_views():
    x = np.array([[1.0, -3.0], [0.5, 0.25], [-0.0, 2.0], [4.0, -4.5]])
    ds = Dataset(x, np.arange(4.0))
    np.testing.assert_array_equal(ds.row_peak, [3.0, 0.5, 2.0, 4.5])
    assert not ds.row_peak.flags.writeable
    with pytest.raises(ValueError):
        ds.row_peak[0] = 0.0
    for t, fold in enumerate(split_folds(ds, 2)):
        assert np.shares_memory(fold.row_peak, ds.row_peak)
        np.testing.assert_array_equal(fold.row_peak, ds.row_peak[2 * t : 2 * t + 2])
        assert not fold.row_peak.flags.writeable


def test_dataset_is_frozen_and_copies():
    x = np.ones((2, 2))
    ds = Dataset(x, np.ones(2))
    x[0, 0] = 99.0
    assert ds.x[0, 0] == 1.0
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0


def test_privacy_params():
    p = PrivacyParams(0.5, 1e-3)
    assert p.is_private
    np_mode = PrivacyParams.non_private()
    assert not np_mode.is_private
    with pytest.raises(InvalidConfigError):
        PrivacyParams(-1.0, 0.1)
    with pytest.raises(InvalidConfigError):
        PrivacyParams(1.0, 1.5)


def test_estimator_config_reports_all_problems():
    with pytest.raises(InvalidConfigError) as err:
        EstimatorConfig(s=0, T=0, K=-1.0, L=0.0, schedule=ConstantStep(0.1))
    msg = str(err.value)
    for name in ("s", "T", "K", "L"):
        assert name in msg


def test_step_schedules():
    c = ConstantStep(0.05)
    assert c.step(0) == c.step(100) == 0.05
    tp = TwoPhaseStep(eta0=1.0, decay=0.5, switch_iter=2, eta_const=0.01)
    assert tp.step(0) == 1.0
    assert tp.step(1) == 0.5
    assert tp.step(2) == 0.01 and tp.step(50) == 0.01
    with pytest.raises(InvalidConfigError):
        TwoPhaseStep(eta0=1.0, decay=1.5, switch_iter=2, eta_const=0.01)


# CSV round trip -----------------------------------------------------------


def test_csv_round_trip(tmp_path):
    ds = rand_dataset(n=13, d=3, seed=5)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    loaded, names = load_csv(path)
    assert names == ["x1", "x2", "x3"]
    np.testing.assert_allclose(loaded.x, ds.x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(loaded.y, ds.y, rtol=0, atol=1e-12)


def test_load_csv_adopts_its_arrays(tmp_path, monkeypatch):
    # Dataset.__post_init__ copies caller arrays; load_csv builds its own and
    # needs no second copy, but still checks and freezes them.
    ds = rand_dataset(n=13, d=3, seed=6)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    builds = []
    post_init = Dataset.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    loaded, _ = load_csv(path)
    assert builds == []
    assert loaded.x.tobytes() == ds.x.tobytes() and loaded.y.tobytes() == ds.y.tobytes()
    assert loaded.row_peak.tobytes() == ds.row_peak.tobytes()
    assert not loaded.x.flags.writeable and not loaded.y.flags.writeable
    path.write_text("x1,y\n1.0,2.0\nnan,3.0\n")
    with pytest.raises(InvalidInputError):
        load_csv(path)


def test_csv_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,oops,3.0\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert err.value.line == 3


def test_csv_missing_response_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(CsvParseError):
        load_csv(path, response_col="y")
