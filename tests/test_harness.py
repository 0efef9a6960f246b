import os

import numpy as np
import pytest

from dpsparse import (
    Dataset,
    EstimatorKind,
    ExperimentBase,
    RealDataSpec,
    SweepSpec,
    SyntheticConfig,
    derive_seed,
    fit_estimator,
    generate_synthetic,
    load_csv,
    run_real,
    run_sensitivity_suite,
    run_sweep,
    save_csv,
)
from dpsparse import _kernels, harness
from dpsparse.errors import InvalidConfigError, InvalidInputError, NumericalFailureError
from dpsparse.harness import (
    compute_aggregates,
    write_json,
    write_real_csv,
    write_results_csv,
)

ADA = EstimatorKind.ADA_HUBER_LITE
H = EstimatorKind.DP_IHT_H
L = EstimatorKind.DP_IHT_L
SLR = EstimatorKind.DP_SLR_LITE


def small_base(seed=0, **kwargs):
    defaults = dict(
        synthetic=SyntheticConfig(n=60, d=12, s_star=3, seed=seed),
        epsilon=1.0,
        eta=0.1,
        T=4,
        tau=2.0,
    )
    defaults.update(kwargs)
    return ExperimentBase(**defaults)


def small_spec(estimators=(ADA,), values=(40, 60), repeats=2, axis="n", **kwargs):
    return SweepSpec(
        axis=axis, values=values, base=small_base(**kwargs), repeats=repeats,
        estimators=estimators,
    )


# seed derivation -------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    a = derive_seed("data", 0, "n", 500, 0)
    assert a == derive_seed("data", 0, "n", 500, 0)
    assert a != derive_seed("data", 0, "n", 500, 1)
    assert a != derive_seed("data", 1, "n", 500, 0)
    assert 0 <= a < 2**63


def test_adding_estimator_keeps_other_rows():
    res1 = run_sweep(small_spec(estimators=(ADA,)))
    res2 = run_sweep(small_spec(estimators=(ADA, L)))
    rows1 = [r for r in res1.rows if r.estimator == ADA.value]
    rows2 = [r for r in res2.rows if r.estimator == ADA.value]
    assert [(r.value, r.seed, r.l2_error) for r in rows1] == [
        (r.value, r.seed, r.l2_error) for r in rows2
    ]


# sweeps -----------------------------------------------------------------------


def test_sweep_row_count_single_cell():
    res = run_sweep(small_spec(estimators=(ADA,), values=(50,), repeats=1))
    assert len(res.rows) == 1


def test_sweep_row_count_and_order():
    spec = small_spec(estimators=(H, ADA), values=(40, 60), repeats=3)
    res = run_sweep(spec)
    assert len(res.rows) == 2 * 2 * 3
    keys = [(r.value, r.estimator, r.seed) for r in res.rows]
    assert keys == sorted(keys)


def test_sweep_deterministic():
    a = run_sweep(small_spec(estimators=(H,)))
    b = run_sweep(small_spec(estimators=(H,)))
    assert [(r.l2_error, r.mae, r.seed) for r in a.rows] == [
        (r.l2_error, r.mae, r.seed) for r in b.rows
    ]


def test_sweep_epsilon_axis_sets_budget():
    spec = small_spec(estimators=(H,), values=(0.5, 2.0), axis="epsilon", repeats=1)
    res = run_sweep(spec)
    assert {r.value for r in res.rows} == {0.5, 2.0}
    assert all(r.status == "ok" for r in res.rows)


def test_epsilon_sweep_fits_one_dataset_per_repeat(monkeypatch):
    # Every epsilon of a repeat fits the same data, drawn once, so the
    # comparisons across epsilon are paired; another repeat draws other data.
    drawn, generate = [], harness.generate_synthetic

    def spy(cfg):
        drawn.append(cfg.seed)
        return generate(cfg)

    monkeypatch.setattr(harness, "generate_synthetic", spy)
    spec = small_spec(estimators=(H, ADA), values=(0.5, 1.0, 2.0), axis="epsilon", repeats=2)
    res = run_sweep(spec, workers=1)
    seeds = []
    for repeat in range(2):
        rows = [r for r in res.rows if r.repeat == repeat]
        assert len(rows) == 6 and len({r.seed for r in rows}) == 1
        seeds.append(rows[0].seed)
    assert seeds[0] != seeds[1]
    assert sorted(drawn) == sorted(seeds)


@pytest.mark.parametrize(
    "axis,values", [("d", (8, 16)), ("s_star", (2, 4)), ("zeta", (0.5, 1.0))]
)
def test_sweep_other_axes_resolve(axis, values):
    spec = small_spec(estimators=(ADA,), values=values, axis=axis, repeats=1)
    res = run_sweep(spec)
    assert all(r.status == "ok" for r in res.rows)
    assert [r.value for r in res.rows] == [float(v) for v in values]


def test_sweep_failure_rows_do_not_abort():
    # A subnormal epsilon overflows the private baseline's noise scale at fit
    # time; its rows are marked failed while the non-private ones complete.
    spec = small_spec(estimators=(ADA, SLR), epsilon=1e-320)
    res = run_sweep(spec)
    assert len(res.rows) == 8
    slr_rows = [r for r in res.rows if r.estimator == SLR.value]
    assert all(r.status.startswith("failed") for r in slr_rows)
    assert all(np.isnan(r.l2_error) for r in slr_rows)
    ada_rows = [r for r in res.rows if r.estimator == ADA.value]
    assert all(r.status == "ok" for r in ada_rows)
    assert res.n_failed == 4


def test_sweep_numerical_failure_is_a_row(monkeypatch):
    def diverge(ds, fits, beta_star=None):
        return [NumericalFailureError("non-finite iterate at iteration 0", iteration=0)
                for _ in fits]

    monkeypatch.setattr(harness, "fit_many", diverge)
    res = run_sweep(small_spec(), workers=1)
    assert res.n_failed == len(res.rows) == 4
    assert all(r.status.startswith("failed: NumericalFailureError") for r in res.rows)


def test_sweep_reraises_programming_errors(monkeypatch):
    # A bug in a fit is not a failed row: the sweep stops and shows it.
    def broken(ds, fits, beta_star=None):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(harness, "fit_many", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_sweep(small_spec(), workers=1)


def test_aggregates_match_brute_force():
    res = run_sweep(small_spec(estimators=(H, ADA), repeats=3))
    for value in (40.0, 60.0):
        for est in (H.value, ADA.value):
            rows = [r for r in res.rows if r.value == value and r.estimator == est]
            agg = res.aggregates[str(value)][est]
            l2s = [r.l2_error for r in rows]
            assert abs(agg["l2_error_mean"] - sum(l2s) / len(l2s)) < 1e-12
            mean = sum(l2s) / len(l2s)
            var = sum((v - mean) ** 2 for v in l2s) / len(l2s)
            assert abs(agg["l2_error_std"] - var**0.5) < 1e-12
            assert agg["count"] == 3


def test_aggregates_skip_failed_rows():
    res = run_sweep(small_spec(estimators=(SLR,), epsilon=1e-320))
    assert res.aggregates == {}
    assert compute_aggregates(res.rows) == {}


def test_results_csv_deterministic_bytes(tmp_path):
    spec = small_spec(estimators=(H,))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(run_sweep(spec), p1)
    write_results_csv(run_sweep(spec), p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "axis,value,estimator,seed,l2_error,mae,wall_ms,status"


def test_results_csv_timing_optional(tmp_path):
    res = run_sweep(small_spec(estimators=(ADA,), values=(40,), repeats=1))
    p = tmp_path / "t.csv"
    write_results_csv(res, p, include_timing=True)
    row = p.read_text().splitlines()[1].split(",")
    assert float(row[6]) > 0  # wall_ms populated on request


def test_aggregates_json_written(tmp_path):
    res = run_sweep(small_spec(estimators=(ADA,), values=(40,), repeats=2))
    p = tmp_path / "agg.json"
    write_json(res.aggregates, p)
    import json

    data = json.loads(p.read_text())
    assert data["40.0"][ADA.value]["count"] == 2


def test_sweep_spec_validation():
    with pytest.raises(InvalidConfigError):
        small_spec(values=(60, 40))  # not increasing
    with pytest.raises(InvalidConfigError):
        small_spec(values=())
    with pytest.raises(InvalidConfigError):
        small_spec(repeats=0)
    with pytest.raises(InvalidConfigError):
        SweepSpec(axis="bogus", values=(1,), base=small_base(), repeats=1, estimators=(ADA,))


def test_a_cell_without_a_budget_still_reports_its_other_problems():
    # At n=1 the default delta, 1/n^1.1 = 1, is no budget; s > d holds there too.
    base = ExperimentBase(synthetic=SyntheticConfig(n=60, d=10, s_star=5), s=12)
    with pytest.raises(InvalidConfigError) as err:
        SweepSpec(axis="n", values=[1, 2, 60], base=base, repeats=1, estimators=(H, SLR))
    problems = str(err.value).split("; ")
    assert "n=1: delta must be set, since its default 1/n^1.1 needs n >= 2" in problems
    assert problems.count("sparsity s=12 exceeds dimension d=10") == 1


def test_sweep_workers_parallel_matches_serial():
    spec = small_spec(estimators=(H,), repeats=2)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert [(r.seed, r.l2_error) for r in serial.rows] == [
        (r.seed, r.l2_error) for r in parallel.rows
    ]


def wide_sweep_after_the_pool_started(log_path):
    """Sweep rows at workers=1 and 2, run after a wide fit started the product pool.

    Two CPUs are assumed, so the products split on any host, and every start
    of a blocked product logs its process id. A child forked after the fit
    runs a wide product too: on the pool it copied, whose threads did not
    survive the fork, it would wait for ever. Forks and patches the module
    for good: call it in a child interpreter.
    """
    pool = _kernels._thread_pool

    def logged():
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return pool()

    _kernels._cpu_count = lambda: 2
    _kernels._thread_pool = logged
    syn = SyntheticConfig(n=2000, d=2048, s_star=5, seed=3)
    ds, _ = generate_synthetic(syn)
    base = ExperimentBase(synthetic=syn, epsilon=5.0, eta=0.3, T=8)
    fit_estimator(ADA, ds, base.fit_config(ADA, ds.n, ds.d, 1), base.privacy(ds.n))
    assert _kernels._pool is not None
    child = os.fork()
    if child == 0:
        _kernels.xt_matvec(ds.x, ds.y)
        os._exit(0)
    assert os.waitpid(child, 0)[1] == 0
    spec = SweepSpec(
        axis="zeta", values=(0.5, 1.0), base=base, repeats=1, estimators=tuple(EstimatorKind)
    )
    rows = {
        workers: [
            [r.value, r.estimator, r.seed, r.l2_error.hex(), r.mae.hex(), r.status]
            for r in run_sweep(spec, workers=workers).rows
        ]
        for workers in (1, 2)
    }
    return os.getpid(), child, rows[1], rows[2]


def test_sweep_workers_after_a_wide_fit_match_serial_on_one_thread_each(one_blas_thread, tmp_path):
    # The child interpreter is killed, and the test fails, if it hangs.
    log = tmp_path / "blocked.log"
    parent, forked, serial, parallel = one_blas_thread(
        "test_harness", "wide_sweep_after_the_pool_started", str(log), timeout=120
    )
    assert len(serial) == 8 and all(row[-1] == "ok" for row in serial)
    assert parallel == serial
    # The fit, the serial sweep and the forked child ran blocked products; the
    # sweep's worker processes ran none.
    assert set(map(int, log.read_text().split())) == {parent, forked}


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_a_bad_workers_argument_before_any_pool(monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    with pytest.raises(InvalidConfigError, match=rf"workers must be a positive integer, got {workers}"):
        run_sweep(small_spec(estimators=(ADA,), values=(40,), repeats=1), workers=workers)


def test_sweep_workers_env_var(monkeypatch):
    monkeypatch.setenv("DPSPARSE_WORKERS", "2")
    spec = small_spec(estimators=(ADA,), values=(40,), repeats=2)
    res = run_sweep(spec)
    assert len(res.rows) == 2 and all(r.status == "ok" for r in res.rows)


# real data ---------------------------------------------------------------------


def _write_single_feature_csv(path, n=240, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = x[:, 0].copy()  # response equals the first feature exactly
    save_csv(Dataset(x, y), path)


def test_real_single_feature_recovery(tmp_path):
    path = tmp_path / "real.csv"
    _write_single_feature_csv(path)
    spec = RealDataSpec(base=ExperimentBase(s=1, T=12, eta=1.0, tau=20.0, K=100.0, epsilon=0.5))
    rows = run_real(*load_csv(path), spec, [ADA])
    assert rows[0].selected == ("x1",)
    assert rows[0].support_size == 1
    assert rows[0].mae < 1e-5
    assert rows[0].l2_vs_proxy is None  # ada-huber is the proxy itself


def test_real_private_run_reports_proxy_distance(tmp_path):
    path = tmp_path / "real.csv"
    _write_single_feature_csv(path, seed=1)
    spec = RealDataSpec(base=ExperimentBase(s=2, T=12, eta=1.0, tau=20.0, K=100.0, epsilon=5.0))
    rows = run_real(*load_csv(path), spec, [ADA, H])
    by_name = {r.estimator: r for r in rows}
    assert by_name["dp-iht-h"].l2_vs_proxy is not None
    assert by_name["ada-huber"].mae < 0.2


def test_real_fits_each_kind_once_proxy_first(tmp_path, monkeypatch):
    # The default list holds the proxy, ada-huber, too: its row reads the
    # proxy's fit instead of a second, identical one.
    path = tmp_path / "real.csv"
    _write_single_feature_csv(path, seed=2)
    spec = RealDataSpec(base=ExperimentBase(s=2, T=6, tau=20.0, epsilon=5.0))
    requested, fit_many = [], harness.fit_many

    def spy(ds, fits, beta_star=None):
        requested.append([kind for kind, _, _ in fits])
        return fit_many(ds, fits, beta_star)

    monkeypatch.setattr(harness, "fit_many", spy)
    rows = run_real(*load_csv(path), spec, [H, L, ADA, SLR, H])
    assert requested == [[ADA, H, L, SLR]]
    assert [row.estimator for row in rows] == ["dp-iht-h", "dp-iht-l", "ada-huber", "dp-slr",
                                               "dp-iht-h"]
    assert rows[0] == rows[4] and rows[2].l2_vs_proxy is None


def test_real_builds_no_dataset(tmp_path, monkeypatch):
    # load_csv and the train split make their arrays afresh; neither copies them again.
    path = tmp_path / "real.csv"
    _write_single_feature_csv(path, seed=4)
    spec = RealDataSpec(base=ExperimentBase(s=1, T=3, tau=20.0, epsilon=5.0))
    builds = []
    post_init = Dataset.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    rows = run_real(*load_csv(path), spec, [ADA, H])
    assert builds == [] and [row.estimator for row in rows] == ["ada-huber", "dp-iht-h"]


def test_real_csv_writer_schema(tmp_path):
    path = tmp_path / "real.csv"
    _write_single_feature_csv(path, seed=3)
    spec = RealDataSpec(base=ExperimentBase(s=1, T=3, tau=20.0))
    rows = run_real(*load_csv(path), spec, [ADA])
    out = tmp_path / "table.csv"
    write_real_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,mae,size,selected"
    assert lines[1].startswith("ada-huber,")


def test_real_needs_one_name_per_feature(tmp_path):
    path = tmp_path / "real.csv"
    _write_single_feature_csv(path)
    ds, names = load_csv(path)
    with pytest.raises(InvalidInputError, match="^5 feature names for d=6 features$"):
        run_real(ds, names[:-1], RealDataSpec(), [ADA])


def test_real_data_spec_validates_fraction():
    with pytest.raises(InvalidConfigError):
        RealDataSpec(train_fraction=1.5)


# sensitivity suite ---------------------------------------------------------------


def test_sensitivity_suite_passes():
    report = run_sensitivity_suite(trials=40, seed=0)
    assert report.passed
    names = {r.estimator for r in report.results}
    assert names == {"dp-iht-h", "dp-iht-l", "dp-slr"}
    for r in report.results:
        assert r.max_bound_ratio <= 1.0 + 1e-9


def test_sensitivity_suite_negative_control():
    # Halving the bound must flip the verdict: the observed max deviation
    # exceeds bound/2, so a wrongly tightened bound is detected.
    report = run_sensitivity_suite(trials=40, seed=0)
    for r in report.results:
        assert r.max_bound_ratio > 0.5


def test_sensitivity_suite_extremal_tightness():
    report = run_sensitivity_suite(trials=5, seed=1)
    l_report = [r for r in report.results if r.estimator == "dp-iht-l"][0]
    assert l_report.extremal_deviation == pytest.approx(l_report.extremal_bound, abs=1e-9)


def test_sensitivity_suite_rejects_bad_trials():
    with pytest.raises(InvalidConfigError):
        run_sensitivity_suite(trials=0)
