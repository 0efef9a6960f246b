"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic comparison
protocol (criteria 5-7) fixes d=1000, s*=5, eps=0.5, delta=1/n^1.1, 20 seeds,
Student-t noise via the tail-index anchors, and uses desk-scale optimization
settings (tau=3.0 from the theorem-style tuning n/(T (s*)^{3/2} ...) at this
n and T, eta=0.3, T=3): at these sample sizes the privacy noise dominates, so
orderings rather than absolute errors are the testable content.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from dpsparse import (
    ConstantStep,
    Dataset,
    EstimatorConfig,
    EstimatorKind,
    ExperimentBase,
    Huber,
    PrivacyParams,
    RealDataSpec,
    RngHandle,
    SweepSpec,
    SyntheticConfig,
    TwoPhaseStep,
    batch_gradient,
    fit_estimator,
    generate_synthetic,
    load_csv,
    peel,
    probe_bound,
    run_real,
    run_sensitivity_suite,
    run_sweep,
    save_csv,
    sensitivity_probe,
)
from dpsparse.harness import write_results_csv
from dpsparse._kernels import _laplace_icdf

H = EstimatorKind.DP_IHT_H
L = EstimatorKind.DP_IHT_L
SLR = EstimatorKind.DP_SLR_LITE

N_GRID = (500, 1000, 2000, 4000)
EPS_GRID = (0.25, 0.5, 1.0, 2.0)
REPEATS = 20


def desk_base(zeta: float) -> ExperimentBase:
    return ExperimentBase(
        synthetic=SyntheticConfig(n=2000, d=1000, s_star=5, zeta=zeta, seed=0),
        epsilon=0.5,
        eta=0.3,
        T=3,
        tau=3.0,
        L=10.0,
        response_clip=10.0,
    )


def report(num: int, passed: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} ({elapsed:6.1f}s / {budget:.0f}s budget): {detail}")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


@pytest.fixture(scope="module")
def n_sweep():
    spec = SweepSpec(
        axis="n", values=N_GRID, base=desk_base(0.5), repeats=REPEATS,
        estimators=(H, L, SLR),
    )
    start = time.perf_counter()
    result = run_sweep(spec)
    return result, time.perf_counter() - start


def huber_objective(fold, beta, tau, K):
    """Mean Huber loss of the fold at beta, on features clipped at K."""
    r = fold.y - np.clip(fold.x, -K, K) @ beta
    a = np.abs(r)
    return float(np.mean(np.where(a < tau, 0.5 * r * r, tau * a - 0.5 * tau * tau)))


def test_criterion_1_huber_gradient_finite_differences():
    # 1000 random (beta, fold) pairs away from the kinks; central differences
    # of the mean Huber objective agree coordinate-wise at rtol 1e-5.
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    tau, K, h = 1.0, 3.0, 1e-6
    checked = 0
    worst = 0.0
    while checked < 1000:
        m, d = 30, 6
        x = rng.standard_normal((m, d)) * 2
        y = rng.standard_normal(m) * 3
        fold = Dataset(x, y)
        beta = rng.standard_normal(d) * 0.5
        r = y - np.clip(x, -K, K) @ beta
        if np.min(np.abs(np.abs(r) - tau)) < 1e-3:
            continue
        g = batch_gradient(fold, beta, Huber(tau), K)
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (
                huber_objective(fold, beta + e, tau, K)
                - huber_objective(fold, beta - e, tau, K)
            ) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)
        worst = max(worst, float(np.max(np.abs(g - fd) / (np.abs(fd) + 1e-9))))
        checked += 1
    report(1, True, f"1000 FD checks, worst rel dev {worst:.2e}", time.perf_counter() - start, 10)


def test_criterion_2_peeling_zero_noise_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(1000):
        d = int(rng.integers(2, 201))
        s = int(rng.integers(1, min(d, 50) + 1))
        if trial % 3 == 0:
            v = rng.integers(-5, 6, size=d).astype(float)  # forces magnitude ties
        else:
            v = rng.standard_normal(d)
        out, support = peel(v, s, 0.0)
        oracle = sorted(range(d), key=lambda j: (-abs(v[j]), j))[:s]
        assert list(support) == sorted(oracle), f"trial {trial}"
        expected = np.zeros(d)
        expected[support] = v[support]
        np.testing.assert_array_equal(out, expected)
    report(2, True, "1000 zero-noise peels equal brute-force top-s", time.perf_counter() - start, 5)


def test_criterion_3_sensitivity_bounds():
    start = time.perf_counter()
    suite = run_sensitivity_suite(trials=200, seed=0)
    ratios = {r.estimator: r.max_bound_ratio for r in suite.results}
    cfg = EstimatorConfig(
        s=3, T=1, K=4.0, L=10.0, schedule=ConstantStep(0.2), tau=1.0, response_clip=5.0
    )
    extremal = sensitivity_probe(L, cfg, seed=0, d=12, m=15, extremal=True)
    bound = probe_bound(L, cfg, 0.2, 15)
    tight = abs(extremal - bound) < 1e-9
    report(
        3,
        suite.passed and tight,
        f"200 probes/estimator within bounds (max ratios {ratios}); "
        f"extremal gap {abs(extremal - bound):.2e}",
        time.perf_counter() - start,
        30,
    )


def test_criterion_4_noiseless_recovery():
    start = time.perf_counter()
    syn = SyntheticConfig(n=2000, d=100, s_star=5, zeta=1.0, noise_scale=0.0, seed=0)
    ds, beta_star = generate_synthetic(syn)
    K = math.log(100)
    non_private = PrivacyParams.non_private()
    cfg_h = EstimatorConfig(
        s=5, T=200, K=K, L=10.0, schedule=ConstantStep(0.1), tau=10.0
    )
    err_h = fit_estimator(H, ds, cfg_h, non_private, beta_star).estimate.trace[-1]
    cfg_l = EstimatorConfig(
        s=5, T=200, K=K, L=10.0,
        schedule=TwoPhaseStep(eta0=0.5, decay=0.05, switch_iter=150, eta_const=2e-4),
    )
    err_l = fit_estimator(L, ds, cfg_l, non_private, beta_star).estimate.trace[-1]
    report(
        4,
        err_h < 1e-3 and err_l < 1e-2,
        f"noiseless l2: huber {err_h:.2e} (<1e-3), absolute {err_l:.2e} (<1e-2)",
        time.perf_counter() - start,
        30,
    )


def test_criterion_5_figure_1a_ordering(n_sweep):
    result, elapsed = n_sweep
    start = time.perf_counter()
    ordered = []
    for n in N_GRID:
        agg = result.aggregates[str(float(n))]
        ordered.append(agg[H.value]["l2_error_mean"] < agg[SLR.value]["l2_error_mean"])
    detail = "; ".join(
        f"n={n}: H={result.aggregates[str(float(n))][H.value]['l2_error_mean']:.3f} "
        f"< SLR={result.aggregates[str(float(n))][SLR.value]['l2_error_mean']:.3f}"
        for n in N_GRID
    )
    report(5, all(ordered), detail, elapsed + time.perf_counter() - start, 600)


def test_criterion_6_figure_2a_ordering():
    start = time.perf_counter()
    spec = SweepSpec(
        axis="zeta", values=(0.5, 1.0), base=desk_base(1.0), repeats=REPEATS,
        estimators=(H, L),
    )
    result = run_sweep(spec)
    h_half = result.aggregates["0.5"][H.value]["l2_error_mean"]
    l_half = result.aggregates["0.5"][L.value]["l2_error_mean"]
    h_one = result.aggregates["1.0"][H.value]["l2_error_mean"]
    l_one = result.aggregates["1.0"][L.value]["l2_error_mean"]
    gap = abs(l_one - h_one) / h_one
    report(
        6,
        l_half <= h_half and gap < 0.20,
        f"zeta=0.5: L={l_half:.3f} <= H={h_half:.3f}; zeta=1: gap {gap:.1%} (<20%)",
        time.perf_counter() - start,
        600,
    )


def test_criterion_7_monotonicity(n_sweep):
    result, elapsed = n_sweep
    start = time.perf_counter()
    rhos = {}
    for kind in (H, L):
        medians = []
        for n in N_GRID:
            errs = [
                r.l2_error
                for r in result.rows
                if r.value == n and r.estimator == kind.value and r.status == "ok"
            ]
            medians.append(float(np.median(errs)))
        rhos[kind.value] = float(spearmanr(N_GRID, medians).statistic)
    spec = SweepSpec(
        axis="epsilon", values=EPS_GRID, base=desk_base(1.0), repeats=REPEATS,
        estimators=(L,),
    )
    res_eps = run_sweep(spec)
    means = [res_eps.aggregates[str(float(e))][L.value]["l2_error_mean"] for e in EPS_GRID]
    eps_monotone = all(b <= a for a, b in zip(means, means[1:]))
    report(
        7,
        rhos[H.value] < 0 and rhos[L.value] < 0 and eps_monotone,
        f"spearman(median l2, n): {rhos}; eps means {[round(m, 3) for m in means]}",
        elapsed + time.perf_counter() - start,
        600,
    )


def test_criterion_8_laplace_moments():
    start = time.perf_counter()
    # The map a peel runs on its uniforms.
    draws = _laplace_icdf(RngHandle(808).generator().random(1_000_000), 1.0)
    mean, var = float(draws.mean()), float(draws.var())
    report(
        8,
        abs(mean) < 0.01 and abs(var - 2.0) < 0.05,
        f"1e6 draws at b=1: mean {mean:+.4f} (|.|<0.01), var {var:.4f} (within 0.05 of 2)",
        time.perf_counter() - start,
        5,
    )


def test_criterion_9_real_data_substitutes(tmp_path):
    # Tables 1-2 are not reproducible without the external datasets; the
    # substitute checks: CSV round-trip identity, perfect single-feature
    # recovery, and the documented real-table schema.
    start = time.perf_counter()
    syn = SyntheticConfig(n=150, d=8, s_star=3, zeta=0.5, seed=9)
    ds, _ = generate_synthetic(syn)
    path = tmp_path / "roundtrip.csv"
    save_csv(ds, path)
    loaded, names = load_csv(path)
    round_trip = (
        float(np.max(np.abs(loaded.x - ds.x))) <= 1e-12
        and float(np.max(np.abs(loaded.y - ds.y))) <= 1e-12
    )

    rng = np.random.default_rng(99)
    x = rng.standard_normal((240, 6))
    single = Dataset(x, x[:, 0].copy())
    single_path = tmp_path / "single.csv"
    save_csv(single, single_path)
    spec = RealDataSpec(base=ExperimentBase(s=1, T=12, eta=1.0, tau=20.0, K=100.0))
    rows = run_real(*load_csv(single_path), spec, [EstimatorKind.ADA_HUBER_LITE])
    recovery = rows[0].selected == ("x1",) and rows[0].mae < 1e-5

    from dpsparse.harness import write_real_csv

    table = tmp_path / "table.csv"
    write_real_csv(rows, table)
    header = table.read_text().splitlines()[0]
    schema = header == "estimator,mae,size,selected"
    report(
        9,
        round_trip and recovery and schema,
        f"round-trip exact: {round_trip}; single-feature recovery mae={rows[0].mae:.1e}; "
        f"table schema '{header}'",
        time.perf_counter() - start,
        60,
    )


def test_criterion_10_sweep_determinism(tmp_path):
    start = time.perf_counter()
    spec = SweepSpec(
        axis="n", values=(500, 1000), base=desk_base(0.5), repeats=5,
        estimators=(H, L),
    )
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_results_csv(run_sweep(spec), p1)
    write_results_csv(run_sweep(spec), p2)
    identical = p1.read_bytes() == p2.read_bytes()
    report(
        10,
        identical,
        f"two identical sweep runs -> byte-identical results.csv ({p1.stat().st_size} bytes)",
        time.perf_counter() - start,
        600,
    )
