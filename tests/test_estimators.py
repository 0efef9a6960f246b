import math

import numpy as np
import pytest

from dpsparse import (
    ConstantStep,
    Dataset,
    DpSparseError,
    EstimatorConfig,
    EstimatorKind,
    InvalidConfigError,
    NumericalFailureError,
    PrivacyParams,
    SyntheticConfig,
    TwoPhaseStep,
    fit_estimator,
    generate_synthetic,
    probe_bound,
    sensitivity_probe,
)
from dpsparse import estimators
from dpsparse.estimators import ESTIMATORS, EstimatorSpec, fit_problems
from dpsparse.losses import Huber

NON_PRIVATE = PrivacyParams.non_private()
H = EstimatorKind.DP_IHT_H
L = EstimatorKind.DP_IHT_L
ADA = EstimatorKind.ADA_HUBER_LITE
SLR = EstimatorKind.DP_SLR_LITE


def base_config(**kwargs):
    defaults = dict(
        s=5, T=20, K=4.0, L=10.0, schedule=ConstantStep(0.1), tau=2.0, response_clip=10.0
    )
    defaults.update(kwargs)
    return EstimatorConfig(**defaults)


def zero_dataset(n=40, d=10, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, d))
    return Dataset(x, np.zeros(n))


# Fixed points and trivial cases --------------------------------------------


def test_h_zero_data_fixed_point():
    ds = zero_dataset()
    rep = fit_estimator(H, ds, base_config(), NON_PRIVATE)
    np.testing.assert_array_equal(rep.estimate.beta, np.zeros(ds.d))
    assert rep.iterations_run == 20


def test_l_zero_data_fixed_point():
    # sign(0) = 0 everywhere keeps the iterate at the origin.
    ds = zero_dataset(seed=1)
    rep = fit_estimator(L, ds, base_config(), NON_PRIVATE)
    np.testing.assert_array_equal(rep.estimate.beta, np.zeros(ds.d))


def test_slr_zero_clip_fixed_point():
    # R=0 clips every response to 0; from beta0 = 0 the gradient vanishes.
    ds = zero_dataset(seed=2)
    rep = fit_estimator(SLR, ds, base_config(response_clip=0.0), NON_PRIVATE)
    np.testing.assert_array_equal(rep.estimate.beta, np.zeros(ds.d))


# Noiseless recovery ---------------------------------------------------------


def test_h_noiseless_recovery_small():
    syn = SyntheticConfig(n=500, d=40, s_star=4, noise_scale=0.0, seed=3)
    ds, beta_star = generate_synthetic(syn)
    cfg = base_config(s=4, T=100, K=math.log(40), schedule=ConstantStep(0.1), tau=10.0)
    rep = fit_estimator(H, ds, cfg, NON_PRIVATE, beta_star=beta_star)
    assert rep.estimate.trace[-1] < 1e-3


def test_l_noiseless_recovery_two_phase():
    syn = SyntheticConfig(n=1200, d=40, s_star=4, noise_scale=0.0, seed=4)
    ds, beta_star = generate_synthetic(syn)
    sched = TwoPhaseStep(eta0=0.5, decay=0.08, switch_iter=60, eta_const=1e-3)
    cfg = base_config(s=4, T=80, K=math.log(40), schedule=sched)
    rep = fit_estimator(L, ds, cfg, NON_PRIVATE, beta_star=beta_star)
    assert rep.estimate.trace[-1] < 1e-2


# Equivalence and output invariants ------------------------------------------


def test_ada_huber_equals_nonprivate_h():
    syn = SyntheticConfig(n=300, d=30, s_star=3, seed=5)
    ds, beta_star = generate_synthetic(syn)
    cfg = base_config(s=3, T=10)
    # ada-huber is the Huber fit without noise, whatever budget it is given.
    a = fit_estimator(ADA, ds, cfg, PrivacyParams(0.5, 1e-3), beta_star=beta_star)
    b = fit_estimator(H, ds, cfg, NON_PRIVATE, beta_star=beta_star)
    np.testing.assert_array_equal(a.estimate.beta, b.estimate.beta)
    np.testing.assert_array_equal(a.estimate.support, b.estimate.support)
    assert a.estimate.trace == b.estimate.trace


def test_sparsity_and_norm_invariants():
    syn = SyntheticConfig(n=240, d=50, s_star=4, zeta=0.5, seed=6)
    ds, _ = generate_synthetic(syn)
    priv = PrivacyParams(1.0, 1e-3)
    for kind in EstimatorKind:
        for L in (0.5, 5.0):
            cfg = base_config(s=4, T=8, L=L, seed=11)
            rep = fit_estimator(kind, ds, cfg, priv)
            beta = rep.estimate.beta
            assert int((beta != 0).sum()) <= 4
            assert np.linalg.norm(beta) <= L + 1e-12
            assert rep.estimate.support.size == 4


def test_private_fit_deterministic_in_seed():
    syn = SyntheticConfig(n=200, d=25, s_star=3, seed=7)
    ds, _ = generate_synthetic(syn)
    priv = PrivacyParams(0.5, 1e-3)
    cfg = base_config(s=3, T=12, seed=99)
    a = fit_estimator(H, ds, cfg, priv)
    b = fit_estimator(H, ds, cfg, priv)
    np.testing.assert_array_equal(a.estimate.beta, b.estimate.beta)
    c = fit_estimator(H, ds, base_config(s=3, T=12, seed=100), priv)
    assert not np.array_equal(a.estimate.beta, c.estimate.beta)


def test_nonprivate_consumes_no_streams(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("a non-private fit built a random stream")

    monkeypatch.setattr(estimators, "RngHandle", no_stream)
    ds = zero_dataset(seed=8)
    rep = fit_estimator(H, ds, base_config(T=5), NON_PRIVATE)
    assert rep.iterations_run == 5


def test_support_recovery_ada_huber():
    # Non-private IHT in a beta-min regime: exact support on >= 90% of seeds
    # (brute-force support comparison).
    good = 0
    for seed in range(20):
        syn = SyntheticConfig(
            n=5000, d=200, s_star=5, zeta=1.0, beta_scale=3.0, noise_scale=0.3, seed=seed
        )
        ds, beta_star = generate_synthetic(syn)
        cfg = EstimatorConfig(
            s=5, T=5, K=math.log(200), L=20.0, schedule=ConstantStep(0.5), tau=10.0, seed=seed
        )
        rep = fit_estimator(ADA, ds, cfg, NON_PRIVATE)
        good += np.array_equal(rep.estimate.support, np.flatnonzero(beta_star))
    assert good >= 18


def test_paper_defaults_h_beats_slr():
    # Paper-default parameters (tau=1, eta=0.01, K=ln d, delta=1/n^1.1) at
    # d=1000, n=2000 with heavy tails: the Huber estimator's mean error must
    # sit strictly below the squared-loss baseline's.
    errs_h, errs_slr = [], []
    K = math.log(1000)
    for seed in range(20):
        syn = SyntheticConfig(n=2000, d=1000, s_star=5, zeta=1.0, seed=1000 + seed)
        ds, beta_star = generate_synthetic(syn)
        priv = PrivacyParams(0.5, 2000.0**-1.1)
        cfg = EstimatorConfig(
            s=5, T=15, K=K, L=10.0, schedule=ConstantStep(0.01), tau=1.0,
            response_clip=10.0, seed=seed,
        )
        errs_h.append(fit_estimator(H, ds, cfg, priv, beta_star).estimate.trace[-1])
        errs_slr.append(fit_estimator(SLR, ds, cfg, priv, beta_star).estimate.trace[-1])
    assert np.mean(errs_h) < np.mean(errs_slr)


# Validation and failures -----------------------------------------------------


def test_fit_validations():
    ds = zero_dataset(n=10, d=5)
    with pytest.raises(InvalidConfigError):
        fit_estimator(H, ds, base_config(s=6), NON_PRIVATE)  # s > d
    with pytest.raises(InvalidConfigError):
        fit_estimator(H, ds, base_config(s=2, T=11), NON_PRIVATE)  # T > n
    with pytest.raises(InvalidConfigError):
        fit_estimator(H, ds, base_config(s=2, T=5, tau=None), NON_PRIVATE)
    with pytest.raises(InvalidConfigError):
        fit_estimator(H, ds, base_config(s=2, T=5, K=None), PrivacyParams(1.0, 1e-3))
    with pytest.raises(InvalidConfigError):
        fit_estimator(SLR, ds, base_config(s=2, T=5, response_clip=None), NON_PRIVATE)
    with pytest.raises(InvalidConfigError):
        fit_estimator(ADA, ds, base_config(s=2, T=5, tau=None), NON_PRIVATE)


def test_fit_problems_are_listed_in_one_error():
    ds = zero_dataset(n=10, d=5)
    cfg = base_config(s=6, T=11, tau=None, K=None)
    private = PrivacyParams(1.0, 1e-3)
    expected = [
        "dp-iht-h needs tau, got null",
        "sparsity s=6 exceeds dimension d=5",
        "iteration count T=11 exceeds n=10",
        "private fits require a finite clip level K",
    ]
    assert fit_problems(H, 10, 5, cfg, private) == expected
    with pytest.raises(InvalidConfigError) as err:
        fit_estimator(H, ds, cfg, private)
    assert str(err.value) == "; ".join(expected)
    # Each entry names the fields it needs; K matters only to a private fit.
    assert fit_problems(SLR, 10, 5, base_config(s=2, T=5, response_clip=None), NON_PRIVATE) == [
        "dp-slr needs response_clip, got null"
    ]
    assert fit_problems(ADA, 10, 5, base_config(s=2, T=5, K=None), private) == []
    unused = base_config(s=2, T=5, tau=None, response_clip=None)
    assert fit_problems(L, 10, 5, unused, private) == []


def test_an_entry_needs_every_parameter_of_its_loss_class(monkeypatch):
    # A new entry states only its loss class; the fields it needs follow from
    # that class, so a config that leaves one None fails before the fit runs.
    spec = EstimatorSpec(Huber, lam=ESTIMATORS[H].lam, replace_one=True)
    monkeypatch.setitem(ESTIMATORS, L, spec)
    cfg = base_config(s=2, T=5, tau=None)
    assert fit_problems(L, 10, 5, cfg, NON_PRIVATE) == ["dp-iht-l needs tau, got null"]
    with pytest.raises(InvalidConfigError, match="^dp-iht-l needs tau, got null$"):
        fit_estimator(L, zero_dataset(n=10, d=5), cfg, NON_PRIVATE)


def test_unclipped_nonprivate_fit_allowed():
    syn = SyntheticConfig(n=400, d=10, s_star=2, noise_scale=0.0, seed=9)
    ds, beta_star = generate_synthetic(syn)
    cfg = base_config(s=2, T=20, K=None, schedule=ConstantStep(0.5), tau=50.0)
    rep = fit_estimator(H, ds, cfg, NON_PRIVATE, beta_star=beta_star)
    assert rep.estimate.trace[-1] < 1e-3


def test_numerical_failure_names_iteration():
    syn = SyntheticConfig(n=60, d=6, s_star=2, seed=10)
    ds, _ = generate_synthetic(syn)
    cfg = base_config(s=2, T=4, K=None, tau=1e308, schedule=ConstantStep(1e308))
    with pytest.raises(NumericalFailureError) as err:
        fit_estimator(H, ds, cfg, NON_PRIVATE)
    assert err.value.iteration is not None
    assert str(err.value.iteration) in str(err.value)


# Sensitivity probes -----------------------------------------------------------


def test_probe_identical_folds_zero():
    # Neighboring pair with zero differing samples: deviation is exactly 0.
    from dpsparse.estimators import _loss, _update

    rng = np.random.default_rng(11)
    fold = Dataset(rng.standard_normal((20, 6)), rng.standard_normal(20))
    cfg = base_config(s=3)
    beta = np.zeros(6)
    a = beta - _update(_loss(EstimatorKind.DP_IHT_H, cfg), fold, beta, 0.1, cfg.K)
    b = beta - _update(_loss(EstimatorKind.DP_IHT_H, cfg), fold, beta, 0.1, cfg.K)
    assert np.max(np.abs(a - b)) == 0.0


@pytest.mark.parametrize(
    "kind", [EstimatorKind.DP_IHT_H, EstimatorKind.DP_IHT_L, EstimatorKind.DP_SLR_LITE]
)
def test_probe_respects_bound(kind):
    cfg = base_config(s=3, schedule=ConstantStep(0.07), tau=1.3)
    m = 25
    bound = probe_bound(kind, cfg, 0.07, m)
    for trial in range(60):
        dev = sensitivity_probe(kind, cfg, seed=trial, d=30, m=m)
        assert dev <= bound + 1e-12


@pytest.mark.parametrize(
    "kind, unset, problem",
    [
        (SLR, {"response_clip": None}, "dp-slr needs response_clip, got null"),
        (H, {"tau": None}, "dp-iht-h needs tau, got null"),
        (L, {"K": None}, "the sensitivity bound requires a finite clip level K"),
    ],
    ids=["dp-slr-response-clip", "dp-iht-h-tau", "dp-iht-l-K"],
)
def test_probe_bound_without_a_needed_field_fails_by_name(kind, unset, problem):
    with pytest.raises(InvalidConfigError) as err:
        probe_bound(kind, base_config(s=3, **unset), 0.1, 10)
    assert str(err.value) == problem


def test_probe_bound_of_a_noise_free_entry_fails_by_name():
    # ada-huber adds no noise, so no sensitivity bound belongs to it.
    with pytest.raises(InvalidConfigError) as err:
        probe_bound(ADA, base_config(s=3), 0.1, 10)
    assert str(err.value) == "ada-huber adds no noise and has no sensitivity bound"


def test_probe_without_a_needed_field_fails_by_name():
    # The probes take their config as given; a field left None still fails
    # with a named error, not a TypeError.
    with pytest.raises(DpSparseError, match="response_clip must be a number >= 0, got None"):
        sensitivity_probe(SLR, base_config(s=3, response_clip=None), seed=0)
    with pytest.raises(DpSparseError, match="tau must be a number > 0, got None"):
        sensitivity_probe(H, base_config(s=3, tau=None), seed=0)


def test_probe_extremal_l_tight():
    cfg = base_config(s=3, schedule=ConstantStep(0.2))
    m = 15
    dev = sensitivity_probe(EstimatorKind.DP_IHT_L, cfg, seed=0, d=12, m=m, extremal=True)
    bound = probe_bound(EstimatorKind.DP_IHT_L, cfg, 0.2, m)
    assert abs(dev - bound) < 1e-9


def test_probe_extremal_h_tight():
    cfg = base_config(s=3, schedule=ConstantStep(0.2), tau=0.9)
    m = 15
    dev = sensitivity_probe(EstimatorKind.DP_IHT_H, cfg, seed=0, d=12, m=m, extremal=True)
    bound = probe_bound(EstimatorKind.DP_IHT_H, cfg, 0.2, m)
    assert abs(dev - bound) < 1e-9


def test_fit_estimator_dispatch():
    syn = SyntheticConfig(n=100, d=10, s_star=2, seed=12)
    ds, _ = generate_synthetic(syn)
    cfg = base_config(s=2, T=5)
    for kind in EstimatorKind:
        rep = fit_estimator(kind, ds, cfg, PrivacyParams(1.0, 1e-2))
        assert rep.iterations_run == 5


def test_every_estimator_kind_has_a_table_entry():
    assert set(ESTIMATORS) == set(EstimatorKind)
    assert [kind for kind, spec in ESTIMATORS.items() if not spec.private] == [ADA]
