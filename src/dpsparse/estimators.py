"""End-to-end estimators built on the gradient / peel / project iteration.

All four share one skeleton: clip features, split the data into T disjoint
folds, then for each iteration take a gradient step on that iteration's fold,
privately keep the top-s coordinates, and project onto the radius-L ball.
They differ in the loss, the step schedule, and the per-entry sensitivity
passed to the selection step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    Estimate,
    EstimatorConfig,
    PrivacyParams,
    clip_responses,
    l2_error,
    project_l2,
    split_folds,
)
from .errors import InvalidConfigError, NumericalFailureError
from .losses import AbsoluteL1, Huber, LossKind, Squared, batch_gradient
from .peeling import PeelingParams, _peel
from .sampling import RngHandle


class EstimatorKind(enum.Enum):
    DP_IHT_H = "dp-iht-h"
    DP_IHT_L = "dp-iht-l"
    ADA_HUBER_LITE = "ada-huber"
    DP_SLR_LITE = "dp-slr"

    @classmethod
    def from_name(cls, name: str) -> "EstimatorKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise InvalidConfigError(
            f"unknown estimator {name!r}; choose from {[k.value for k in cls]}"
        )


@dataclass(frozen=True)
class FitReport:
    """Fit output plus run diagnostics."""

    estimate: Estimate
    iterations_run: int
    half_step_linf_trace: list[float]
    rng_streams_consumed: int


def _validate_fit(ds: Dataset, cfg: EstimatorConfig, priv: PrivacyParams) -> None:
    if cfg.s > ds.d:
        raise InvalidConfigError(f"sparsity s={cfg.s} exceeds dimension d={ds.d}")
    if cfg.T > ds.n:
        raise InvalidConfigError(f"iteration count T={cfg.T} exceeds n={ds.n}")
    if priv.is_private and cfg.K is None:
        raise InvalidConfigError("private fits require a finite clip level K")


def _iht_loop(
    ds: Dataset,
    cfg: EstimatorConfig,
    priv: PrivacyParams,
    kind: LossKind,
    lam_of_eta,
    beta_star: np.ndarray | None,
    response_clip: float | None = None,
) -> FitReport:
    folds = split_folds(ds, cfg.T)
    m = folds[0].n
    # One selection-noise workspace per fit, overwritten by every iteration's
    # peel: a private fit draws (s+1) x d Laplace variates per iteration.
    noise = np.empty((cfg.s + 1, ds.d))
    scratch = np.empty_like(noise) if priv.is_private else None
    beta = np.zeros(ds.d)
    support = np.arange(0)
    trace: list[float] | None = [] if beta_star is not None else None
    half_trace: list[float] = []
    streams = 0
    for t in range(cfg.T):
        eta = cfg.schedule.step(t)
        fold = folds[t] if response_clip is None else clip_responses(folds[t], response_clip)
        grad = batch_gradient(fold, beta, kind, cfg.K, cfg.sign_on_clipped)
        with np.errstate(over="ignore", invalid="ignore"):
            update = eta * grad
            half = beta - update
        if not np.isfinite(half).all():
            raise NumericalFailureError(
                f"non-finite iterate at iteration {t}", iteration=t
            )
        half_trace.append(float(np.max(np.abs(update))) if update.size else 0.0)
        lam = lam_of_eta(eta, m) if priv.is_private else 0.0
        params = PeelingParams(s=cfg.s, epsilon=priv.epsilon, delta=priv.delta, lam=lam)
        rng = RngHandle(cfg.seed, stream=t) if priv.is_private else None
        if priv.is_private:
            streams += 1
        peeled, support = _peel(half, params, rng, noise, scratch)
        beta = project_l2(peeled, cfg.L)
        if trace is not None:
            trace.append(l2_error(beta, beta_star))
    estimate = Estimate(beta=beta, support=support, trace=trace)
    return FitReport(
        estimate=estimate,
        iterations_run=cfg.T,
        half_step_linf_trace=half_trace,
        rng_streams_consumed=streams,
    )


def fit_dp_iht_h(
    ds: Dataset,
    cfg: EstimatorConfig,
    priv: PrivacyParams,
    beta_star: np.ndarray | None = None,
) -> FitReport:
    """Huber-loss private IHT; per-iteration selection sensitivity eta*tau*K/m."""
    _validate_fit(ds, cfg, priv)
    if cfg.tau is None:
        raise InvalidConfigError("dp-iht-h requires the Huber parameter tau")
    tau = cfg.tau
    return _iht_loop(
        ds,
        cfg,
        priv,
        Huber(tau),
        lambda eta, m: eta * tau * cfg.K / m,
        beta_star,
    )


def fit_dp_iht_l(
    ds: Dataset,
    cfg: EstimatorConfig,
    priv: PrivacyParams,
    beta_star: np.ndarray | None = None,
) -> FitReport:
    """Absolute-loss private IHT; selection sensitivity 2*eta_t*K/m.

    The step schedule may be constant or two-phase (geometric decay, then a
    constant step); the sensitivity always uses the current iteration's step.
    """
    _validate_fit(ds, cfg, priv)
    return _iht_loop(
        ds,
        cfg,
        priv,
        AbsoluteL1(),
        lambda eta, m: 2.0 * eta * cfg.K / m,
        beta_star,
    )


def fit_ada_huber_lite(
    ds: Dataset,
    cfg: EstimatorConfig,
    beta_star: np.ndarray | None = None,
) -> FitReport:
    """Non-private Huber IHT: the Huber fit with all noise disabled.

    Serves as the reference-coefficient proxy for real-data comparisons.
    """
    return fit_dp_iht_h(ds, cfg, PrivacyParams.non_private(), beta_star)


def fit_dp_slr_lite(
    ds: Dataset,
    cfg: EstimatorConfig,
    priv: PrivacyParams,
    R: float | None = None,
    beta_star: np.ndarray | None = None,
) -> FitReport:
    """Squared-loss private IHT baseline with responses clipped to [-R, R].

    The selection sensitivity uses the clipped-gradient coordinate bound in
    the simplified form eta*K*(R + K*L)/m; the strict bound carries an extra
    sqrt(s) factor on the K*L term (see sensitivity_probe).
    """
    _validate_fit(ds, cfg, priv)
    if R is None:
        R = cfg.response_clip
    if R is None or R < 0:
        raise InvalidConfigError("dp-slr requires a response clip level R >= 0")
    return _iht_loop(
        ds,
        cfg,
        priv,
        Squared(),
        lambda eta, m: eta * cfg.K * (R + cfg.K * cfg.L) / m,
        beta_star,
        response_clip=R,
    )


def fit_estimator(
    kind: EstimatorKind,
    ds: Dataset,
    cfg: EstimatorConfig,
    priv: PrivacyParams,
    beta_star: np.ndarray | None = None,
) -> FitReport:
    """Dispatch a fit by estimator kind (harness entry point)."""
    if kind is EstimatorKind.DP_IHT_H:
        return fit_dp_iht_h(ds, cfg, priv, beta_star)
    if kind is EstimatorKind.DP_IHT_L:
        return fit_dp_iht_l(ds, cfg, priv, beta_star)
    if kind is EstimatorKind.ADA_HUBER_LITE:
        return fit_ada_huber_lite(ds, cfg, beta_star)
    if kind is EstimatorKind.DP_SLR_LITE:
        return fit_dp_slr_lite(ds, cfg, priv, beta_star=beta_star)
    raise InvalidConfigError(f"unknown estimator kind {kind!r}")


# Sensitivity probes ---------------------------------------------------------
#
# Each probe builds one fold and a neighbor differing in a single record,
# runs one half-step from the same iterate on both, and reports the l-inf
# deviation. The neighbor relation mirrors each algorithm's calibration: the
# Huber and squared-loss scales bound the contribution of one record (the
# neighbor nulls that record out), while the absolute-loss scale 2*eta*K/m
# bounds an arbitrary replacement of one record.

_HUGE = 1e12


def probe_bound(kind: EstimatorKind, cfg: EstimatorConfig, eta: float, m: int) -> float:
    """Theoretical half-step l-inf deviation bound for one differing record."""
    if kind in (EstimatorKind.DP_IHT_H, EstimatorKind.ADA_HUBER_LITE):
        return eta * cfg.tau * cfg.K / m
    if kind is EstimatorKind.DP_IHT_L:
        return 2.0 * eta * cfg.K / m
    if kind is EstimatorKind.DP_SLR_LITE:
        R = cfg.response_clip if cfg.response_clip is not None else 0.0
        return eta * cfg.K * (R + np.sqrt(cfg.s) * cfg.K * cfg.L) / m
    raise InvalidConfigError(f"no probe bound for {kind!r}")


def _probe_loss(kind: EstimatorKind, cfg: EstimatorConfig) -> LossKind:
    if kind in (EstimatorKind.DP_IHT_H, EstimatorKind.ADA_HUBER_LITE):
        if cfg.tau is None:
            raise InvalidConfigError("Huber probes require tau")
        return Huber(cfg.tau)
    if kind is EstimatorKind.DP_IHT_L:
        return AbsoluteL1()
    if kind is EstimatorKind.DP_SLR_LITE:
        return Squared()
    raise InvalidConfigError(f"no probe loss for {kind!r}")


def _random_sparse_iterate(gen: np.random.Generator, d: int, s: int, L: float) -> np.ndarray:
    beta = np.zeros(d)
    idx = gen.choice(d, size=min(s, d), replace=False)
    beta[idx] = gen.standard_normal(idx.size)
    return project_l2(beta * gen.uniform(0.1, 2.0), L)


def _adversarial_record(gen: np.random.Generator, d: int) -> tuple[np.ndarray, float]:
    # Pre-clipping coordinates at +-inf stand in for the worst admissible
    # record; finite entries keep the dataset checks happy.
    x = gen.standard_normal(d)
    extreme = gen.random(d) < 0.5
    x[extreme] = np.where(gen.random(extreme.sum()) < 0.5, _HUGE, -_HUGE)
    if not extreme.any():
        x[int(gen.integers(d))] = _HUGE
    y = float(gen.standard_cauchy() * 100.0)
    return x, y


def _half_step(
    fold: Dataset, beta: np.ndarray, eta: float, kind: EstimatorKind, cfg: EstimatorConfig
) -> np.ndarray:
    if kind is EstimatorKind.DP_SLR_LITE:
        R = cfg.response_clip if cfg.response_clip is not None else 0.0
        fold = clip_responses(fold, R)
    grad = batch_gradient(fold, beta, _probe_loss(kind, cfg), cfg.K, cfg.sign_on_clipped)
    return beta - eta * grad


def sensitivity_probe(
    kind: EstimatorKind,
    cfg: EstimatorConfig,
    seed: int,
    d: int = 30,
    m: int = 25,
    extremal: bool = False,
) -> float:
    """Max l-inf half-step deviation across one neighboring-fold pair.

    With ``extremal=True`` the pair is crafted to meet the bound exactly:
    all-extreme features on the differing record, and for the absolute loss
    a response flip that reverses its residual sign.
    """
    gen = RngHandle(seed, stream=0).generator()
    eta = cfg.schedule.step(0)
    if extremal:
        x = np.full((m, d), 0.0)
        y = np.zeros(m)
        x[0] = _HUGE
        beta = np.zeros(d)
        y[0] = -_HUGE  # residual x^T beta - y > 0
        fold_a = Dataset(x, y)
        xb = x.copy()
        yb = y.copy()
        if kind is EstimatorKind.DP_IHT_L:
            yb[0] = _HUGE  # flips the residual sign on the differing record
        else:
            xb[0] = 0.0  # null record: the neighbor drops the contribution
            yb[0] = 0.0
        fold_b = Dataset(xb, yb)
    else:
        x = gen.standard_normal((m, d))
        y = x @ _random_sparse_iterate(gen, d, cfg.s, cfg.L) + gen.standard_normal(m)
        xa, ya = _adversarial_record(gen, d)
        i = int(gen.integers(m))
        x[i] = xa
        y[i] = ya
        fold_a = Dataset(x, y)
        xb = x.copy()
        yb = y.copy()
        if kind is EstimatorKind.DP_IHT_L:
            xb[i], yb[i] = _adversarial_record(gen, d)
        else:
            xb[i] = 0.0
            yb[i] = 0.0
        fold_b = Dataset(xb, yb)
        beta = _random_sparse_iterate(gen, d, cfg.s, cfg.L)
    half_a = _half_step(fold_a, beta, eta, kind, cfg)
    half_b = _half_step(fold_b, beta, eta, kind, cfg)
    return float(np.max(np.abs(half_a - half_b)))
