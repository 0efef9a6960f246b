"""End-to-end estimators built on one gradient / peel / project iteration.

Every estimator runs the same loop of public steps in ``fit_many``:
``split_folds`` into T disjoint folds, then per iteration a ``batch_gradient``
step on that iteration's fold, ``noise_scale`` and ``peel`` to privately keep
the top-s coordinates, and ``project_l2`` onto the radius-L ball.
``fit_many`` runs several fits of one dataset in lockstep, each with the
bytes it has alone; ``fit_estimator`` is ``fit_many`` with one fit. What
tells the estimators apart sits in one table, ``ESTIMATORS``: the loss class,
whose parameters (dp-slr's response clip included) are the config fields the
fit reads and ``fit_problems`` checks, and a private entry's per-entry
sensitivity, passed to the selection step; an entry without one adds no noise.
The step schedule comes with the config. The sensitivity probes read the
same table. A private fit draws all its selection and value noise from one
SFC64 generator keyed (seed, 0), peel after peel.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .core import (
    Dataset,
    Estimate,
    EstimatorConfig,
    PrivacyParams,
    l2_error,
    project_l2,
    split_folds,
)
from .errors import DpSparseError, InvalidConfigError, NumericalFailureError
from .losses import AbsoluteL1, Huber, LossKind, Squared, batch_gradient
from .peeling import noise_scale, peel
from .sampling import RngHandle


class EstimatorKind(enum.Enum):
    DP_IHT_H = "dp-iht-h"
    DP_IHT_L = "dp-iht-l"
    ADA_HUBER_LITE = "ada-huber"
    DP_SLR_LITE = "dp-slr"


Sensitivity = Callable[[EstimatorConfig, float, int], float]


@dataclass(frozen=True)
class EstimatorSpec:
    """What one estimator sets in the shared private IHT loop.

    ``loss`` is the loss class; a fit builds it once, each dataclass field
    from the config field of the same name, and ``fit_problems`` requires
    those set. ``lam(cfg, eta, m)`` is the per-entry selection sensitivity
    of one iteration with step ``eta`` on folds of ``m`` records; an entry
    without it is not ``private`` and adds no noise whatever budget it is
    given. ``replace_one`` names the neighbour relation ``lam`` is
    calibrated for: the neighbour replaces one record (True) or nulls it
    out (False). ``bound`` is the half-step deviation bound the sensitivity
    probe checks, where it differs from ``lam``.
    """

    loss: type[LossKind]
    lam: Sensitivity | None = None
    replace_one: bool = False
    bound: Sensitivity | None = None

    @property
    def private(self) -> bool:
        return self.lam is not None


ESTIMATORS: dict[EstimatorKind, EstimatorSpec] = {
    # Huber-loss private IHT: one record moves a gradient entry by at most tau*K.
    EstimatorKind.DP_IHT_H: EstimatorSpec(
        Huber, lam=lambda cfg, eta, m: eta * cfg.tau * cfg.K / m
    ),
    # Absolute-loss private IHT: the residual sign of a replaced record can
    # flip, so one record moves a gradient entry by up to 2*K. The step
    # schedule may be two-phase; lam uses the current iteration's step.
    EstimatorKind.DP_IHT_L: EstimatorSpec(
        AbsoluteL1, lam=lambda cfg, eta, m: 2.0 * eta * cfg.K / m, replace_one=True
    ),
    # The Huber fit with all noise disabled: the reference-coefficient proxy
    # for real-data comparisons.
    EstimatorKind.ADA_HUBER_LITE: EstimatorSpec(Huber),
    # Squared-loss private IHT baseline on responses clipped to [-R, R].
    EstimatorKind.DP_SLR_LITE: EstimatorSpec(
        Squared,
        lam=lambda cfg, eta, m: eta * cfg.K * (cfg.response_clip + cfg.K * cfg.L) / m,
        # The fit's lam drops the sqrt(s) factor of the strict per-record
        # bound, |x_c . beta| <= K ||beta||_1 <= K sqrt(s) L, that the probe
        # checks. Closing the gap changes output bits (ROADMAP item 1).
        bound=lambda cfg, eta, m: (
            eta * cfg.K * (cfg.response_clip + np.sqrt(cfg.s) * cfg.K * cfg.L) / m
        ),
    ),
}


def _loss(kind: EstimatorKind, cfg: EstimatorConfig) -> LossKind:
    """The ``kind`` entry's loss, each parameter read from its namesake in ``cfg``."""
    loss = ESTIMATORS[kind].loss
    return loss(**{f.name: getattr(cfg, f.name) for f in fields(loss)})


def _update(
    loss: LossKind, fold: Dataset, beta: np.ndarray, eta: float, K: float | None
) -> np.ndarray:
    """eta times the gradient of ``loss`` on ``fold`` at ``beta``, features clipped at K.

    One iteration's half-step is ``beta - _update(...)``: the fit and the
    sensitivity probes both take it from here.
    """
    return eta * batch_gradient(fold, beta, loss, K)


@dataclass(frozen=True)
class FitReport:
    """Fit output plus run diagnostics."""

    estimate: Estimate
    iterations_run: int


def _unset_needs(kind: EstimatorKind, cfg: EstimatorConfig) -> list[str]:
    """One problem per parameter of the ``kind`` entry's loss that ``cfg`` leaves None."""
    return [
        f"{kind.value} needs {f.name}, got null"
        for f in fields(ESTIMATORS[kind].loss)
        if getattr(cfg, f.name) is None
    ]


def fit_problems(
    kind: EstimatorKind, n: int, d: int, cfg: EstimatorConfig, priv: PrivacyParams
) -> list[str]:
    """Every reason a ``kind`` fit of ``cfg`` under ``priv`` cannot start on
    n x d data: a parameter of its loss left None, s > d, T > n, or no K."""
    problems = _unset_needs(kind, cfg)
    if cfg.s > d:
        problems.append(f"sparsity s={cfg.s} exceeds dimension d={d}")
    if cfg.T > n:
        problems.append(f"iteration count T={cfg.T} exceeds n={n}")
    if ESTIMATORS[kind].private and priv.is_private and cfg.K is None:
        problems.append("private fits require a finite clip level K")
    return problems


FitRequest = tuple[EstimatorKind, EstimatorConfig, PrivacyParams]


class _Fit:
    """One fit of ``fit_many``: its settings, its generator and its iterate."""

    def __init__(self, kind: EstimatorKind, cfg: EstimatorConfig, priv: PrivacyParams,
                 d: int, traced: bool):
        self.kind, self.cfg, self.priv, self.loss = kind, cfg, priv, _loss(kind, cfg)
        # One generator per private fit: every iteration's peel draws from it in turn.
        self.gen = RngHandle(cfg.seed, stream=0).generator() if priv.is_private else None
        self.beta = np.zeros(d)
        self.support = np.arange(0)
        self.trace: list[float] | None = [] if traced else None

    def half_step(self, fold: Dataset, t: int) -> None:
        self.eta = self.cfg.schedule.step(t)
        with np.errstate(over="ignore", invalid="ignore"):
            self.half = self.beta - _update(self.loss, fold, self.beta, self.eta, self.cfg.K)
        if not np.isfinite(self.half).all():
            raise NumericalFailureError(f"non-finite iterate at iteration {t}", iteration=t)

    def select(self, m: int, beta_star: np.ndarray | None) -> None:
        cfg = self.cfg
        b = 0.0
        if self.priv.is_private:
            b = noise_scale(ESTIMATORS[self.kind].lam(cfg, self.eta, m), cfg.s, self.priv)
        peeled, self.support = peel(self.half, cfg.s, b, self.gen)
        self.beta = project_l2(peeled, cfg.L)
        if self.trace is not None:
            self.trace.append(l2_error(self.beta, beta_star))

    def report(self) -> FitReport:
        estimate = Estimate(beta=self.beta, support=self.support, trace=self.trace)
        return FitReport(estimate=estimate, iterations_run=self.cfg.T)


def _advance(live: list[tuple[int, _Fit]], results: list, step, *args) -> list[tuple[int, _Fit]]:
    """Run ``step`` on each live fit in turn; a DpSparseError ends that fit alone."""
    kept = []
    for i, fit in live:
        try:
            step(fit, *args)
        except DpSparseError as exc:
            results[i] = exc
        else:
            kept.append((i, fit))
    return kept


@_kernels.blas_pinned()
def fit_many(
    ds: Dataset, fits: Sequence[FitRequest], beta_star: np.ndarray | None = None
) -> list[FitReport | DpSparseError]:
    """Fit each ``(kind, cfg, priv)`` of ``fits`` on ``ds`` by private IHT over T folds.

    Returns, in the order of ``fits``, each fit's FitReport or the
    DpSparseError that ended it: an InvalidConfigError listing its
    ``fit_problems``, or a failure part-way through. Such an error ends only
    its own fit; any other exception propagates. A non-private estimator
    ignores its ``priv`` and draws no noise. With ``beta_star`` each estimate
    carries its l2 error after every iteration.

    Fits with the same T share their folds and run in lockstep: at iteration
    t every live fit takes its half-step on fold t, back to back while the
    fold is in cache, and then each runs its own selection from its own
    generator and its own projection. A fit's arithmetic and draw order do
    not depend on the other fits, so each result has the bytes of a fit run
    alone. The fits run under ``_kernels.blas_pinned``.
    """
    results: list = [None] * len(fits)
    groups: dict[int, list[tuple[int, _Fit]]] = {}
    for i, (kind, cfg, priv) in enumerate(fits):
        if not ESTIMATORS[kind].private:
            priv = PrivacyParams.non_private()
        problems = fit_problems(kind, ds.n, ds.d, cfg, priv)
        if problems:
            results[i] = InvalidConfigError("; ".join(problems))
        else:
            fit = _Fit(kind, cfg, priv, ds.d, beta_star is not None)
            groups.setdefault(cfg.T, []).append((i, fit))
    for T, live in groups.items():
        folds = split_folds(ds, T)
        m = folds[0].n
        for t in range(T):
            live = _advance(live, results, _Fit.half_step, folds[t], t)
            live = _advance(live, results, _Fit.select, m, beta_star)
        for i, fit in live:
            results[i] = fit.report()
    return results


def fit_estimator(
    kind: EstimatorKind,
    ds: Dataset,
    cfg: EstimatorConfig,
    priv: PrivacyParams,
    beta_star: np.ndarray | None = None,
) -> FitReport:
    """Fit the estimator ``kind`` alone: ``fit_many`` with one entry.

    Raises the DpSparseError that ended the fit, such as one
    InvalidConfigError listing its ``fit_problems``.
    """
    (result,) = fit_many(ds, [(kind, cfg, priv)], beta_star)
    if isinstance(result, DpSparseError):
        raise result
    return result


# Sensitivity probes ---------------------------------------------------------
#
# Each probe builds one fold and a neighbor differing in a single record,
# runs one half-step from the same iterate on both, and reports the l-inf
# deviation. The neighbor follows each estimator's ``replace_one``: it nulls
# the record out, or replaces it with another arbitrary record.

_HUGE = 1e12


def probe_bound(kind: EstimatorKind, cfg: EstimatorConfig, eta: float, m: int) -> float:
    """Theoretical half-step l-inf deviation bound for one differing record.

    Raises one InvalidConfigError naming each problem: an entry that adds
    no noise, or a field the bound reads left None (a loss parameter, K).
    """
    spec = ESTIMATORS[kind]
    problems = [] if spec.private else [f"{kind.value} adds no noise and has no sensitivity bound"]
    problems += _unset_needs(kind, cfg)
    if cfg.K is None:
        problems.append("the sensitivity bound requires a finite clip level K")
    if problems:
        raise InvalidConfigError("; ".join(problems))
    return (spec.bound or spec.lam)(cfg, eta, m)


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
    all-extreme features on the differing record, and under replace-one a
    response flip that reverses its residual sign.
    """
    replace_one = ESTIMATORS[kind].replace_one
    gen = RngHandle(seed, stream=0).generator()
    eta = cfg.schedule.step(0)
    # Each branch picks fold A, the differing row i, its record and the
    # iterate; under replace-one it also picks the record that replaces it.
    if extremal:
        x, y, i, beta = np.zeros((m, d)), np.zeros(m), 0, np.zeros(d)
        record = (_HUGE, -_HUGE)  # residual x^T beta - y > 0
        replacement = (_HUGE, _HUGE)  # flips the residual sign
    else:
        x = gen.standard_normal((m, d))
        y = x @ _random_sparse_iterate(gen, d, cfg.s, cfg.L) + gen.standard_normal(m)
        record = _adversarial_record(gen, d)
        i = int(gen.integers(m))
        replacement = _adversarial_record(gen, d) if replace_one else None
        beta = _random_sparse_iterate(gen, d, cfg.s, cfg.L)
    x[i], y[i] = record
    xb, yb = x.copy(), y.copy()
    # The neighbor replaces record i, or nulls it out: it drops the contribution.
    xb[i], yb[i] = replacement if replace_one else (0.0, 0.0)
    fold_a, fold_b, loss = Dataset(x, y), Dataset(xb, yb), _loss(kind, cfg)
    half_a = beta - _update(loss, fold_a, beta, eta, cfg.K)
    half_b = beta - _update(loss, fold_b, beta, eta, cfg.K)
    return float(np.max(np.abs(half_a - half_b)))
