"""Experiment orchestration: sweeps, real-data evaluation, sensitivity suite.

Rows of a sweep are grouped into independent work units, one dataset each;
seeds derive from a documented stable hash of (base seed, axis, value,
repeat), so adding an estimator to a sweep never perturbs the data other rows
see. A unit runs all its fits in one ``fit_many`` call, in lockstep over the
shared folds, and every fit keeps the bytes it has alone, so adding an
estimator leaves the other rows' bytes unchanged too. Output ordering is
canonical (sorted by axis value, estimator, seed) regardless of execution
order.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .core import (
    RULES,
    ConstantStep,
    Dataset,
    EstimatorConfig,
    PrivacyParams,
    StepSchedule,
    _adopt,
    check_fields,
    is_int,
    l2_error,
    mae,
    ruled,
)
from .errors import CsvParseError, DpSparseError, InvalidConfigError, InvalidInputError
from .estimators import (
    ESTIMATORS,
    EstimatorKind,
    fit_many,
    fit_problems,
    probe_bound,
    sensitivity_probe,
)
from .losses import default_clip_level
from .sampling import RngHandle, SyntheticConfig, generate_synthetic

SWEEP_AXES = ("n", "d", "s_star", "epsilon", "zeta")

RESULTS_COLUMNS = ("axis", "value", "estimator", "seed", "l2_error", "mae", "wall_ms", "status")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed: SHA-256 of the '|'-joined str() of the parts."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def default_iterations(n: int) -> int:
    """Default iteration count, logarithmic in the sample count."""
    return max(1, int(round(2.0 * math.log(max(2, n)))))


def default_delta(n: int) -> float:
    """Default privacy delta 1 / n^1.1."""
    return float(n) ** -1.1


S_STAR = 5
"""Default true sparsity s* of a run, and so the default fitted sparsity s."""


@dataclass(frozen=True)
class ExperimentBase:
    """The typed run config of a fit, a sweep or a real-data run.

    Its defaults, with ``SyntheticConfig``'s, are the only copy of the run
    defaults; construction checks the type and range of every field and lists
    every failure. ``synthetic`` is None for a run on a data CSV.

    ``delta``, ``s``, ``T`` and ``K`` accept None, meaning: derive them at the
    dataset of each fit as 1/n^1.1, s_star (``S_STAR`` without a synthetic
    config), the log-n default and ln(d). ``fit_config`` and ``privacy`` are
    the only code that derives them, so in a sweep they track the axis value.
    ``schedule_l`` optionally gives dp-iht-l its own step schedule (default:
    the shared constant step ``eta``).
    """

    synthetic: SyntheticConfig | None = ruled(
        "a SyntheticConfig", lambda v: isinstance(v, SyntheticConfig), default=None
    )
    epsilon: float | None = 0.5
    delta: float | None = None
    eta: float = 0.01
    s: int | None = None
    T: int | None = None
    K: float | None = None
    L: float = 10.0
    tau: float | None = 1.0
    response_clip: float | None = 10.0
    schedule_l: StepSchedule | None = ruled(
        "a step schedule", lambda v: isinstance(v, StepSchedule), default=None
    )
    sign_on_clipped: bool = False

    def __post_init__(self):
        check_fields(self)

    def privacy(self, n: int) -> PrivacyParams:
        """The budget of a fit on n records. A non-private budget derives no delta."""
        if self.epsilon is None:
            return PrivacyParams.non_private()
        if self.delta is None and n < 2:
            raise InvalidConfigError("delta must be set, since its default 1/n^1.1 needs n >= 2")
        delta = default_delta(n) if self.delta is None else self.delta
        return PrivacyParams(epsilon=self.epsilon, delta=delta)

    def fit_config(self, kind: EstimatorKind, n: int, d: int, seed: int) -> EstimatorConfig:
        """The config of one ``kind`` fit with noise seed ``seed`` on an n x d dataset."""
        if kind is EstimatorKind.DP_IHT_L and self.schedule_l is not None:
            schedule = self.schedule_l
        else:
            schedule = ConstantStep(self.eta)
        s_star = S_STAR if self.synthetic is None else self.synthetic.s_star
        return EstimatorConfig(
            s=s_star if self.s is None else self.s,
            T=default_iterations(n) if self.T is None else self.T,
            K=default_clip_level(d) if self.K is None else self.K,
            L=self.L,
            schedule=schedule,
            tau=self.tau,
            response_clip=self.response_clip,
            sign_on_clipped=self.sign_on_clipped,
            seed=seed,
        )


@dataclass(frozen=True)
class SweepSpec:
    """Every value of ``axis`` (each checked by that field's rule), ``repeats`` times.

    Construction checks each (axis value, estimator) cell as its fit will be
    built and checked, so a config error raises before any data is drawn.
    """

    axis: str = ruled(f"one of {SWEEP_AXES}", lambda v: v in SWEEP_AXES)
    values: tuple = ruled("a nonempty list", lambda v: isinstance(v, tuple) and bool(v))
    base: ExperimentBase = ruled(
        "an ExperimentBase with a synthetic config",
        lambda v: isinstance(v, ExperimentBase) and v.synthetic is not None,
    )
    repeats: int
    estimators: tuple[EstimatorKind, ...] = ruled(
        "a nonempty list of EstimatorKind",
        lambda v: isinstance(v, tuple) and bool(v) and all(isinstance(k, EstimatorKind) for k in v),
    )

    def __post_init__(self):
        for name in ("values", "estimators"):
            if isinstance(getattr(self, name), Iterable):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        values, problems = self.values, []
        if self.axis in SWEEP_AXES and isinstance(values, tuple):
            _, must_be, test = RULES[self.axis]
            problems += [
                f"values must be {must_be} on axis {self.axis}, got {v!r}"
                for v in values
                if not test(v)
            ]
            if not problems and any(b <= a for a, b in zip(values, values[1:])):
                problems.append(f"values must be strictly increasing, got {values}")
        check_fields(self, problems)
        check_fields(self, self._cell_problems())

    def _cell_problems(self) -> list[str]:
        """Each problem of any cell once, led by the axis values it holds at
        unless it holds at all of them."""
        at: dict[str, list[str]] = {}
        for value in self.values:
            try:
                cell = self._problems_at(value)
            except InvalidConfigError as exc:
                cell = [str(exc)]
            for problem in dict.fromkeys(cell):
                at.setdefault(problem, []).append(repr(value))
        return [p if len(v) == len(self.values) else f"{self.axis}={', '.join(v)}: {p}"
                for p, v in at.items()]

    def _problems_at(self, value) -> list[str]:
        """The problems of every cell at axis value ``value``. The budget and
        each fit config are built apart, so a budget that cannot be built
        still leaves ``fit_problems``' loss-parameter, ``s <= d`` and
        ``T <= n`` checks to run."""
        base = _unit_base(self.base, self.axis, value, self.base.synthetic.seed)
        n, d = base.synthetic.n, base.synthetic.d
        problems = []
        try:
            priv = base.privacy(n)
        except InvalidConfigError as exc:
            problems.append(str(exc))
            # Without a budget only the clip-level check, which reads it, is skipped.
            priv = PrivacyParams.non_private()
        for kind in self.estimators:
            try:
                cfg = base.fit_config(kind, n, d, 0)
            except InvalidConfigError as exc:
                problems.append(str(exc))
            else:
                problems += fit_problems(kind, n, d, cfg, priv)
        return problems


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    estimator: str
    repeat: int
    seed: int
    l2_error: float
    mae: float
    wall_ms: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow]
    aggregates: dict

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.status != "ok")


def _unit_base(base: ExperimentBase, axis: str, value, data_seed: int) -> ExperimentBase:
    """The config of one sweep unit: the axis set to ``value``, the data seed derived."""
    if axis == "epsilon":
        syn = replace(base.synthetic, seed=data_seed)
        return replace(base, epsilon=float(value), synthetic=syn)
    cast = float if axis == "zeta" else int
    syn = replace(base.synthetic, seed=data_seed, **{axis: cast(value)})
    return replace(base, synthetic=syn)


@_kernels.blas_pinned()
def _run_unit(args) -> list[SweepRow]:
    """Generate one dataset and fit every estimator at each of ``values`` on it.

    A unit is one (axis value, repeat), or on the epsilon axis one repeat
    with every epsilon: those fit the same data, so their comparisons are
    paired. One ``fit_many`` call runs all the unit's fits in lockstep, and
    each row's ``wall_ms`` is that call's wall time over the fit count.
    """
    spec, values, repeat = args
    data_value = () if spec.axis == "epsilon" else values
    data_seed = derive_seed("data", spec.base.synthetic.seed, spec.axis, *data_value, repeat)
    bases = [(value, _unit_base(spec.base, spec.axis, value, data_seed)) for value in values]
    syn = bases[0][1].synthetic
    ds, beta_star = generate_synthetic(syn)
    cells = list(itertools.product(bases, spec.estimators))
    fits = []
    for (value, base), kind in cells:
        seed = derive_seed("fit", spec.base.synthetic.seed, spec.axis, value, repeat, kind.value)
        fits.append((kind, base.fit_config(kind, syn.n, syn.d, seed), base.privacy(syn.n)))
    start = time.perf_counter()
    results = fit_many(ds, fits)
    wall_ms = (time.perf_counter() - start) * 1000.0 / len(fits)
    rows = []
    for ((value, _), kind), result in zip(cells, results):
        if isinstance(result, DpSparseError):  # a failed fit becomes a row, not an abort
            l2 = err = float("nan")
            status = f"failed: {type(result).__name__}: {result}"
        else:
            beta = result.estimate.beta
            err = mae(_kernels.support_matvec(ds.x, beta), ds.y)
            l2, status = l2_error(beta, beta_star), "ok"
        rows.append(SweepRow(
            axis=spec.axis, value=float(value), estimator=kind.value, repeat=repeat,
            seed=data_seed, l2_error=l2, mae=err, wall_ms=wall_ms, status=status,
        ))
    return rows


def compute_aggregates(rows: list[SweepRow]) -> dict:
    """Per (axis value, estimator) mean and standard deviation of the metrics."""
    groups: dict[tuple[float, str], list[SweepRow]] = {}
    for row in rows:
        if row.status != "ok":
            continue
        groups.setdefault((row.value, row.estimator), []).append(row)
    out: dict = {}
    for (value, estimator), members in sorted(groups.items()):
        l2 = np.array([r.l2_error for r in members])
        ma = np.array([r.mae for r in members])
        out.setdefault(str(value), {})[estimator] = {
            "count": len(members),
            "l2_error_mean": float(np.mean(l2)),
            "l2_error_std": float(np.std(l2)),
            "mae_mean": float(np.mean(ma)),
            "mae_std": float(np.std(ma)),
        }
    return out


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Run every (axis value, estimator, repeat) cell of the sweep.

    Deterministic for a fixed spec: every cell's data and noise seeds derive
    from the documented hash, and output ordering is canonical. A fit that
    raises a DpSparseError yields a row with status "failed: ..." and the
    sweep continues; any other exception is a bug and propagates. ``workers``
    must be a positive integer; it defaults to the one in DPSPARSE_WORKERS, or
    1 when that is unset. The units run in min(workers, units) processes, each
    drawing and multiplying on its one thread, or in this one when that is 1.
    """
    groups = [spec.values] if spec.axis == "epsilon" else [(value,) for value in spec.values]
    units = [(spec, values, repeat) for values in groups for repeat in range(spec.repeats)]
    if workers is None:
        raw = os.environ.get("DPSPARSE_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidConfigError(f"DPSPARSE_WORKERS must be a positive integer, got {raw!r}")
    elif not (is_int(workers) and workers >= 1):
        raise InvalidConfigError(f"workers must be a positive integer, got {workers!r}")
    # A process per unit at most: a pool forks all its workers at the first submit.
    workers = min(workers, len(units))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_kernels.one_thread) as pool:
            rows = [row for chunk in pool.map(_run_unit, units) for row in chunk]
    else:
        rows = [row for unit in units for row in _run_unit(unit)]
    rows.sort(key=lambda r: (r.value, r.estimator, r.seed))
    return SweepResult(spec=spec, rows=rows, aggregates=compute_aggregates(rows))


def write_results_csv(result: SweepResult, path, include_timing: bool = False) -> None:
    """Write rows as CSV with the stable schema axis,value,...,status.

    Wall-clock timings vary run to run, so the wall_ms cells stay empty
    unless ``include_timing`` is set; that keeps the default output
    byte-identical across reruns of the same spec.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for r in result.rows:
            writer.writerow([
                r.axis, repr(r.value), r.estimator, r.seed,
                "" if math.isnan(r.l2_error) else repr(r.l2_error),
                "" if math.isnan(r.mae) else repr(r.mae),
                repr(r.wall_ms) if include_timing else "", r.status.split(":", 1)[0],
            ])


def write_failures_json(result: SweepResult, path) -> None:
    """Write the cell and full status of every failed row; [] when none failed."""
    keys = ("axis", "value", "estimator", "repeat", "seed", "status")
    write_json([{k: getattr(r, k) for k in keys} for r in result.rows if r.status != "ok"], path)


def write_json(obj, path) -> None:
    """Write ``obj`` as JSON indented by 2 with sorted keys, plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Real-data evaluation --------------------------------------------------------


@dataclass(frozen=True)
class RealDataSpec:
    """How to evaluate the estimators on a loaded dataset, its features as given.

    ``train_fraction`` of the rows, drawn by ``seed``, are fitted; the rest
    are held out. ``base`` holds the fit settings. Its None-valued K, T and
    delta are derived at the train split's shape, and s defaults to its
    s_star.
    """

    train_fraction: float = 0.8
    seed: int = 0
    base: ExperimentBase = ruled(
        "an ExperimentBase", lambda v: isinstance(v, ExperimentBase),
        default_factory=ExperimentBase,
    )

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class RealDataRow:
    estimator: str
    mae: float
    support_size: int
    selected: tuple[str, ...]
    l2_vs_proxy: float | None


@_kernels.blas_pinned()
def run_real(
    ds: Dataset, names: list[str], spec: RealDataSpec, estimators: list[EstimatorKind]
) -> list[RealDataRow]:
    """Fit each estimator on the train split of ``ds``, report held-out MAE and support.

    ``ds`` and ``names``, its feature column names, are what ``load_csv``
    returns; no file is opened here. The split's rows are fitted as loaded,
    so one record moves only its own fold's gradient, within the fit's clip
    at K. The coefficients of ada-huber, the noise-free Huber fit, stand in
    for the unknown true coefficients when reporting distances. A feature
    name that holds ';', the separator of the selected names in
    ``write_real_csv``, raises CsvParseError before any fit.
    """
    if len(names) != ds.d:
        raise InvalidInputError(f"{len(names)} feature names for d={ds.d} features")
    joined = [name for name in names if ";" in name]
    if joined:
        raise CsvParseError(f"column names must not hold ';', got {joined}", line=1)
    order = RngHandle(spec.seed, stream=0).generator().permutation(ds.n)
    n_train = int(math.floor(spec.train_fraction * ds.n))
    if n_train < 1 or n_train >= ds.n:
        raise InvalidConfigError(
            f"train fraction {spec.train_fraction} leaves an empty split for n={ds.n}"
        )
    train_idx, test_idx = order[:n_train], order[n_train:]
    x_train, x_test = ds.x[train_idx], ds.x[test_idx]
    y_train, y_test = ds.y[train_idx], ds.y[test_idx]
    # Indexing made the split's arrays afresh: adopt them uncopied.
    train = _adopt(x_train, y_train)
    proxy, priv = EstimatorKind.ADA_HUBER_LITE, spec.base.privacy(train.n)

    def request(kind: EstimatorKind):
        seed = derive_seed("real", spec.seed, kind.value)
        return kind, spec.base.fit_config(kind, train.n, train.d, seed), priv

    # The proxy and the estimators fit once each, in one lockstep pass over
    # the folds; fit_many runs the noise-free proxy without the budget.
    kinds = list(dict.fromkeys([proxy, *estimators]))
    results = fit_many(train, [request(kind) for kind in kinds])
    for result in results:
        if isinstance(result, DpSparseError):
            raise result
    reports = dict(zip(kinds, results))
    proxy_beta = reports[proxy].estimate.beta
    rows = []
    for kind in estimators:
        beta, support = reports[kind].estimate.beta, reports[kind].estimate.support
        rows.append(
            RealDataRow(
                estimator=kind.value,
                mae=mae(_kernels.support_matvec(x_test, beta), y_test),
                support_size=int(support.size),
                selected=tuple(names[j] for j in support),
                l2_vs_proxy=None if kind is proxy else l2_error(beta, proxy_beta),
            )
        )
    return rows


def write_real_csv(rows: list[RealDataRow], path) -> None:
    """Write the real-data table: estimator, MAE, support size, selected names."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("estimator", "mae", "size", "selected"))
        for r in rows:
            writer.writerow([r.estimator, repr(r.mae), r.support_size, ";".join(r.selected)])


# Sensitivity suite -----------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    estimator: str
    trials: int
    max_deviation: float
    max_bound_ratio: float
    passed: bool
    extremal_deviation: float | None = None
    extremal_bound: float | None = None


@dataclass(frozen=True)
class SensitivityReport:
    results: list[ProbeReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "results": [dataclasses.asdict(r) for r in self.results]}


PROBE_TOL = 1e-12


def _random_probe_config(gen: np.random.Generator) -> tuple[EstimatorConfig, int, int]:
    d = int(gen.integers(10, 60))
    m = int(gen.integers(5, 60))
    s = int(gen.integers(1, min(10, d)))
    cfg = EstimatorConfig(
        s=s,
        T=1,
        K=float(gen.uniform(0.5, 10.0)),
        L=float(gen.uniform(1.0, 20.0)),
        schedule=ConstantStep(float(gen.uniform(0.001, 0.5))),
        tau=float(gen.uniform(0.25, 5.0)),
        response_clip=float(gen.uniform(0.0, 20.0)),
    )
    return cfg, d, m


def run_sensitivity_suite(trials: int, seed: int = 0) -> SensitivityReport:
    """Random neighboring-fold probes of every private entry of ``ESTIMATORS``.

    Passes iff every observed half-step deviation is within its theoretical
    bound (tolerance 1e-12). An entry whose neighbor replaces a record also
    runs a crafted extremal pair, which must meet its bound to confirm
    tightness.
    """
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    results = []
    for kind, spec in ESTIMATORS.items():
        if not spec.private:
            continue
        gen = RngHandle(derive_seed("probe-suite", seed, kind.value)).generator()
        # (probe seed, extremal) of each random trial, then of the crafted pair.
        probes = [(derive_seed("probe", seed, kind.value, t), False) for t in range(trials)]
        probes += [(0, True)] if spec.replace_one else []
        max_dev = max_ratio = 0.0
        extremal_dev = extremal_bound = None
        ok = True
        for probe_seed, crafted in probes:
            cfg, d, m = _random_probe_config(gen)
            dev = sensitivity_probe(kind, cfg, seed=probe_seed, d=d, m=m, extremal=crafted)
            bound = probe_bound(kind, cfg, cfg.schedule.step(0), m)
            if dev > bound + PROBE_TOL:
                ok = False
            if crafted:
                extremal_dev, extremal_bound = dev, bound
            else:
                max_dev, max_ratio = max(max_dev, dev), max(max_ratio, dev / bound)
        results.append(
            ProbeReport(
                estimator=kind.value,
                trials=trials,
                max_deviation=max_dev,
                max_bound_ratio=max_ratio,
                passed=ok,
                extremal_deviation=extremal_dev,
                extremal_bound=extremal_bound,
            )
        )
    return SensitivityReport(results=results)
