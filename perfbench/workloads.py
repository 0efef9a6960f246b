"""The benchmark's workloads: inputs made from the seed, one op, its checks.

Each workload is a closed loop of ops run by one client. ``prepare(i)`` builds
op i's arguments (untimed), ``run`` is the timed call into dpsparse, and
``check`` validates the output and returns a digest of it, so the same op can
be compared across a refit or a traced run. Ops call dpsparse through module
attributes (``estimators.fit_estimator``, ``harness.run_sweep``) so that the
tracing hooks see them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from dpsparse import estimators, harness
from dpsparse.core import ConstantStep, EstimatorConfig, PrivacyParams, l2_error
from dpsparse.estimators import EstimatorKind
from dpsparse.sampling import SyntheticConfig, generate_synthetic

KINDS = tuple(EstimatorKind)
EPSILON = 0.5
ZETA = 0.5
RADIUS = 10.0
ETA = 0.01
TAU = 1.0
RESPONSE_CLIP = 10.0
NORM_TOL = 1e-12

# The quality guard: one fixed problem, independent of the workload seed, so
# a change that alters results moves l2_error_mean on every workload.
GUARD_SHAPE = (4000, 1000, 5)
GUARD_SEED = 20250606


def derive(*parts) -> int:
    """63-bit seed from the SHA-256 of the '|'-joined parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def iterations(n: int) -> int:
    """The default T = round(2 ln n): 20 at n=20000, 17 at n=4000."""
    return max(1, int(round(2.0 * math.log(n))))


def fit_config(n: int, d: int, s: int, seed: int) -> EstimatorConfig:
    return EstimatorConfig(
        s=s,
        T=iterations(n),
        K=math.log(d),
        L=RADIUS,
        schedule=ConstantStep(ETA),
        tau=TAU,
        response_clip=RESPONSE_CLIP,
        seed=seed,
    )


def privacy(n: int) -> PrivacyParams:
    return PrivacyParams(epsilon=EPSILON, delta=float(n) ** -1.1)


def fit_problems(report, s: int) -> list[str]:
    """Support has exactly s distinct indices; beta is finite and in the L ball."""
    beta = report.estimate.beta
    support = report.estimate.support
    problems = []
    if support.size != s or np.unique(support).size != s:
        problems.append(f"support has {np.unique(support).size} distinct of {support.size}, want {s}")
    if not np.isfinite(beta).all():
        problems.append("beta has non-finite entries")
    elif np.linalg.norm(beta) > RADIUS + NORM_TOL:
        problems.append(f"||beta||_2 = {np.linalg.norm(beta)!r} exceeds L = {RADIUS}")
    return problems


def fit_digest(report) -> str:
    beta = np.ascontiguousarray(report.estimate.beta, dtype=np.float64)
    support = np.ascontiguousarray(report.estimate.support, dtype=np.int64)
    return hashlib.sha256(beta.tobytes() + support.tobytes()).hexdigest()


class FitWorkload:
    """One fit_estimator call per op; estimators rotate, each op a fresh fit seed.

    The dataset is generated once in setup, from the workload seed.
    """

    ops_per_round = len(KINDS)
    generates_in_setup = True

    def __init__(self, name: str, n: int, d: int, s: int, seed: int):
        self.name, self.n, self.d, self.s, self.seed = name, n, d, s, seed
        self.ds = None
        self.beta_star = None
        self.priv = privacy(n)

    def setup(self) -> None:
        self.ds = self.beta_star = None  # let a repeated setup free the old copy
        syn = SyntheticConfig(
            n=self.n, d=self.d, s_star=self.s, zeta=ZETA, seed=derive(self.seed, "data")
        )
        self.ds, self.beta_star = generate_synthetic(syn)

    def prepare(self, i: int):
        return KINDS[i % len(KINDS)], fit_config(self.n, self.d, self.s, derive(self.seed, "fit", i))

    def run(self, arg):
        kind, cfg = arg
        return estimators.fit_estimator(kind, self.ds, cfg, self.priv)

    def check(self, i: int, report) -> tuple[str, list[str]]:
        return fit_digest(report), fit_problems(report, self.s)

    def fit_times(self, i: int, report, ms: float) -> list[tuple[str, float]]:
        return [(KINDS[i % len(KINDS)].value, ms)]

    def close(self) -> None:
        self.ds = self.beta_star = None


class SweepWorkload:
    """One run_sweep call per op: one axis value, one repeat, all four estimators.

    The base seed changes per op, so every op generates a new dataset.
    """

    ops_per_round = 1
    generates_in_setup = False

    def __init__(self, name: str, n: int, d: int, s: int, seed: int):
        self.name, self.n, self.d, self.s, self.seed = name, n, d, s, seed

    def setup(self) -> None:
        pass

    def prepare(self, i: int) -> harness.SweepSpec:
        syn = SyntheticConfig(
            n=self.n, d=self.d, s_star=self.s, zeta=ZETA, seed=derive(self.seed, "sweep", i)
        )
        return harness.SweepSpec(
            axis="n",
            values=(self.n,),
            base=harness.ExperimentBase(synthetic=syn, epsilon=EPSILON),
            repeats=1,
            estimators=KINDS,
        )

    def run(self, spec):
        return harness.run_sweep(spec, workers=1)

    def check(self, i: int, result) -> tuple[str, list[str]]:
        problems = []
        if len(result.rows) != len(KINDS):
            problems.append(f"sweep returned {len(result.rows)} rows, want {len(KINDS)}")
        for row in result.rows:
            if row.status != "ok":
                problems.append(f"{row.estimator}: {row.status}")
            elif not (math.isfinite(row.l2_error) and math.isfinite(row.mae)):
                problems.append(f"{row.estimator}: non-finite l2_error or mae")
        text = "|".join(f"{r.estimator},{r.seed},{r.l2_error!r},{r.mae!r},{r.status}" for r in result.rows)
        return hashlib.sha256(text.encode()).hexdigest(), problems

    def fit_times(self, i: int, result, ms: float) -> list[tuple[str, float]]:
        return [(row.estimator, row.wall_ms) for row in result.rows]

    def close(self) -> None:
        pass


def make(name: str, seed: int):
    """The workload called ``name``, with inputs derived from ``seed``."""
    if name == "fit-tall":
        return FitWorkload(name, 20000, 1000, 5, seed)
    if name == "fit-wide":
        return FitWorkload(name, 4000, 10000, 50, seed)
    if name == "sweep-unit":
        return SweepWorkload(name, 20000, 1000, 5, seed)
    raise KeyError(name)


WORKLOADS = ("fit-tall", "fit-wide", "sweep-unit")


def quality_guard() -> tuple[float, list[str]]:
    """Mean l2 error of the four estimators on the fixed guard problem."""
    n, d, s = GUARD_SHAPE
    ds, beta_star = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=s, zeta=ZETA, seed=GUARD_SEED))
    errors, problems = [], []
    for kind in KINDS:
        report = estimators.fit_estimator(kind, ds, fit_config(n, d, s, derive(GUARD_SEED, kind.value)), privacy(n))
        problems += fit_problems(report, s)
        errors.append(l2_error(report.estimate.beta, beta_star))
    return float(np.mean(errors)), problems
