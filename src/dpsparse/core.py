"""Domain types, ball projection, data splitting and metrics.

Everything here is a pure function over immutable inputs. A Dataset built
from caller arrays copies them, checks them and marks them read-only, so
values can be shared freely across workers. The same check records each
row's peak max_j |x_ij|. The folds of a Dataset are read-only views of its
arrays and of its row peaks: they are neither copied nor checked again. The
peaks let a fit clip the features of only those folds that hold an entry
beyond the clip level K; clipping any other fold would return its features
unchanged.
"""

from __future__ import annotations

import csv
import functools
import numbers
import types
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CsvParseError, InvalidConfigError, InvalidInputError

OUTPUT_VERSION = 9
"""Version of the output bits: the same seed, the same output version and the
same numpy major version give the same bytes. A change that moves any output
bit bumps it and re-records the pinned digests under the new version."""

# Norms within this tolerance of the radius count as inside the ball, so that
# repeated projections do not churn on floating-point rounding.
PROJECTION_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """n samples of (feature vector in R^d, response).

    ``x`` has shape (n, d), ``y`` shape (n,). Arrays are copied to float64,
    validated to be finite, and frozen (read-only). ``row_peak`` holds
    max_j |x_ij| for each row i, read-only as well.
    """

    x: np.ndarray
    y: np.ndarray
    row_peak: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _build(self, self.x, self.y, copy=True)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _build(ds: Dataset, x, y, copy: bool, row_peak: np.ndarray | None = None) -> None:
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError(f"features must be 2-d, got shape {x.shape}")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidInputError(
            f"responses must be 1-d with length {x.shape[0]}, got shape {y.shape}"
        )
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise InvalidInputError("dataset needs n >= 1 and d >= 1")
    # Row max and min propagate NaN and +-inf, so a finite peak per row is
    # the finiteness check of x, made without an n x d temporary.
    if row_peak is None:
        row_peak = np.maximum(x.max(axis=1), -x.min(axis=1))
    if not np.isfinite(row_peak).all() or not np.isfinite(y).all():
        raise InvalidInputError("dataset contains non-finite entries")
    if copy and x is ds.x:
        x = x.copy()
    if copy and y is ds.y:
        y = y.copy()
    for arr in (x, y, row_peak):
        arr.setflags(write=False)
    object.__setattr__(ds, "x", x)
    object.__setattr__(ds, "y", y)
    object.__setattr__(ds, "row_peak", row_peak)


def _adopt(x: np.ndarray, y: np.ndarray, row_peak: np.ndarray | None = None) -> Dataset:
    # A Dataset over arrays its caller has just made and holds no other
    # reference to: checked and frozen like Dataset(x, y), but not copied.
    # A caller that took x's row peaks while writing x passes them, and the
    # finiteness check reads them instead of x.
    ds = object.__new__(Dataset)
    _build(ds, x, y, copy=False, row_peak=row_peak)
    return ds


# Config field rules: (field name, what its value must be, test). Each test
# checks the type as well as the range, so a value read from JSON fails with
# its field's name, not with a TypeError inside a fit. A bool is never a
# number here, though Python counts it as an int. ``RULES`` holds the one rule
# of each scalar parameter. A config type states each field once: its
# ``__post_init__`` calls ``check_fields``, which checks every field against
# the field's own rule (``ruled``) or else the ``RULES`` entry of its name,
# and accepts None where the field's annotation admits it.


def is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


RULES = {
    name: (name, must_be, test)
    for must_be, test, names in (
        ("an integer", is_int, ("seed",)),
        ("an integer >= 0", lambda v: is_int(v) and v >= 0, ("switch_iter",)),
        ("a positive integer", lambda v: is_int(v) and v >= 1,
         ("s", "T", "n", "d", "s_star", "repeats")),
        ("a number > 0", lambda v: is_number(v) and v > 0,
         ("K", "L", "tau", "epsilon", "eta", "eta0", "eta_const", "beta_scale")),
        ("a number >= 0", lambda v: is_number(v) and v >= 0, ("response_clip", "noise_scale")),
        ("a number in (0, 1)", lambda v: is_number(v) and 0 < v < 1,
         ("delta", "decay", "train_fraction")),
        ("a number in (0, 1]", lambda v: is_number(v) and 0 < v <= 1, ("zeta",)),
        ("true or false", lambda v: isinstance(v, bool), ("sign_on_clipped",)),
    )
    for name in names
}


def ruled(must_be: str, test, **kwargs):
    """A dataclass field with a rule of its own, for a field that has no
    ``RULES`` entry; ``kwargs`` go to ``dataclasses.field``."""
    return field(metadata={"rule": (must_be, test)}, **kwargs)


@functools.cache
def field_rules(cls) -> types.MappingProxyType:
    """The rule of each field of the dataclass ``cls``, by name in field order.

    A field takes its own rule, or else the ``RULES`` entry of its name (a
    KeyError if it has neither); one whose annotation admits None also accepts
    None. Computed once per class, and read-only.
    """
    hints, rules = typing.get_type_hints(cls), {}
    for f in fields(cls):
        must_be, test = f.metadata["rule"] if "rule" in f.metadata else RULES[f.name][1:]
        if type(None) in typing.get_args(hints[f.name]):
            must_be, test = f"{must_be} or null", lambda v, test=test: v is None or test(v)
        rules[f.name] = (f.name, must_be, test)
    return types.MappingProxyType(rules)


def field_problems(values: dict, rules) -> list[str]:
    """One message per value in ``values`` that fails its rule, in rule order."""
    return [
        f"{name} must be {must_be}, got {values[name]!r}"
        for name, must_be, test in rules
        if name in values and not test(values[name])
    ]


def check_fields(obj, problems=()) -> None:
    """Raise one InvalidConfigError naming ``problems`` and then every field of
    the dataclass ``obj`` that fails its rule (``field_rules``)."""
    problems = [*problems, *field_problems(vars(obj), field_rules(type(obj)).values())]
    if problems:
        raise InvalidConfigError("; ".join(problems))


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta) budget; ``epsilon=None`` is the non-private sentinel.

    In non-private mode every noise draw is forced to exactly 0.
    """

    epsilon: float | None
    delta: float

    def __post_init__(self):
        check_fields(self)

    @property
    def is_private(self) -> bool:
        return self.epsilon is not None

    @classmethod
    def non_private(cls) -> "PrivacyParams":
        return cls(epsilon=None, delta=0.5)


@dataclass(frozen=True)
class ConstantStep:
    """Constant step size eta for every iteration."""

    eta: float

    def __post_init__(self):
        check_fields(self)

    def step(self, t: int) -> float:
        return self.eta


@dataclass(frozen=True)
class TwoPhaseStep:
    """Geometrically decaying step, then a constant step.

    step(t) = (1 - decay)^t * eta0 for t < switch_iter, eta_const afterwards.
    """

    eta0: float
    decay: float
    switch_iter: int
    eta_const: float

    def __post_init__(self):
        check_fields(self)

    def step(self, t: int) -> float:
        if t < self.switch_iter:
            return self.eta0 * (1.0 - self.decay) ** t
        return self.eta_const


StepSchedule = ConstantStep | TwoPhaseStep

@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by every iterative-hard-thresholding estimator.

    ``K=None`` disables feature clipping (allowed only without privacy).
    ``tau`` is consulted by the Huber estimators only; ``response_clip`` by
    the squared-loss baseline only.
    """

    s: int
    T: int
    K: float | None
    L: float
    schedule: StepSchedule = ruled(
        "a ConstantStep or TwoPhaseStep", lambda v: isinstance(v, StepSchedule)
    )
    tau: float | None = None
    response_clip: float | None = None
    sign_on_clipped: bool = False
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Estimate:
    """Fitted coefficient vector with its support and optional error trace.

    ``trace`` holds per-iteration l2 errors and is populated only when a
    reference coefficient vector was supplied to the fit.
    """

    beta: np.ndarray
    support: np.ndarray
    trace: list[float] | None = field(default=None)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        support = np.asarray(np.sort(np.asarray(self.support, dtype=np.int64)))
        beta = beta.copy()
        beta.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "support", support)


def _view(ds: Dataset, rows: slice) -> Dataset:
    # The rows of a Dataset that was already checked and frozen, as views of
    # its arrays: no copy and no second check.
    view = object.__new__(Dataset)
    for name in ("x", "y", "row_peak"):
        object.__setattr__(view, name, getattr(ds, name)[rows])
    return view


def project_l2(v: np.ndarray, L: float) -> np.ndarray:
    """Project onto the l2 ball of radius L; interior points pass through."""
    if not L > 0:
        raise InvalidInputError(f"radius L must be > 0, got {L}")
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise InvalidInputError("project_l2 requires finite input")
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    if peak == 0.0:
        return v
    # normalize by the peak so the squared sum cannot overflow
    unit = v / peak
    unit_norm = float(np.linalg.norm(unit))
    if peak * unit_norm <= L + PROJECTION_TOL:
        return v
    return unit * (L / unit_norm)


def split_folds(ds: Dataset, T: int) -> list[Dataset]:
    """Split into T disjoint folds of size floor(n/T), in original order.

    The trailing n mod T samples are discarded so every fold has the same
    size (that keeps the per-fold sensitivity uniform across iterations).
    Each fold is a read-only row view of ``ds`` (features, responses and row
    peaks): it shares memory with the parent and is not copied or checked
    again.
    """
    if T < 1 or T > ds.n:
        raise InvalidConfigError(f"fold count T={T} must satisfy 1 <= T <= n={ds.n}")
    m = ds.n // T
    return [_view(ds, slice(t * m, (t + 1) * m)) for t in range(T)]


def l2_error(beta_hat: np.ndarray, beta_star: np.ndarray) -> float:
    """Euclidean norm of the difference between two coefficient vectors."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_hat.shape != beta_star.shape:
        raise InvalidInputError(
            f"length mismatch: {beta_hat.shape} vs {beta_star.shape}"
        )
    return float(np.linalg.norm(beta_hat - beta_star))


def mae(predictions: np.ndarray, responses: np.ndarray) -> float:
    """Mean absolute residual between predictions and responses."""
    predictions = np.asarray(predictions, dtype=np.float64)
    responses = np.asarray(responses, dtype=np.float64)
    if predictions.shape != responses.shape:
        raise InvalidInputError(
            f"length mismatch: {predictions.shape} vs {responses.shape}"
        )
    if predictions.size == 0:
        raise InvalidInputError("mae requires nonempty input")
    return float(np.mean(np.abs(predictions - responses)))


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV with header ``x1..xd,y``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(ds.d)] + ["y"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.x[i]] + [repr(float(ds.y[i]))])


def load_csv(path, response_col: str = "y") -> tuple[Dataset, list[str]]:
    """Read a dataset CSV (one header row, columns ``x1..xd`` plus response).

    Returns the dataset and the feature column names. The file is opened
    once and read a row at a time. A file that is not UTF-8, is empty, lacks
    the response column, holds a field the ``csv`` module refuses (one over
    its field size limit), a row of another field count, a missing or
    non-numeric value, or no data row raises CsvParseError, carrying the
    1-based line number where there is one. A file that cannot be opened or
    read raises the OSError of ``open``.
    """
    rows_x: list[list[float]] = []
    rows_y: list[float] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None:
                raise CsvParseError("empty CSV file", line=1)
            header = [h.strip() for h in header]
            if response_col not in header:
                raise CsvParseError(f"response column {response_col!r} not in header", line=1)
            resp_idx = header.index(response_col)
            for lineno, row in enumerate(rows, start=2):
                if len(row) != len(header):
                    raise CsvParseError(
                        f"expected {len(header)} fields, got {len(row)}", line=lineno
                    )
                try:
                    vals = [float(v) for v in row]
                except ValueError as exc:
                    raise CsvParseError(f"non-numeric value: {exc}", line=lineno) from None
                rows_y.append(vals.pop(resp_idx))
                rows_x.append(vals)
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"CSV file is not valid UTF-8: {exc}") from None
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=rows.line_num) from None
    if not rows_y:
        raise CsvParseError("CSV has a header but no data rows", line=2)
    feature_names = [h for j, h in enumerate(header) if j != resp_idx]
    return _adopt(np.array(rows_x), np.array(rows_y)), feature_names
