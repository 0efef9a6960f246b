"""Differentially private sparse linear regression with heavy-tailed responses.

Estimators: Huber-loss private IHT, absolute-loss private IHT, a non-private
Huber IHT reference, and a clipped squared-loss private baseline; plus the
noisy top-s selection primitive, seeded samplers, a synthetic-data generator,
and an experiment harness with a CLI.
"""

from ._kernels import backend_name
from .core import (
    OUTPUT_VERSION,
    ConstantStep,
    Dataset,
    Estimate,
    EstimatorConfig,
    PrivacyParams,
    StepSchedule,
    TwoPhaseStep,
    l2_error,
    load_csv,
    mae,
    project_l2,
    save_csv,
    split_folds,
)
from .errors import (
    CsvParseError,
    DpSparseError,
    InvalidConfigError,
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)
from .estimators import (
    EstimatorKind,
    FitReport,
    fit_estimator,
    fit_many,
    probe_bound,
    sensitivity_probe,
)
from .harness import (
    ExperimentBase,
    RealDataSpec,
    SweepResult,
    SweepRow,
    SweepSpec,
    derive_seed,
    run_real,
    run_sensitivity_suite,
    run_sweep,
)
from .losses import (
    AbsoluteL1,
    Huber,
    Squared,
    batch_gradient,
    default_clip_level,
)
from .peeling import noise_scale, peel
from .sampling import (
    RngHandle,
    SyntheticConfig,
    generate_synthetic,
    nu_from_zeta,
    student_t,
)

__version__ = "0.1.0"

__all__ = [
    "OUTPUT_VERSION",
    "AbsoluteL1",
    "ConstantStep",
    "CsvParseError",
    "Dataset",
    "DpSparseError",
    "Estimate",
    "EstimatorConfig",
    "EstimatorKind",
    "ExperimentBase",
    "FitReport",
    "Huber",
    "InvalidConfigError",
    "InvalidInputError",
    "InvalidParameterError",
    "NumericalFailureError",
    "PrivacyParams",
    "RealDataSpec",
    "RngHandle",
    "Squared",
    "StepSchedule",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SyntheticConfig",
    "TwoPhaseStep",
    "backend_name",
    "batch_gradient",
    "default_clip_level",
    "derive_seed",
    "fit_estimator",
    "fit_many",
    "generate_synthetic",
    "l2_error",
    "load_csv",
    "mae",
    "noise_scale",
    "nu_from_zeta",
    "peel",
    "probe_bound",
    "project_l2",
    "run_real",
    "run_sensitivity_suite",
    "run_sweep",
    "save_csv",
    "sensitivity_probe",
    "split_folds",
    "student_t",
]
