"""Every config type checks its fields against one rule per parameter.

A value of the wrong type fails at construction with an InvalidConfigError
that names the field, never later inside a fit with a TypeError.
"""

from dataclasses import dataclass, fields

import pytest

from dpsparse import (
    AbsoluteL1,
    ConstantStep,
    EstimatorConfig,
    EstimatorKind,
    ExperimentBase,
    Huber,
    InvalidConfigError,
    PrivacyParams,
    RealDataSpec,
    Squared,
    SweepSpec,
    SyntheticConfig,
    TwoPhaseStep,
)
from dpsparse.core import check_fields

SYN = SyntheticConfig(n=60, d=10, s_star=2)

# One valid construction per config type; each numeric field is then broken.
VALID = {
    EstimatorConfig: dict(
        s=2, T=3, K=1.0, L=1.0, schedule=ConstantStep(0.1), tau=1.0, response_clip=1.0, seed=0
    ),
    PrivacyParams: dict(epsilon=0.5, delta=0.1),
    ConstantStep: dict(eta=0.1),
    TwoPhaseStep: dict(eta0=0.1, decay=0.5, switch_iter=2, eta_const=0.1),
    Huber: dict(tau=1.0),
    AbsoluteL1: dict(sign_on_clipped=True),
    Squared: dict(response_clip=1.0),
    ExperimentBase: dict(
        epsilon=0.5, delta=0.1, eta=0.01, s=2, T=3, K=1.0, L=1.0, tau=1.0, response_clip=1.0
    ),
    SyntheticConfig: dict(n=20, d=5, s_star=2, zeta=1.0, beta_scale=1.0, noise_scale=1.0, seed=0),
    RealDataSpec: dict(train_fraction=0.5, seed=0),
    SweepSpec: dict(
        axis="n", values=(40,), base=ExperimentBase(synthetic=SYN), repeats=1,
        estimators=(EstimatorKind.DP_IHT_H,),
    ),
}


def _cases():
    for cls, kwargs in VALID.items():
        for name, value in kwargs.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            bads = [True, "1"] + ([1.5] if isinstance(value, int) else [])
            for bad in bads:
                yield pytest.param(cls, name, bad, id=f"{cls.__name__}-{name}-{bad!r}")


@pytest.mark.parametrize("cls,name,bad", _cases())
def test_config_rejects_bad_type_naming_the_field(cls, name, bad):
    cls(**VALID[cls])
    with pytest.raises(InvalidConfigError) as err:
        cls(**{**VALID[cls], name: bad})
    assert f"{name} must be" in str(err.value)


# The fields that accept None; every other field rejects it by name.
NULLABLE = {
    EstimatorConfig: {"K", "tau", "response_clip"},
    PrivacyParams: {"epsilon"},
    ExperimentBase: {
        "synthetic", "epsilon", "delta", "s", "T", "K", "tau", "response_clip", "schedule_l",
    },
}


@pytest.mark.parametrize("cls,name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}-{f.name}") for cls in VALID for f in fields(cls)
])
def test_config_accepts_null_exactly_where_the_field_admits_it(cls, name):
    if name in NULLABLE.get(cls, ()):
        cls(**{**VALID[cls], name: None})
        return
    with pytest.raises(InvalidConfigError) as err:
        cls(**{**VALID[cls], name: None})
    assert f"{name} must be" in str(err.value) and "or null" not in str(err.value)


@dataclass(frozen=True)
class Knob:
    """A config type outside the library: its fields take the rules of their names."""

    eta: float
    tau: float | None = None

    def __post_init__(self):
        check_fields(self)


def test_a_new_config_type_checks_its_fields_by_name():
    Knob(eta=0.1)
    with pytest.raises(InvalidConfigError, match=r"^eta must be a number > 0, got -1$"):
        Knob(eta=-1)
    with pytest.raises(InvalidConfigError, match=r"^tau must be a number > 0 or null, got 'x'$"):
        Knob(eta=0.1, tau="x")


@pytest.mark.parametrize("cls,name,bad", [
    (EstimatorConfig, "schedule", 0.1),
    (EstimatorConfig, "sign_on_clipped", 1),
    (ExperimentBase, "schedule_l", 0.1),
    (SweepSpec, "estimators", ("dp-iht-h",)),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_config_rejects_bad_object_field_naming_it(cls, name, bad):
    with pytest.raises(InvalidConfigError) as err:
        cls(**{**VALID[cls], name: bad})
    assert f"{name} must be" in str(err.value)


def test_config_lists_every_bad_field_at_once():
    with pytest.raises(InvalidConfigError) as err:
        EstimatorConfig(s=2.5, T=True, K="abc", L=1.0, schedule=0.1)
    msg = str(err.value)
    for name in ("s", "T", "K", "schedule"):
        assert f"{name} must be" in msg


@pytest.mark.parametrize("axis,values,message", [
    ("n", (40, 40.5), "a positive integer on axis n, got 40.5"),
    ("d", (8.0, 12), "a positive integer on axis d, got 8.0"),
    ("s_star", (1, True), "a positive integer on axis s_star, got True"),
    ("zeta", (0.5, 1.5), "a number in (0, 1] on axis zeta, got 1.5"),
    ("epsilon", (-1.0, 0.5), "a number > 0 on axis epsilon, got -1.0"),
])
def test_sweep_values_obey_the_rule_of_their_axis_field(axis, values, message):
    with pytest.raises(InvalidConfigError) as err:
        SweepSpec(axis=axis, values=values, base=ExperimentBase(synthetic=SYN), repeats=1,
                  estimators=(EstimatorKind.DP_IHT_H,))
    assert f"values must be {message}" in str(err.value)
