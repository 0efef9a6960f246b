"""Command-line entry point.

Subcommands: synth-gen, fit, sweep, real, probe. Configuration comes from a
JSON file plus flag overrides (flags win); that configuration, defaults
filled in, is echoed to ``effective_config.json`` in the output directory so
any run can be reproduced from its own output. K, delta, s and T are echoed
only when set: unset, every fit derives them at its own data shape. That
file and ``estimate.json`` record the output version (``OUTPUT_VERSION``); a
rerun from a config that names another version exits 1. Exit codes: 0
success, 1 validation error or an input file that cannot be read, 2 runtime
failure (a failed write under ``--out`` included).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from dataclasses import MISSING, fields

from . import _kernels
from .core import (
    OUTPUT_VERSION, RULES, ConstantStep, TwoPhaseStep, field_problems, field_rules, is_int,
    l2_error, load_csv, mae, save_csv,
)
from .errors import DpSparseError, InvalidConfigError, InvalidInputError, NumericalFailureError
from .estimators import EstimatorKind, fit_estimator, fit_problems
from .harness import (
    S_STAR,
    ExperimentBase,
    RealDataSpec,
    SweepSpec,
    run_real,
    run_sensitivity_suite,
    run_sweep,
    write_failures_json,
    write_json,
    write_real_csv,
    write_results_csv,
)
from .sampling import SyntheticConfig, generate_synthetic

_ALL_ESTIMATORS = [k.value for k in EstimatorKind]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpsparse", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    gen = sub.add_parser("synth-gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--s-star", type=int, default=S_STAR)
    gen.add_argument("--zeta", type=float, default=None)
    gen.add_argument("--beta-scale", type=float, default=None)
    gen.add_argument("--noise-scale", type=float, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="fit one estimator")
    fit.add_argument("--estimator", required=True, choices=_ALL_ESTIMATORS)
    fit.add_argument("--config", default=None)
    fit.add_argument("--data", default=None, help="dataset CSV (x1..xd,y)")
    fit.add_argument("--response-col", default="y")
    fit.add_argument("--n", type=int, default=None, help="synthetic sample count")
    fit.add_argument("--d", type=int, default=None, help="synthetic dimension")
    fit.add_argument("--s-star", type=int, default=None)
    fit.add_argument("--zeta", type=float, default=None)
    fit.add_argument("--noise-scale", type=float, default=None)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--tau", type=float, default=None)
    fit.add_argument("--epsilon", type=float, default=None)
    fit.add_argument("--delta", type=float, default=None)
    fit.add_argument("--eta", type=float, default=None)
    fit.add_argument("--s", type=int, default=None)
    fit.add_argument("--T", type=int, default=None)
    fit.add_argument("--K", type=float, default=None)
    fit.add_argument("--L", type=float, default=None)
    fit.add_argument("--response-clip", type=float, default=None)
    fit.add_argument("--non-private", action="store_true")
    fit.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded sweep from a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--timing", action="store_true", help="record wall_ms in results.csv")
    sweep.add_argument("--out", required=True)

    real = sub.add_parser("real", help="evaluate estimators on a real CSV")
    real.add_argument("--csv", required=True)
    real.add_argument("--response-col", required=True)
    real.add_argument("--config", default=None)
    real.add_argument("--seed", type=int, default=None)
    real.add_argument("--train-fraction", type=float, default=None)
    real.add_argument("--out", required=True)

    probe = sub.add_parser("probe", help="run the sensitivity probe suite")
    probe.add_argument("--trials", type=int, default=200)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--out", required=True)

    return parser


# Configuration ---------------------------------------------------------------

_SYNTHETIC_KEYS = tuple(f.name for f in fields(SyntheticConfig))
_FIT_KEYS = tuple(f.name for f in fields(ExperimentBase) if f.name != "synthetic")
# Keys of a run rather than of its fits: the sweep grid, the fit's data CSV,
# what `real` echoes of its flags, and the output version of the echo.
_RUN_KEYS = (
    "axis", "values", "repeats", "estimators", "data",
    "csv", "response_col", "train_fraction", "output_version",
)
_KEYS = frozenset(_SYNTHETIC_KEYS + _FIT_KEYS + _RUN_KEYS)
# The run keys checked here, so that one pass names every bad field; the
# values of the grid are checked by SweepSpec, against the rule of its axis.
_RUN_RULES = (
    field_rules(SweepSpec)["axis"],
    RULES["repeats"],
    RULES["train_fraction"],
    ("estimators", f"a list of {_ALL_ESTIMATORS}",
     lambda v: isinstance(v, list) and all(e in _ALL_ESTIMATORS for e in v)),
    # A config echoed at another output version would rerun to other bytes.
    ("output_version", f"{OUTPUT_VERSION}, the output version of this dpsparse",
     lambda v: is_int(v) and v == OUTPUT_VERSION),
)
# The defaults echoed to effective_config.json, read from the dataclasses.
_DEFAULTS = {
    "s_star": S_STAR,
    **{
        f.name: f.default
        for cls in (SyntheticConfig, ExperimentBase)
        for f in fields(cls)
        if f.default not in (MISSING, None) and not isinstance(f.default, bool)
    },
}


def read_config(path) -> dict:
    """The JSON object in the config file at ``path``; {} when path is None."""
    if path is None:
        return {}
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidConfigError(f"config is not valid UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError("config root must be a JSON object")
    return raw


@contextlib.contextmanager
def _reading(path):
    # An input that exists but cannot be read is a bad input (exit 1), like a
    # missing one; a failure to write an output stays an i/o failure (exit 2).
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from None


def load_config(path, overrides: dict | None = None) -> tuple[ExperimentBase, dict]:
    """``resolve_config`` of the config file at ``path``."""
    return resolve_config(read_config(path), overrides)


def resolve_config(
    raw: dict, overrides: dict | None = None, shape: tuple[int, int] | None = None
) -> tuple[ExperimentBase, dict]:
    """Map a flat config and flag overrides onto the typed run config.

    Flags (overrides that are not None) win over the file, and the file over
    the dataclass defaults. ``shape`` is the (n, d) of a data CSV: the run
    then has no synthetic config, and n and d must agree with it. Returns the
    ExperimentBase and the effective config echoed to effective_config.json.
    Raises one InvalidConfigError that lists every problem, unknown keys
    included.
    """
    cfg = {**_DEFAULTS, **raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    problems = [f"unknown config key {key!r}" for key in sorted(set(cfg) - _KEYS)]
    for key, size in zip(("n", "d"), shape or ()):
        if cfg.setdefault(key, size) != size:
            problems.append(f"{key}={cfg[key]!r} disagrees with the data CSV's {key}={size}")
    syn = {key: cfg[key] for key in _SYNTHETIC_KEYS if key in cfg}
    fit = {key: cfg[key] for key in _FIT_KEYS if key in cfg}
    synthetic = None
    if shape is None and "n" in cfg and "d" in cfg:
        synthetic = _build(problems, SyntheticConfig, syn)
    else:
        problems += field_problems(syn, field_rules(SyntheticConfig).values())
        fit.setdefault("s", cfg["s_star"])
    try:
        fit["schedule_l"] = _schedule_from_dict(fit.get("schedule_l"))
    except InvalidConfigError as exc:
        problems.append(f"schedule_l invalid: {exc}")
        fit["schedule_l"] = None
    problems += field_problems(cfg, _RUN_RULES)
    base = _build(problems, ExperimentBase, {"synthetic": synthetic, **fit})
    if problems:
        raise InvalidConfigError("; ".join(problems))
    return base, cfg


def _build(problems: list, cls, kwargs: dict):
    try:
        return cls(**kwargs)
    except InvalidConfigError as exc:
        problems.append(str(exc))
        return None


_SCHEDULES = {"constant": ConstantStep, "two-phase": TwoPhaseStep}


def _schedule_from_dict(spec: dict | None):
    # The values go to the step type as they are, so its rules name a bad one.
    if spec is None:
        return None
    # A tuple, not the dict: an unhashable kind such as a list is just not in it.
    if not isinstance(spec, dict) or spec.get("kind") not in tuple(_SCHEDULES):
        raise InvalidConfigError(
            f"expected an object whose kind is constant or two-phase, got {spec!r}"
        )
    kind, steps = spec["kind"], _SCHEDULES[spec["kind"]]
    keys = [f.name for f in fields(steps)]
    if set(spec) != {"kind", *keys}:
        raise InvalidConfigError(f"a {kind} step takes kind and {', '.join(keys)}, got {spec!r}")
    return steps(**{key: spec[key] for key in keys})


def _flags(args) -> dict:
    """The parsed flags that name config keys."""
    return {k: v for k, v in vars(args).items() if k in _SYNTHETIC_KEYS + _FIT_KEYS}


def _write_effective_config(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective_config.json")
    write_json({**cfg, "output_version": OUTPUT_VERSION}, path)


# Subcommands -----------------------------------------------------------------


def _cmd_synth_gen(args) -> int:
    cfg = SyntheticConfig(**{k: v for k, v in _flags(args).items() if v is not None})
    ds, beta_star = generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_csv(ds, os.path.join(args.out, "dataset.csv"))
    sidecar = {"beta_star": [float(v) for v in beta_star], "config": dataclasses.asdict(cfg)}
    write_json(sidecar, os.path.join(args.out, "synth_meta.json"))
    _write_effective_config(dataclasses.asdict(cfg), args.out)
    print(f"wrote {os.path.join(args.out, 'dataset.csv')} ({cfg.n} x {cfg.d})")
    return 0


@_kernels.blas_pinned()
def _cmd_fit(args) -> int:
    kind = EstimatorKind(args.estimator)
    raw, flags = read_config(args.config), _flags(args)
    if args.non_private:
        raw["epsilon"] = flags["epsilon"] = None
    if args.data is not None:
        raw["data"] = {"csv": args.data, "response_col": args.response_col}
    ds = beta_star = shape = None
    if "data" in raw:
        data = raw["data"]
        if not (isinstance(data, dict) and isinstance(data.get("csv"), str)):
            raise InvalidConfigError(f"data must be an object with a csv path, got {data!r}")
        with _reading(data["csv"]):
            ds, _names = load_csv(data["csv"], data.get("response_col", "y"))
        shape = (ds.n, ds.d)
    base, cfg = resolve_config(raw, flags, shape)
    if shape is None:
        if base.synthetic is None:
            raise InvalidConfigError("config must supply either a data CSV or synthetic n and d")
        shape = (base.synthetic.n, base.synthetic.d)
    # Check the fit at the data's shape before any data is drawn or file written.
    est_cfg, priv = base.fit_config(kind, *shape, cfg["seed"]), base.privacy(shape[0])
    problems = fit_problems(kind, *shape, est_cfg, priv)
    if problems:
        raise InvalidConfigError("; ".join(problems))
    if ds is None:
        ds, beta_star = generate_synthetic(base.synthetic)
    _write_effective_config(cfg, args.out)
    report = fit_estimator(kind, ds, est_cfg, priv, beta_star)
    beta = report.estimate.beta
    out = {
        "estimator": kind.value,
        "beta": [float(v) for v in beta],
        "support": [int(j) for j in report.estimate.support],
        "iterations_run": report.iterations_run,
        "output_version": OUTPUT_VERSION,
        "mae_in_sample": mae(_kernels.support_matvec(ds.x, beta), ds.y),
    }
    if beta_star is not None:
        out["l2_error"] = l2_error(beta, beta_star)
        out["trace"] = report.estimate.trace
    write_json(out, os.path.join(args.out, "estimate.json"))
    msg = f"fit {kind.value}: support={out['support']}"
    if "l2_error" in out:
        msg += f" l2_error={out['l2_error']:.6g}"
    print(msg)
    return 0


def _cmd_sweep(args) -> int:
    base, cfg = load_config(args.config, _flags(args))
    problems = [key for key in ("n", "d", "axis", "values") if key not in cfg]
    if problems:
        raise InvalidConfigError(f"sweep config missing field(s): {', '.join(problems)}")
    cfg.setdefault("repeats", 20)
    cfg.setdefault("estimators", _ALL_ESTIMATORS)
    spec = SweepSpec(
        axis=cfg["axis"],
        values=cfg["values"],
        base=base,
        repeats=cfg["repeats"],
        estimators=tuple(EstimatorKind(e) for e in cfg["estimators"]),
    )
    result = run_sweep(spec)
    _write_effective_config(cfg, args.out)
    write_results_csv(result, os.path.join(args.out, "results.csv"), include_timing=args.timing)
    write_json(result.aggregates, os.path.join(args.out, "aggregates.json"))
    write_failures_json(result, os.path.join(args.out, "failures.json"))
    print(
        f"sweep over {spec.axis}: {len(result.rows)} rows, {result.n_failed} failed "
        f"-> {os.path.join(args.out, 'results.csv')}"
    )
    return 0 if result.n_failed == 0 else 2


def _cmd_real(args) -> int:
    flags = {
        **_flags(args),
        "csv": args.csv,
        "response_col": args.response_col,
        "train_fraction": args.train_fraction,
    }
    raw = read_config(args.config)
    with _reading(args.csv):
        ds, names = load_csv(args.csv, args.response_col)
    base, cfg = resolve_config(raw, flags, (ds.n, ds.d))
    cfg.setdefault("train_fraction", RealDataSpec.train_fraction)
    spec = RealDataSpec(train_fraction=cfg["train_fraction"], seed=cfg["seed"], base=base)
    estimators = [EstimatorKind(e) for e in cfg.get("estimators", _ALL_ESTIMATORS)]
    rows = run_real(ds, names, spec, estimators)
    _write_effective_config(cfg, args.out)
    write_real_csv(rows, os.path.join(args.out, "real_results.csv"))
    for row in rows:
        print(
            f"{row.estimator}: mae={row.mae:.4g} size={row.support_size} "
            f"selected={','.join(row.selected)}"
        )
    return 0


def _cmd_probe(args) -> int:
    report = run_sensitivity_suite(args.trials, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_json(report.to_dict(), os.path.join(args.out, "probe_report.json"))
    _write_effective_config({"trials": args.trials, "seed": args.seed}, args.out)
    for res in report.results:
        print(
            f"{res.estimator}: max deviation/bound = {res.max_bound_ratio:.6f} "
            f"over {res.trials} trials -> {'pass' if res.passed else 'FAIL'}"
        )
    return 0 if report.passed else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "synth-gen": _cmd_synth_gen,
        "fit": _cmd_fit,
        "sweep": _cmd_sweep,
        "real": _cmd_real,
        "probe": _cmd_probe,
    }
    try:
        return handlers[args.subcommand](args)
    except DpSparseError as exc:
        if isinstance(exc, NumericalFailureError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        # A CSV parse error names the 1-based line it stopped at, when it has one.
        where = "" if getattr(exc, "line", None) is None else f"line {exc.line}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
