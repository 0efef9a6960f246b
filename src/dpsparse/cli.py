"""Command-line entry point.

Subcommands: synth-gen, fit, sweep, real, probe. Configuration comes from a
JSON file plus flag overrides (flags win); the resolved configuration is
echoed to ``effective_config.json`` in the output directory so any run can be
reproduced from its own output. Exit codes: 0 success, 1 validation error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core import (
    ConstantStep,
    EstimatorConfig,
    PrivacyParams,
    TwoPhaseStep,
    l2_error,
    load_csv,
    mae,
    save_csv,
)
from .errors import DpSparseError, InvalidConfigError, NumericalFailureError
from .estimators import EstimatorKind, fit_estimator
from .harness import (
    ExperimentBase,
    RealDataSpec,
    SweepSpec,
    default_delta,
    default_iterations,
    estimator_schedule,
    run_real,
    run_sensitivity_suite,
    run_sweep,
    write_aggregates_json,
    write_real_csv,
    write_results_csv,
)
from .losses import default_clip_level
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
    gen.add_argument("--s-star", type=int, default=5)
    gen.add_argument("--zeta", type=float, default=1.0)
    gen.add_argument("--beta-scale", type=float, default=1.0)
    gen.add_argument("--noise-scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
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
    real.add_argument("--no-standardize", action="store_true")
    real.add_argument("--out", required=True)

    probe = sub.add_parser("probe", help="run the sensitivity probe suite")
    probe.add_argument("--trials", type=int, default=200)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--out", required=True)

    return parser


# Configuration ---------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "s_star": 5,
    "zeta": 1.0,
    "beta_scale": 1.0,
    "noise_scale": 1.0,
    "epsilon": 0.5,
    "eta": 0.01,
    "tau": 1.0,
    "L": 10.0,
    "response_clip": 10.0,
    "seed": 0,
}


def load_config(path, overrides: dict | None = None) -> dict:
    """Parse a JSON experiment config, apply overrides, fill defaults, validate.

    Derived defaults: K = ln(d), delta = 1/n^1.1, s = s_star, T logarithmic
    in n. Validation reports every failed field at once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError("config root must be a JSON object")
    return resolve_config(raw, overrides)


def resolve_config(raw: dict, overrides: dict | None = None) -> dict:
    cfg = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    for key, value in _CONFIG_DEFAULTS.items():
        cfg.setdefault(key, value)
    problems = []
    for key in ("n", "d"):
        if key in cfg and (not isinstance(cfg[key], int) or cfg[key] < 1):
            problems.append(f"{key} must be a positive integer, got {cfg[key]!r}")
    if not problems and "n" in cfg and "d" in cfg:
        cfg.setdefault("K", default_clip_level(cfg["d"]))
        cfg.setdefault("delta", default_delta(cfg["n"]))
        cfg.setdefault("s", cfg["s_star"])
        cfg.setdefault("T", default_iterations(cfg["n"]))
    for key, low in (("eta", 0.0), ("tau", 0.0), ("L", 0.0), ("beta_scale", 0.0)):
        if key in cfg and not (isinstance(cfg[key], (int, float)) and cfg[key] > low):
            problems.append(f"{key} must be > {low}, got {cfg[key]!r}")
    if "epsilon" in cfg and cfg["epsilon"] is not None and not (
        isinstance(cfg["epsilon"], (int, float)) and cfg["epsilon"] > 0
    ):
        problems.append(f"epsilon must be > 0 or null, got {cfg['epsilon']!r}")
    if "delta" in cfg and not (
        isinstance(cfg["delta"], (int, float)) and 0.0 < cfg["delta"] < 1.0
    ):
        problems.append(f"delta must lie in (0, 1), got {cfg['delta']!r}")
    if "zeta" in cfg and not (
        isinstance(cfg["zeta"], (int, float)) and 0.0 < cfg["zeta"] <= 1.0
    ):
        problems.append(f"zeta must lie in (0, 1], got {cfg['zeta']!r}")
    if "noise_scale" in cfg and not (
        isinstance(cfg["noise_scale"], (int, float)) and cfg["noise_scale"] >= 0
    ):
        problems.append(f"noise_scale must be >= 0, got {cfg['noise_scale']!r}")
    if "response_clip" in cfg and not (
        isinstance(cfg["response_clip"], (int, float)) and cfg["response_clip"] >= 0
    ):
        problems.append(f"response_clip must be >= 0, got {cfg['response_clip']!r}")
    for key in ("s", "T", "s_star", "repeats"):
        if key in cfg and (not isinstance(cfg[key], int) or cfg[key] < 1):
            problems.append(f"{key} must be a positive integer, got {cfg[key]!r}")
    if "estimators" in cfg:
        unknown = [e for e in cfg["estimators"] if e not in _ALL_ESTIMATORS]
        if unknown:
            problems.append(f"unknown estimators {unknown}; choose from {_ALL_ESTIMATORS}")
    if "schedule_l" in cfg and cfg["schedule_l"] is not None:
        try:
            _schedule_from_dict(cfg["schedule_l"])
        except (InvalidConfigError, KeyError, TypeError) as exc:
            problems.append(f"schedule_l invalid: {exc}")
    if problems:
        raise InvalidConfigError("; ".join(problems))
    return cfg


def _schedule_from_dict(spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        return ConstantStep(eta=float(spec["eta"]))
    if kind == "two-phase":
        return TwoPhaseStep(
            eta0=float(spec["eta0"]),
            decay=float(spec["decay"]),
            switch_iter=int(spec["switch_iter"]),
            eta_const=float(spec["eta_const"]),
        )
    raise InvalidConfigError(f"schedule kind must be constant or two-phase, got {kind!r}")


def _schedule_l(cfg: dict):
    spec = cfg.get("schedule_l")
    return None if spec is None else _schedule_from_dict(spec)


def _write_effective_config(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _experiment_base(cfg: dict) -> ExperimentBase:
    syn = SyntheticConfig(
        n=cfg["n"],
        d=cfg["d"],
        s_star=cfg["s_star"],
        zeta=cfg["zeta"],
        beta_scale=cfg["beta_scale"],
        noise_scale=cfg["noise_scale"],
        seed=cfg["seed"],
    )
    return ExperimentBase(
        synthetic=syn,
        epsilon=cfg["epsilon"],
        delta=cfg.get("delta"),
        eta=cfg["eta"],
        s=cfg.get("s"),
        T=cfg.get("T"),
        K=cfg.get("K"),
        L=cfg["L"],
        tau=cfg["tau"],
        response_clip=cfg["response_clip"],
        schedule_l=_schedule_l(cfg),
        sign_on_clipped=cfg.get("sign_on_clipped", False),
    )


# Subcommands -----------------------------------------------------------------


def _cmd_synth_gen(args) -> int:
    cfg = SyntheticConfig(
        n=args.n,
        d=args.d,
        s_star=args.s_star,
        zeta=args.zeta,
        beta_scale=args.beta_scale,
        noise_scale=args.noise_scale,
        seed=args.seed,
    )
    ds, beta_star = generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_csv(ds, os.path.join(args.out, "dataset.csv"))
    sidecar = {"beta_star": [float(v) for v in beta_star], "config": dataclasses.asdict(cfg)}
    with open(os.path.join(args.out, "synth_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_effective_config(dataclasses.asdict(cfg), args.out)
    print(f"wrote {os.path.join(args.out, 'dataset.csv')} ({cfg.n} x {cfg.d})")
    return 0


def _fit_flag_overrides(args) -> dict:
    return {
        "n": args.n,
        "d": args.d,
        "s_star": args.s_star,
        "zeta": args.zeta,
        "noise_scale": args.noise_scale,
        "seed": args.seed,
        "tau": args.tau,
        "epsilon": None if args.non_private else args.epsilon,
        "delta": args.delta,
        "eta": args.eta,
        "s": args.s,
        "T": args.T,
        "K": args.K,
        "L": args.L,
        "response_clip": args.response_clip,
    }


def _cmd_fit(args) -> int:
    kind = EstimatorKind.from_name(args.estimator)
    overrides = _fit_flag_overrides(args)
    if args.config is not None:
        cfg = load_config(args.config, overrides)
    else:
        # Flag-only invocations carry no config-file defaults for the
        # estimator-critical fields; report everything missing at once.
        missing = []
        if args.data is None and (args.n is None or args.d is None):
            missing.append("data (a CSV path, or --n/--d for synthetic data, or --config)")
        if kind in (EstimatorKind.DP_IHT_H, EstimatorKind.ADA_HUBER_LITE) and args.tau is None:
            missing.append("tau")
        if missing:
            raise InvalidConfigError(
                "missing required field(s): " + ", ".join(missing)
            )
        cfg = resolve_config({}, overrides)
    if args.data is not None:
        cfg["data"] = {"csv": args.data, "response_col": args.response_col}

    beta_star = None
    if "data" in cfg:
        ds, _names = load_csv(cfg["data"]["csv"], cfg["data"].get("response_col", "y"))
        cfg.setdefault("n", ds.n)
        cfg.setdefault("d", ds.d)
        cfg = resolve_config(cfg)
    elif "n" in cfg and "d" in cfg:
        cfg = resolve_config(cfg)
        syn = SyntheticConfig(
            n=cfg["n"],
            d=cfg["d"],
            s_star=cfg["s_star"],
            zeta=cfg["zeta"],
            beta_scale=cfg["beta_scale"],
            noise_scale=cfg["noise_scale"],
            seed=cfg["seed"],
        )
        ds, beta_star = generate_synthetic(syn)
    else:
        raise InvalidConfigError(
            "config must supply either a data CSV or synthetic n and d"
        )

    non_private = args.non_private or cfg.get("epsilon") is None
    priv = (
        PrivacyParams.non_private()
        if non_private
        else PrivacyParams(epsilon=cfg["epsilon"], delta=cfg["delta"])
    )
    est_cfg = EstimatorConfig(
        s=cfg["s"],
        T=cfg["T"],
        K=cfg.get("K"),
        L=cfg["L"],
        schedule=estimator_schedule(kind, cfg["eta"], _schedule_l(cfg)),
        tau=cfg.get("tau"),
        response_clip=cfg.get("response_clip"),
        sign_on_clipped=cfg.get("sign_on_clipped", False),
        seed=cfg["seed"],
    )
    _write_effective_config(cfg, args.out)
    report = fit_estimator(kind, ds, est_cfg, priv, beta_star)
    beta = report.estimate.beta
    out = {
        "estimator": kind.value,
        "beta": [float(v) for v in beta],
        "support": [int(j) for j in report.estimate.support],
        "iterations_run": report.iterations_run,
        "mae_in_sample": mae(ds.x @ beta, ds.y),
    }
    if beta_star is not None:
        out["l2_error"] = l2_error(beta, beta_star)
        out["trace"] = report.estimate.trace
    with open(os.path.join(args.out, "estimate.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    msg = f"fit {kind.value}: support={out['support']}"
    if "l2_error" in out:
        msg += f" l2_error={out['l2_error']:.6g}"
    print(msg)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed})
    problems = [key for key in ("n", "d", "axis", "values") if key not in cfg]
    if problems:
        raise InvalidConfigError(f"sweep config missing field(s): {', '.join(problems)}")
    cfg.setdefault("repeats", 20)
    cfg.setdefault("estimators", _ALL_ESTIMATORS)
    cfg = resolve_config(cfg)
    spec = SweepSpec(
        axis=cfg["axis"],
        values=tuple(cfg["values"]),
        base=_experiment_base(cfg),
        repeats=cfg["repeats"],
        estimators=tuple(EstimatorKind.from_name(e) for e in cfg["estimators"]),
    )
    _write_effective_config(cfg, args.out)
    result = run_sweep(spec)
    write_results_csv(result, os.path.join(args.out, "results.csv"), include_timing=args.timing)
    write_aggregates_json(result, os.path.join(args.out, "aggregates.json"))
    print(
        f"sweep over {spec.axis}: {len(result.rows)} rows, {result.n_failed} failed "
        f"-> {os.path.join(args.out, 'results.csv')}"
    )
    return 0 if result.n_failed == 0 else 2


def _cmd_real(args) -> int:
    cfg = resolve_config(load_config(args.config) if args.config else {}, {"seed": args.seed})
    spec = RealDataSpec(
        csv_path=args.csv,
        response_col=args.response_col,
        standardize=not args.no_standardize,
        train_fraction=args.train_fraction
        if args.train_fraction is not None
        else cfg.get("train_fraction", 0.8),
        epsilon=cfg["epsilon"],
        delta=cfg.get("delta"),
        eta=cfg["eta"],
        s=cfg.get("s", cfg["s_star"]),
        T=cfg.get("T"),
        K=cfg.get("K"),
        L=cfg["L"],
        tau=cfg["tau"],
        response_clip=cfg["response_clip"],
        seed=cfg["seed"],
    )
    estimators = [EstimatorKind.from_name(e) for e in cfg.get("estimators", _ALL_ESTIMATORS)]
    effective = dict(cfg)
    effective.update(
        {
            "csv": args.csv,
            "response_col": args.response_col,
            "train_fraction": spec.train_fraction,
            "standardize": spec.standardize,
        }
    )
    _write_effective_config(effective, args.out)
    rows = run_real(spec, estimators)
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
    with open(os.path.join(args.out, "probe_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    except (InvalidConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DpSparseError as exc:
        if isinstance(exc, NumericalFailureError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
