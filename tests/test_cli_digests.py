"""The CLI's output bytes for fixed configs.

The digests are pinned per output version: a change that moves a single
output byte of these runs fails here until it bumps ``OUTPUT_VERSION`` and
records the new digests under the new version. Two sweeps and two real runs
set no ``T``, ``K`` or ``delta``, so the derived defaults are pinned as well. ``effective_config.json`` is
pinned only for runs whose echo holds no file path.
"""

import hashlib
import json

import numpy as np
import pytest

from dpsparse import OUTPUT_VERSION, Dataset, save_csv
from dpsparse.cli import main

TWO_PHASE = {"kind": "two-phase", "eta0": 0.3, "decay": 0.2, "switch_iter": 2, "eta_const": 0.05}
SWEEP = {
    "n": 60, "d": 10, "s_star": 2, "axis": "n", "values": [40, 60], "repeats": 2,
    "eta": 0.2, "tau": 2.0,
}


def _csv(tmp_path, d):
    x = np.random.default_rng(d).standard_normal((90, d))
    y = 2.0 * x[:, 1] - x[:, 0] + 0.1 * np.random.default_rng(d + 1).standard_normal(90)
    path = tmp_path / f"data{d}.csv"
    save_csv(Dataset(x, y), path)
    return str(path)


def _config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# name -> argv builder (given tmp_path)
RUNS = {
    "synth-gen": lambda p: [
        "synth-gen", "--n", "40", "--d", "6", "--s-star", "2", "--zeta", "0.5", "--seed", "3",
    ],
    "fit-h-flags": lambda p: [
        "fit", "--estimator", "dp-iht-h", "--n", "200", "--d", "20", "--tau", "2.0",
        "--T", "5", "--eta", "0.2", "--seed", "1",
    ],
    "fit-l-schedule": lambda p: [
        "fit", "--estimator", "dp-iht-l", "--config", _config(p, {
            "n": 150, "d": 15, "s_star": 3, "zeta": 0.5, "T": 5, "seed": 4,
            "schedule_l": TWO_PHASE, "sign_on_clipped": True,
        }),
    ],
    "fit-slr-derived": lambda p: [
        "fit", "--estimator", "dp-slr", "--config", _config(p, {
            "n": 120, "d": 10, "response_clip": 3.0, "eta": 0.1,
        }),
    ],
    "fit-ada-csv": lambda p: [
        "fit", "--estimator", "ada-huber", "--data", _csv(p, 6), "--tau", "5.0",
        "--T", "6", "--eta", "0.5", "--non-private",
    ],
    "fit-h-csv-narrow": lambda p: [
        "fit", "--estimator", "dp-iht-h", "--data", _csv(p, 3), "--tau", "2.0", "--s", "1",
        "--eta", "0.3",
    ],
    "sweep-n": lambda p: [
        "sweep", "--config",
        _config(p, {**SWEEP, "T": 3, "estimators": ["ada-huber", "dp-iht-h"]}),
        "--seed", "7",
    ],
    "sweep-n-derived": lambda p: [
        "sweep", "--config",
        _config(p, {**SWEEP, "estimators": ["dp-iht-h", "dp-iht-l", "dp-slr"]}),
    ],
    "sweep-d-derived": lambda p: [
        "sweep", "--config", _config(p, {
            **SWEEP, "axis": "d", "values": [8, 12], "repeats": 1, "schedule_l": TWO_PHASE,
        }),
        "--seed", "2",
    ],
    "real-fixed": lambda p: [
        "real", "--csv", _csv(p, 5), "--response-col", "y", "--no-standardize",
        "--config", _config(p, {
            "s": 2, "T": 8, "eta": 0.5, "tau": 20.0, "K": 100.0, "estimators": ["ada-huber"],
        }),
    ],
    "real-derived": lambda p: [
        "real", "--csv", _csv(p, 8), "--response-col", "y", "--seed", "3",
        "--config", _config(p, {
            "s_star": 2, "eta": 0.3, "tau": 5.0,
            "estimators": ["dp-iht-h", "dp-iht-l", "ada-huber", "dp-slr"],
        }),
    ],
}

# output version -> name -> {output file: sha256}. The digests of a version
# are recorded once, in the change that bumps OUTPUT_VERSION to it.
DIGESTS = {
    5: {
        "fit-ada-csv": {
            "estimate.json": "1b157f2a48e7ce26a1549d0512295377ab055ec5b8929e7231ceae52c036816c",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "bc3168cbbac2795c5498e6d2859f69a03fd7cd23e92e5f3cb851158813ede745",
        },
        "fit-h-flags": {
            "effective_config.json":
                "3a92e2ee41afcb289d8cb6eba1e760208482f17bf5b76d488ce53a8b7cf61ce2",
            "estimate.json": "2efdc4bdd9faa0172a0053bad83d8b88bac7c5fb96882b4b92fb38246b44e1d9",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "59a6a708f9aed76c5b9004fdbb7d542682a836334ebbe4e326e41e2b7d7d8bcb",
            "estimate.json": "0f1ff544c7a6a3bc9f6b4447f6b93ef9dcb72eedefcd2e98e36b31589bdf350b",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "fc9465b94591d1e7084589ce21faa06123eb4be07f79a516fd745513605ed31e",
            "estimate.json": "5200a8b10ed25962bcb7900cf9db28f44ea6f04bbeccb5b7bde1cf03e4baea2a",
        },
        "real-derived": {
            "real_results.csv": "29852328e2258f0160a94d133f3a7185a53c03fceb0f7860acf39b9d75e845ed",
        },
        "real-fixed": {
            "real_results.csv": "0aed5f064ca5d574f0dff34ece2fd2c186d594621b02a4fe7523d05628c45435",
        },
        "sweep-d-derived": {
            "aggregates.json": "79c0a50d1f3b1ab15329db2b898b424a768d71aed47ec597fe781cc54d8bde34",
            "effective_config.json":
                "698df7567d5af754f9aae1a89e317a3835e4608a31eee8fc081eb065d6cfafff",
            "results.csv": "d1dfa824ae0b0b538ecd6ed3a290d43d89147fe88c96315a519079f362ae2e03",
        },
        "sweep-n": {
            "aggregates.json": "d497fcd18ca8a74d5e8ec9c3b2c1b0ccf42718ac9b615e984e0aff31c1d80c45",
            "effective_config.json":
                "4a09bb7339d011673eb0fbb16545b931570264486f44b6443315a72bd2dcb2a3",
            "results.csv": "e399f888b0656d2184455803da23f845b3677e19ffab97d65aa46c0b1d521a60",
        },
        "sweep-n-derived": {
            "aggregates.json": "309ff7ee84b070169122a81f08165e637d10c33d243660781468e7cff4827027",
            "effective_config.json":
                "0815d3c58be14d6d98279f2cba1b455328f2cbe9c83502fe13174ec355b97bc7",
            "results.csv": "ffbf0c6eb394ae26aa62719a868b302d440f6a662b7bedabd8782484a1f5a935",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "2fb020555f30860fdb305c3cde92ead729f98117cd87abd4762ca27b58f4890c",
            "synth_meta.json": "817d915a05522eec8ddb64fc3f34f2965b4decd5272a971648843647071f58c9",
        },
    },
}


def _digests(tmp_path, name):
    out = tmp_path / "out"
    assert main(RUNS[name](tmp_path) + ["--out", str(out)]) == 0
    pinned = DIGESTS[OUTPUT_VERSION][name]
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pinned}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_bytes_match_pinned_digests(tmp_path, capsys, name):
    assert _digests(tmp_path, name) == DIGESTS[OUTPUT_VERSION][name]
