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
    3: {
        "fit-ada-csv": {
            "estimate.json": "65afdf7a10e2d0651e3a9486c7fb2036b915e8dc3317bdd60a09fbba0c67514e",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "4b1fc14a8afcc858c727671f8b1522cd565797ba92efd7c0217e87f598663451",
        },
        "fit-h-flags": {
            "effective_config.json":
                "9261858badd9931d7b65549c057e6f7537a18e8df5242411000e526fb93abdcf",
            "estimate.json": "6ea938c5e5d9f9f20852456665cd3978d877c8de8c408fd7d4b6f9d7dfdd001b",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "0ca233a9455c18608252ba11dbb0734e1ee84ec84cf0871ed3898296574a7a17",
            "estimate.json": "f4ee557fa4cec077c7d8f3bc64bf5ca606ffd5eee95ad992c9cf5b29981b4568",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "46f64ceacef63d7546953c94737266355c3d02db0d111e833f5aa0ecf5bbf643",
            "estimate.json": "9bae16263958d55df18eae2465f6433b151cafb5a481dd380ef5d185b0088b67",
        },
        "real-derived": {
            "real_results.csv": "fbe59548c95c80ac185f9e3666ac6cd227bbf1c6aa74eb2fe93388cef02a343c",
        },
        "real-fixed": {
            "real_results.csv": "0aed5f064ca5d574f0dff34ece2fd2c186d594621b02a4fe7523d05628c45435",
        },
        "sweep-d-derived": {
            "aggregates.json": "ec620425edb878784e8842a60f4c87fe9bb05b1b5349daef685fbb464f2e58d8",
            "effective_config.json":
                "9b6bb9a57c097af43e735f0fc77083e423588e2f44233c47f7868a52f94df9e8",
            "results.csv": "cf957f8b3ed955d1f6adf5dbbd9c1fa03fd805cffa66c3462bf9955478747668",
        },
        "sweep-n": {
            "aggregates.json": "49c1e47bed83b73f8a589589f202344915fdbd182ae1a583660c1149b41eb2df",
            "effective_config.json":
                "2775a415be8d97aa3a2f71ca89f003c928ae1e6abb4ca2d12983bb7f34c61a72",
            "results.csv": "e2079e68ad0620c67863e39efcb1c67f50df9d9c117bab595ea54fc95f70efd5",
        },
        "sweep-n-derived": {
            "aggregates.json": "73977d16334c85d6958e9272a2cd06a52adbbd4a7c2e4e023baab4587554829c",
            "effective_config.json":
                "1e429ef9b8d16442bbe29ffb5fe2447e5686440a3322e39fd91ffed5369ed273",
            "results.csv": "2f6bc965ade0414dfe5cb87da9b8101742f8c310ee27396ea705e90b5c64e5b8",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "1d0ebee8ff689016c12a0e15161dc267bd70077afd6f8d5df30e04e7efea17d0",
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
