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
    4: {
        "fit-ada-csv": {
            "estimate.json": "66b24f7cb26febdc0ffa1ade6d7eefd69935f9059d367079930d61353429f808",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "301488ebf69311ef36879bfa76dc39c30cea838bc41468e87eb254c16a586424",
        },
        "fit-h-flags": {
            "effective_config.json":
                "0fef7fd84654927b392651d18ac7bfb0b0475cd063679dc9f978e983bfa3f946",
            "estimate.json": "cf5c2ab15bb9406879f50618603ff989f3282bc8a61014bc51000bee68359a96",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "9c99f27372cea17a4b3c278393aab5ec2a835b4f2db5d055fedd966e87ab8f9f",
            "estimate.json": "cef609d9c3bdec6c278eab8cfa70f6119f73575c37f83bb8afb11475437540b6",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "4c2bf0141a5c09de0884763952cdc81887740b7e1e27ae0a554c74ef5b52fd4a",
            "estimate.json": "bcd91c47c9236281ace7c0e447f68883f44fe53a946b177ae5d5076fda0e7161",
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
                "17cec3347efdcc2c26867060d2ea92e9bd856026dfaa8bd47f8b284048de1e23",
            "results.csv": "d1dfa824ae0b0b538ecd6ed3a290d43d89147fe88c96315a519079f362ae2e03",
        },
        "sweep-n": {
            "aggregates.json": "d497fcd18ca8a74d5e8ec9c3b2c1b0ccf42718ac9b615e984e0aff31c1d80c45",
            "effective_config.json":
                "116067662042ece8b1f1cf7f3d1240b41f0869552dfa2e095b140d8a62e8bd78",
            "results.csv": "e399f888b0656d2184455803da23f845b3677e19ffab97d65aa46c0b1d521a60",
        },
        "sweep-n-derived": {
            "aggregates.json": "309ff7ee84b070169122a81f08165e637d10c33d243660781468e7cff4827027",
            "effective_config.json":
                "08a8f5129f357fd06ccaac431eeb450a559166c1563de5af3b7c6edbe1188ad3",
            "results.csv": "ffbf0c6eb394ae26aa62719a868b302d440f6a662b7bedabd8782484a1f5a935",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "962a6fa3209ced1986bab1ddb619edf689992dce0ca82770f59be8f8e3038429",
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
