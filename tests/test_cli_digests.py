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
    2: {
        "fit-ada-csv": {
            "estimate.json": "77fd9edbc36e053a08a1f5b1d53574bf8499f01dd0dc1429a18c91f3d059373e",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "1cc491c6a5616a2b4639e0e9cdfbcb2ffc450b825b125a3df5b104f7562b4109",
        },
        "fit-h-flags": {
            "effective_config.json":
                "220e3f82dc68b94c4d5448943b7b275a7668858c8cad8b76c1a16b1350c35eb2",
            "estimate.json": "3f7febcbd3d818bb2f8d350287d990e09a5571c5ffc2f5aef310c0e5ad725074",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "e783c20954ba067f92eb63ab60c55743c082a7a74514fbcd3d9fa6e6f7209200",
            "estimate.json": "cb3c8ff0522d194cc055d5f6b4a9ec3237cd1ca986c94133999f3eb41f839721",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "8fa91c4687170fa758c4d4778ed51cd64f38856c084eac99927e9e5cff40a606",
            "estimate.json": "2d4db43bb6c077e98364b751f1b4c4dd579531259f296cbe83fe02b5b55c1599",
        },
        "real-derived": {
            "real_results.csv": "5f9769b1659f62c6af60d3b9c21b2a7a42ea63dba986143f858a19bfd009c337",
        },
        "real-fixed": {
            "real_results.csv": "5edf14f0bfced9c4a3ee121d968192bf94df69c41b8c4356ca285b138d385c89",
        },
        "sweep-d-derived": {
            "aggregates.json": "695ff6a70c683edde3c661b80f47841aa80cd250617f8524a3c52c691a68ea08",
            "effective_config.json":
                "7aee18b4970cd3a7b0f9fb446c6cf86117aae16e35d203d21eff597444bfa93d",
            "results.csv": "fb0113a21c0e3e87e4be07061e4856ed70d94a36a06ee235e4802787a0b3246a",
        },
        "sweep-n": {
            "aggregates.json": "7de095bf991002838f61b9079309d3e85b5330c9420862139d5346ad0be4e330",
            "effective_config.json":
                "fdfda4548a8bd70034a261bcd4c4c20575f3890140dd91b57884d0ddbd03d77b",
            "results.csv": "37ab6cbf979b0ba5bec559708fbfd2646110d65cca6f51930195b884baab3e02",
        },
        "sweep-n-derived": {
            "aggregates.json": "86eebffa2c3ae093cf5c0cc86129bf48a4b7ec5cd446608c73ea039dcf2f28dd",
            "effective_config.json":
                "44477b1cbb4df245c94c96e5b9ff39196160968d36a9a71a19f92383b48896bf",
            "results.csv": "c5351158360bba7ce2d723102d2de58e04e9a781533f034fc8d5f09185b2e9c2",
        },
        "synth-gen": {
            "dataset.csv": "abcc7c9ab00f1c78e8fa7487f7494277814c4519767f2031a9a5894b2218ac66",
            "effective_config.json":
                "f422ad85c6a88d683fc9c7e8b0213bbde4f5d81d820fa28ca594e2c7ff0a19fc",
            "synth_meta.json": "f7aed3428a36426d39ac101bafa4d2a713de474168a780e677625b7ab3f7de72",
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
