"""The CLI's output bytes for fixed configs.

The pinned digests were recorded before the run config became one typed
``ExperimentBase``; a change that moves a single output byte of these runs
fails here. Two sweeps and two real runs set no ``T``, ``K`` or ``delta``,
so the derived defaults are pinned as well. ``effective_config.json`` is
pinned only for runs whose echo holds no file path.
"""

import hashlib
import json

import numpy as np
import pytest

from dpsparse import Dataset, save_csv
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

# name -> {output file: sha256}
DIGESTS = {
    "fit-ada-csv": {
        "estimate.json": "a78f59dd6218ab0b76002ecbbe5019964b4499898b4744c058e92d84f95a3c14",
    },
    "fit-h-csv-narrow": {
        "estimate.json": "4a9266e18a42c4a39dabc84310fce959c560d7e5e59c94d84a677f029ba544a4",
    },
    "fit-h-flags": {
        "effective_config.json": "75eeadbda176ad68a9dbc614935c1fdb49c7eb2e647ea10794e21185414845ea",
        "estimate.json": "74aa704f5b447002beb1d1560cb4731187aa7afba56ef8cf2c90dd584b007c68",
    },
    "fit-l-schedule": {
        "effective_config.json": "097b13ce85252f015e1d66d914b65f0a5906d02f6efda22b33ae706ca3e81983",
        "estimate.json": "229317bb5f5d403aa41737838988325b304b5497b3877ad75fcba8ba6f5d40d7",
    },
    "fit-slr-derived": {
        "effective_config.json": "e6399940c87f3731b531a9ea2844a6e17109eac1e975f8db6ee4d12b5117d3a0",
        "estimate.json": "83bbf0911440c526d5e9943772c68561b49c98ae9d471a4254301e1ed2a6ebf7",
    },
    "real-derived": {
        "real_results.csv": "49ecac719816665356528a8ae4e4cec760f327961fc936615ed1a95bb16d608f",
    },
    "real-fixed": {
        "real_results.csv": "5edf14f0bfced9c4a3ee121d968192bf94df69c41b8c4356ca285b138d385c89",
    },
    "sweep-d-derived": {
        "aggregates.json": "d4883f7deebc3fac2d87edbca9415c59da344f72a4e1b111a3fe281dec38536e",
        "effective_config.json": "1218625c4f200123ef3a7eb0ccb8856d62f2c5bf472146c087e09b29c73054c1",
        "results.csv": "95de543ea426d6782e6cf1859cf7f2f1d5ddc52f3f4cb6faa2a6688b88fd3f59",
    },
    "sweep-n": {
        "aggregates.json": "7de095bf991002838f61b9079309d3e85b5330c9420862139d5346ad0be4e330",
        "effective_config.json": "1e5131486a4566029d2e9bf45d9aec8a58929f78e1b9a860f8a74ee919d2ce46",
        "results.csv": "37ab6cbf979b0ba5bec559708fbfd2646110d65cca6f51930195b884baab3e02",
    },
    "sweep-n-derived": {
        "aggregates.json": "67123df3bdd0530c5de0740a737e61a621a5879d9ff066d030e002de00cfb58d",
        "effective_config.json": "b3b86d57e1c62f6a89436eb65ff3259691e33c959746f5ffe4a0b57d39ff461a",
        "results.csv": "374abdba50a5f0244864ffa6fe8b33cda94871c80c1c89affdebf27fe42ff57b",
    },
    "synth-gen": {
        "dataset.csv": "abcc7c9ab00f1c78e8fa7487f7494277814c4519767f2031a9a5894b2218ac66",
        "effective_config.json": "6200ebb048497fae52808c8e9df07008135def0508a9afc62f5b5a4bc7a914a3",
        "synth_meta.json": "f7aed3428a36426d39ac101bafa4d2a713de474168a780e677625b7ab3f7de72",
    },
}


def _digests(tmp_path, name):
    out = tmp_path / "out"
    assert main(RUNS[name](tmp_path) + ["--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in DIGESTS[name]}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_bytes_match_pinned_digests(tmp_path, capsys, name):
    assert _digests(tmp_path, name) == DIGESTS[name]
