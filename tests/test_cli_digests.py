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
        "real", "--csv", _csv(p, 5), "--response-col", "y",
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
    "probe": lambda p: ["probe", "--trials", "200", "--seed", "0"],
}

# output version -> name -> {output file: sha256}. The digests of a version
# are recorded once, in the change that bumps OUTPUT_VERSION to it.
DIGESTS = {
    6: {
        "fit-ada-csv": {
            "estimate.json": "488f6ec8fec73973dfafe7a5cbd5b71afe6071c4fcb8c5e38802490ef92b3c8a",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "df40ee2897c409e1986b083e2c11b927ebd60e5401a0957c40900c5d52fed32d",
        },
        "fit-h-flags": {
            "effective_config.json":
                "20c45cc53ce7612de806d74970474069d679085c7d11310b74473c58cbdc28ab",
            "estimate.json": "28de273e7542c6f665c626d516792c328eeb7a3cb50713b286caaef663ebd240",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "c15147e6c339d6b63134acbf7e3dce0601774d6adefda4b4a070065151d0a328",
            "estimate.json": "66f0118ad4276f235c30934939bfa225f425e5ccf478c5254af8994be448f967",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "70b101f3787c3dbd35806526044ea34482d499e7574b3696c029bd1ed0c7ac6c",
            "estimate.json": "6946e0475601a3798d4d655f62f80843fb4792cd63e863b872b714481d272f00",
        },
        "probe": {
            "effective_config.json":
                "17acc8a8e24189c993589c28669705937ca64344cf5f2d18cbdf47e195c47551",
            "probe_report.json": "5460ed9a792f662c71409cad1bfec3a6926839f063fca72ff3637d9f9d9f7b2c",
        },
        "real-derived": {
            "real_results.csv": "29852328e2258f0160a94d133f3a7185a53c03fceb0f7860acf39b9d75e845ed",
        },
        "real-fixed": {
            "real_results.csv": "0aed5f064ca5d574f0dff34ece2fd2c186d594621b02a4fe7523d05628c45435",
        },
        "sweep-d-derived": {
            "aggregates.json": "ae5491f73928ee4482b247ffd4da57cc80ac1d9fdef2893cd8da5411559f99e4",
            "effective_config.json":
                "31c836c9eff31a18839da84c1fe792543874c0e045971676777cd995ad2e3357",
            "results.csv": "57b2385532fe3b1b4de1d3099828a2a4852c2aed02489839eccd242a5b7d2d02",
        },
        "sweep-n": {
            "aggregates.json": "5819c0d3c627fd0189101852481d284110238cc39879e1dce6ff23439676ba71",
            "effective_config.json":
                "4f0b92f9110b39f1e7564296301f72e3a9db325997cf838fadc63e198981b8d5",
            "results.csv": "0fa0afe129cbd07e1c87301ae4d1353c54e6468f59ca4e36afd5f45a6ad217a8",
        },
        "sweep-n-derived": {
            "aggregates.json": "b4996ef93f1647576a88393816c5b065b024c6b840b3cacc36e99e911cdb5b12",
            "effective_config.json":
                "5c110a0b2274e57eed6a8964289267e7196294cc22cde6cdf6d84e13d9504772",
            "results.csv": "ea72ef9c1084395da4a788b4cedeaf18feabc458712d19fb643f5e861496b0ff",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "6780d44bff2861e4983630e0797f4b97ea181b0d3c2de95795c0ab262c45137c",
            "synth_meta.json": "817d915a05522eec8ddb64fc3f34f2965b4decd5272a971648843647071f58c9",
        },
    },
    # Version 7 moved no byte of these runs' data or fits: each file that
    # records output_version moved by that number alone.
    7: {
        "fit-ada-csv": {
            "estimate.json": "c83ef6792c1edfc9a9d854762628f493ce66db0058c43d0bafb9357bb6bee3f6",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "da0cbc11fef54bcfc83f7ce5f2ea8c94e689c430c0090bd65a3d657cca8cdbda",
        },
        "fit-h-flags": {
            "effective_config.json":
                "d12a61c4dfa1726f5e82aa0f28ebfc3d6147922dd58af9c92b1f0404acd4992c",
            "estimate.json": "525d4d9b54221e666f0139e3e7ffe55ff2c9aa3954b78d8b33b9eee8528bd6ec",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "948affffcd4b9ef7423c97072fc40fb6411d51acc7e8d626a36a586c875884c0",
            "estimate.json": "f1f00a6c19cb16702d1fd3673e97c9684a46ad12e02652f726744df91913c9a6",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "c4e32c436bc48c31c1fda10e29e4dd3fe1697beffae02af7c5812e499880a77f",
            "estimate.json": "80636784902b1e5fcc43415e0c57271d37936d2130ac6ee943fd203ba7e8d4ab",
        },
        "probe": {
            "effective_config.json":
                "f74985f1d74422b422d11b79d039ce085cc4d1ec334685d46f243e082ad11f36",
            "probe_report.json": "5460ed9a792f662c71409cad1bfec3a6926839f063fca72ff3637d9f9d9f7b2c",
        },
        "real-derived": {
            "real_results.csv": "29852328e2258f0160a94d133f3a7185a53c03fceb0f7860acf39b9d75e845ed",
        },
        "real-fixed": {
            "real_results.csv": "0aed5f064ca5d574f0dff34ece2fd2c186d594621b02a4fe7523d05628c45435",
        },
        "sweep-d-derived": {
            "aggregates.json": "ae5491f73928ee4482b247ffd4da57cc80ac1d9fdef2893cd8da5411559f99e4",
            "effective_config.json":
                "2848b2be7d25d1484f967c7a49a08f3910c7b3795fa053e739f75ac3c545034c",
            "results.csv": "57b2385532fe3b1b4de1d3099828a2a4852c2aed02489839eccd242a5b7d2d02",
        },
        "sweep-n": {
            "aggregates.json": "5819c0d3c627fd0189101852481d284110238cc39879e1dce6ff23439676ba71",
            "effective_config.json":
                "6727ea7c761195d050042d72dfb396c8623f9f583b2e5645cacaf3ff04a17e47",
            "results.csv": "0fa0afe129cbd07e1c87301ae4d1353c54e6468f59ca4e36afd5f45a6ad217a8",
        },
        "sweep-n-derived": {
            "aggregates.json": "b4996ef93f1647576a88393816c5b065b024c6b840b3cacc36e99e911cdb5b12",
            "effective_config.json":
                "484d4347b8fffd49231f4883be8de2c5a8e71f95db510712fd104de11f717598",
            "results.csv": "ea72ef9c1084395da4a788b4cedeaf18feabc458712d19fb643f5e861496b0ff",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "fa99176d534038c0a401ccb3470faba2b5d1679da986df462c23612309ffcd7f",
            "synth_meta.json": "817d915a05522eec8ddb64fc3f34f2965b4decd5272a971648843647071f58c9",
        },
    },
    # Version 8 moved no byte of these runs' data or fits: each file that
    # records output_version moved by that number alone.
    8: {
        "fit-ada-csv": {
            "estimate.json": "3bc2f2fcd38dda532ef901f263909a4ee4d372de5e10a50946270e1a3cb43248",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "c3bd7380cb0582b4ac20a2cc7947d82fbf4e38fb232d403e1decb2cf72749fac",
        },
        "fit-h-flags": {
            "effective_config.json":
                "c90ed21a88303cb26352ed6b7c8c33584864b120f225f1129513d5d28f146860",
            "estimate.json": "08a80b308a77a5912f3026bc7c705084921216bf7e5b46e695f8324a4d018e36",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "253d0b6ee93ba5fd0f853c4388f48ccb65047e5996d4124f14eb26271fe9b349",
            "estimate.json": "7c8727555c4a7de02776add8c6590d3a54d9d8bf24e4d123ef91b524f048072f",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "10b77f673a84911aaefc16474ffba32deba04e221d18c611fdca38f7b3d86719",
            "estimate.json": "68d3581d17a795dd7fe2318713ffc66917c1be487d1c334834e972ce82539a86",
        },
        "probe": {
            "effective_config.json":
                "9d299298c53a6a956e013f3fee134a99dc80ea625e549b2f350382eab08b59a9",
            "probe_report.json": "5460ed9a792f662c71409cad1bfec3a6926839f063fca72ff3637d9f9d9f7b2c",
        },
        "real-derived": {
            "real_results.csv": "29852328e2258f0160a94d133f3a7185a53c03fceb0f7860acf39b9d75e845ed",
        },
        "real-fixed": {
            "real_results.csv": "0aed5f064ca5d574f0dff34ece2fd2c186d594621b02a4fe7523d05628c45435",
        },
        "sweep-d-derived": {
            "aggregates.json": "ae5491f73928ee4482b247ffd4da57cc80ac1d9fdef2893cd8da5411559f99e4",
            "effective_config.json":
                "0e1f95b7da0aa578076526259e19aee4ef1edd43efa524c4ddfdf230c43b50a1",
            "results.csv": "57b2385532fe3b1b4de1d3099828a2a4852c2aed02489839eccd242a5b7d2d02",
        },
        "sweep-n": {
            "aggregates.json": "5819c0d3c627fd0189101852481d284110238cc39879e1dce6ff23439676ba71",
            "effective_config.json":
                "f0122fda36e0ed68ba4e5861d3a345129f229a5ea1daae6e171ee3d988c90358",
            "results.csv": "0fa0afe129cbd07e1c87301ae4d1353c54e6468f59ca4e36afd5f45a6ad217a8",
        },
        "sweep-n-derived": {
            "aggregates.json": "b4996ef93f1647576a88393816c5b065b024c6b840b3cacc36e99e911cdb5b12",
            "effective_config.json":
                "08f4a84c2fb7b0412d6bdfb911e13b1182ea1260a8586a5b7917efaae4225965",
            "results.csv": "ea72ef9c1084395da4a788b4cedeaf18feabc458712d19fb643f5e861496b0ff",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "2bfebec3aac17a494134e105c873c920baaba1c72431dde3708aa4fb26fc712b",
            "synth_meta.json": "817d915a05522eec8ddb64fc3f34f2965b4decd5272a971648843647071f58c9",
        },
    },
    # Version 9 fits `real` on the CSV's features as given: real-derived's
    # table moved. Every other file that records output_version moved by
    # that number alone.
    9: {
        "fit-ada-csv": {
            "estimate.json": "95ca773792d964f0fc670e9f0ab4f599623bdb84804926fa42ae0c1c9650c5ae",
        },
        "fit-h-csv-narrow": {
            "estimate.json": "312c95fdc9d0d5835cbd583a3ddcd8a86009b2aaa4be8bab75508f9d14ff7c51",
        },
        "fit-h-flags": {
            "effective_config.json":
                "4fc789531cfd3b6d32751b90d2bc4236e653009983440f59091912532120f4aa",
            "estimate.json": "45dc87cf777209f5d49b9f7466ab7576fd740b1343f8801204a5b27caa3f66e0",
        },
        "fit-l-schedule": {
            "effective_config.json":
                "80498722d9026ec8eea342146458e781bf47600297f10ecbb59ae13b2c899ab7",
            "estimate.json": "6229dd87d886bf27fd0999466e23df94991d2d4e5a23e69a2e862f091924cd66",
        },
        "fit-slr-derived": {
            "effective_config.json":
                "af2815f5c71bf48fe0cec9fe236bf43d1fc4e75d2ff662da182456f4cc28e347",
            "estimate.json": "e17c2ea134bffbe5c9faf1b6e30fcbd990ad2fec335e049de59bc721dc9e9691",
        },
        "probe": {
            "effective_config.json":
                "c13743442dfe5d543237765da08ca290e6ccfadaa0380888769e5fe04df89d07",
            "probe_report.json": "5460ed9a792f662c71409cad1bfec3a6926839f063fca72ff3637d9f9d9f7b2c",
        },
        "real-derived": {
            "real_results.csv": "c9e4c9349ffefb63cf0f9d4a46069be5b3f5b2a7aeb8523cf7bf80ee24cc0d76",
        },
        "real-fixed": {
            "real_results.csv": "0aed5f064ca5d574f0dff34ece2fd2c186d594621b02a4fe7523d05628c45435",
        },
        "sweep-d-derived": {
            "aggregates.json": "ae5491f73928ee4482b247ffd4da57cc80ac1d9fdef2893cd8da5411559f99e4",
            "effective_config.json":
                "6d47b3abbc45088fa67d29f6832f1075ae95602c49dba9066fe59caa9532a6a3",
            "results.csv": "57b2385532fe3b1b4de1d3099828a2a4852c2aed02489839eccd242a5b7d2d02",
        },
        "sweep-n": {
            "aggregates.json": "5819c0d3c627fd0189101852481d284110238cc39879e1dce6ff23439676ba71",
            "effective_config.json":
                "1a1d34ada851cf808a8917949922e2062a2ac99a9e780e58085e4a20fb7a5617",
            "results.csv": "0fa0afe129cbd07e1c87301ae4d1353c54e6468f59ca4e36afd5f45a6ad217a8",
        },
        "sweep-n-derived": {
            "aggregates.json": "b4996ef93f1647576a88393816c5b065b024c6b840b3cacc36e99e911cdb5b12",
            "effective_config.json":
                "f2d7c2d280f3fee47b57d5850c4d2e768ae5d203c3194f495d5ea64926612972",
            "results.csv": "ea72ef9c1084395da4a788b4cedeaf18feabc458712d19fb643f5e861496b0ff",
        },
        "synth-gen": {
            "dataset.csv": "f7ac528cc5f44f2fae947dc048e7ec09d8991ccd159b6371859198a75ea20719",
            "effective_config.json":
                "fcc808f9cbb32e031da7e04de7304eda124e5b60540db733b0934d4408512f8e",
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
