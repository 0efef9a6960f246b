import builtins
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dpsparse
from dpsparse import (
    OUTPUT_VERSION, EstimatorKind, ExperimentBase, SweepSpec, SyntheticConfig, harness, load_csv,
    run_sweep,
)
from dpsparse import cli
from dpsparse.cli import load_config, main, resolve_config
from dpsparse.errors import InvalidConfigError


def run_cli(*argv):
    return main(list(argv))


# synth-gen --------------------------------------------------------------------


def test_synth_gen_writes_dataset_and_sidecar(tmp_path, capsys):
    out = tmp_path / "gen"
    code = run_cli(
        "synth-gen", "--n", "30", "--d", "5", "--s-star", "2", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    ds, names = load_csv(out / "dataset.csv")
    assert (ds.n, ds.d) == (30, 5)
    meta = json.loads((out / "synth_meta.json").read_text())
    assert len(meta["beta_star"]) == 5
    assert sum(1 for v in meta["beta_star"] if v != 0) == 2
    assert meta["config"]["n"] == 30
    assert (out / "effective_config.json").exists()


def test_synth_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("synth-gen", "--n", "10", "--d", "3", "--s-star", "2", "--seed", "7", "--out", str(a))
    run_cli("synth-gen", "--n", "10", "--d", "3", "--s-star", "2", "--seed", "7", "--out", str(b))
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


# config loading ------------------------------------------------------------------


def test_load_config_fills_paper_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    base, cfg = load_config(path, {"n": 2000, "d": 1000})
    assert cfg["eta"] == 0.01
    assert cfg["tau"] == 1.0
    assert cfg["epsilon"] == 0.5
    assert cfg["s_star"] == 5
    # K, delta, s and T are derived per fit, at the fit's own n and d.
    assert not {"K", "delta", "s", "T"} & set(cfg)
    fit = base.fit_config(EstimatorKind.DP_IHT_H, 2000, 1000, seed=0)
    assert fit.K == pytest.approx(math.log(1000), abs=1e-4)
    assert fit.K == pytest.approx(6.9078, abs=1e-4)
    assert base.privacy(2000).delta == pytest.approx(2000.0**-1.1)
    assert fit.s == 5
    assert fit.T == round(2 * math.log(2000)) == 15


def test_load_config_rejects_bad_delta(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 100, "d": 10, "delta": 1.5}))
    with pytest.raises(InvalidConfigError, match="delta"):
        load_config(path)


def test_resolve_config_lists_every_failed_field():
    with pytest.raises(InvalidConfigError) as err:
        resolve_config({"n": 100, "d": 10, "delta": 1.5, "eta": -1.0, "zeta": 3.0})
    msg = str(err.value)
    assert "delta" in msg and "eta" in msg and "zeta" in msg
    # No derived default is computed from an invalid n or d.
    with pytest.raises(InvalidConfigError) as err:
        resolve_config({"n": 0, "d": 0})
    assert "n must" in str(err.value) and "d must" in str(err.value)


def test_config_round_trip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 50, "d": 8}))
    _, cfg = load_config(path)
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(cfg))
    assert load_config(echo)[1] == cfg


# fit -----------------------------------------------------------------------------


def test_flag_only_fit_takes_the_default_tau(tmp_path):
    # Flags alone default tau to 1.0, as a config file does.
    argv = ["fit", "--estimator", "dp-iht-h", "--n", "50", "--d", "8"]
    unset, set_ = tmp_path / "unset", tmp_path / "set"
    assert run_cli(*argv, "--out", str(unset)) == 0
    assert run_cli(*argv, "--tau", "1.0", "--out", str(set_)) == 0
    for name in ("estimate.json", "effective_config.json"):
        assert (unset / name).read_bytes() == (set_ / name).read_bytes()


def test_fit_leaves_the_blas_thread_variables_unset(tmp_path):
    # The library never sets BLAS threads (README): a fit in a fresh
    # interpreter with no *_NUM_THREADS variable leaves none set.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(dpsparse.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    script = (
        "import os, sys\n"
        "from dpsparse.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(k for k in os.environ if k.endswith('_NUM_THREADS')))\n"
        "sys.exit(code)\n"
    )
    argv = ["fit", "--estimator", "dp-iht-l", "--n", "80", "--d", "12", "--T", "4",
            "--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_fit_with_a_subnormal_epsilon_exits_one_naming_it(tmp_path, capsys):
    code = run_cli("fit", "--estimator", "dp-iht-h", "--n", "60", "--d", "6", "--tau", "1.0",
                   "--T", "3", "--epsilon", "1e-320", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon=1e-320" in err and "noise scale" in err


def test_fit_that_cannot_start_exits_one_before_any_file_is_written(tmp_path, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda *args: drawn.append(args))
    out = tmp_path / "f"
    code = run_cli("fit", "--estimator", "dp-iht-h", "--n", "50", "--d", "10", "--s", "20",
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("sparsity s=20 exceeds dimension d=10") == 1
    assert not out.exists() and drawn == []


def test_fit_missing_data_source_exits_one(tmp_path, capsys):
    code = run_cli("fit", "--estimator", "dp-iht-l", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "data" in capsys.readouterr().err


def test_fit_synthetic_flags_only(tmp_path, capsys):
    out = tmp_path / "fit"
    code = run_cli(
        "fit", "--estimator", "dp-iht-h", "--n", "200", "--d", "20", "--tau", "2.0",
        "--T", "5", "--eta", "0.2", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    est = json.loads((out / "estimate.json").read_text())
    assert len(est["beta"]) == 20
    assert len(est["support"]) == 5
    assert "l2_error" in est
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["tau"] == 2.0 and eff["n"] == 200


def test_fit_with_config_file_defaults_tau(tmp_path):
    # A config file fills tau = 1.0, so --tau is not required.
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"n": 100, "d": 10, "T": 3}))
    out = tmp_path / "o"
    code = run_cli("fit", "--estimator", "dp-iht-h", "--config", str(cfgp),
                   "--out", str(out))
    assert code == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["tau"] == 1.0


def test_fit_on_csv_data(tmp_path):
    gen = tmp_path / "gen"
    run_cli("synth-gen", "--n", "120", "--d", "6", "--s-star", "2",
            "--noise-scale", "0.0", "--seed", "5", "--out", str(gen))
    out = tmp_path / "fit"
    code = run_cli(
        "fit", "--estimator", "ada-huber", "--data", str(gen / "dataset.csv"),
        "--tau", "20.0", "--T", "6", "--eta", "0.5", "--K", "50.0",
        "--non-private", "--out", str(out),
    )
    assert code == 0
    est = json.loads((out / "estimate.json").read_text())
    assert est["mae_in_sample"] < 0.5


def test_fit_effective_config_reproduces_run(tmp_path):
    # A --non-private run echoes "epsilon": null, so its rerun is non-private too.
    for estimator, extra in (("dp-iht-l", []), ("dp-iht-h", ["--tau", "2.0", "--non-private"])):
        out1, out2 = tmp_path / estimator / "r1", tmp_path / estimator / "r2"
        argv = ["fit", "--estimator", estimator, "--n", "80", "--d", "12",
                "--T", "4", "--seed", "9", *extra]
        assert run_cli(*argv, "--out", str(out1)) == 0
        assert run_cli("fit", "--estimator", estimator,
                       "--config", str(out1 / "effective_config.json"),
                       "--out", str(out2)) == 0
        assert (out1 / "estimate.json").read_bytes() == (out2 / "estimate.json").read_bytes()
        eff = json.loads((out1 / "effective_config.json").read_text())
        assert eff["epsilon"] == (None if extra else 0.5)


def test_fit_rejects_n_d_that_disagree_with_the_data(tmp_path, capsys):
    gen = tmp_path / "gen"
    run_cli("synth-gen", "--n", "30", "--d", "5", "--seed", "2", "--out", str(gen))
    data = str(gen / "dataset.csv")
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"n": 40, "d": 10, "T": 3}))
    code = run_cli("fit", "--estimator", "dp-iht-l", "--config", str(cfgp), "--data", data,
                   "--out", str(tmp_path / "bad"))
    assert code == 1
    err = capsys.readouterr().err
    assert "n=40" in err and "d=10" in err
    # The CSV fit's own effective config records the matching n and d.
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("fit", "--estimator", "dp-iht-l", "--data", data, "--T", "3",
                   "--out", str(out1)) == 0
    eff = json.loads((out1 / "effective_config.json").read_text())
    assert (eff["n"], eff["d"]) == (30, 5)
    assert run_cli("fit", "--estimator", "dp-iht-l",
                   "--config", str(out1 / "effective_config.json"), "--out", str(out2)) == 0
    assert (out1 / "estimate.json").read_bytes() == (out2 / "estimate.json").read_bytes()


# sweep -----------------------------------------------------------------------------


def sweep_config(tmp_path, unset=(), **extra):
    cfg = {
        "n": 60, "d": 10, "s_star": 2, "axis": "n", "values": [40, 60],
        "repeats": 2, "estimators": ["ada-huber", "dp-iht-h"], "T": 3,
        "eta": 0.2, "tau": 2.0,
    }
    cfg.update(extra)
    for key in unset:
        del cfg[key]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_byte_identical_results(tmp_path):
    cfgp = sweep_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("sweep", "--config", str(cfgp), "--seed", "7", "--out", str(out1)) == 0
    assert run_cli("sweep", "--config", str(cfgp), "--seed", "7", "--out", str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "aggregates.json").read_bytes() == (out2 / "aggregates.json").read_bytes()
    assert json.loads((out1 / "failures.json").read_text()) == []
    lines = (out1 / "results.csv").read_text().splitlines()
    assert lines[0] == "axis,value,estimator,seed,l2_error,mae,wall_ms,status"
    assert len(lines) == 1 + 2 * 2 * 2


@pytest.mark.parametrize("workers", ["abc", "0"])
def test_sweep_with_a_bad_workers_variable_exits_one_naming_it(tmp_path, capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("DPSPARSE_WORKERS", workers)
    code = run_cli("sweep", "--config", str(sweep_config(tmp_path)), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "DPSPARSE_WORKERS" in err and repr(workers) in err
    assert not (tmp_path / "o").exists()


def test_sweep_config_without_repeats_or_estimators_runs_twenty_repeats_of_all(tmp_path):
    cfgp = sweep_config(tmp_path, unset=("repeats", "estimators"), n=40, d=6, values=[40])
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", str(cfgp), "--out", str(out)) == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["repeats"] == 20
    assert eff["estimators"] == [kind.value for kind in EstimatorKind]
    rows = (out / "results.csv").read_text().splitlines()[1:]
    estimators = [row.split(",")[2] for row in rows]
    assert sorted(estimators) == sorted(kind.value for kind in EstimatorKind for _ in range(20))


def test_sweep_missing_fields_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 60, "d": 10}))
    code = run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert "axis" in err and "values" in err


def test_sweep_timing_flag(tmp_path):
    cfgp = sweep_config(tmp_path, estimators=["ada-huber"], values=[40], repeats=1)
    out = tmp_path / "t"
    assert run_cli("sweep", "--config", str(cfgp), "--timing", "--out", str(out)) == 0
    row = (out / "results.csv").read_text().splitlines()[1].split(",")
    assert float(row[6]) > 0


# The axes whose rows derive K, delta, s or T at their own value.
DERIVING_AXES = [("n", [40, 60]), ("d", [8, 12]), ("s_star", [1, 3])]


@pytest.mark.parametrize("axis, values", DERIVING_AXES, ids=[a for a, _ in DERIVING_AXES])
def test_sweep_effective_config_reproduces_run(tmp_path, axis, values):
    cfgp = sweep_config(tmp_path, unset=("T",), axis=axis, values=values)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("sweep", "--config", str(cfgp), "--seed", "3", "--out", str(out1)) == 0
    assert run_cli("sweep", "--config", str(out1 / "effective_config.json"),
                   "--out", str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


SWEEP_AXES = DERIVING_AXES + [("epsilon", [0.5, 1.0]), ("zeta", [0.5, 1.0])]


@pytest.mark.parametrize("axis, values", SWEEP_AXES, ids=[a for a, _ in SWEEP_AXES])
def test_cli_sweep_rows_equal_the_library_sweep_rows(tmp_path, axis, values):
    # K, delta, s and T are unset: the CLI must derive them per row, as the
    # library does.
    estimators = ["dp-iht-h", "dp-iht-l", "dp-slr"]
    cfgp = sweep_config(
        tmp_path, unset=("T",), axis=axis, values=values, repeats=1, estimators=estimators
    )
    out = tmp_path / "cli"
    assert run_cli("sweep", "--config", str(cfgp), "--seed", "7", "--out", str(out)) == 0
    base = ExperimentBase(
        synthetic=SyntheticConfig(n=60, d=10, s_star=2, seed=7), eta=0.2, tau=2.0
    )
    spec = SweepSpec(
        axis=axis, values=values, base=base, repeats=1,
        estimators=[EstimatorKind(e) for e in estimators],
    )
    harness.write_results_csv(run_sweep(spec, workers=1), tmp_path / "library.csv")
    assert (out / "results.csv").read_text() == (tmp_path / "library.csv").read_text()


def test_sweep_writes_every_failure_reason(tmp_path):
    # results.csv keeps only "failed"; failures.json keeps each full reason.
    # A subnormal epsilon overflows dp-slr's noise scale at fit time;
    # ada-huber is not private and completes.
    cfgp = sweep_config(tmp_path, estimators=["dp-slr", "ada-huber"], epsilon=1e-320)
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", str(cfgp), "--out", str(out)) == 2
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    failed = [row for row in rows if row[-1] != "ok"]
    assert [row[-1] for row in failed] == ["failed"] * 4
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["value"], f["estimator"], str(f["seed"])) for f in failures] == [
        (float(row[1]), row[2], row[3]) for row in failed
    ]
    assert sorted(f["repeat"] for f in failures) == [0, 0, 1, 1]
    assert {f["axis"] for f in failures} == {"n"}
    assert {f["estimator"] for f in failures} == {"dp-slr"}
    assert all(
        f["status"].startswith(
            "failed: InvalidParameterError: noise scale b=inf is not finite at epsilon=1e-320"
        )
        for f in failures
    )


# One case per kind of config error a sweep cell can hold: (config changes,
# the problem, named once, with its axis value where it depends on one).
CELL_ERRORS = {
    "null-response-clip": (
        {"estimators": ["dp-slr", "dp-iht-h"], "response_clip": None},
        "dp-slr needs response_clip, got null",
    ),
    "null-tau": ({"tau": None}, "dp-iht-h needs tau, got null"),
    "s-star-above-d": (
        {"axis": "s_star", "values": [2, 20]}, "s_star=20: s_star must be at most d=10, got 20"
    ),
    "d-below-s-star": (
        {"axis": "d", "values": [1, 10]}, "d=1: s_star must be at most d=1, got 2"
    ),
    "s-above-a-d": (
        {"axis": "d", "values": [4, 10], "s": 5}, "d=4: sparsity s=5 exceeds dimension d=4"
    ),
    "n-below-T": ({"values": [2, 60]}, "n=2: iteration count T=3 exceeds n=2"),
}


@pytest.mark.parametrize("extra, problem", CELL_ERRORS.values(), ids=CELL_ERRORS.keys())
def test_a_bad_sweep_cell_exits_one_before_any_data_is_drawn(
    tmp_path, capsys, monkeypatch, extra, problem
):
    calls = []
    for name in ("generate_synthetic", "fit_many"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
    cfgp = sweep_config(tmp_path, **extra)
    base, cfg = load_config(cfgp)
    with pytest.raises(InvalidConfigError) as err:
        SweepSpec(
            axis=cfg["axis"], values=cfg["values"], base=base, repeats=cfg["repeats"],
            estimators=[EstimatorKind(e) for e in cfg["estimators"]],
        )
    assert str(err.value).count(problem) == 1
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", str(cfgp), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count(problem) == 1
    assert not out.exists()
    assert calls == []


# real ------------------------------------------------------------------------------


def test_real_subcommand(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 5))
    y = x[:, 2].copy()
    from dpsparse import Dataset, save_csv

    csvp = tmp_path / "data.csv"
    save_csv(Dataset(x, y), csvp)
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({
        "s": 1, "T": 8, "eta": 1.0, "tau": 20.0, "K": 100.0,
        "estimators": ["ada-huber"],
    }))
    out = tmp_path / "real"
    code = run_cli("real", "--csv", str(csvp), "--response-col", "y",
                   "--config", str(cfgp), "--out", str(out))
    assert code == 0
    lines = (out / "real_results.csv").read_text().splitlines()
    assert lines[0] == "estimator,mae,size,selected"
    assert "x3" in lines[1]


def test_real_opens_its_csv_once(tmp_path, monkeypatch):
    from dpsparse import Dataset, save_csv

    rng = np.random.default_rng(6)
    x = rng.standard_normal((200, 8))
    csvp = tmp_path / "data.csv"
    save_csv(Dataset(x, x[:, 1].copy()), csvp)
    opened, real_open = [], builtins.open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    assert run_cli("real", "--csv", str(csvp), "--response-col", "y",
                   "--out", str(tmp_path / "real")) == 0
    assert opened.count(str(csvp)) == 1


def test_real_names_a_bad_csv_value_before_a_bad_config(tmp_path, capsys):
    # The shape check runs on the loaded dataset, so the parse comes first.
    csvp = tmp_path / "data.csv"
    csvp.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,abc,6.0\n0.5,1.5,2.5\n")
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"n": 40}))
    assert run_cli("real", "--csv", str(csvp), "--response-col", "y", "--config", str(cfgp),
                   "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: non-numeric value: could not convert string to float: 'abc'\n"


def test_real_results_quote_column_names_that_need_it(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 2))
    csvp = tmp_path / "data.csv"
    with open(csvp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b,1", 'c"q', "y"])
        writer.writerows(np.column_stack([x, x[:, 0] - x[:, 1]]).tolist())
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"s": 2, "T": 4, "estimators": ["ada-huber", "dp-iht-h"]}))
    out = tmp_path / "real"
    assert run_cli("real", "--csv", str(csvp), "--response-col", "y",
                   "--config", str(cfgp), "--out", str(out)) == 0
    with open(out / "real_results.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["estimator", "mae", "size", "selected"]
    assert [len(row) for row in table] == [4, 4, 4]
    assert all(sorted(row[3].split(";")) == ["b,1", 'c"q'] for row in table[1:])


def test_real_rejects_column_names_that_hold_the_selected_separator(tmp_path, capsys):
    # real_results.csv joins the selected names with ';', so "a;b" and "x2"
    # would read back as three names.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 3))
    csvp = tmp_path / "data.csv"
    with open(csvp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a;b", "x2", ";c", "y"])
        writer.writerows(np.column_stack([x, x[:, 0]]).tolist())
    out = tmp_path / "o"
    assert run_cli("real", "--csv", str(csvp), "--response-col", "y", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'a;b'" in err and "';c'" in err and "x2" not in err
    assert not out.exists()


# Files that cannot be read ---------------------------------------------------------


def _not_utf8(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda p: ["sweep", "--config", _not_utf8(p, "c.json", '{"n": 60')],
    lambda p: ["fit", "--estimator", "dp-iht-h", "--data", _not_utf8(p, "d.csv", "x1,y\n1,")],
    lambda p: ["real", "--csv", _not_utf8(p, "d.csv", "x1,y\n1,"), "--response-col", "y"],
], ids=["sweep-config", "fit-data", "real-csv"])
def test_a_file_that_is_not_utf8_exits_one_saying_so(tmp_path, capsys, argv):
    assert run_cli(*argv(tmp_path), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid UTF-8" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["fit", "--estimator", "dp-iht-h", "--data"],
    ["real", "--response-col", "y", "--csv"],
], ids=["fit-data", "real-csv"])
@pytest.mark.parametrize("text, problem", [
    ("", "line 1: empty CSV file"),
    ("x1,y\n1.0,2.0\n3.0,4.0,5.0\n", "line 3: expected 2 fields, got 3"),
    ("x1,y\n", "line 2: CSV has a header but no data rows"),
    ("x1,y\n1.0,2.0\n3.0,abc\n",
     "line 3: non-numeric value: could not convert string to float: 'abc'"),
    # The csv module refuses a field over its size limit (131072 characters).
    ("x1,y\n1.0,2.0\n" + "1" * 200_000 + ",2.0\n",
     "line 3: field larger than field limit (131072)"),
], ids=["empty", "wrong-field-count", "header-only", "non-numeric", "field-too-large"])
def test_a_malformed_csv_exits_one_naming_its_line(tmp_path, capsys, command, text, problem):
    csvp = tmp_path / "d.csv"
    csvp.write_text(text)
    assert run_cli(*command, str(csvp), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, problem", [
    ('{"n": 60,', "config is not valid JSON"),
    ('[{"n": 60}]', "config root must be a JSON object"),
], ids=["not-json", "list-root"])
def test_an_unreadable_config_exits_one_naming_the_problem(tmp_path, capsys, text, problem):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(text)
    assert run_cli("sweep", "--config", str(cfgp), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problem}") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "missing.json"],
    ["fit", "--estimator", "dp-iht-h", "--data", "missing.csv"],
    ["real", "--csv", "missing.csv", "--response-col", "y"],
], ids=["sweep-config", "fit-data", "real-csv"])
def test_a_missing_file_exits_one_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out", "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing." in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config"],
    ["fit", "--estimator", "dp-iht-h", "--data"],
    ["real", "--response-col", "y", "--csv"],
], ids=["sweep-config", "fit-data", "real-csv"])
def test_an_input_that_cannot_be_read_exits_one_naming_it(tmp_path, capsys, argv):
    # A directory exists but cannot be read as a file, for root as well.
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run_cli(*argv, str(folder), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {folder}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# probe -----------------------------------------------------------------------------


def test_probe_subcommand(tmp_path, capsys):
    out = tmp_path / "probe"
    code = run_cli("probe", "--trials", "25", "--out", str(out))
    assert code == 0
    report = json.loads((out / "probe_report.json").read_text())
    assert report["passed"] is True
    assert {r["estimator"] for r in report["results"]} == {"dp-iht-h", "dp-iht-l", "dp-slr"}
    assert "pass" in capsys.readouterr().out


# output version --------------------------------------------------------------------


def test_every_subcommand_records_the_output_version(tmp_path):
    gen = tmp_path / "gen"
    runs = {
        "synth-gen": ("synth-gen", "--n", "40", "--d", "6", "--seed", "1"),
        "fit": ("fit", "--estimator", "dp-iht-l", "--data", str(gen / "dataset.csv"),
                "--T", "3"),
        "sweep": ("sweep", "--config", str(sweep_config(tmp_path, values=[40], repeats=1))),
        "real": ("real", "--csv", str(gen / "dataset.csv"), "--response-col", "y"),
        "probe": ("probe", "--trials", "1"),
    }
    for name, argv in runs.items():
        out = gen if name == "synth-gen" else tmp_path / name
        assert run_cli(*argv, "--out", str(out)) == 0
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["output_version"] == OUTPUT_VERSION
    est = json.loads((tmp_path / "fit" / "estimate.json").read_text())
    assert est["output_version"] == OUTPUT_VERSION


# Ids that do not move when OUTPUT_VERSION is bumped.
@pytest.mark.parametrize("version", [OUTPUT_VERSION - 1, OUTPUT_VERSION + 1, True, "1"],
                         ids=["previous", "next", "True", "string"])
def test_rerun_at_another_output_version_exits_one(tmp_path, capsys, version):
    out1 = tmp_path / "r1"
    argv = ["fit", "--estimator", "dp-iht-l", "--n", "80", "--d", "12", "--T", "4"]
    assert run_cli(*argv, "--out", str(out1)) == 0
    eff_path = out1 / "effective_config.json"
    eff = json.loads(eff_path.read_text())
    eff["output_version"] = version
    eff_path.write_text(json.dumps(eff))
    code = run_cli("fit", "--estimator", "dp-iht-l", "--config", str(eff_path),
                   "--out", str(tmp_path / "r2"))
    assert code == 1
    err = capsys.readouterr().err
    assert f"output_version must be {OUTPUT_VERSION}" in err and f"got {version!r}" in err
    assert not (tmp_path / "r2").exists()


# exit codes ------------------------------------------------------------------------


# Each with its required flags, so that the last flag is the one refused.
@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "c.json", "--out", "o", "--bogus"],
    ["real", "--csv", "d.csv", "--response-col", "y", "--out", "o", "--no-standardize"],
], ids=["sweep-bogus", "real-no-standardize"])
def test_unknown_flag_exits_one(capsys, argv):
    assert run_cli(*argv) == 1
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli("frobnicate") == 1


def test_no_subcommand_exits_one(capsys):
    assert run_cli() == 1


def test_invalid_config_value_exits_one(tmp_path, capsys):
    cfgp = sweep_config(tmp_path, delta=1.5)
    code = run_cli("sweep", "--config", str(cfgp), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "delta" in capsys.readouterr().err


SCHEDULE_KINDS = "expected an object whose kind is constant or two-phase"


def two_phase(**extra):
    return {"kind": "two-phase", "eta0": 0.3, "decay": 0.2, "switch_iter": 2, "eta_const": 0.05,
            **extra}


@pytest.mark.parametrize("command,extra,messages", [
    ("sweep", {"tua": 2.0}, ["unknown config key 'tua'"]),
    ("sweep", {"K": "abc"}, ["K must be"]),
    ("sweep", {"seed": 1.5}, ["seed must be an integer"]),
    ("sweep", {"values": ["a", "b"]}, ["values must be"]),
    ("sweep", {"n": True}, ["n must be a positive integer"]),
    ("real", {"seed": "s", "train_fraction": 1.5},
     ["seed must be an integer, got 's'", "train_fraction must be a number in (0, 1), got 1.5"]),
    ("sweep", {"schedule_l": two_phase(eta0="0.1")}, ["eta0 must be a number > 0, got '0.1'"]),
    ("sweep", {"schedule_l": two_phase(switch_iter=2.7)}, ["switch_iter must be an integer >= 0"]),
    ("sweep", {"schedule_l": two_phase(eta_const=True)}, ["eta_const must be a number > 0"]),
    ("sweep", {"estimators": ["nope"]}, ["estimators must be a list of"]),
    ("real", {"estimators": ["dp-iht-h", "nope"]}, ["estimators must be a list of"]),
    ("real", {"standardize": False}, ["unknown config key 'standardize'"]),
    # A config that is otherwise valid for the 3 x 2 CSV.
    ("real", {"n": 40, "d": 6, "T": 1},
     ["n=40 disagrees with the data CSV's n=3", "d=6 disagrees with the data CSV's d=2"]),
    ("sweep", {"schedule_l": 0.1}, [f"schedule_l invalid: {SCHEDULE_KINDS}, got 0.1"]),
    ("sweep", {"schedule_l": {"eta": 0.1}}, [f"schedule_l invalid: {SCHEDULE_KINDS}, got {{'eta'"]),
    ("sweep", {"schedule_l": {"kind": "zig"}}, [f"{SCHEDULE_KINDS}, got {{'kind': 'zig'}}"]),
    ("sweep", {"schedule_l": {"kind": "two-phase", "eta0": 0.1}},
     ["schedule_l invalid: a two-phase step takes kind and eta0, decay, switch_iter, eta_const, "
      "got {'kind': 'two-phase', 'eta0': 0.1}"]),
    ("sweep", {"schedule_l": {"kind": "constant", "eta": 0.1, "x": 1}},
     ["schedule_l invalid: a constant step takes kind and eta, got {'kind': 'constant', "
      "'eta': 0.1, 'x': 1}"]),
    ("sweep", {"axis": "bogus", "values": [1], "eta": -1},
     [f"axis must be one of {harness.SWEEP_AXES}, got 'bogus'", "eta must be a number > 0, got -1"]),
], ids=[
    "unknown-key", "K-string", "seed-float", "values-strings", "n-bool",
    "real-seed-and-train-fraction", "eta0-string", "switch-iter-float", "eta-const-bool",
    "sweep-unknown-estimator", "real-unknown-estimator", "real-standardize",
    "real-shape-disagrees",
    "schedule-not-an-object", "schedule-without-kind", "schedule-unknown-kind",
    "schedule-missing-keys", "schedule-unknown-key", "axis-and-fit-field-in-one-pass",
])
def test_bad_config_input_exits_one_naming_the_field(tmp_path, capsys, command, extra, messages):
    cfgp = sweep_config(tmp_path, **extra)
    if command == "real":
        csv = tmp_path / "data.csv"
        csv.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n0.5,1.5,2.5\n")
        argv = ("real", "--csv", str(csv), "--response-col", "y")
    else:
        argv = ("sweep",)
    code = run_cli(*argv, "--config", str(cfgp), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert all(message in err for message in messages) and "Traceback" not in err


def test_a_non_private_fit_on_one_record_needs_no_delta(tmp_path):
    csv = tmp_path / "one_row.csv"
    csv.write_text("x1,x2,y\n1.0,2.0,3.0\n")
    argv = ("fit", "--estimator", "ada-huber", "--data", str(csv), "--non-private", "--s", "1")
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 0
    assert run_cli(*argv, "--delta", "0.1", "--out", str(tmp_path / "set")) == 0
    assert (tmp_path / "o" / "estimate.json").read_bytes() == (
        tmp_path / "set" / "estimate.json"
    ).read_bytes()


def test_a_private_fit_on_one_record_asks_for_delta(tmp_path, capsys):
    csv = tmp_path / "one_row.csv"
    csv.write_text("x1,x2,y\n1.0,2.0,3.0\n")
    code = run_cli("fit", "--estimator", "dp-iht-h", "--data", str(csv), "--s", "1",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "delta must be set, since its default 1/n^1.1 needs n >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_is_accepted(tmp_path):
    cfgp = sweep_config(tmp_path, seed=-3, values=[40], repeats=1, estimators=["ada-huber"])
    assert run_cli("sweep", "--config", str(cfgp), "--out", str(tmp_path / "o")) == 0


def test_numerical_failure_exits_two(tmp_path, capsys):
    code = run_cli(
        "fit", "--estimator", "dp-iht-h", "--n", "60", "--d", "6", "--tau", "1e308",
        "--eta", "1e308", "--T", "4", "--non-private", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "iteration" in capsys.readouterr().err
