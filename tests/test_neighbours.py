"""Neighbouring data sets through each CLI path's own code.

Two datasets, D and D', differ in one record, under the neighbour relation
each private estimator is calibrated for (its ``replace_one``): dp-iht-l's
neighbour replaces the record, dp-iht-h's and dp-slr's null it out. Each runs
through the path's own loading and preprocessing: ``real`` and ``fit --data``
read it from a CSV, and ``sweep`` gets it from the unit's synthetic draw.
``neighbour_half_steps`` then splits the data the fit received into the fit's
T folds and takes the fit's own half-step on each from a shared sparse
iterate. The half-step on the fold that holds the record may move by at most
the bound the sensitivity probes check. The half-step on every other fold
must not move at all: the fits charge nothing across folds (parallel
composition), so no record may reach a fold it is not in.
"""

import json

import numpy as np
import pytest

from dpsparse import Dataset, estimators, harness, project_l2, save_csv
from dpsparse.cli import main
from dpsparse.estimators import ESTIMATORS, neighbour_half_steps, probe_bound
from dpsparse.harness import PROBE_TOL

N, D, RECORD, BIG = 400, 20, 7, 1e6
PRIVATE = [kind for kind, spec in ESTIMATORS.items() if spec.private]


def _extreme(rng):
    return np.where(rng.random(D) < 0.5, BIG, -BIG)


def _pair(replace_one):
    """D, with heavy-tailed responses and one extreme record, and its neighbour D'."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((N, D))
    y = x[:, :3] @ np.array([2.0, -1.0, 0.5]) + rng.standard_t(2, N)
    x[RECORD], y[RECORD] = _extreme(rng), BIG
    x_b, y_b = x.copy(), y.copy()
    # |y| = BIG outweighs x_c . beta in the L-ball: the replacement's residual
    # takes the other sign at every iterate.
    x_b[RECORD], y_b[RECORD] = (_extreme(rng), -BIG) if replace_one else (0.0, 0.0)
    return Dataset(x, y), Dataset(x_b, y_b)


def _csv(ds, out):
    path = out.with_suffix(".csv")
    save_csv(ds, path)
    return str(path)


def _run_real(ds, kind, out, monkeypatch):
    config = out.with_suffix(".json")
    config.write_text(json.dumps({"estimators": [kind.value]}))
    assert main(["real", "--csv", _csv(ds, out), "--response-col", "y", "--config", str(config),
                 "--out", str(out)]) == 0


def _run_fit_data(ds, kind, out, monkeypatch):
    assert main(["fit", "--estimator", kind.value, "--data", _csv(ds, out), "--out", str(out)]) == 0


def _run_sweep(ds, kind, out, monkeypatch):
    # The unit's draw returns the dataset itself; one axis value and one
    # repeat make one unit, run in this process.
    monkeypatch.setattr(harness, "generate_synthetic", lambda syn: (ds, np.zeros(D)))
    monkeypatch.delenv("DPSPARSE_WORKERS", raising=False)
    config = out.with_suffix(".json")
    config.write_text(json.dumps({"n": N, "d": D, "axis": "n", "values": [N], "repeats": 1,
                                  "estimators": [kind.value]}))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0


# path -> (the module whose fit_many the path calls, how to run the path on a dataset)
PATHS = {
    "real": (harness, _run_real),
    "fit-data": (estimators, _run_fit_data),
    "sweep": (harness, _run_sweep),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("kind", PRIVATE, ids=lambda kind: kind.value)
def test_one_record_moves_only_its_own_fold_within_the_bound(tmp_path, monkeypatch, path, kind):
    module, run = PATHS[path]
    seen, fit_many = [], module.fit_many

    def spy(ds, fits, beta_star=None):
        seen.append((ds, fits))
        return fit_many(ds, fits, beta_star)

    monkeypatch.setattr(module, "fit_many", spy)
    for i, ds in enumerate(_pair(ESTIMATORS[kind].replace_one)):
        run(ds, kind, tmp_path / f"out{i}", monkeypatch)
    (ds_a, fits), (ds_b, _) = seen
    (cfg,) = [cfg for k, cfg, _ in fits if k is kind]
    m = ds_a.n // cfg.T
    # D's record is the row with the extreme features, wherever the path put it.
    row = int(np.argmax(ds_a.row_peak))
    holder = row // m
    assert holder < cfg.T, "the record falls outside the folds"
    gen = np.random.default_rng(11)
    beta = np.zeros(ds_a.d)
    beta[gen.choice(ds_a.d, size=cfg.s, replace=False)] = gen.standard_normal(cfg.s)
    # The pairs come from the fit's own half-step, counted once per fold of each dataset.
    calls, half_step = [], estimators._Fit.half_step
    monkeypatch.setattr(estimators._Fit, "half_step",
                        lambda fit, fold, t: calls.append(t) or half_step(fit, fold, t))
    pairs = neighbour_half_steps(kind, cfg, ds_a, ds_b, project_l2(beta, cfg.L))
    assert len(pairs) == cfg.T and calls == [t for t in range(cfg.T) for _ in "ab"]
    for t, (half_a, half_b) in enumerate(pairs):
        if t == holder:
            deviation = float(np.max(np.abs(half_a - half_b)))
            bound = probe_bound(kind, cfg, cfg.schedule.step(t), m)
            assert 0.0 < deviation <= bound + PROBE_TOL
        else:
            assert half_a.tobytes() == half_b.tobytes(), f"fold {t} moved"

