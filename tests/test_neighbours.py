"""Neighbouring data sets through each CLI path's own code.

Two CSVs, D and D', differ in one record, under the neighbour relation each
private estimator is calibrated for (its ``replace_one``): dp-iht-l's
neighbour replaces the record, dp-iht-h's and dp-slr's null it out. Each
CSV runs through the path's own loading and preprocessing, and the data the
fit receives are split into the fit's T folds. At a shared sparse iterate,
the half-step on the fold that holds the record may move by at most the
bound the sensitivity probes check. The half-step on every other fold must
not move at all: the fits charge nothing across folds (parallel
composition), so no record may reach a fold it is not in.
"""

import json

import numpy as np
import pytest

from dpsparse import Dataset, estimators, harness, project_l2, save_csv, split_folds
from dpsparse.cli import main
from dpsparse.estimators import ESTIMATORS, _loss, _update, probe_bound
from dpsparse.harness import PROBE_TOL

N, D, RECORD, BIG = 400, 20, 7, 1e6
PRIVATE = [kind for kind, spec in ESTIMATORS.items() if spec.private]


def _extreme(rng):
    return np.where(rng.random(D) < 0.5, BIG, -BIG)


def _write_pair(tmp_path, replace_one):
    """D, with heavy-tailed responses and one extreme record, and its neighbour D'."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((N, D))
    y = x[:, :3] @ np.array([2.0, -1.0, 0.5]) + rng.standard_t(2, N)
    x[RECORD], y[RECORD] = _extreme(rng), BIG
    x_b, y_b = x.copy(), y.copy()
    # |y| = BIG outweighs x_c . beta in the L-ball: the replacement's residual
    # takes the other sign at every iterate.
    x_b[RECORD], y_b[RECORD] = (_extreme(rng), -BIG) if replace_one else (0.0, 0.0)
    paths = tmp_path / "d.csv", tmp_path / "d_prime.csv"
    save_csv(Dataset(x, y), paths[0])
    save_csv(Dataset(x_b, y_b), paths[1])
    return paths


def _run_real(csv, kind, out):
    config = csv.with_suffix(".json")
    config.write_text(json.dumps({"estimators": [kind.value]}))
    assert main(["real", "--csv", str(csv), "--response-col", "y", "--config", str(config),
                 "--out", str(out)]) == 0


def _run_fit_data(csv, kind, out):
    assert main(["fit", "--estimator", kind.value, "--data", str(csv), "--out", str(out)]) == 0


# path -> (the module whose fit_many the path calls, how to run the path on a CSV)
PATHS = {
    "real": (harness, _run_real),
    "fit-data": (estimators, _run_fit_data),
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
    for i, csv in enumerate(_write_pair(tmp_path, ESTIMATORS[kind].replace_one)):
        run(csv, kind, tmp_path / f"out{i}")
    (ds_a, fits), (ds_b, _) = seen
    (cfg,) = [cfg for k, cfg, _ in fits if k is kind]
    folds_a, folds_b = split_folds(ds_a, cfg.T), split_folds(ds_b, cfg.T)
    m = folds_a[0].n
    # The responses are fitted as loaded, so D's record is the one at BIG.
    (row,) = np.flatnonzero(ds_a.y == BIG)
    holder = row // m
    assert holder < cfg.T, "the record falls outside the folds"
    gen = np.random.default_rng(11)
    beta = np.zeros(ds_a.d)
    beta[gen.choice(ds_a.d, size=cfg.s, replace=False)] = gen.standard_normal(cfg.s)
    beta, loss = project_l2(beta, cfg.L), _loss(kind, cfg)
    for t, (fold_a, fold_b) in enumerate(zip(folds_a, folds_b)):
        eta = cfg.schedule.step(t)
        half_a = beta - _update(loss, fold_a, beta, eta, cfg.K)
        half_b = beta - _update(loss, fold_b, beta, eta, cfg.K)
        if t == holder:
            deviation = float(np.max(np.abs(half_a - half_b)))
            assert 0.0 < deviation <= probe_bound(kind, cfg, eta, m) + PROBE_TOL
        else:
            assert half_a.tobytes() == half_b.tobytes(), f"fold {t} moved"
