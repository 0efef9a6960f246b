"""dpsparse holds OpenBLAS to one thread for its own products, whatever the caller set.

A fit's, a draw's and a sweep's bytes are those of the run with every BLAS
thread variable at 1, also with the variables unset (OpenBLAS then runs a
thread per CPU) or at 2. The caller's thread count is back in place when the
library returns, on an error too. Without OpenBLAS's thread control the
library warns once and runs as before.
"""

import glob
import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dpsparse import (
    ConstantStep,
    EstimatorConfig,
    EstimatorKind,
    ExperimentBase,
    Huber,
    PrivacyParams,
    RealDataSpec,
    SweepSpec,
    SyntheticConfig,
    batch_gradient,
    fit_many,
    generate_synthetic,
    load_csv,
    run_real,
    run_sweep,
    save_csv,
    split_folds,
)
from dpsparse import _kernels, estimators
from dpsparse.cli import main
from dpsparse.errors import DpSparseError

ADA, DP_IHT_H = EstimatorKind.ADA_HUBER_LITE, EstimatorKind.DP_IHT_H


def gate_problem(n=4000, d=4100, T=17, seed=488):
    """Fits on folds of 235 x 4100, whose support holds column 2049.

    On OpenBLAS's two threads, one product at this fold shape gives other
    bytes than on one thread in columns 2048, 2049, 4098 and 4099.
    """
    ds, beta_star = generate_synthetic(SyntheticConfig(n=n, d=d, s_star=5, seed=seed))
    cfg = EstimatorConfig(
        s=10, T=T, K=5.0, L=10.0, schedule=ConstantStep(0.3), tau=1.0,
        response_clip=10.0, seed=9,
    )
    fits = [
        (ADA, cfg, PrivacyParams.non_private()),
        (DP_IHT_H, cfg, PrivacyParams.non_private()),
        (DP_IHT_H, cfg, PrivacyParams(5.0, n ** -1.1)),
    ]
    return ds, beta_star, fits


# The responses of this draw read 50 support columns of 9225 rows, a product
# whose bytes differ between one and two OpenBLAS threads.
GATE_DRAW = SyntheticConfig(n=9225, d=700, s_star=50, seed=5)
# One sweep unit of 4000 x 4100 at T = 17, whose data's support holds column
# 4098: its folds run on column blocks, and its fits, errors and MAEs take
# the products of the sweep's own path.
GATE_SWEEP = SweepSpec(
    axis="n", values=(4000,), repeats=1, estimators=tuple(EstimatorKind),
    base=ExperimentBase(
        synthetic=SyntheticConfig(n=4000, d=4100, s_star=5, seed=752), epsilon=5.0, eta=0.3,
    ),
)


def gate_bytes():
    """The sha256 of each gate fit's beta and of the gate draw's responses, and
    the gate sweep's rows with their l2_error and mae as hex strings."""
    ds, beta_star, fits = gate_problem()
    betas = [hashlib.sha256(rep.estimate.beta.tobytes()).hexdigest()
             for rep in fit_many(ds, fits, beta_star)]
    del ds
    draw = hashlib.sha256(generate_synthetic(GATE_DRAW)[0].y.tobytes()).hexdigest()
    rows = [[r.estimator, r.l2_error.hex(), r.mae.hex(), r.status]
            for r in run_sweep(GATE_SWEEP, workers=1).rows]
    return betas, draw, rows


def test_fits_and_sweeps_have_the_pinned_bytes_in_any_blas_environment(one_blas_thread):
    pinned = one_blas_thread("test_blas_pin", "gate_bytes")
    assert len(pinned[2]) == 4 and all(row[-1] == "ok" for row in pinned[2])
    assert one_blas_thread("test_blas_pin", "gate_bytes", blas_env={}) == pinned
    assert one_blas_thread(
        "test_blas_pin", "gate_bytes", blas_env={"OPENBLAS_NUM_THREADS": "2"}
    ) == pinned


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set) thread-count functions; the count is put back after the test."""
    get, set_ = _kernels._blas_threads()
    before = get()
    set_(2)
    if get() != 2:
        pytest.skip("numpy's BLAS is not an OpenBLAS with thread control")
    yield get, set_
    set_(before)


def test_a_fit_restores_the_callers_blas_threads(blas_threads, monkeypatch):
    get, set_ = blas_threads
    ds, _, fits = gate_problem(n=400, d=300, T=5)
    set_(2)
    assert not any(isinstance(rep, DpSparseError) for rep in fit_many(ds, fits))
    assert get() == 2

    def broken(*args):
        raise RuntimeError("a programming error")

    monkeypatch.setattr(_kernels, "huber_grad", broken)
    with pytest.raises(RuntimeError, match="a programming error"):
        fit_many(ds, fits)
    assert get() == 2


def test_each_entry_point_runs_its_products_on_one_blas_thread(blas_threads, monkeypatch, tmp_path):
    # Each product and norm of a fit, a sweep's errors, a real run's held-out
    # MAE and the CLI's in-sample MAE reads OpenBLAS's count as it runs.
    get, set_ = blas_threads
    seen = []
    for module, name in ((_kernels, "support_matvec"), (_kernels, "xt_matvec"),
                         (estimators, "project_l2")):
        run = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, run=run: seen.append(get()) or run(*args))
    ds, _, fits = gate_problem(n=400, d=300, T=5)
    save_csv(ds, tmp_path / "data.csv")
    base = ExperimentBase(
        synthetic=SyntheticConfig(n=300, d=40, s_star=3, seed=1), epsilon=5.0, eta=0.3
    )
    set_(2)
    batch_gradient(split_folds(ds, 5)[0], np.ones(300), Huber(1.0), 5.0)
    fit_many(ds, fits)
    run_sweep(SweepSpec(axis="n", values=(300,), repeats=1, estimators=tuple(EstimatorKind),
                        base=base))
    run_real(*load_csv(tmp_path / "data.csv"), RealDataSpec(base=base), [ADA])
    assert main(["fit", "--estimator", "ada-huber", "--n", "200", "--d", "20", "--T", "5",
                 "--out", str(tmp_path / "fit")]) == 0
    assert get() == 2
    assert len(seen) > 100 and set(seen) == {1}


def test_pins_nest_and_the_outermost_restores(blas_threads):
    get, set_ = blas_threads
    set_(2)
    with _kernels.blas_pinned():
        with _kernels.blas_pinned():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_a_pin_inside_a_held_pin_touches_no_blas_setting(monkeypatch):
    # fit_many pins once; the T gradients of each fit, which batch_gradient
    # pins, and the projections run inside that pin.
    ds, _, fits = gate_problem(n=400, d=300, T=5)
    calls = []
    monkeypatch.setattr(
        _kernels, "_blas_threads", lambda: (lambda: calls.append("get") or 7, calls.append)
    )
    fit_many(ds, fits)
    assert calls == ["get", 1, 7]
    fit_many(ds, fits[:1])
    batch_gradient(split_folds(ds, 5)[0], np.ones(300), Huber(1.0), 5.0)
    assert calls == 3 * ["get", 1, 7]


def test_fits_in_two_threads_keep_their_bytes_and_the_callers_count(blas_threads):
    get, set_ = blas_threads
    ds, _, fits = gate_problem(n=400, d=300, T=5)
    want = [rep.estimate.beta.tobytes() for rep in fit_many(ds, fits)]
    set_(2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda _: fit_many(ds, fits), range(4)))
    assert all([rep.estimate.beta.tobytes() for rep in run] == want for run in runs)
    assert get() == 2


def test_without_openblas_thread_control_the_first_pin_warns_once(monkeypatch):
    ds, _, fits = gate_problem(n=400, d=300, T=5)
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    _kernels._blas_threads.cache_clear()
    try:
        with pytest.warns(UserWarning, match="no OpenBLAS thread control") as caught:
            got = [rep.estimate.beta.tobytes() for rep in fit_many(ds, fits)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = [rep.estimate.beta.tobytes() for rep in fit_many(ds, fits)]
    finally:
        _kernels._blas_threads.cache_clear()
    assert len(caught) == 1
    assert got == again
