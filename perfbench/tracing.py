"""Span tracing for the benchmark, done entirely from outside the library.

Each hook replaces a function that one dpsparse module reaches through
another module's attribute (``estimators.split_folds``, ``_kernels.peel_select``,
``harness.generate_synthetic``, ...) with a wrapper that records a span: name,
start, end and the index of the enclosing span. The library itself is never edited.
Counts are computed at the same boundaries from argument and result shapes,
so they repeat exactly for the same ops.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np


def _count_iterations(counts, args, kwargs, result):
    counts["estimators.iterations"] += int(getattr(result, "iterations_run", 0))


def _count_clip(counts, args, kwargs, result):
    counts["core.bytes_copied"] += int(np.asarray(result).nbytes)


def _count_grad(counts, args, kwargs, result):
    # Every gradient kernel makes two passes over an m x d float64 fold matrix
    # (x @ beta, then x.T @ weights); the vectors are y, beta and the output.
    # The first argument is always an m x d matrix.
    m, d = np.shape(args[0])
    counts["kernels.grad_flops"] += 4 * m * d
    counts["kernels.grad_bytes"] += 8 * (2 * m * d + m + 2 * d)


def _count_draws(counts, args, kwargs, result):
    b = args[0] if args else kwargs.get("b", 0.0)
    if b > 0:
        counts["sampling.laplace_draws"] += int(np.size(result))


# (module, attribute, span name, counter). The module is the caller's: the
# attribute is the name through which that module reaches another one.
HOOKS = (
    ("estimators", "fit_estimator", "estimators.fit", _count_iterations),
    ("harness", "fit_estimator", "estimators.fit", _count_iterations),
    ("estimators", "split_folds", "core.split_folds", None),
    ("estimators", "project_l2", "core.project_l2", None),
    ("estimators", "batch_gradient", "losses.batch_gradient", None),
    ("estimators", "peel", "peeling.peel", None),
    ("losses", "clip_features", "core.clip_features", _count_clip),
    ("_kernels", "huber_grad", "kernels.grad", _count_grad),
    ("_kernels", "l1_grad", "kernels.grad", _count_grad),
    ("_kernels", "squared_grad", "kernels.grad", _count_grad),
    ("_kernels", "peel_select", "kernels.peel_select", None),
    ("peeling", "laplace", "sampling.laplace", _count_draws),
    ("harness", "generate_synthetic", "sampling.generate_synthetic", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
)

# The computed counts and their units.
COUNT_UNITS = {
    "core.dataset_builds": "count",
    "core.bytes_copied": "B",
    "kernels.grad_flops": "flop",
    "kernels.grad_bytes": "B",
    "sampling.laplace_draws": "count",
    "estimators.iterations": "count",
}


class Tracer:
    """Collects spans and counts in memory until ``take`` hands them out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> tuple[list[list], dict]:
        """Return the spans and counts recorded since the last call, and reset."""
        spans = self.spans[:]
        counts = dict(self.counts)
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0
        return spans, counts


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: (self ms, total ms). Self time is a span minus its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    for (name, start, end, _parent), inner in zip(spans, child):
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - inner) * 1e3
        total_ms[name] = total_ms.get(name, 0.0) + (end - start) * 1e3
    return self_ms, total_ms


@contextmanager
def instrument(tracer: Tracer):
    """Install every hook for the duration of the block, then restore the originals."""
    patched = []
    try:
        for module_name, attr, span, counter in HOOKS:
            module = importlib.import_module(f"dpsparse.{module_name}")
            if not hasattr(module, attr):
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            patched.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, counter))
        # Dataset construction copies and validates its arrays; count each
        # build and the bytes it holds (a count only, no span).
        dataset = importlib.import_module("dpsparse.core").Dataset
        post_init = getattr(dataset, "__post_init__", None)
        if post_init is None:
            tracer.missing.add("core.Dataset.__post_init__")
        else:
            counts = tracer.counts

            def counted(self):
                post_init(self)
                counts["core.dataset_builds"] += 1
                counts["core.bytes_copied"] += self.x.nbytes + self.y.nbytes

            patched.append((dataset, "__post_init__", post_init))
            dataset.__post_init__ = counted
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
