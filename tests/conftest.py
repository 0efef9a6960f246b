"""A fixture that runs a test module's function in a fresh interpreter under
given BLAS thread variables, by default every one at 1.

OpenBLAS reads its thread variables once, when numpy loads it, and with none
set runs a thread per CPU; at some widths one call's bytes depend on that
count (on OpenBLAS at 2 threads, m = 235 and d = 2049 give other bytes than
at 1). dpsparse holds BLAS to one thread for its own products whatever the
variables say, so the byte tests run in-process. A child interpreter is only
for what needs one: the variables themselves, or a fork.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import dpsparse

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)


@pytest.fixture
def one_blas_thread():
    """``run(module, name, *args, blas_env=None, timeout=120)``: ``module.name(*args)``
    in a child, its JSON result.

    The child runs with every BLAS thread variable at 1, or, given
    ``blas_env``, with only the variables it names, at its values. Arguments
    and result pass as JSON. The child runs in its own process group; at the
    timeout the group is killed, any process it started included, and the
    test fails.
    """

    def run(module, name, *args, blas_env=None, timeout=120):
        env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1") if blas_env is None else blas_env)
        paths = [str(Path(__file__).parent), str(Path(dpsparse.__file__).parents[1])]
        paths += [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        code = (
            "import json, sys\n"
            f"from {module} import {name}\n"
            f"print(json.dumps({name}(*json.loads(sys.argv[1]))))\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(args)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail(f"{module}.{name}{tuple(args)} did not finish within {timeout} s")
        assert child.returncode == 0, err
        return json.loads(out.splitlines()[-1])

    return run
