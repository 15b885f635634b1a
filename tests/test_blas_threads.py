"""One BLAS thread per process, and results that do not depend on it.

``import repro`` sets the BLAS thread-count variables to ``"1"`` before
numpy is first imported, unless the user set any of them. Each case runs
in a fresh interpreter, since the policy acts at first import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro._blas import VARIABLES

SRC = str(Path(repro.__file__).parents[1])

#: Records the variables when ``numpy`` is first looked up, imports
#: repro and reports what it saw.
POLICY_CHILD = """
import importlib.abc, json, os, sys

VARIABLES = {variables!r}
at_numpy = []


class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        if fullname == "numpy" and not at_numpy:
            at_numpy.append({{name: os.environ.get(name) for name in VARIABLES}})
        return None


sys.meta_path.insert(0, Watch())
{prelude}
import repro
from repro import _blas

threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps({{
    "at_numpy": at_numpy[0],
    "after": {{name: os.environ.get(name) for name in VARIABLES}},
    "numpy_first": _blas.NUMPY_FIRST,
    "threads": threads,
}}))
"""

#: PKS and Sieve on three fig3 workloads; one result digest per line.
DIGEST_CHILD = """
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.service.protocol import pickle_digest

for label in ("cactus/gru", "cactus/lmc", "mlperf/bert"):
    context = build_context(label, max_invocations=1200)
    for method in ("pks", "sieve"):
        print(label, method, pickle_digest(evaluate_method(method, context)))
"""


def run_child(code: str, **preset: str) -> str:
    """stdout of ``code`` in a fresh interpreter whose environment has
    none of the BLAS variables but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(preset, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def policy(prelude: str = "", **preset: str) -> dict:
    code = POLICY_CHILD.format(variables=VARIABLES, prelude=prelude)
    return json.loads(run_child(code, **preset).splitlines()[-1])


def test_import_sets_one_thread_before_numpy_loads():
    seen = policy()
    one = dict.fromkeys(VARIABLES, "1")
    assert seen["at_numpy"] == one
    assert seen["after"] == one
    assert seen["numpy_first"] is False
    if sys.platform.startswith("linux"):
        assert seen["threads"] == 1


def test_a_user_setting_is_left_as_given():
    seen = policy(OPENBLAS_NUM_THREADS="3")
    given = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
    assert seen["at_numpy"] == given
    assert seen["after"] == given


def test_numpy_imported_first_is_recorded():
    seen = policy(prelude="import numpy")
    assert seen["at_numpy"] == dict.fromkeys(VARIABLES)
    assert seen["after"] == dict.fromkeys(VARIABLES, "1")
    assert seen["numpy_first"] is True


def test_thread_count_never_changes_a_result():
    one = run_child(DIGEST_CHILD, OPENBLAS_NUM_THREADS="1")
    assert len(one.splitlines()) == 6
    assert run_child(DIGEST_CHILD, OPENBLAS_NUM_THREADS="2") == one
