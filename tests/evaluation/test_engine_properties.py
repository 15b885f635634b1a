"""Property tests: the engine's determinism contract.

For arbitrary workload subsets, caps and thetas, the engine must produce
byte-identical pickled :class:`MethodResult`\\ s whether it runs serially,
fans out across 4 worker processes, or replays from a warm cache. This is
the contract that makes the on-disk cache *correct* (a hit is
indistinguishable from a recompute) and parallelism *safe* (no hidden
shared-RNG coupling between tasks).
"""

import pickle
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluation.engine import EngineConfig, EvaluationEngine
from repro.evaluation.experiments import compare_methods
from repro.utils.hashing import stable_hash
from repro.workloads.catalog import spec_for

POOL = ("cactus/gru", "cactus/gst", "cactus/lmc", "mlperf/bert")

label_subsets = st.lists(
    st.sampled_from(POOL), min_size=1, max_size=3, unique=True
)
caps = st.sampled_from((500, 800, 1200))
thetas = st.sampled_from((0.2, 0.4, 0.8))


def result_bytes(rows):
    return [
        (row.workload, pickle.dumps(row["sieve"]), pickle.dumps(row["pks"]))
        for row in rows
    ]


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(labels=label_subsets, cap=caps, theta=thetas)
def test_serial_parallel_and_cache_warm_agree(labels, cap, theta):
    with tempfile.TemporaryDirectory(prefix="sieve-prop-cache-") as cache_dir:
        cache = Path(cache_dir)
        serial = compare_methods(
            labels, max_invocations=cap, theta=theta,
            engine=EvaluationEngine(EngineConfig(jobs=1, use_cache=False)),
        )
        parallel = compare_methods(
            labels, max_invocations=cap, theta=theta,
            engine=EvaluationEngine(
                EngineConfig(jobs=4, use_cache=True, cache_dir=cache)
            ),
        )
        warm_engine = EvaluationEngine(
            EngineConfig(jobs=1, use_cache=True, cache_dir=cache)
        )
        warm = compare_methods(
            labels, max_invocations=cap, theta=theta, engine=warm_engine
        )
        assert warm_engine.cache_stats.hits == len(labels)
        assert result_bytes(serial) == result_bytes(parallel) == result_bytes(warm)


@settings(max_examples=20, deadline=None)
@given(
    label=st.sampled_from(POOL),
    cap=st.one_of(st.none(), st.integers(min_value=100, max_value=100_000)),
    theta=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
)
def test_cache_keys_deterministic_across_processes_inputs(label, cap, theta):
    # stable_hash must not depend on interpreter hash randomization or
    # call ordering; equal inputs give equal keys, and the resolved spec
    # is part of the identity.
    from repro.core.config import SieveConfig
    from repro.evaluation.engine import EvaluationTask
    from repro.methods import MethodRequest

    methods = (MethodRequest("sieve", SieveConfig(theta=theta)), "pks")
    task = EvaluationTask(label=label, max_invocations=cap, methods=methods)
    again = EvaluationTask(label=label, max_invocations=cap, methods=methods)
    assert task.cache_key() == again.cache_key()
    # the spec's own identity feeds the key, and hashing is label-sensitive
    assert stable_hash(spec_for(label)) != stable_hash(label)
