"""Unit tests for the parallel cached evaluation engine."""

import pickle

import pytest

from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.evaluation import experiments
from repro.evaluation.context import build_context
from repro.evaluation.engine import (
    CACHE_SCHEMA,
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    ResultCache,
    default_cache_dir,
    run_task,
    source_fingerprint,
)
from repro.methods import MethodRequest
from repro.robustness.diagnostics import capture_diagnostics
from repro.robustness.faults import parse_fault_plan
from repro.utils.errors import EngineError

CAP = 800
LABELS = ["cactus/gru", "cactus/gst"]


def task_for(label="cactus/gru", **overrides):
    fields = dict(label=label, max_invocations=CAP,
                  methods=(MethodRequest("sieve", SieveConfig(theta=0.4)), "pks"))
    fields.update(overrides)
    return EvaluationTask(**fields)


# --------------------------------------------------------------------- #
# Task identity


def test_cache_key_is_stable():
    assert task_for("cactus/gru").cache_key() == task_for("cactus/gru").cache_key()


@pytest.mark.parametrize("overrides", [
    {"label": "cactus/gst"},
    {"max_invocations": CAP + 1},
    {"methods": (MethodRequest("sieve", SieveConfig(theta=0.7)), "pks")},
    {"fault_plan": parse_fault_plan("nan:0.1")},
    {"methods": ("sieve",)},
])
def test_cache_key_distinguishes_tasks(overrides):
    base = task_for()
    changed = task_for(**overrides)
    assert base.cache_key() != changed.cache_key()


def test_unknown_method_rejected():
    with pytest.raises(EngineError):
        EvaluationTask(label="cactus/gru", methods=("sieve", "bogus"))
    with pytest.raises(EngineError):
        EvaluationTask(label="cactus/gru", methods=())


def test_source_fingerprint_is_cached_and_hexlike():
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 64


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("SIEVE_REPRO_CACHE_DIR", str(tmp_path / "here"))
    assert default_cache_dir() == tmp_path / "here"


# --------------------------------------------------------------------- #
# Table tasks: a profile shipped by value, select-only


@pytest.fixture(scope="module")
def table():
    return build_context("cactus/gru", max_invocations=400).sieve_table


def table_task(table, method="sieve"):
    return EvaluationTask(
        label=f"inline/{table.digest()[:16]}", methods=(method,), table=table
    )


@pytest.mark.parametrize("extra", [
    {"methods": ("sieve", "periodic")},
    {"fault_plan": parse_fault_plan("nan:0.1")},
    {"max_invocations": 10},
])
def test_table_task_is_select_only(table, extra):
    with pytest.raises(EngineError):
        EvaluationTask(**{"label": "t", "methods": ("sieve",), "table": table, **extra})


def test_table_task_key_is_the_table_content(table):
    key = table_task(table).cache_key()
    assert table_task(table.slice_rows(0, len(table))).cache_key() == key
    assert table_task(table.slice_rows(0, len(table) - 1)).cache_key() != key
    assert table_task(table, "periodic").cache_key() != key


@pytest.mark.parametrize("jobs", [1, 2])
def test_table_task_selects_as_the_direct_selection(tmp_path, table, jobs):
    """In the caller or on the workers, computed or cached, a table task's
    result pickles as the selection made directly from the table."""
    tables = [table, table.slice_rows(0, 200), table.slice_rows(0, 300)]
    with EvaluationEngine(EngineConfig(jobs=jobs, cache_dir=tmp_path)) as engine:
        cold = engine.run([table_task(t) for t in tables[:2]])
        warm = engine.run([table_task(t) for t in tables[:2]])
        isolated = engine.run_isolated([table_task(tables[2])])
    assert [o.from_cache for o in cold + warm] == [False, False, True, True]
    for t, a, b in zip(tables, cold + isolated, warm + isolated):
        direct = pickle.dumps(SievePipeline().select(t))
        assert pickle.dumps(a["sieve"]) == pickle.dumps(b["sieve"]) == direct


# --------------------------------------------------------------------- #
# Scheduling


def test_serial_engine_matches_direct_worker(tmp_path):
    engine = EvaluationEngine(EngineConfig(jobs=1, cache_dir=tmp_path))
    tasks = [task_for(label) for label in LABELS]
    results = engine.run(tasks)
    assert [r.label for r in results] == LABELS
    for task, result in zip(tasks, results):
        direct = run_task(task)
        assert pickle.dumps(result.results) == pickle.dumps(direct)
        assert not result.from_cache


def test_cache_roundtrip_and_stats(tmp_path):
    cold = EvaluationEngine(EngineConfig(cache_dir=tmp_path))
    tasks = [task_for(label) for label in LABELS]
    first = cold.run(tasks)
    assert cold.cache_stats.misses == len(LABELS)
    assert cold.cache_stats.writes == len(LABELS)

    warm = EvaluationEngine(EngineConfig(cache_dir=tmp_path))
    second = warm.run(tasks)
    assert warm.cache_stats.hits == len(LABELS)
    assert warm.cache_stats.writes == 0
    assert all(r.from_cache for r in second)
    # Byte-identity holds per MethodResult (whole-container dumps differ
    # only in pickle memo layout, not content).
    for a, b in zip(first, second):
        for method in ("sieve", "pks"):
            assert pickle.dumps(a[method]) == pickle.dumps(b[method])


def test_mixed_hits_preserve_input_order(tmp_path):
    engine = EvaluationEngine(EngineConfig(cache_dir=tmp_path))
    engine.run([task_for("cactus/gst")])  # warm one of the two
    results = EvaluationEngine(EngineConfig(cache_dir=tmp_path)).run(
        [task_for("cactus/gru"), task_for("cactus/gst")]
    )
    assert [r.label for r in results] == ["cactus/gru", "cactus/gst"]
    assert [r.from_cache for r in results] == [False, True]


def test_uncached_engine_has_no_cache(tmp_path):
    engine = EvaluationEngine(EngineConfig(use_cache=False, cache_dir=tmp_path))
    engine.run([task_for("cactus/gru")])
    assert engine.cache_stats is None
    assert list(tmp_path.iterdir()) == []


def test_bad_jobs_rejected():
    with pytest.raises(EngineError):
        EngineConfig(jobs=0)


def test_worker_exception_propagates(tmp_path):
    engine = EvaluationEngine(EngineConfig(jobs=1, cache_dir=tmp_path))
    with pytest.raises(KeyError):
        engine.run([task_for("no-such-suite/no-such-workload")])
    # Two lanes: the KeyError crosses a worker's pipe (no cache, so the
    # cache key's catalog lookup cannot raise it in the caller first).
    with EvaluationEngine(EngineConfig(jobs=2, use_cache=False)) as engine:
        with pytest.raises(KeyError):
            engine.run([task_for("no-such-suite/no-such-workload"), task_for()])


# --------------------------------------------------------------------- #
# Cache robustness


def test_corrupt_entry_recomputed_and_dropped(tmp_path):
    task = task_for("cactus/gru")
    EvaluationEngine(EngineConfig(cache_dir=tmp_path)).run([task])
    cache = ResultCache(tmp_path)
    [entry] = cache.entries()
    entry.write_bytes(b"\x00 not a pickle")
    with capture_diagnostics() as caught:
        engine = EvaluationEngine(EngineConfig(cache_dir=tmp_path))
        [result] = engine.run([task])
    assert not result.from_cache
    assert engine.cache_stats.invalid == 1
    assert any(c.source == "engine.cache" for c in caught)
    # the torn entry was replaced by a fresh, readable one
    fresh = ResultCache(tmp_path)
    assert fresh.get(task.cache_key()) is not None


def test_stale_schema_treated_as_miss(tmp_path):
    task = task_for("cactus/gru")
    key = task.cache_key()
    cache = ResultCache(tmp_path)
    cache.put(key, run_task(task))
    path = cache.path_for(key)
    payload = pickle.loads(path.read_bytes())
    payload["schema"] = CACHE_SCHEMA + 1
    path.write_bytes(pickle.dumps(payload))
    probe = ResultCache(tmp_path)
    assert probe.get(key) is None
    assert probe.stats.invalid == 1


def test_writes_are_atomic_no_temp_leftovers(tmp_path):
    cache = ResultCache(tmp_path)
    task = task_for("cactus/gru")
    cache.put(task.cache_key(), run_task(task))
    leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
    assert leftovers == []
    assert len(cache.entries()) == 1


def test_write_failure_is_survivable(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)

    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("tempfile.mkstemp", refuse)
    with capture_diagnostics() as caught:
        cache.put(task_for("cactus/gru").cache_key(), run_task(task_for("cactus/gru")))
    assert cache.stats.writes == 0
    assert any("cache write failed" in c.message for c in caught)


def test_unusable_cache_directory_raises(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(EngineError):
        ResultCache(blocker / "cache")


def test_clear_and_size(tmp_path):
    cache = ResultCache(tmp_path)
    for label in LABELS:
        cache.put(task_for(label).cache_key(), run_task(task_for(label)))
    assert cache.size_bytes() > 0
    assert cache.clear() == len(LABELS)
    assert cache.entries() == []


# --------------------------------------------------------------------- #
# Experiment integration


def test_compare_methods_engine_matches_plain(tmp_path):
    plain = experiments.compare_methods(LABELS, max_invocations=CAP)
    engine = EvaluationEngine(EngineConfig(jobs=2, cache_dir=tmp_path))
    routed = experiments.compare_methods(LABELS, max_invocations=CAP, engine=engine)
    rerouted = experiments.compare_methods(
        LABELS, max_invocations=CAP,
        engine=EvaluationEngine(EngineConfig(cache_dir=tmp_path)),
    )
    for a, b, c in zip(plain, routed, rerouted):
        assert a.workload == b.workload == c.workload
        assert pickle.dumps(a.sieve) == pickle.dumps(b.sieve) == pickle.dumps(c.sieve)
        assert pickle.dumps(a.pks) == pickle.dumps(b.pks) == pickle.dumps(c.pks)
