"""Tests for the sampling-method registry and the SamplingMethod contract."""

import pytest

from repro.baselines.pks import PksConfig
from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.evaluation.runner import evaluate_method
from repro.methods import (
    MethodRequest,
    SamplingMethod,
    get_method,
    list_methods,
    method_entries,
    register_method,
    unregister_method,
)
from repro.utils.errors import (
    EngineError,
    MethodConfigError,
    MethodRegistryError,
    SieveError,
    UnknownMethodError,
)

SHIPPED = ("periodic", "pks", "pks-two-level", "random", "sieve")


def test_all_shipped_methods_registered():
    assert list_methods() == SHIPPED
    assert tuple(method.name for method in method_entries()) == SHIPPED


@pytest.mark.parametrize("name", SHIPPED)
def test_registry_round_trip_evaluates(name, small_context):
    """register -> lookup -> evaluate works for every shipped method."""
    method = get_method(name)
    assert method.name == name
    assert method.description
    result = evaluate_method(name, small_context)
    assert result.workload == small_context.label
    assert result.num_representatives >= 1
    assert result.error >= 0
    assert result.predicted_cycles > 0


def test_unknown_method_raises_typed_error():
    with pytest.raises(UnknownMethodError, match="registered: periodic"):
        get_method("bogus")
    # Typed hierarchy: registry errors are SieveErrors, and the unknown-
    # method case doubles as an EngineError for historical call sites.
    assert issubclass(UnknownMethodError, MethodRegistryError)
    assert issubclass(UnknownMethodError, EngineError)
    assert issubclass(MethodRegistryError, SieveError)


def test_duplicate_name_rejected():
    with pytest.raises(MethodRegistryError, match="already registered"):

        @register_method
        class Impostor(SamplingMethod):
            name = "sieve"

            def select(self, context, config):
                raise NotImplementedError

            def predict(self, selection, measurement, config):
                raise NotImplementedError

    assert isinstance(get_method("sieve").config_schema, type)


def test_non_method_class_rejected():
    with pytest.raises(MethodRegistryError, match="SamplingMethod subclass"):
        register_method(object)


def test_empty_name_rejected():
    with pytest.raises(MethodRegistryError, match="empty method name"):

        @register_method
        class Nameless(SamplingMethod):
            def select(self, context, config):
                raise NotImplementedError

            def predict(self, selection, measurement, config):
                raise NotImplementedError


def test_config_type_mismatch_raises():
    with pytest.raises(MethodConfigError, match="expects SieveConfig"):
        get_method("sieve").resolve_config(PksConfig())
    with pytest.raises(MethodConfigError, match="expects PksConfig"):
        evaluate_method("pks", None, SieveConfig())


def test_default_config_round_trips():
    for method in method_entries():
        config = method.resolve_config(None)
        if method.config_schema is None:
            assert config is None
        else:
            assert isinstance(config, method.config_schema)
            assert method.resolve_config(config) is config


def test_register_evaluate_unregister_custom_method(small_context):
    """A third-party method plugs into the generic evaluation path."""

    class EchoSieve(SamplingMethod):
        name = "test-echo"
        config_schema = SieveConfig
        description = "sieve under a different name"

        def select(self, context, config):
            return SievePipeline(config).select(context.sieve_table)

        def predict(self, selection, measurement, config):
            return SievePipeline(config).predict(selection, measurement)

    register_method(EchoSieve)
    try:
        assert "test-echo" in list_methods()
        result = evaluate_method("test-echo", small_context)
        assert result.method == "sieve"  # selection labels itself
        assert result.predicted_cycles > 0
    finally:
        unregister_method("test-echo")
    assert "test-echo" not in list_methods()
    with pytest.raises(UnknownMethodError):
        get_method("test-echo")


def test_method_request_key_prefers_alias():
    assert MethodRequest("pks").key == "pks"
    assert MethodRequest("pks", alias="pks_random").key == "pks_random"


def test_evaluation_task_rejects_unknown_method_with_typed_error():
    from repro.evaluation.engine import EvaluationTask

    with pytest.raises(UnknownMethodError):
        EvaluationTask(label="cactus/gru", methods=("sieve", "bogus"))


def test_group_rows_default_is_singletons(small_context):
    """Methods without group structure report zero-dispersion singletons."""
    result = evaluate_method("random", small_context)
    assert result.cycle_cov == 0.0
