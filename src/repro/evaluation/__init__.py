"""Evaluation harness.

Implements the paper's metrics (Section IV-3): prediction error against
the golden reference, simulation speedup, within-cluster cycle dispersion,
profiling-time speedup and cross-architecture relative accuracy — plus the
experiment drivers that regenerate each figure/table.

Re-exports resolve lazily (PEP 562): leaf modules like
:mod:`repro.evaluation.imputation` are importable from :mod:`repro.core`
and :mod:`repro.baselines` without dragging in the engine/runner stack
(which imports those packages right back).
"""

from importlib import import_module

#: public name -> defining submodule
_EXPORTS = {
    "WorkloadContext": "context",
    "build_context": "context",
    "EngineConfig": "engine",
    "EvaluationEngine": "engine",
    "EvaluationTask": "engine",
    "ResultCache": "engine",
    "default_cache_dir": "engine",
    "prediction_error": "metrics",
    "simulation_speedup": "metrics",
    "relative_speedup_error": "metrics",
    "harmonic_mean": "metrics",
    "weighted_cycle_cov": "dispersion",
    "MethodResult": "runner",
    "evaluate_method": "runner",
    "evaluate_sieve": "runner",
    "evaluate_pks": "runner",
    "ExperimentSpec": "experiments",
    "ExperimentRow": "experiments",
    "run_experiment": "experiments",
}

_SUBMODULES = {
    "context",
    "dispersion",
    "engine",
    "experiments",
    "imputation",
    "metrics",
    "reporting",
    "runner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        module = import_module(f"{__name__}.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
