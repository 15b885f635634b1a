"""The sampling-method contract every comparator implements.

The paper's evaluation is a *method comparison*: Sieve against PKS
against statistical baselines, on the same workloads, judged by the same
metrics. :class:`SamplingMethod` is the one surface the evaluation
layer, engine, CLI and benches program against — a method turns an
evaluation context into a :class:`~repro.core.types.SampleSelection` and
a selection plus a measurement into a
:class:`~repro.core.prediction.PredictionResult`. Everything downstream
(accuracy, dispersion, speedup, caching, manifests) is method-agnostic.

:class:`MethodRequest` is the serializable "method name + config" pair
that experiment specs and :class:`~repro.evaluation.engine.EvaluationTask`
carry; it is what gets content-hashed into cache keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.utils.errors import MethodConfigError

if TYPE_CHECKING:
    from repro.core.prediction import PredictionResult
    from repro.core.types import SampleSelection
    from repro.evaluation.context import WorkloadContext
    from repro.gpu.hardware import WorkloadMeasurement
    from repro.profiling.table import ProfileTable
    from repro.streaming.base import MethodStream, StreamContext


@dataclass(frozen=True)
class MethodRequest:
    """One method invocation to evaluate: registry name + typed config.

    ``config`` is ``None`` (method defaults) or an instance of the
    method's ``config_schema`` dataclass — frozen, picklable and
    content-hashable, so a request can ship to a worker process and feed a
    cache key. ``alias`` renames the request's result column when one
    experiment runs the same method under several configs (e.g. the
    Figure 5 PKS policy study).
    """

    method: str
    config: object | None = None
    alias: str | None = None

    @property
    def key(self) -> str:
        """The result-dict / manifest column this request reports under."""
        return self.alias or self.method


class SamplingMethod(ABC):
    """One workload-sampling comparator (Sieve, PKS, a baseline, ...).

    Subclasses set ``name`` (the registry key) and ``config_schema`` (the
    frozen dataclass type of their tunables, or ``None`` for
    configuration-free methods), and implement ``select``/``predict``.
    The remaining hooks have defaults that suit simple baselines.
    """

    #: Registry key; must be unique across all registered methods.
    name: str = ""
    #: Frozen dataclass type of this method's config, or None.
    config_schema: type | None = None
    #: One-line description shown by ``sieve-repro methods list``.
    description: str = ""
    #: True when ``begin_stream`` is a real incremental implementation
    #: rather than the buffer-everything fallback.
    streams_incrementally: bool = False

    # ------------------------------------------------------------------ #
    # Required surface

    @abstractmethod
    def select(self, context: WorkloadContext, config: object) -> SampleSelection:
        """Reduce the workload to representative invocations + weights."""

    @abstractmethod
    def predict(
        self,
        selection: SampleSelection,
        measurement: WorkloadMeasurement,
        config: object,
    ) -> PredictionResult:
        """Predict application cycles from the representatives."""

    # ------------------------------------------------------------------ #
    # Hooks with baseline-friendly defaults

    def default_config(self) -> object | None:
        """A fresh default config (``None`` for config-free methods)."""
        return self.config_schema() if self.config_schema is not None else None

    def resolve_config(self, config: object | None) -> object | None:
        """Validate ``config`` against the schema, defaulting when absent.

        Raises :class:`~repro.utils.errors.MethodConfigError` on a type
        mismatch so a misrouted config fails loudly before any work (or
        cache probe) happens.
        """
        if config is None:
            return self.default_config()
        if self.config_schema is None:
            raise MethodConfigError(
                f"method {self.name!r} takes no config, got "
                f"{type(config).__name__}"
            )
        if not isinstance(config, self.config_schema):
            raise MethodConfigError(
                f"method {self.name!r} expects {self.config_schema.__name__}, "
                f"got {type(config).__name__}"
            )
        return config

    def begin_stream(
        self, stream: StreamContext, config: object | None = None
    ) -> MethodStream:
        """Start an incremental selection over a chunked profile feed.

        The default buffers every observed chunk and delegates to
        ``select`` at finalize — correct for any method, incremental for
        none (``streams_incrementally`` says which). Methods with a true
        streaming implementation (sieve, periodic) override this to
        return their operator.
        """
        from repro.streaming.base import BufferingStream

        return BufferingStream(self, stream, self.resolve_config(config))

    def profile_table(self, context: WorkloadContext) -> ProfileTable:
        """The profile whose row order aligns with this method's selection.

        Dispersion statistics index golden cycle counts by profile-table
        row; methods that select from the Nsight (12-metric) table
        override this to return ``context.pks_table``.
        """
        return context.sieve_table

    def group_rows(self, selection: SampleSelection) -> Iterable[np.ndarray]:
        """Row groups (stratum/cluster members) behind each representative.

        Feeds the Figure 4 within-group cycle-dispersion metric. The
        default — one singleton group per representative — gives zero
        dispersion, which is the honest answer for methods that keep no
        group structure (random/periodic sampling).
        """
        return (np.array([rep.row]) for rep in selection.representatives)
