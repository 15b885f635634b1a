"""Built-in sampling methods: the paper's comparison, behind the registry.

Each adapter wraps an existing pipeline without changing its numerics —
``evaluate_method("sieve", ...)`` is byte-identical to driving
:class:`~repro.core.pipeline.SievePipeline` by hand (the equivalence
property tests pin this). PCA and k-means stay internals of PKS; they
are not methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.baselines.periodic import PeriodicSampler
from repro.baselines.pks import PksConfig, PksPipeline
from repro.baselines.pks_two_level import TwoLevelPksConfig, TwoLevelPksPipeline
from repro.baselines.random_sampling import RandomSampler
from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.methods.base import SamplingMethod
from repro.methods.registry import register_method
from repro.profiling.two_level import split_two_level

if TYPE_CHECKING:
    from repro.core.prediction import PredictionResult
    from repro.core.types import SampleSelection
    from repro.evaluation.context import WorkloadContext
    from repro.gpu.hardware import WorkloadMeasurement
    from repro.profiling.table import ProfileTable


@register_method
class SieveMethod(SamplingMethod):
    """Stratified sampling on the NVBit instruction-count profile."""

    name = "sieve"
    config_schema = SieveConfig
    description = "Sieve: KDE-stratified sampling on instruction counts"
    streams_incrementally = True

    def select(self, context: WorkloadContext, config: SieveConfig) -> SampleSelection:
        return SievePipeline(config).select(context.sieve_table)

    def begin_stream(self, stream, config: SieveConfig | None = None):
        from repro.streaming.sieve import SieveStream

        return SieveStream(stream, self.resolve_config(config))

    def predict(
        self,
        selection: SampleSelection,
        measurement: WorkloadMeasurement,
        config: SieveConfig,
    ) -> PredictionResult:
        return SievePipeline(config).predict(selection, measurement)

    def group_rows(self, selection: SampleSelection) -> Iterable[np.ndarray]:
        return (stratum.rows for stratum in selection.strata)


@register_method
class PksMethod(SamplingMethod):
    """Principal Kernel Selection on the Nsight 12-metric profile."""

    name = "pks"
    config_schema = PksConfig
    description = "PKS: PCA + k-means clustering with golden-reference k"

    def select(self, context: WorkloadContext, config: PksConfig) -> SampleSelection:
        return PksPipeline(config).select(context.pks_table, context.golden)

    def predict(
        self,
        selection: SampleSelection,
        measurement: WorkloadMeasurement,
        config: PksConfig,
    ) -> PredictionResult:
        return PksPipeline(config).predict(selection, measurement)

    def profile_table(self, context: WorkloadContext) -> ProfileTable:
        return context.pks_table

    def group_rows(self, selection: SampleSelection) -> Iterable[np.ndarray]:
        return selection.cluster_rows


@register_method
class PksTwoLevelMethod(SamplingMethod):
    """PKS on a two-level profile (the PKA cost mitigation).

    Splits the context's Nsight table at ``detailed_budget`` into a
    detailed prefix and a light remainder, so it selects from the table
    it is scored on, faults included; cluster rows index the prefix,
    which is the table's first rows.
    """

    name = "pks-two-level"
    config_schema = TwoLevelPksConfig
    description = "PKS clustering a detailed prefix, extrapolated to the rest"

    def select(
        self, context: WorkloadContext, config: TwoLevelPksConfig
    ) -> SampleSelection:
        detailed, light = split_two_level(context.pks_table, config.detailed_budget)
        return TwoLevelPksPipeline().select(detailed, light, context.golden)

    def predict(
        self,
        selection: SampleSelection,
        measurement: WorkloadMeasurement,
        config: TwoLevelPksConfig,
    ) -> PredictionResult:
        return TwoLevelPksPipeline().predict(selection, measurement)

    def profile_table(self, context: WorkloadContext) -> ProfileTable:
        return context.pks_table

    def group_rows(self, selection: SampleSelection) -> Iterable[np.ndarray]:
        return selection.cluster_rows


@register_method
class PeriodicMethod(SamplingMethod):
    """Systematic sampling: every period-th invocation (SMARTS-style)."""

    name = "periodic"
    config_schema = PeriodicSampler
    description = "periodic baseline: every period-th invocation"
    streams_incrementally = True

    def begin_stream(self, stream, config: PeriodicSampler | None = None):
        from repro.streaming.periodic import PeriodicStream

        return PeriodicStream(stream, self.resolve_config(config))

    def select(
        self, context: WorkloadContext, config: PeriodicSampler
    ) -> SampleSelection:
        return config.select(context.sieve_table)

    def predict(
        self,
        selection: SampleSelection,
        measurement: WorkloadMeasurement,
        config: PeriodicSampler,
    ) -> PredictionResult:
        return config.predict(selection, measurement)


@register_method
class RandomMethod(SamplingMethod):
    """Simple random sampling with a fixed budget (ablation floor)."""

    name = "random"
    config_schema = RandomSampler
    description = "random baseline: uniform sample, Horvitz-Thompson estimate"

    def select(
        self, context: WorkloadContext, config: RandomSampler
    ) -> SampleSelection:
        return config.select(context.sieve_table)

    def predict(
        self,
        selection: SampleSelection,
        measurement: WorkloadMeasurement,
        config: RandomSampler,
    ) -> PredictionResult:
        return config.predict(selection, measurement)
