"""PKS on a two-level profile (the PKA cost mitigation).

Clusters are formed from the detailed batch only; the light remainder —
for which only kernel names and launch shapes were collected — is folded
into the clusters by (kernel, CTA size) majority vote over the detailed
batch, mirroring how PKA extrapolates from its first profiling level.
The two tables are the levels of one chronological profile
(:func:`repro.profiling.two_level.split_two_level`), so cluster rows
index that profile as well as the detailed batch.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.baselines.pks import PksConfig, PksPipeline, PksSelection
from repro.core.types import Representative
from repro.gpu.hardware import WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.utils.validation import require


@dataclass(frozen=True)
class TwoLevelPksConfig:
    """Tunables of the two-level PKS method (registry ``pks-two-level``).

    ``detailed_budget`` is the number of chronological invocations that
    get the full 12-metric profile (the default matches the two-level
    ablation bench); ``pks`` configures the clustering on that batch.
    """

    detailed_budget: int = 10_000
    pks: PksConfig = PksConfig()

    def __post_init__(self) -> None:
        require(self.detailed_budget >= 1, "detailed budget must be >= 1")


class TwoLevelPksPipeline:
    """PKS clustering on the detailed batch, extrapolated to the rest."""

    def __init__(self, config: PksConfig | None = None):
        self._pks = PksPipeline(config)

    def select(
        self,
        detailed: ProfileTable,
        light: ProfileTable,
        golden: WorkloadMeasurement,
    ) -> PksSelection:
        """Cluster the detailed batch, then fold in the light remainder."""
        require(len(detailed) > 0, "detailed batch is empty")
        base = self._pks.select(detailed, golden)

        # Majority cluster per (kernel, CTA size) signature in the batch.
        signature_votes: dict[tuple[int, int], Counter] = defaultdict(Counter)
        for cluster_index, rows in enumerate(base.cluster_rows):
            for row in rows:
                key = (int(detailed.kernel_id[row]), int(detailed.cta_size[row]))
                signature_votes[key][cluster_index] += 1
        kernel_votes: dict[int, Counter] = defaultdict(Counter)
        for (kernel_id, _), votes in signature_votes.items():
            kernel_votes[kernel_id].update(votes)

        extra_counts = np.zeros(len(base.representatives), dtype=np.int64)
        for row in range(len(light)):
            key = (int(light.kernel_id[row]), int(light.cta_size[row]))
            if key in signature_votes:
                cluster = signature_votes[key].most_common(1)[0][0]
            elif key[0] in kernel_votes:
                cluster = kernel_votes[key[0]].most_common(1)[0][0]
            else:
                # Kernel never seen in the detailed batch: attribute to the
                # most populous cluster (PKA has no better information).
                cluster = int(np.argmax([r.group_size for r in base.representatives]))
            extra_counts[cluster] += 1

        total = len(detailed) + len(light)
        representatives = tuple(
            Representative(
                kernel_name=rep.kernel_name,
                kernel_id=rep.kernel_id,
                invocation_id=rep.invocation_id,
                row=rep.row,
                weight=(rep.group_size + int(extra_counts[index])) / total,
                group=rep.group,
                group_size=rep.group_size + int(extra_counts[index]),
            )
            for index, rep in enumerate(base.representatives)
        )
        return PksSelection(
            workload=base.workload,
            method="pks-two-level",
            representatives=representatives,
            total_instructions=int(
                detailed.insn_count.sum() + light.insn_count.sum()
            ),
            num_invocations=total,
            chosen_k=base.chosen_k,
            cluster_rows=base.cluster_rows,
        )

    def predict(self, selection: PksSelection, measurement: WorkloadMeasurement):
        """Same count-weighted prediction as ordinary PKS."""
        return self._pks.predict(selection, measurement)
