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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.baselines.pks import PksPipeline, PksSelection
from repro.core.types import Representative
from repro.gpu.hardware import WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.utils.validation import require


@dataclass(frozen=True)
class TwoLevelPksConfig:
    """Tunables of the two-level PKS method (registry ``pks-two-level``).

    ``detailed_budget`` is the number of chronological invocations that
    get the full 12-metric profile (the default matches the two-level
    ablation bench); that batch is clustered with PKS's defaults.
    """

    detailed_budget: int = 10_000

    def __post_init__(self) -> None:
        require(self.detailed_budget >= 1, "detailed budget must be >= 1")


def light_cluster_counts(
    detailed: ProfileTable,
    light: ProfileTable,
    cluster_rows: Sequence[np.ndarray],
    group_sizes: Sequence[int],
) -> np.ndarray:
    """How many light rows each cluster takes, by majority vote.

    Every detailed row in ``cluster_rows[c]`` votes for cluster ``c``
    under its (kernel, CTA size) signature. A light row goes to its
    signature's majority cluster, else to its kernel's (the votes of all
    its signatures), else to the most populous cluster. Ties go to the
    cluster that entered the tally first, as ``Counter.most_common(1)``
    resolves them: a signature's clusters enter in ascending order, a
    kernel's by its signatures' first votes, then ascending.
    """
    clusters = len(cluster_rows)
    rows = np.concatenate(cluster_rows)
    cluster = np.repeat(np.arange(clusters), [len(r) for r in cluster_rows])
    kernel = np.concatenate((detailed.kernel_id[rows], light.kernel_id))
    cta = np.concatenate((detailed.cta_size[rows], light.cta_size))
    # Signature ids: detailed votes first, then light rows.
    order = np.lexsort((cta, kernel))
    kernel_sorted, cta_sorted = kernel[order], cta[order]
    step = np.ones(len(order), dtype=bool)
    step[1:] = (kernel_sorted[1:] != kernel_sorted[:-1]) | (cta_sorted[1:] != cta_sorted[:-1])
    signature = np.empty(len(order), dtype=np.int64)
    signature[order] = np.cumsum(step) - 1
    votes = len(rows)
    kernel_of = np.zeros(int(step.sum()), dtype=np.int64)
    kernel_of[signature] = kernel
    first_vote = np.full(len(kernel_of), votes)
    np.minimum.at(first_vote, signature[:votes], np.arange(votes))

    # (signature, cluster) tallies, then (kernel, cluster) ones: a
    # kernel's cluster enters with the first of its signatures to vote.
    pairs, tally = np.unique(signature[:votes] * clusters + cluster, return_counts=True)
    pair_signature, pair_cluster = np.divmod(pairs, clusters)
    by_kernel, of_pair = np.unique(
        kernel_of[pair_signature] * clusters + pair_cluster, return_inverse=True
    )
    kernel_tally = np.bincount(of_pair, weights=tally).astype(np.int64)
    entered = np.full(len(by_kernel), votes)
    np.minimum.at(entered, of_pair, first_vote[pair_signature])
    vote_kernel, vote_cluster = np.divmod(by_kernel, clusters)

    majority = np.full(len(kernel_of), -1)
    winners = _first_maximum(pair_signature, tally, pair_cluster)
    majority[pair_signature[winners]] = pair_cluster[winners]
    kernel_majority = np.full(int(kernel.max()) + 1, -1)
    winners = _first_maximum(vote_kernel, kernel_tally, entered, vote_cluster)
    kernel_majority[vote_kernel[winners]] = vote_cluster[winners]

    pick = majority[signature[votes:]]
    pick = np.where(pick >= 0, pick, kernel_majority[light.kernel_id])
    # A kernel never seen in the detailed batch goes to the most
    # populous cluster (PKA has no better information).
    pick = np.where(pick >= 0, pick, int(np.argmax(group_sizes)))
    return np.bincount(pick, minlength=len(group_sizes))


def _first_maximum(group: np.ndarray, tally: np.ndarray, *order: np.ndarray) -> np.ndarray:
    """Per group, the index of its largest ``tally``, ties to the smallest ``order`` keys."""
    ranked = np.lexsort((*order[::-1], -tally, group))
    return ranked[np.flatnonzero(np.diff(group[ranked], prepend=-1))]


class TwoLevelPksPipeline:
    """PKS clustering on the detailed batch, extrapolated to the rest."""

    def __init__(self):
        self._pks = PksPipeline()

    def select(
        self,
        detailed: ProfileTable,
        light: ProfileTable,
        golden: WorkloadMeasurement,
    ) -> PksSelection:
        """Cluster the detailed batch, then fold in the light remainder."""
        require(len(detailed) > 0, "detailed batch is empty")
        base = self._pks.select(detailed, golden)

        extra_counts = light_cluster_counts(
            detailed,
            light,
            base.cluster_rows,
            [rep.group_size for rep in base.representatives],
        )

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
