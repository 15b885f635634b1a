"""Prediction-error attribution: *where* a method's error comes from.

The evaluation layer reports one scalar per (method, workload): the
absolute relative cycle-count error. That is the paper's headline metric
(Section IV-3), but it explains nothing — a fig3 regression today says a
number moved, not which kernel or stratum moved it. This module
decomposes the error.

Every built-in predictor exposes its prediction as a sum of signed
per-representative cycle terms (:class:`~repro.core.prediction.
PredictionResult.contributions`):

* Sieve:      ``C_pred = Σ_i N · ŵ_i / IPC_i``  (harmonic-mean sensitivity)
* PKS:        ``C_pred = Σ_i |cluster_i| · cycles_i``
* periodic /
  random:     ``C_pred = Σ_i cycles_i · n / s``  (Horvitz-Thompson terms)

Grouping those terms by kernel — and taking each kernel's measured
cycles from the golden reference, which partitions the measured total
exactly — gives signed per-kernel contributions

    contribution_k = (pred_k - meas_k) / C_meas

that sum to the workload's signed prediction error up to float
reassociation (the property test pins 1e-9 rtol). Per-group (stratum /
cluster) contributions follow the same construction through the method's
``group_rows`` hook; they partition the error exactly only for methods
whose groups partition the invocations (Sieve strata, PKS clusters), so
:attr:`ErrorAttribution.groups_partition` records whether they do.

For Sieve the attribution also carries stratification-health gauges per
stratum (occupancy, CoV drift against θ, representative distance from
the stratum mean, KDE split balance) — the "which stratum went wrong"
half of a diagnosis.

Everything here is pure deterministic arithmetic on values the
evaluation already computed; it runs regardless of ``SIEVE_OBS`` (it is
data, not telemetry). The tables are :class:`Columns`, built by grouped
array operations with one Python pass over the representatives and one
over the strata. On a 2,048-kernel, 100,000-invocation fixture it takes
about 13 ms in-process on a 2-vCPU Xeon VM, against about 100 ms when it
built one dataclass per kernel, group and stratum. The golden per-kernel
totals are one cumulative sum over the measurement's cycle column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Generic, Iterable, Iterator, TypeVar

import numpy as np

from repro.evaluation.imputation import cycles_in_table_order
from repro.utils.segments import reduce_groups

if TYPE_CHECKING:
    from repro.core.prediction import PredictionResult
    from repro.core.types import SampleSelection
    from repro.evaluation.context import WorkloadContext
    from repro.methods.base import SamplingMethod

__all__ = [
    "Columns",
    "ErrorAttribution",
    "GroupAttribution",
    "KernelAttribution",
    "StratumHealth",
    "attribute_error",
]

Row = TypeVar("Row")

#: Column dtype per row-field annotation; ``str`` fields become tuples.
_DTYPES = {"int": np.int64, "float": np.float64}


@dataclass(frozen=True)
class KernelAttribution:
    """One kernel's signed share of the workload prediction error.

    ``contribution`` is ``(predicted - measured) / measured_total``:
    positive means the method over-predicts this kernel's cycles.
    Kernel contributions partition the signed error exactly (up to
    float reassociation) because the golden reference partitions the
    measured total by kernel.
    """

    kernel_name: str
    predicted_cycles: float
    measured_cycles: float
    contribution: float
    num_representatives: int


@dataclass(frozen=True)
class GroupAttribution:
    """One stratum/cluster's signed share of the prediction error."""

    group: str
    kernel_name: str
    size: int
    weight: float
    predicted_cycles: float
    measured_cycles: float
    contribution: float


@dataclass(frozen=True)
class StratumHealth:
    """Stratification-health gauges for one Sieve stratum.

    ``cov_drift`` is ``insn_cov - θ`` (positive = the stratum violates
    the paper's dispersion target); ``rep_distance`` is the selected
    representative's relative distance from the stratum's mean
    instruction count; ``split_balance`` is this stratum's size over the
    largest sibling stratum of the same kernel (1.0 for an unsplit
    kernel, small values flag lopsided KDE splits).
    """

    group: str
    kernel_name: str
    tier: str
    size: int
    occupancy: float
    insn_cov: float
    cov_drift: float
    rep_distance: float
    split_balance: float


@dataclass(frozen=True, eq=False)
class Columns(Generic[Row]):
    """Rows of one frozen dataclass, held as one column per field.

    ``columns`` follow the row type's field order: ``str`` fields are
    tuples, ``int`` and ``float`` fields int64 and float64 arrays. They
    carry no field names, so a pickled table holds no string that an
    unpickled object's attribute names could alias. Iterating yields
    ``row_type`` instances, so a reader that walks rows sees the
    dataclasses it always did, and a table equals the tuple of its rows.
    A reader that aggregates takes a :meth:`column` instead.
    """

    row_type: type[Row]
    columns: tuple[tuple | np.ndarray, ...]

    @classmethod
    def build(cls, row_type: type[Row], **columns) -> "Columns[Row]":
        """A table from one sequence per field of ``row_type``."""
        return cls(
            row_type,
            tuple(
                tuple(columns[f.name])
                if f.type == "str"
                else np.asarray(columns[f.name], dtype=_DTYPES[f.type])
                for f in fields(row_type)
            ),
        )

    @classmethod
    def from_rows(cls, row_type: type[Row], rows: Iterable[Row]) -> "Columns[Row]":
        rows = tuple(rows)
        return cls.build(
            row_type,
            **{f.name: [getattr(r, f.name) for r in rows] for f in fields(row_type)},
        )

    def column(self, name: str) -> tuple | np.ndarray:
        names = [f.name for f in fields(self.row_type)]
        return self.columns[names.index(name)]

    def records(self) -> list[dict]:
        """One ``{field: value}`` dict of Python scalars per row."""
        names = [f.name for f in fields(self.row_type)]
        return [dict(zip(names, values)) for values in self._values()]

    def _values(self) -> Iterator[tuple]:
        return zip(
            *(c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns)
        )

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Row]:
        return (self.row_type(*values) for values in self._values())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Columns):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other


#: The row type of each table field of :class:`ErrorAttribution`.
_TABLES = (
    ("per_kernel", KernelAttribution),
    ("per_group", GroupAttribution),
    ("health", StratumHealth),
)


@dataclass(frozen=True)
class ErrorAttribution:
    """A method's prediction error, decomposed.

    ``signed_error`` is ``(C_pred - C_meas) / C_meas`` — its absolute
    value is the paper's error metric. ``per_kernel`` always sums back
    to it (within reassociation); ``per_group`` does too when
    ``groups_partition`` is true. The three tables are
    :class:`Columns`; a tuple of rows passed in is stored as one.
    """

    workload: str
    method: str
    predicted_cycles: float
    measured_cycles: float
    signed_error: float
    per_kernel: Columns[KernelAttribution]
    per_group: Columns[GroupAttribution]
    groups_partition: bool
    health: Columns[StratumHealth] = ()

    def __post_init__(self) -> None:
        for name, row_type in _TABLES:
            table = getattr(self, name)
            if not isinstance(table, Columns):
                object.__setattr__(self, name, Columns.from_rows(row_type, table))

    def to_dict(self) -> dict:
        """JSON-ready form (manifest embedding, ``attribute --json``)."""
        return {
            "workload": self.workload,
            "method": self.method,
            "predicted_cycles": self.predicted_cycles,
            "measured_cycles": self.measured_cycles,
            "signed_error": self.signed_error,
            "per_kernel": self.per_kernel.records(),
            "per_group": self.per_group.records(),
            "groups_partition": self.groups_partition,
            "health": self.health.records(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ErrorAttribution":
        return cls(
            workload=data["workload"],
            method=data["method"],
            predicted_cycles=float(data["predicted_cycles"]),
            measured_cycles=float(data["measured_cycles"]),
            signed_error=float(data["signed_error"]),
            per_kernel=tuple(
                KernelAttribution(**k) for k in data.get("per_kernel", ())
            ),
            per_group=tuple(
                GroupAttribution(**g) for g in data.get("per_group", ())
            ),
            groups_partition=bool(data.get("groups_partition", False)),
            health=tuple(StratumHealth(**h) for h in data.get("health", ())),
        )


def attribute_error(
    method: SamplingMethod,
    selection: SampleSelection,
    prediction: PredictionResult,
    context: WorkloadContext,
    config: object | None = None,
    *,
    truth_cycles: np.ndarray | None = None,
) -> ErrorAttribution:
    """Decompose ``prediction``'s error against the context's clean truth.

    ``prediction.contributions`` must align one-to-one with
    ``selection.representatives`` (every built-in predictor guarantees
    this); a predictor that provides no decomposition yields empty
    ``per_kernel``/``per_group`` tables but still reports the signed
    total. ``truth_cycles``, when given, is
    ``cycles_in_table_order(method.profile_table(context), context.truth)``
    already computed by the caller. Every value equals the per-row
    construction kept as
    :func:`repro.core.reference.attribute_error_scalar`, bit for bit.
    """
    truth = context.truth
    measured_total = float(truth.total_cycles)
    signed_error = (prediction.predicted_cycles - measured_total) / measured_total

    contributions = prediction.contributions
    if len(contributions) != len(selection.representatives):
        contributions = ()
    terms = np.array(contributions, dtype=np.float64)

    per_kernel = _per_kernel(selection, terms, truth, measured_total)
    per_group, partitions = _per_group(
        method, selection, terms, context, measured_total, truth_cycles
    )
    return ErrorAttribution(
        workload=selection.workload,
        method=selection.method,
        predicted_cycles=float(prediction.predicted_cycles),
        measured_cycles=measured_total,
        signed_error=float(signed_error),
        per_kernel=per_kernel,
        per_group=per_group,
        groups_partition=partitions,
        health=_stratum_health(selection, context, config),
    )


# --------------------------------------------------------------------- #
# Per-kernel: exact partition of the signed error


def _per_kernel(
    selection: SampleSelection,
    terms: np.ndarray,
    truth,
    measured_total: float,
) -> Columns[KernelAttribution]:
    if not len(terms):
        return Columns.from_rows(KernelAttribution, ())
    rep_kernels = [rep.kernel_name for rep in selection.representatives]
    # Measurement-declaration order first (it partitions C_meas), then any
    # kernels the method predicted for that the truth never measured.
    index = {name: i for i, name in enumerate(truth.kernel_names)}
    measured = truth.kernel_cycles().astype(np.float64).tolist()
    for name in sorted(set(rep_kernels).difference(index)):
        index[name] = len(index)
        measured.append(0.0)
    kernel_of_rep = np.fromiter(
        map(index.__getitem__, rep_kernels), dtype=np.int64, count=len(rep_kernels)
    )
    # ``add.at`` adds in representative order, one term at a time: each
    # kernel's running sum from 0.0, as the per-row construction summed.
    predicted = np.zeros(len(index))
    np.add.at(predicted, kernel_of_rep, terms)
    measured = np.array(measured)
    return Columns.build(
        KernelAttribution,
        kernel_name=index,
        predicted_cycles=predicted,
        measured_cycles=measured,
        contribution=(predicted - measured) / measured_total,
        num_representatives=np.bincount(kernel_of_rep, minlength=len(index)),
    )


# --------------------------------------------------------------------- #
# Per-group (stratum / cluster)


def _per_group(
    method: SamplingMethod,
    selection: SampleSelection,
    terms: np.ndarray,
    context: WorkloadContext,
    measured_total: float,
    row_cycles: np.ndarray | None,
) -> tuple[Columns[GroupAttribution], bool]:
    empty = Columns.from_rows(GroupAttribution, ())
    if not len(terms):
        return empty, False
    table = method.profile_table(context)
    if row_cycles is None:
        row_cycles = cycles_in_table_order(table, context.truth)
    groups = [np.asarray(g) for g in method.group_rows(selection)]
    reps = selection.representatives
    if len(groups) != len(reps):
        return empty, False
    (measured,) = reduce_groups(row_cycles, groups, "sum")
    per_group = Columns.build(
        GroupAttribution,
        group=[rep.group for rep in reps],
        kernel_name=[rep.kernel_name for rep in reps],
        size=[len(group) for group in groups],
        weight=[rep.weight for rep in reps],
        predicted_cycles=terms,
        measured_cycles=measured,
        contribution=(terms - measured) / measured_total,
    )
    # The groups partition the table when they hold as many rows as it
    # does, none twice.
    covered = np.sort(np.concatenate(groups)) if groups else np.empty(0)
    partitions = len(covered) == len(table) and bool(
        np.all(covered[1:] != covered[:-1])
    )
    return per_group, partitions


# --------------------------------------------------------------------- #
# Sieve stratification health


def _stratum_health(
    selection: SampleSelection,
    context: WorkloadContext,
    config: object | None,
) -> Columns[StratumHealth]:
    strata = getattr(selection, "strata", None)
    if not strata:
        return Columns.from_rows(StratumHealth, ())
    theta = float(getattr(config, "theta", 0.0) or 0.0)
    insn = context.sieve_table.insn_count
    labels, names, tiers, kernel_ids, covs, rows = zip(
        *(
            (s.label, s.kernel_name, s.tier.name, s.kernel_id, s.insn_cov, s.rows)
            for s in strata
        )
    )
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    _, kernel_of = np.unique(np.array(kernel_ids), return_inverse=True)
    largest_sibling = np.zeros(len(strata), dtype=np.int64)
    np.maximum.at(largest_sibling, kernel_of, sizes)

    (means,) = reduce_groups(insn, rows, "mean")
    means = np.where(sizes > 0, means, 0.0)
    rep_row = {rep.group: rep.row for rep in selection.representatives}
    has_rep = np.array([label in rep_row for label in labels])
    rep_rows = np.array([rep_row.get(label, 0) for label in labels], dtype=np.int64)
    usable = has_rep & (means > 0)
    rep_distance = np.zeros(len(strata))
    rep_insn = insn[rep_rows[usable]].astype(np.float64)
    rep_distance[usable] = np.abs(rep_insn - means[usable]) / means[usable]

    insn_cov = np.array(covs, dtype=np.float64)
    return Columns.build(
        StratumHealth,
        group=labels,
        kernel_name=names,
        tier=tiers,
        size=sizes,
        occupancy=sizes / max(selection.num_invocations, 1),
        insn_cov=insn_cov,
        cov_drift=insn_cov - theta,
        rep_distance=rep_distance,
        split_balance=sizes / np.maximum(largest_sibling[kernel_of], 1),
    )
