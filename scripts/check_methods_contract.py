#!/usr/bin/env python
"""CI contract check: every registered sampling method actually works.

Imports the registry, runs every registered method on one small catalog
workload, clean, with row-losing and row-duplicating profile faults, and
with zeroed, noised and drifting golden counters, and asserts the
select/predict round-trip invariants the evaluation layer depends on:

* ``select`` returns a :class:`~repro.core.types.SampleSelection` with at
  least one representative, weights summing to ~1, and rows that index
  the method's profile table, each naming the kernel and invocation id
  at its row of that table;
* ``predict`` on the context's golden measurement returns finite,
  positive predicted cycles;
* ``evaluate_method`` (the generic engine path) agrees exactly with the
  raw select/predict round-trip;
* the method's config schema round-trips through
  ``resolve_config(None)`` / ``resolve_config(default)``.

On a golden reference with every counter zeroed, every method must fail
with a :class:`~repro.utils.errors.SieveError` subclass rather than an
untyped exception or a prediction.

A partially migrated method — registered but with a broken adapter —
fails here long before it corrupts a figure. Exits non-zero on the first
violation.

Usage::

    PYTHONPATH=src python scripts/check_methods_contract.py [--cap N]
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.core.types import SampleSelection
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.methods import get_method, list_methods, method_entries
from repro.robustness.faults import parse_fault_plan
from repro.utils.errors import SieveError

#: Small but non-trivial: enough invocations for PKS to cluster.
DEFAULT_CAP = 600
WORKLOAD = "cactus/gru"
#: Profile faults that remove, cut and repeat rows, so a method that
#: selects from any table but the one it is scored on indexes wrong rows.
FAULTS = "drop:0.1,truncate:0.1,duplicate:0.05"
#: Golden-counter faults every method must impute around.
MEASUREMENT_FAULTS = "zero_cycles:0.3,cycle_noise:0.1,clock_drift:0.05"
#: A golden reference with no usable counter: every method fails typed.
NO_GOLDEN = "zero_cycles:1.0"
FAULT_SEED = 7


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_method(name: str, context) -> None:
    method = get_method(name)
    config = method.resolve_config(None)
    if method.config_schema is not None:
        resolved = method.resolve_config(config)
        if resolved is not config:
            fail(f"{name}: resolve_config(default) did not round-trip")

    selection = method.select(context, config)
    if not isinstance(selection, SampleSelection):
        fail(f"{name}: select returned {type(selection).__name__}")
    if selection.num_representatives < 1:
        fail(f"{name}: select produced no representatives")
    table = method.profile_table(context)
    for rep in selection.representatives:
        if not 0 <= rep.row < len(table):
            fail(f"{name}: representative row {rep.row} outside profile table")
        at_row = (table.kernel_name_of_row(rep.row), int(table.invocation_id[rep.row]))
        if at_row != (rep.kernel_name, rep.invocation_id):
            fail(
                f"{name}: representative {rep.group} names "
                f"{rep.kernel_name}#{rep.invocation_id}, but row {rep.row} of "
                f"its profile table is {at_row[0]}#{at_row[1]}"
            )
    weight = sum(rep.weight for rep in selection.representatives)
    if not math.isclose(weight, 1.0, rel_tol=1e-6):
        fail(f"{name}: representative weights sum to {weight}, not 1")

    prediction = method.predict(selection, context.golden, config)
    if not (math.isfinite(prediction.predicted_cycles) and prediction.predicted_cycles > 0):
        fail(f"{name}: predicted cycles {prediction.predicted_cycles}")

    result = evaluate_method(name, context, config)
    if result.predicted_cycles != prediction.predicted_cycles:
        fail(
            f"{name}: evaluate_method predicted {result.predicted_cycles}, "
            f"raw round-trip predicted {prediction.predicted_cycles}"
        )
    if result.num_representatives != selection.num_representatives:
        fail(f"{name}: evaluate_method representative count drifted")
    print(
        f"ok   {name:14s} reps={result.num_representatives:4d} "
        f"error={result.error_percent:7.2f}% speedup={result.speedup:8.1f}x"
    )


def check_fails_typed(name: str, context) -> None:
    try:
        evaluate_method(name, context)
    except SieveError as exc:
        print(f"ok   {name:14s} {type(exc).__name__}: {exc}")
        return
    except Exception as exc:
        fail(f"{name}: raised {type(exc).__name__} ({exc}), not a SieveError")
    fail(f"{name}: predicted from a golden reference with no usable counter")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    names = list_methods()
    if not names:
        fail("registry is empty")
    entries = method_entries()
    if tuple(m.name for m in entries) != names:
        fail("method_entries() and list_methods() disagree")
    expected = {"sieve", "pks", "pks-two-level", "periodic", "random"}
    missing = expected - set(names)
    if missing:
        fail(f"built-in methods missing from registry: {sorted(missing)}")

    def context(faults: str | None):
        plan = parse_fault_plan(faults, seed=FAULT_SEED) if faults else None
        return build_context(WORKLOAD, args.cap, fault_plan=plan)

    for faults, check in (
        (None, check_method),
        (FAULTS, check_method),
        (MEASUREMENT_FAULTS, check_method),
        (NO_GOLDEN, check_fails_typed),
    ):
        print(
            f"contract check on {WORKLOAD} (cap={args.cap}, {faults or 'clean'}): "
            f"{', '.join(names)}"
        )
        for name in names:
            check(name, context(faults))
    print(f"all {len(names)} registered methods honor the contract")
    return 0


if __name__ == "__main__":
    sys.exit(main())
