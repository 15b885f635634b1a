"""Pin the compare and scale outputs that every benchmark run checks.

``python3 perfbench/pin.py`` (from the repository root) evaluates every
compare workload and every scale fixture of the pool, for both input
sizes, and rewrites ``perfbench/expected.json``. Run it only when the
program's answers are meant to change; the pinned values are numbers
(prediction error, predicted cycles, representative and invocation
counts), never pickle digests, so a layout-only refactor still passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pin(sizes) -> dict:
    from perfbench import inputs
    from perfbench.child import engine_tasks, project
    from repro.evaluation.engine import EngineConfig, EvaluationEngine

    engine = EvaluationEngine(EngineConfig(jobs=1, use_cache=False))
    compare = {"workload": "compare", "labels": list(sizes.compare_labels), "cap": sizes.compare_cap}
    scale = {
        "workload": "scale",
        "names": [inputs.scale_name(i) for i in range(sizes.scale_pool)],
        "kernels": sizes.scale_kernels,
        "invocations": sizes.scale_invocations,
    }
    return {
        "compare": project(engine.run(engine_tasks(compare))),
        "scale": project(engine.run(engine_tasks(scale))),
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs

    pinned = {name: pin(sizes) for name, sizes in inputs.SIZES.items()}
    path = ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v['compare']) + len(v['scale']) for v in pinned.values())} "
          f"outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
