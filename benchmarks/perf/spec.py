"""What ``BENCHMARK.json`` declares, read once: the metric names, units,
directions and bounds, and the length of a run.  The code emits metrics
under these names and declares them nowhere else.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: seconds one run measures; the workloads' epoch counts are sized for it
RUN_SECONDS: int = SPEC["run_seconds"]
#: untraced runs per workload in a suite result (``--compare`` takes
#: quartiles over them, so every result has the same number)
SUITE_RUNS = 5

#: name -> unit, in the order they are printed
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: name -> (unit, better, bound) of the two end-to-end metrics the
#: driver's contract has no slot for (every listed metric must come from
#: every workload and never be 0); the suite result and ``--compare``
#: carry them
SUITE_ONLY: Dict[str, Tuple[str, str, float]] = {
    "update_apply_p50_ms": ("ms", "lower", 0.15),
    "failed_fraction": ("ratio", "lower", 0.0),
}
