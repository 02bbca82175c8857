"""One Table 2 pass in a fresh process, for the batch workloads.

Run by ``run.py``, never by hand:

    python3 perfbench/batch_worker.py --mode pass --seed 3 \\
        --workloads crafty,gap --spawned-at <time.monotonic() of the parent>

The artifact store is whatever ``REPRO_CACHE_DIR`` the parent set: an
empty one makes the pass cold, a filled one makes it warm.  ``--mode
setup`` stops when the timed window would open (set-up only).  The last
line of standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from typing import Any, Dict, List

from benchlib import builder_seed, payload_digest, peak_rss_mb


def _row_problems(row) -> List[str]:
    """Reasons a Table 2 row is malformed (empty when it is well formed)."""
    problems = []
    for name, value in vars(row).items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{name} is not finite")
    if row.base_ipc <= 0 or row.preexec_ipc <= 0 or row.pred_ipc <= 0:
        problems.append("non-positive IPC")
    if not 0.0 <= row.full_covered_pct <= row.covered_pct <= 100.0:
        problems.append("coverage out of range")
    if row.launches < 0 or row.pred_launches < 0:
        problems.append("negative launch count")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "pass"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    names = args.workloads.split(",")

    from repro.harness.artifacts import ArtifactCache
    from repro.harness.experiment import ExperimentRunner
    from repro.harness.tables import render_table2, table2
    from repro.obs import get_tracer
    from repro.serve.protocol import result_payload
    from repro.workloads.suite import build

    clock = None
    if args.trace:
        from layers import LayerClock, install

        clock = LayerClock()
        install(clock)

    class BenchRunner(ExperimentRunner):
        """The Table 2 runner, with the benchmark's seed and per-cell timing.

        The seed reaches the program only as the suite builders' ``seed``
        input.
        """

        def __init__(self, **kwargs) -> None:
            super().__init__(**kwargs)
            self.built: Dict[tuple, Any] = {}
            self.cells: List[tuple] = []

        def workload(self, name, input_name, hierarchy=None):
            seed = builder_seed(args.seed, name)
            if seed is None:
                return super().workload(name, input_name, hierarchy)
            key = (name, input_name, hierarchy)
            if key not in self.built:
                self.built[key] = build(name, input_name, hierarchy, seed=seed)
            return self.built[key]

        def run(self, config, deadline=None):
            start = time.perf_counter()
            result = super().run(config, deadline)
            self.cells.append((time.perf_counter() - start, result))
            return result

    runner = BenchRunner(artifacts=ArtifactCache.from_env())
    for name in names:
        runner.workload(name, "train")
    opened = time.monotonic()
    out: Dict[str, Any] = {"setup_s": opened - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    start = time.perf_counter()
    rows = table2(runner=runner, workloads=names)
    wall = time.perf_counter() - start

    cells = []
    for (seconds, result), row in zip(runner.cells, rows):
        cells.append(
            {
                "workload": row.name,
                "seconds": seconds,
                "digest": payload_digest(result_payload(result)),
                "problems": _row_problems(row),
            }
        )
    out.update(
        wall_s=wall,
        cells=cells,
        speedup_pct=[row.speedup_pct for row in rows],
        pred_ipc_err_pct=[
            100.0 * abs(row.pred_ipc - row.preexec_ipc) / row.preexec_ipc
            for row in rows
        ],
        peak_rss_mb=peak_rss_mb(os.getpid()),
        table=render_table2(rows),
    )
    if clock is not None:
        from layers import layer_metrics, tier_up_spans

        out["layers"] = layer_metrics(
            clock, wall, tier_up_spans(get_tracer().root)
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
