"""Repository benchmark: cold and warm Table 2, and cache-missing serve traffic.

    python3 perfbench/run.py --workload table2_cold --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``table2_cold``  Table 2 in fresh processes with empty stores;
* ``table2_warm``  Table 2 in fresh processes against a filled store;
* ``serve_miss``   distinct requests against a warmed ``repro serve``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with the layers timed and prints the per-layer metrics.
The last line of standard output is the result object; the lines before
it name the run's environment, the result digests and any failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List

from benchlib import (
    TABLE2_WORKLOADS,
    DigestLedger,
    child_env,
    chunks,
    code_digest,
    combined_digest,
    fresh_dir,
    metric,
    repo_root,
    result_line,
    run_info,
)

#: End-to-end metrics and their units, in output order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "speedup_pct_mean": "%",
    "pred_ipc_err_pct": "%",
}

#: Per-layer metrics and their units, in output order.
PER_LAYER = {
    "slicing.slice_s": "s",
    "slicing.insert_s": "s",
    "slicing.slices": "count",
    "slicing.tree_nodes": "count",
    "pthreads.optimize_s": "s",
    "pthreads.optimize_calls": "count",
    "pthreads.dataflow_calls": "count",
    "pthreads.merge_s": "s",
    "model.evaluate_s": "s",
    "model.candidates": "count",
    "selection.total_s": "s",
    "selection.enumerate_self_s": "s",
    "selection.fixpoint_s": "s",
    "selection.trees": "count",
    "selection.fixpoint_iterations": "count",
    "selection.pthreads": "count",
    "timing.baseline_s": "s",
    "timing.preexec_s": "s",
    "timing.validation_s": "s",
    "timing.perfect_l2_s": "s",
    "timing.instructions": "count",
    "timing.pthread_instructions": "count",
    "timing.pthread_launches": "count",
    "timing.pthread_drops": "count",
    "timing.baseline_us_per_kinst": "us/kinst",
    "timing.preexec_us_per_kinst": "us/kinst",
    "engine.trace_s": "s",
    "engine.trace_kinst_per_s": "kinst/s",
    "engine.tier_up_s": "s",
    "engine.tier_ups": "count",
    "harness.artifacts.load_s": "s",
    "harness.artifacts.store_s": "s",
    "harness.artifacts.loads": "count",
    "harness.artifacts.stores": "count",
    "harness.artifacts.bytes_read": "bytes",
    "harness.artifacts.bytes_written": "bytes",
    "serve.service_s": "s",
    "serve.overhead_s": "s",
    "serve.stage.selection_s": "s",
    "serve.stage.timing_s": "s",
    "serve.stage.validation_s": "s",
    "serve.batch_size_mean": "count",
    "serve.response_cache_hits": "count",
    "obs.tracing_overhead_s": "s",
    "layers.selection_share": "ratio",
    "layers.timing_share": "ratio",
    "layers.named_share": "ratio",
}

#: Set-up-only processes per batch run, on top of the passes' own set-ups.
SETUP_PROBES = 3

#: A worker that takes longer than this has hung.
WORKER_TIMEOUT_S = 150


class Bench:
    """State of one benchmark run."""

    def __init__(self, args: argparse.Namespace, root: Path, work: Path) -> None:
        self.args = args
        self.root = root
        self.work = work
        self.code_key = code_digest(root)
        self.ledger = DigestLedger(root / ".perfbench" / "ledger.json", self.code_key)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def log(self, line: str) -> None:
        print(line, flush=True)

    def store(self) -> Path:
        """A fresh, empty artifact store."""
        return fresh_dir(self.work, "store-")

    def spawn(self, store: Path, names: List[str], mode: str, trace: bool = False):
        """Start one batch worker process; :meth:`collect` waits for it."""
        command = [
            sys.executable,
            str(self.root / "perfbench" / "batch_worker.py"),
            "--mode", mode,
            "--seed", str(self.args.seed),
            "--workloads", ",".join(names),
            "--spawned-at", repr(time.monotonic()),
            "--trace", "1" if trace else "0",
        ]
        return subprocess.Popen(
            command,
            cwd=self.root,
            env=child_env(self.root, store),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def collect(self, proc) -> Dict[str, Any]:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("batch worker timed out")
        if proc.returncode != 0:
            raise RuntimeError(f"batch worker failed:\n{err}")
        return json.loads(out.strip().splitlines()[-1])

    def run_worker(self, store: Path, mode: str, trace: bool = False) -> Dict[str, Any]:
        return self.collect(self.spawn(store, list(TABLE2_WORKLOADS), mode, trace))

    def check_cells(self, result: Dict[str, Any], expected: Dict[str, str]) -> None:
        """Count the pass's cells, failing each malformed or irreproducible one.

        ``expected`` maps workloads to the digests this run already saw
        for them (the fill, for a warm pass).
        """
        scope = f"table2:seed={self.args.seed}"
        for cell in result["cells"]:
            self.attempted += 1
            problems = list(cell["problems"])
            name, digest = cell["workload"], cell["digest"]
            if expected.get(name, digest) != digest:
                problems.append("warm result differs from the cold fill")
            if not self.ledger.check(scope, name, digest):
                problems.append("digest differs from an earlier run")
            if problems:
                self.failed += 1
                self.log(f"cell {name}: {problems}")

    def timed_passes(self, one_pass: Callable[[], Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Passes back to back for ``--seconds``: at least one, and no
        pass started that is not expected to end within the window."""
        start = time.monotonic()
        passes, durations = [], []
        while True:
            begun = time.monotonic()
            passes.append(one_pass())
            durations.append(time.monotonic() - begun)
            if time.monotonic() - start + median(durations) > self.args.seconds:
                return passes

    def batch_metrics(
        self, passes: List[Dict[str, Any]], setups: List[float]
    ) -> Dict[str, float]:
        first = passes[0]
        cells = len(first["cells"])
        wall = median([p["wall_s"] for p in passes])
        self.log(
            "digest %s seed=%d: %s"
            % (
                self.args.workload,
                self.args.seed,
                combined_digest(c["digest"] for c in first["cells"]),
            )
        )
        self.log(first["table"])
        for number, one in enumerate(passes, 1):
            cells_s = " ".join(f"{c['workload']}={c['seconds']:.3f}" for c in one["cells"])
            self.log(f"pass {number}: wall {one['wall_s']:.3f} s; {cells_s}")
        return {
            "setup_s": median(setups),
            "wall_s": wall,
            "latency_p50_s": median(
                [median([c["seconds"] for c in p["cells"]]) for p in passes]
            ),
            "latency_tail_s": median(
                [max(c["seconds"] for c in p["cells"]) for p in passes]
            ),
            "throughput_rps": cells / wall,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
            "ok_rate": (self.attempted - self.failed) / self.attempted,
            "speedup_pct_mean": sum(first["speedup_pct"]) / cells,
            "pred_ipc_err_pct": sum(first["pred_ipc_err_pct"]) / cells,
        }

    def setup_probes(self) -> List[float]:
        store = self.store()
        return [self.run_worker(store, "setup")["setup_s"] for _ in range(SETUP_PROBES)]

    def fill(self) -> tuple:
        """Fill one store with Table 2 results, two processes at a time.

        Outside the timed window; the fill's digests are what the warm
        passes must reproduce.
        """
        store = self.store()
        procs = [
            self.spawn(store, names, "pass")
            for names in chunks(list(TABLE2_WORKLOADS), 2)
        ]
        digests = {}
        try:
            for proc in procs:
                for cell in self.collect(proc)["cells"]:
                    digests[cell["workload"]] = cell["digest"]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        return store, digests

    # -- workloads -------------------------------------------------------

    def table2_cold(self) -> Dict[str, Any]:
        def cold_pass(trace: bool = False) -> Dict[str, Any]:
            result = self.run_worker(self.store(), "pass", trace)
            self.check_cells(result, {})
            return result

        return self.batch(cold_pass)

    def table2_warm(self) -> Dict[str, Any]:
        store, filled = self.fill()

        def warm_pass(trace: bool = False) -> Dict[str, Any]:
            result = self.run_worker(store, "pass", trace)
            self.check_cells(result, filled)
            return result

        return self.batch(warm_pass)

    def batch(self, one_pass: Callable[..., Dict[str, Any]]) -> Dict[str, Any]:
        """End-to-end metrics of timed passes, or with ``--trace 1`` the
        layers of a traced pass next to an untraced one."""
        if self.args.trace:
            plain = one_pass()
            traced = one_pass(trace=True)
            layers = dict(traced["layers"])
            layers["obs.tracing_overhead_s"] = traced["wall_s"] - plain["wall_s"]
            return layers
        setups = self.setup_probes()
        passes = self.timed_passes(one_pass)
        return self.batch_metrics(passes, setups + [p["setup_s"] for p in passes])

    def serve_miss(self) -> Dict[str, Any]:
        from serve_miss import run_serve_miss

        outcome = run_serve_miss(
            self.root,
            child_env(self.root, self.store()),
            self.work,
            self.args.seed,
            self.args.seconds,
            bool(self.args.trace),
            self.ledger,
            self.log,
        )
        self.attempted += outcome["attempted"]
        self.failed += outcome["failed"]
        self.correct = outcome["correct"]
        return outcome["layers"] if self.args.trace else outcome["end_to_end"]


WORKLOADS = ("table2_cold", "table2_warm", "serve_miss")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = repo_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = fresh_dir(root / ".perfbench" / "tmp", f"{args.workload}-")
    try:
        bench = Bench(args, root, work)
        bench.log("run " + json.dumps(run_info(root, bench.code_key), sort_keys=True))
        values = getattr(bench, args.workload)()
        bench.ledger.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: metric(values.get(name, 0.0), unit) for name, unit in units.items()}
    correct = bench.correct and bench.failed == 0
    print(result_line(correct, bench.attempted, bench.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
