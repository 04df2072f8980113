"""Benchmark entry point.

    python3 bench/run.py --workload {ingest,verify,recall,cold_cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the workload is set up three times, then timed in whole
rounds until `--seconds` have passed, and the end-to-end metrics are printed;
their timings are scaled to a fixed machine speed (see ReferenceClock).
With `--trace 1` it is set up once and runs one round with every layer
wrapped in spans; the per-layer metrics are printed and the spans are written
to `.bench_out/`. Every operation's output is checked either way. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 3
REFERENCE_NOMINAL_S = 0.010  # timings are reported as if the reference loop took this long
REFERENCE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "store_bytes_per_triple": "B",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith((".calls", ".quarantined", ".rows", ".triples_in")):
        return "count"
    return "ratio"


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop (dict inserts, a keyed sort), run
    with the collector off so that the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {(i, str(i)): i for i in range(30000)}
        sorted(table, key=lambda k: k[1])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Scales durations to a machine on which the reference loop takes
    REFERENCE_NOMINAL_S.

    The shared machine this benchmark was tuned on changes speed by a fifth
    or more over tens of seconds, for every process alike; the reference loop
    slows down with it. A sample is taken between operations once
    REFERENCE_EVERY_S has passed, and each duration is scaled by the mean of
    the samples just before and just after it.
    """

    def __init__(self) -> None:
        self.samples = [reference_seconds()]
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._taken_at = time.perf_counter()

    def add(self, raw: float) -> None:
        self._pending.append(raw)

    def sample(self) -> None:
        after = reference_seconds()
        factor = REFERENCE_NOMINAL_S * 2 / (self.samples[-1] + after)
        self.scaled += [raw * factor for raw in self._pending]
        self._pending.clear()
        self.samples.append(after)
        self._taken_at = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._taken_at >= REFERENCE_EVERY_S:
            self.sample()


def attempt_round(workload, clock: ReferenceClock, log) -> tuple[int, int, list[float]]:
    """Run one whole round; return attempted, failed and the raw latencies,
    which also go to the clock for scaling."""
    attempted = failed = 0
    raw: list[float] = []
    for run, check in workload.round():
        attempted += 1
        clock.sample_if_due()
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception:  # the program failed; count it and go on
            result, problem = None, traceback.format_exc()
        else:
            problem = None
        raw.append(time.perf_counter() - t0)
        clock.add(raw[-1])
        if problem is None:
            try:
                problem = check(result)
            except Exception as e:  # malformed output is a wrong answer
                problem = f"{type(e).__name__}: {e}"
        if problem:
            failed += 1
            print(f"{workload.name}: failed operation: {problem}", file=log)
    clock.sample()
    return attempted, failed, raw


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 log=sys.stderr) -> dict:
    import spans
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        workload = WORKLOADS[name](seed, scale)
        clock = ReferenceClock()
        for rep in range(1 if trace else SETUP_REPS):
            clock.add(workload.setup(work / f"setup{rep}"))
            clock.sample()
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")
        setups, clock.scaled = clock.scaled, []
        if trace:
            workload.span_dir = work / "child-spans"
            tracer = spans.Tracer()
            tracer.install()
            try:
                attempted, failed, _ = attempt_round(workload, clock, log)
            finally:
                tracer.uninstall()
            recorded, import_s = tracer.spans, []
            if workload.span_dir.is_dir():
                for path in sorted(workload.span_dir.iterdir(), key=lambda p: int(p.stem)):
                    child = json.loads(path.read_text("utf-8"))
                    offset = len(recorded)
                    for span in child["spans"]:
                        if span["parent"] is not None:
                            span["parent"] += offset
                    recorded += child["spans"]
                    import_s.append(child["import_s"])
            values = spans.layer_metrics(recorded, attempted,
                                         import_s or spans.cli_import_seconds(SRC))
            values["trace.op_s"] = statistics.fmean(clock.scaled)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            (out / f"trace-{name}-seed{seed}.json").write_text(json.dumps(recorded), "utf-8")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        else:
            attempted = failed = 0
            raw = []
            deadline = time.perf_counter() + seconds
            while True:
                a, f, r = attempt_round(workload, clock, log)
                attempted, failed, raw = attempted + a, failed + f, raw + r
                if time.perf_counter() >= deadline:
                    break
            latencies = clock.scaled
            values = {
                "setup_s": statistics.median(setups),
                "op_p50_ms": statistics.median(latencies) * 1000,
                "ops_per_s": len(latencies) / sum(latencies),
                "peak_rss_mb": _peak_rss_mb(workload.rss_of_children),
                "store_bytes_per_triple": workload.store_bytes_per_triple(),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            print(f"{name} unscaled: op_p50_ms = {statistics.median(raw) * 1000:.6g}, "
                  f"mean op = {statistics.fmean(raw) * 1000:.6g} ms, reference loop median = "
                  f"{statistics.median(clock.samples) * 1000:.6g} ms", file=log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "verify", "recall", "cold_cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ontomem" / "cli.py").is_file():
        print(f"error: no ontomem sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SetupError

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
