"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, with every check passing; then one deliberately wrong expected answer
per workload, which must show up as a failed operation.

    python3 bench/selftest.py

Exits 0 when all of it holds. Takes about half a minute.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys

import run

TINY = 0.1
SEED = 3
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def corrupt(workload) -> None:
    """Make one expected answer of the coming round wrong."""
    if workload.name == "ingest":
        workload.batch.clean.add("<urn:bench:absent> <urn:bench:absent> <urn:bench:absent> .")
    elif workload.name == "verify":
        claim, _ = workload.regulatory[0]
        workload.regulatory[0] = (claim, "NOT_FOUND")
    else:
        text, want = workload.queries[0]
        workload.queries[0] = (text, want + 1)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name in WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(name, SEED, 0, trace, scale=TINY)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} (trace={trace}) failed checks at tiny size: {result}")
            expect(set(result["metrics"]) == names,
                   f"{name} (trace={trace}) reports {sorted(set(result['metrics']) ^ names)} "
                   f"differently from BENCHMARK.json")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name} reports an end-to-end metric of 0: {result['metrics']}")
        print(f"selftest: {name}: checks pass, untraced and traced")

        work = run.ROOT / ".bench_work" / f"selftest-{name}-{os.getpid()}"
        try:
            workload = WORKLOADS[name](SEED, TINY)
            workload.setup(work)
            corrupt(workload)
            log = io.StringIO()
            attempted, failed, _ = run.attempt_round(workload, run.ReferenceClock(), log)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        expect(failed == 1, f"{name}: a wrong expected answer gave {failed} failed operations "
                            f"of {attempted}, not 1")
        print(f"selftest: {name}: a wrong expected answer fails its operation")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
