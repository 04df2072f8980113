"""One tiny round of each benchmark workload (`bench/workloads.py`), with
every operation passing its own check: a change in what the benchmark
imports from `ontomem`, or in what its checks expect, fails here rather than
only when the benchmark runs."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
NAMES = ("ingest", "verify", "recall", "cold_cli")


@pytest.mark.parametrize("name", NAMES)
def test_one_tiny_round_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    assert set(WORKLOADS) == set(NAMES)
    workload = WORKLOADS[name](3, 0.1)
    workload.setup(tmp_path / name)
    operations = workload.round()
    assert operations
    for run, check in operations:
        assert check(run()) is None
