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


def test_traced_verify_round_materializes_no_claim(tmp_path, monkeypatch):
    """A claim, with conditions or without, extends the bus's cached closure:
    the only `materialize` of a traced round is the one that fills the cache."""
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS["verify"](3, 0.1)
    workload.setup(tmp_path / "verify")
    operations = workload.round()
    tracer = Tracer()
    tracer.install()
    try:
        for run, check in operations:
            assert check(run()) is None
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, len(operations), [0.0])
    assert metrics["factcheck.check_claim.calls"] * len(operations) == 16
    assert metrics["reasoner.materialize.calls_per_claim"] == 0
    assert metrics["reasoner.materialize.calls"] * len(operations) == 1
