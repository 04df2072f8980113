"""The traced benchmark (`bench/run.py --trace 1`) wraps `ontomem` functions
by name, from the `TARGETS` table of `bench/spans.py`; an untraced run never
reads that table, so a rename in `src/` must be caught here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    assert spans.TARGETS
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"ontomem.{module_name}")
        if "." in attr:  # a method, looked up as `Tracer.install` does
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name)).get(method)
        else:
            target = getattr(module, attr, None)
        assert callable(target), (module_name, attr)
