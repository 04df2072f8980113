"""Spans around the public functions of each `ontomem` layer, recorded from
the benchmark's own files.

`install` swaps each traced function for a wrapper that records a span (name,
start, end, parent) plus a few counts, and `uninstall` puts the originals
back. A function imported by name into another module (such as `materialize`
in `builder`, `factcheck` and `toolbus`) is swapped in every module that holds
it. Spans stay in memory; `layer_metrics` turns them into the per-layer
metrics once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (module, attribute, span name)
TARGETS = (
    ("rdf_core", "Graph.copy", "rdf_core.Graph.copy"),
    ("turtle_io", "parse_turtle", "turtle_io.parse_turtle"),
    ("turtle_io", "serialize_turtle", "turtle_io.serialize_turtle"),
    ("reasoner", "materialize", "reasoner.materialize"),
    ("reasoner", "check_consistency", "reasoner.check_consistency"),
    ("shacl", "validate", "shacl.validate"),
    ("sparql", "parse_query", "sparql.parse_query"),
    ("sparql", "evaluate", "sparql.evaluate"),
    ("builder", "ingest", "builder.ingest"),
    ("builder", "RulePatternExtractor.extract", "builder.extract"),
    ("builder", "normalize", "builder.normalize"),
    ("builder", "construct_triples", "builder.construct_triples"),
    ("builder", "validate_gate", "builder.validate_gate"),
    ("factcheck", "check_claim", "factcheck.check_claim"),
    ("fusion", "embed", "fusion.embed"),
    ("fusion", "vector_search", "fusion.vector_search"),
    ("fusion", "graph_retrieve", "fusion.graph_retrieve"),
    ("fusion", "fuse", "fusion.fuse"),
    ("store", "load_store", "store.load_store"),
    ("store", "save_commit", "store.save_commit"),
    ("toolbus", "ToolBus.dispatch_line", "toolbus.dispatch_line"),
    ("toolbus", "svc_check", "toolbus.svc_check"),
    ("toolbus", "svc_retrieve", "toolbus.svc_retrieve"),
    ("toolbus", "svc_query", "toolbus.svc_query"),
)

SVC = ("toolbus.svc_check", "toolbus.svc_retrieve", "toolbus.svc_query")


def _wchar() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


def _count(span: dict, args: tuple, result) -> None:
    """Per-layer counts, taken from the arguments and results of a call."""
    name = span["name"]
    if name == "turtle_io.parse_turtle":
        span["bytes"] = len(args[0].encode("utf-8"))
    elif name == "turtle_io.serialize_turtle":
        span["bytes"] = len(result.encode("utf-8"))
    elif name == "reasoner.materialize":
        graph = result[0] if isinstance(result, tuple) else result
        span["triples_in"] = len(args[0])
        span["inferred"] = len(graph) - len(args[0])
    elif name == "builder.validate_gate":
        span["quarantined"] = len(result.quarantined)
    elif name == "sparql.evaluate":
        span["rows"] = len(result.bindings)
    elif name == "store.save_commit":
        span["write_bytes"] = _wchar() - span.pop("wchar0")
        span["new_triples"] = len(args[1].accepted)
        span["delta_bytes"] = result.stat().st_size if result is not None else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            if name == "store.save_commit":
                span["wchar0"] = _wchar()
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            _count(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"ontomem.{m}") for m in
                   ("rdf_core", "turtle_io", "reasoner", "shacl", "sparql", "builder",
                    "factcheck", "fusion", "store", "toolbus", "cli")]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"ontomem.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def cli_import_seconds(src: Path, runs: int = 3) -> list[float]:
    """Time to import `ontomem.cli` in a fresh interpreter, once per run."""
    code = ("import time; t = time.perf_counter(); import ontomem.cli; "
            "print(time.perf_counter() - t)")
    env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def _has_ancestor(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans: list[dict], ops: int, import_s: list[float]) -> dict[str, float]:
    """Per-layer metrics, each per workload operation unless it is a ratio.

    `.s` is a span's whole duration; `.self_s` leaves out the time covered by
    its traced children.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    sums: dict[tuple[str, str], float] = {}
    for span in spans:
        name, dur = span["name"], span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            own[parent] = own.get(parent, 0.0) - dur
        for key in ("bytes", "triples_in", "inferred", "quarantined", "rows", "write_bytes",
                    "new_triples", "delta_bytes"):
            if key in span:
                sums[(name, key)] = sums.get((name, key), 0) + span[key]

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def nested(child: str, parent: str) -> int:
        return sum(1 for s in spans if s["name"] == child and _has_ancestor(spans, s, parent))

    m: dict[str, float] = {}
    for name in ("reasoner.materialize", "reasoner.check_consistency", "rdf_core.Graph.copy",
                 "shacl.validate", "factcheck.check_claim", "fusion.embed"):
        m[f"{name}.calls"] = per_op(calls.get(name, 0))
    for _module, _attr, name in TARGETS:
        m[f"{name}.s"] = per_op(total.get(name, 0.0))
    for name in ("reasoner.materialize", "builder.validate_gate", "factcheck.check_claim",
                 "store.save_commit", "store.load_store", "toolbus.svc_retrieve"):
        m[f"{name}.self_s"] = per_op(own.get(name, 0.0))
    m["reasoner.materialize.triples_in"] = per_op(sums.get(("reasoner.materialize", "triples_in"), 0))
    m["reasoner.materialize.calls_per_claim"] = ratio(
        nested("reasoner.materialize", "factcheck.check_claim"), calls.get("factcheck.check_claim", 0))
    m["reasoner.rederived_per_new_triple"] = ratio(
        sums.get(("reasoner.materialize", "inferred"), 0), sums.get(("store.save_commit", "new_triples"), 0))
    m["builder.validate_gate.materialize_per_call"] = ratio(
        nested("reasoner.materialize", "builder.validate_gate"), calls.get("builder.validate_gate", 0))
    m["builder.validate_gate.quarantined"] = per_op(sums.get(("builder.validate_gate", "quarantined"), 0))
    m["turtle_io.parse_turtle.bytes"] = per_op(sums.get(("turtle_io.parse_turtle", "bytes"), 0))
    m["turtle_io.serialize_turtle.bytes"] = per_op(sums.get(("turtle_io.serialize_turtle", "bytes"), 0))
    m["store.save_commit.write_bytes"] = per_op(sums.get(("store.save_commit", "write_bytes"), 0))
    m["store.write_amplification"] = ratio(sums.get(("store.save_commit", "write_bytes"), 0),
                                           sums.get(("store.save_commit", "delta_bytes"), 0))
    m["sparql.evaluate.rows"] = per_op(sums.get(("sparql.evaluate", "rows"), 0))
    m["fusion.embed_per_retrieve"] = ratio(nested("fusion.embed", "toolbus.svc_retrieve"),
                                           calls.get("toolbus.svc_retrieve", 0))
    served = sum(s["end"] - s["start"] for s in spans
                 if s["name"] in SVC and _has_ancestor(spans, s, "toolbus.dispatch_line"))
    m["toolbus.overhead_s"] = per_op(total.get("toolbus.dispatch_line", 0.0) - served)
    m["cli.import_s"] = statistics.median(import_s)
    return m
