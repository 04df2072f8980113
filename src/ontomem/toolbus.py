"""JSON-RPC 2.0 tool surface over line-delimited stdio or TCP.

This is not a full MCP implementation: no capability negotiation, sessions,
or resource subscriptions. It adopts the JSON-RPC substrate and a tools.list
catalog so external callers can drive the engine's operations. Every method
returns the same structure as the matching CLI subcommand with --json.
"""

from __future__ import annotations

import json
import socketserver
import sys
from typing import Any, Callable

from .factcheck import (
    Claim,
    ConditionInconsistencyError,
    check_answer,
    parse_claims,
)
from .fusion import (
    ContextBundle,
    FusionConfigError,
    VectorStore,
    fuse,
    graph_retrieve,
    vector_search,
)
from .builder import AmbiguousAlias
from .hanoi import run_benchmark
from .rdf_core import Iri, Origin, StructuralError, Term, Triple, parse_term_text, triple_text
from .reasoner import check_consistency, materialize
from .shacl import validate
from .sparql import EvaluationLimitError, QueryParseError, evaluate, parse_query
from .store import StoreHandle, graph_at_version, load_log_entries, load_shapes_file

PARSE_OR_REQUEST_ERROR = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32000


class ParamError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Service layer: one function per tool, shared verbatim with the CLI
# ---------------------------------------------------------------------------


def svc_query(handle: StoreHandle, query_text: str) -> dict:
    query = parse_query(query_text)
    return evaluate(query, handle.store.trusted).to_json()


def svc_validate(handle: StoreHandle, shapes_file: str | None) -> dict:
    """Structural validation of the materialized trusted graph."""
    shapes = load_shapes_file(shapes_file) if shapes_file else handle.store.shapes
    report = validate(materialize(handle.store.trusted), shapes)
    return report.to_json()


def svc_logic_check(handle: StoreHandle) -> dict:
    conflicts = check_consistency(materialize(handle.store.trusted))
    return {"consistent": not conflicts, "conflicts": [c.to_json() for c in conflicts]}


def svc_diff(handle: StoreHandle, v1: int, v2: int, include_inferred: bool = False) -> dict:
    g1 = graph_at_version(handle.root, v1)
    g2 = graph_at_version(handle.root, v2)
    if include_inferred:
        g1, g2 = materialize(g1), materialize(g2)
    added, removed = _diff_texts(g1, g2)
    return {"from_version": v1, "to_version": v2, "added": added, "removed": removed,
            "include_inferred": include_inferred}


def _diff_texts(g1, g2) -> tuple[list[str], list[str]]:
    from .rdf_core import diff
    added, removed = diff(g1, g2)
    return (sorted(triple_text(t) for t in added), sorted(triple_text(t) for t in removed))


def svc_check(handle: StoreHandle, claims: list[Claim], diagnostics: list[str] | None = None) -> dict:
    overall, verdicts = check_answer(claims, handle.store.trusted)
    return {
        "overall": overall.value,
        "verdicts": [v.to_json() for v in verdicts],
        "diagnostics": diagnostics or [],
    }


def svc_retrieve(handle: StoreHandle, query: str, seeds: list[str] | None = None,
                 radius: int = 1, k: int = 5, budget: int = 10,
                 session: str | None = None) -> dict:
    bundle = retrieve_bundle(handle, query, seeds, radius, k, budget, session)
    return bundle.to_json()


def retrieve_bundle(handle: StoreHandle, query: str, seeds: list[str] | None,
                    radius: int, k: int, budget: int, session: str | None) -> ContextBundle:
    trusted = handle.store.trusted

    vstore = VectorStore(dimension=handle.dimension)
    for entry_id, payload in load_log_entries(handle.root):
        vstore.add(entry_id, payload)
    hits = vector_search(vstore, query, k) if len(vstore) else []

    seed_terms = _seed_terms(handle, query, seeds)
    facts = graph_retrieve(trusted, seed_terms, radius)

    user_memory = session_memory(handle, session) if session else []
    return fuse(hits, facts, [], user_memory, handle.weights, budget)


def _seed_terms(handle: StoreHandle, query: str, seeds: list[str] | None) -> list[Term]:
    if seeds:
        return [parse_term_text(s) for s in seeds]
    # No explicit seeds: match query tokens against registry aliases.
    registry = handle.store.registry
    terms: list[Term] = []
    candidates = set(query.split()) | {query.strip()}
    for mention in sorted(candidates):
        if not mention:
            continue
        try:
            iri = registry.resolve(mention)
        except AmbiguousAlias:
            continue
        if iri is not None:
            terms.append(Iri(iri))
    return terms


def session_memory(handle: StoreHandle, session_id: str) -> list[Triple]:
    """Per-session user memory: trusted triples whose provenance is DIALOGUE
    under the session's source id."""
    out = []
    trusted = handle.store.trusted
    for t in trusted:
        for p in trusted.provenance(t):
            if p.origin is Origin.DIALOGUE and p.source_id == session_id:
                out.append(t)
                break
    return out


def svc_bench(params: dict) -> dict:
    return run_benchmark(
        disk_counts=params.get("disks", [3]),
        proposer_specs=params.get("proposers", ["optimal"]),
        episodes=params.get("episodes", 10),
        repair_budgets=params.get("repairs", [0]),
        base_seed=params.get("seed", 0),
        move_level=params.get("move_level", False),
    )


TOOL_CATALOG = [
    {
        "name": "graph.query",
        "description": "Evaluate a SPARQL-subset SELECT or ASK query over the trusted graph",
        "params": {"query": "SPARQL text"},
    },
    {
        "name": "graph.validate",
        "description": "Validate the materialized trusted graph against SHACL-subset shapes",
        "params": {"shapes_file": "path to a shapes .ttl (optional when the store has shapes)"},
    },
    {
        "name": "graph.diff",
        "description": "Diff the graphs at two committed versions",
        "params": {"from_version": "integer", "to_version": "integer"},
    },
    {
        "name": "fact.check",
        "description": "Check structured claims against the trusted graph",
        "params": {"claims": "list of claim objects", "claims_file": "path to claims JSONL (alternative)"},
    },
    {
        "name": "memory.retrieve",
        "description": "Composite-context retrieval across vector, graph, tool, and user channels",
        "params": {"query": "text", "seeds": "list of term texts (optional)", "radius": "0-4",
                   "k": "vector hits", "budget": "fused size", "session": "session id (optional)"},
    },
    {
        "name": "bench.hanoi.run",
        "description": "Run the Tower of Hanoi propose/check/repair benchmark",
        "params": {"disks": "list of ints", "proposers": "list of proposer specs",
                   "episodes": "int", "repairs": "list of ints", "seed": "int"},
    },
    {
        "name": "tools.list",
        "description": "This catalog",
        "params": {},
    },
]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _is(value: Any, kind: type) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _require(params: dict, key: str, kind: type, item: type | None = None) -> Any:
    """`params[key]` checked to be a `kind`; with `item`, a list of `item`s."""
    if key not in params:
        raise ParamError(f"missing required param {key!r}")
    value = params[key]
    if not _is(value, kind) or (item is not None and not all(_is(v, item) for v in value)):
        what = kind.__name__ if item is None else f"a list of {item.__name__}"
        raise ParamError(f"param {key!r} must be {what}")
    return value


def _optional(params: dict, key: str, kind: type, default: Any, item: type | None = None) -> Any:
    return _require(params, key, kind, item) if key in params else default


class ToolBus:
    def __init__(self, handle: StoreHandle):
        self.handle = handle

    # -- method handlers ------------------------------------------------------

    def _tools_list(self, params: dict) -> dict:
        return {"tools": TOOL_CATALOG}

    def _graph_query(self, params: dict) -> dict:
        text = _require(params, "query", str)
        try:
            return svc_query(self.handle, text)
        except (QueryParseError, EvaluationLimitError) as e:
            raise ParamError(str(e)) from e

    def _graph_validate(self, params: dict) -> dict:
        shapes_file = params.get("shapes_file")
        if shapes_file is not None and not isinstance(shapes_file, str):
            raise ParamError("param 'shapes_file' must be str")
        return svc_validate(self.handle, shapes_file)

    def _graph_diff(self, params: dict) -> dict:
        v1 = _require(params, "from_version", int)
        v2 = _require(params, "to_version", int)
        return svc_diff(self.handle, v1, v2, _optional(params, "include_inferred", bool, False))

    def _fact_check(self, params: dict) -> dict:
        diagnostics: list[str] = []
        if "claims_file" in params:
            path = _require(params, "claims_file", str)
            try:
                with open(path, encoding="utf-8") as fh:
                    parsed = parse_claims(fh.read())
            except OSError as e:
                raise ParamError(f"cannot read claims file: {e}") from e
            claims, diagnostics = parsed.claims, parsed.diagnostics
        else:
            raw = _require(params, "claims", list)
            parsed = parse_claims("\n".join(json.dumps(obj) for obj in raw))
            claims, diagnostics = parsed.claims, parsed.diagnostics
        if not claims:
            raise ParamError("no valid claims supplied")
        return svc_check(self.handle, claims, diagnostics)

    def _memory_retrieve(self, params: dict) -> dict:
        query = _require(params, "query", str)
        seeds = _optional(params, "seeds", list, None, str)
        try:
            return svc_retrieve(
                self.handle, query, seeds,
                radius=_optional(params, "radius", int, 1),
                k=_optional(params, "k", int, 5),
                budget=_optional(params, "budget", int, 10),
                session=_optional(params, "session", str, None),
            )
        except (FusionConfigError, StructuralError) as e:
            raise ParamError(str(e)) from e

    def _bench(self, params: dict) -> dict:
        for key, kind, item in (("disks", list, int), ("proposers", list, str),
                                ("episodes", int, None), ("repairs", list, int),
                                ("seed", int, None), ("move_level", bool, None)):
            _optional(params, key, kind, None, item)
        try:
            return svc_bench(params)
        except (ValueError, TypeError) as e:
            raise ParamError(str(e)) from e

    # Plain functions, called as handler(self, params): bound methods stored
    # on the instance would make every bus a reference cycle that keeps its
    # store alive until a full garbage collection.
    _METHODS: dict[str, Callable[[ToolBus, dict], Any]] = {
        "tools.list": _tools_list,
        "graph.query": _graph_query,
        "graph.validate": _graph_validate,
        "graph.diff": _graph_diff,
        "fact.check": _fact_check,
        "memory.retrieve": _memory_retrieve,
        "bench.hanoi.run": _bench,
    }

    # -- JSON-RPC plumbing -----------------------------------------------------

    def dispatch_line(self, line: str) -> str | None:
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            return json.dumps(_error_response(None, PARSE_OR_REQUEST_ERROR, "malformed request"))
        response = self.dispatch(request)
        return json.dumps(response, sort_keys=True, ensure_ascii=False) if response is not None else None

    def dispatch(self, request: Any) -> dict | None:
        if not isinstance(request, dict) or request.get("jsonrpc") != "2.0" \
                or not isinstance(request.get("method"), str) or not request.get("method"):
            req_id = request.get("id") if isinstance(request, dict) else None
            return _error_response(req_id, PARSE_OR_REQUEST_ERROR, "malformed request")
        req_id = request.get("id")
        is_notification = req_id is None
        method = request["method"]
        params = request.get("params", {})
        if not isinstance(params, dict):
            return None if is_notification else _error_response(
                req_id, INVALID_PARAMS, "params must be an object")

        handler = self._METHODS.get(method)
        if handler is None:
            return None if is_notification else _error_response(
                req_id, METHOD_NOT_FOUND, f"method not found: {method}")
        try:
            result = handler(self, params)
        except ParamError as e:
            return None if is_notification else _error_response(req_id, INVALID_PARAMS, str(e))
        except ConditionInconsistencyError as e:
            return None if is_notification else _error_response(req_id, INTERNAL_ERROR, str(e))
        except Exception as e:
            # sanitized: class name and message only, no traceback
            return None if is_notification else _error_response(
                req_id, INTERNAL_ERROR, f"{type(e).__name__}: {e}")
        return None if is_notification else {"jsonrpc": "2.0", "id": req_id, "result": result}


def _error_response(req_id: Any, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": req_id, "error": {"code": code, "message": message}}


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


def serve_stdio(handle: StoreHandle, stdin=None, stdout=None) -> None:
    bus = ToolBus(handle)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        response = bus.dispatch_line(line)
        if response is not None:
            stdout.write(response + "\n")
            stdout.flush()


def serve_tcp(handle: StoreHandle, port: int, host: str = "127.0.0.1",
              ready_callback=None) -> None:
    bus = ToolBus(handle)

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            try:
                for raw in self.rfile:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    response = bus.dispatch_line(line)
                    if response is not None:
                        self.wfile.write(response.encode("utf-8") + b"\n")
                        self.wfile.flush()
            except (ConnectionError, UnicodeDecodeError):
                return  # transport failure ends the session, not the server

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        if ready_callback is not None:
            ready_callback(server)
        server.serve_forever()
