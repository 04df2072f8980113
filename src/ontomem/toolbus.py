"""JSON-RPC 2.0 tool surface over line-delimited stdio or TCP.

This is not a full MCP implementation: no capability negotiation, sessions,
or resource subscriptions. It adopts the JSON-RPC substrate and a tools.list
catalog so external callers can drive the engine's operations. Every method
returns the same structure as the matching CLI subcommand with --json.

`_METHODS` declares each method once: its params' catalog text, type and
default. `tools.list` is rendered from it, and each request is checked against it.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from typing import Any, Callable

from .factcheck import (
    Claim,
    ConditionInconsistencyError,
    check_answer,
    parse_claims,
)
from .fusion import (
    FusionConfigError,
    fuse,
    graph_retrieve,
    vector_search,
)
from .builder import AmbiguousAlias
from .hanoi import MAX_BENCH_DISKS, run_benchmark
from .rdf_core import Iri, Origin, StructuralError, Term, Triple, parse_term_text, triple_key, triple_text
from .reasoner import close
from .shacl import ShapeError, validate
from .sparql import EvaluationLimitError, QueryParseError, evaluate, parse_query
from .store import StoreHandle, graph_at_version, load_shapes_file, read_version
from .turtle_io import TurtleParseError

PARSE_OR_REQUEST_ERROR = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32000

# Longest request line a TCP session may send, newline excluded.
MAX_REQUEST_BYTES = 1 << 20

# Most moves a bench.hanoi.run request may make, estimated before it runs.
MAX_BENCH_MOVES = 1 << 22


class ParamError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Service layer: one function per tool, shared verbatim with the CLI
# ---------------------------------------------------------------------------


def svc_query(handle: StoreHandle, query_text: str) -> dict:
    query = parse_query(query_text)
    return evaluate(query, handle.store.trusted).to_json()


def svc_validate(handle: StoreHandle, shapes_file: str | None) -> dict:
    """Structural validation of the materialized trusted graph. A shapes file
    with unknown sh: terms adds their `warnings` to the report."""
    warnings: list[str] = []
    shapes = load_shapes_file(shapes_file, warnings) if shapes_file else handle.store.shapes
    report = validate(handle.closure().graph, shapes).to_json()
    if warnings:
        report["warnings"] = warnings
    return report


def svc_logic_check(handle: StoreHandle) -> dict:
    conflicts = handle.closure().conflicts
    return {"consistent": not conflicts, "conflicts": [c.to_json() for c in conflicts]}


def svc_diff(handle: StoreHandle, v1: int, v2: int, include_inferred: bool) -> dict:
    """Triples added and removed from version v1 to v2. The deltas only add, so
    all that differs is what the deltas above the lower version add that it
    lacks, and with `include_inferred` what they infer beyond its closure: the
    delta of its `close` extended by them (`Closure.extend`). Each version
    must be from 0 to the committed one."""
    if min(v1, v2) < 0:
        raise ParamError("versions must be >= 0")
    if max(v1, v2) > handle.store.version:
        raise ParamError(f"versions must be <= {handle.store.version}, the committed version")
    lo, hi = sorted((v1, v2))
    g_lo = graph_at_version(handle.root, lo)
    new = graph_at_version(handle.root, hi, since=lo).find()
    if include_inferred:
        changed = close(g_lo).extend(new).graph.delta.find()
    else:
        changed = [t for t in new if t not in g_lo]
    changed = sorted(map(triple_text, changed))
    added, removed = (changed, []) if v1 <= v2 else ([], changed)
    return {"from_version": v1, "to_version": v2, "added": added,
            "removed": removed, "include_inferred": include_inferred}


def svc_check(handle: StoreHandle, claims: list[Claim], diagnostics: list[str]) -> dict:
    overall, verdicts = check_answer(claims, handle.store.trusted, handle.closure())
    return {
        "overall": overall.value,
        "verdicts": [v.to_json() for v in verdicts],
        "diagnostics": diagnostics,
    }


def svc_retrieve(handle: StoreHandle, query: str, seeds: list[str] | None,
                 radius: int, k: int, budget: int, session: str | None) -> dict:
    hits = vector_search(handle.log_memory(), query, k)

    seed_terms = _seed_terms(handle, query, seeds)
    facts = graph_retrieve(handle.store.trusted, seed_terms, radius)

    user_memory = session_memory(handle, session) if session else []
    return fuse(hits, facts, [], user_memory, budget=budget).to_json()


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
    trusted = handle.store.trusted
    return sorted((t for t, records in handle.store.provenance.items()
                   if t in trusted and any(p.origin is Origin.DIALOGUE and p.source_id == session_id
                                           for p in records)), key=triple_key)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _is(value: Any, kind: type) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


_REQUIRED = object()


def _checked(params: dict, spec: dict) -> dict:
    """Each param of `spec`, in its order: the request's value, checked to be of
    its type (with an item type, a list of such items), or else the default."""
    args = {}
    for key, (_, kind, item, default) in spec.items():
        args[key] = value = params.get(key, default)
        if value is _REQUIRED:
            raise ParamError(f"missing required param {key!r}")
        if key in params and (not _is(value, kind) or (item and not all(_is(v, item) for v in value))):
            what = kind.__name__ if item is None else f"a list of {item.__name__}"
            raise ParamError(f"param {key!r} must be {what}")
    return args


# Method handlers: each runs on the handle its request captured, with the
# params `_checked` against its entry in `_METHODS`.


def _tools_list(handle: StoreHandle, args: dict) -> dict:
    return {"tools": TOOL_CATALOG}


def _graph_query(handle: StoreHandle, args: dict) -> dict:
    try:
        return svc_query(handle, args["query"])
    except (QueryParseError, EvaluationLimitError) as e:
        raise ParamError(str(e)) from e


def _graph_validate(handle: StoreHandle, args: dict) -> dict:
    try:
        return svc_validate(handle, args["shapes_file"])
    except (OSError, UnicodeDecodeError) as e:
        raise ParamError(f"cannot read shapes file: {e}") from e
    except (ShapeError, TurtleParseError) as e:
        raise ParamError(str(e)) from e


def _graph_diff(handle: StoreHandle, args: dict) -> dict:
    return svc_diff(handle, args["from_version"], args["to_version"], args["include_inferred"])


def _fact_check(handle: StoreHandle, args: dict) -> dict:
    if args["claims_file"] is not None:
        try:
            with open(args["claims_file"], encoding="utf-8") as fh:
                parsed = parse_claims(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            raise ParamError(f"cannot read claims file: {e}") from e
    elif args["claims"] is None:
        raise ParamError("missing required param 'claims'")
    else:
        parsed = parse_claims("\n".join(json.dumps(obj) for obj in args["claims"]))
    if not parsed.claims:
        raise ParamError("no valid claims supplied")
    return svc_check(handle, parsed.claims, parsed.diagnostics)


def _memory_retrieve(handle: StoreHandle, args: dict) -> dict:
    try:
        return svc_retrieve(handle, **args)
    except (FusionConfigError, StructuralError) as e:
        raise ParamError(str(e)) from e


def _bench(handle: StoreHandle, args: dict) -> dict:
    # a transcript proposer reads a file that the caller names
    if any(spec.startswith("transcript:") for spec in args["proposers"]):
        raise ParamError("transcript proposers are not served over the bus")
    # No proposal holds more than 2^(n+1) moves and an episode makes at most
    # one per round; capping n keeps an out-of-range count from building a
    # huge integer before run_benchmark rejects it.
    per_episode = sum((r + 1) * 2 ** (min(n, MAX_BENCH_DISKS) + 1)
                      for n in args["disks"] for r in args["repairs"])
    moves = len(args["proposers"]) * args["episodes"] * per_episode
    if moves > MAX_BENCH_MOVES:
        raise ParamError(f"request may make up to {moves} moves; the bus allows {MAX_BENCH_MOVES}")
    try:
        return run_benchmark(**args)
    except (ValueError, TypeError) as e:
        raise ParamError(str(e)) from e


# name: (description, {param: (catalog text, type, item type of a list, default)},
# handler). A param without a default is required. Params are checked in the
# order given, so a request gets the error of the first bad one.
_METHODS: dict[str, tuple[str, dict[str, tuple], Callable[[StoreHandle, dict], dict]]] = {
    "graph.query": ("Evaluate a SPARQL-subset SELECT or ASK query over the trusted graph", {
        "query": ("SPARQL text", str, None, _REQUIRED),
    }, _graph_query),
    "graph.validate": ("Validate the materialized trusted graph against SHACL-subset shapes", {
        "shapes_file": ("path to a shapes .ttl (optional when the store has shapes)", str, None, None),
    }, _graph_validate),
    "graph.diff": ("Diff the graphs at two committed versions", {
        "from_version": ("integer", int, None, _REQUIRED),
        "to_version": ("integer", int, None, _REQUIRED),
        "include_inferred": ("boolean (optional): diff the materialized graphs", bool, None, False),
    }, _graph_diff),
    # a claims_file replaces claims; without one, claims is required
    "fact.check": ("Check structured claims against the trusted graph", {
        "claims_file": ("path to claims JSONL (alternative)", str, None, None),
        "claims": ("list of claim objects", list, None, None),
    }, _fact_check),
    "memory.retrieve": ("Composite-context retrieval across vector, graph, tool, and user channels", {
        "query": ("text", str, None, _REQUIRED),
        "seeds": ("list of term texts (optional)", list, str, None),
        "radius": ("0-4", int, None, 1),
        "k": ("vector hits", int, None, 5),
        "budget": ("fused size", int, None, 10),
        "session": ("session id (optional)", str, None, None),
    }, _memory_retrieve),
    "bench.hanoi.run": ("Run the Tower of Hanoi propose/check/repair benchmark", {
        "disks": ("list of ints", list, int, [3]),
        "proposers": ("list of proposer specs", list, str, ["optimal"]),
        "episodes": ("int", int, None, 10),
        "repairs": ("list of ints", list, int, [0]),
        "seed": ("int", int, None, 0),
        "move_level": ("boolean (optional): propose one step at a time", bool, None, False),
    }, _bench),
    "tools.list": ("This catalog", {}, _tools_list),
}

TOOL_CATALOG = [{"name": name, "description": description,
                 "params": {key: param[0] for key, param in spec.items()}}
                for name, (description, spec, _) in _METHODS.items()]


class ToolBus:
    """Dispatches JSON-RPC requests to the handlers over one store.

    Each request first reads the store's `version` file. When it differs from
    the value this bus last saw, a `build` has committed since: the bus loads
    the store again and swaps in the new handle, carrying the log memory over.
    Every request runs on the handle it captured at its start, so one already
    running finishes on the old snapshot. An in-memory commit that was never
    saved leaves the file unchanged, so it is never reloaded away."""

    def __init__(self, handle: StoreHandle):
        self.handle = handle
        self._seen_version = read_version(handle.root)
        self._reload_lock = threading.Lock()

    def _current_handle(self) -> StoreHandle:
        version = read_version(self.handle.root)
        if version != self._seen_version:
            with self._reload_lock:
                if version != self._seen_version:
                    handle = self.handle.reloaded()
                    self.handle, self._seen_version = handle, handle.store.version
        return self.handle

    # -- JSON-RPC plumbing -----------------------------------------------------

    def dispatch_line(self, line: str) -> str | None:
        """The response line to one request line; None for a notification or
        a blank line."""
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            return json.dumps(_error_response(None, PARSE_OR_REQUEST_ERROR, "malformed request"))
        response = self.dispatch(request)
        if response is None:
            return None
        text = json.dumps(response, sort_keys=True, ensure_ascii=False)
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which only its escape can carry
            return json.dumps(response, sort_keys=True)
        return text

    def dispatch(self, request: Any) -> dict | None:
        if not isinstance(request, dict) or request.get("jsonrpc") != "2.0" \
                or not isinstance(request.get("method"), str) or not request.get("method"):
            req_id = request.get("id") if isinstance(request, dict) else None
            return _error_response(req_id, PARSE_OR_REQUEST_ERROR, "malformed request")
        req_id = request.get("id")
        method = request["method"]
        params = request.get("params", {})
        entry = _METHODS.get(method)
        if not isinstance(params, dict):
            response = _error_response(req_id, INVALID_PARAMS, "params must be an object")
        elif entry is None:
            response = _error_response(req_id, METHOD_NOT_FOUND, f"method not found: {method}")
        else:
            _, spec, handler = entry
            try:
                result = handler(self._current_handle(), _checked(params, spec))
                response = {"jsonrpc": "2.0", "id": req_id, "result": result}
            except ParamError as e:
                response = _error_response(req_id, INVALID_PARAMS, str(e))
            except ConditionInconsistencyError as e:
                response = _error_response(req_id, INTERNAL_ERROR, str(e))
            except Exception as e:
                # sanitized: class name and message only, no traceback; an OSError's
                # message can name a path on the server, so its strerror stands in
                name = type(e).__name__
                if isinstance(e, OSError):
                    message = f"{name}: {e.strerror}" if e.strerror else name
                else:
                    message = f"{name}: {e}"
                response = _error_response(req_id, INTERNAL_ERROR, message)
        # a notification (no id, or a null one) gets no response (JSON-RPC 2.0, section 4.1)
        return None if req_id is None else response


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
                while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
                    if len(raw) > MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                        error = _error_response(None, PARSE_OR_REQUEST_ERROR,
                                                f"request line exceeds {MAX_REQUEST_BYTES} bytes")
                        self.wfile.write(json.dumps(error).encode("utf-8") + b"\n")
                        return  # the rest of the line cannot be framed: end the session
                    try:
                        line = raw.decode("utf-8")
                    except UnicodeDecodeError:  # not UTF-8: malformed, as on stdio
                        response = json.dumps(_error_response(None, PARSE_OR_REQUEST_ERROR,
                                                              "malformed request"))
                    else:
                        response = bus.dispatch_line(line)
                    if response is not None:
                        self.wfile.write(response.encode("utf-8") + b"\n")
                        self.wfile.flush()
            except ConnectionError:
                return  # transport failure ends the session, not the server

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        if ready_callback is not None:
            ready_callback(server)
        server.serve_forever()
